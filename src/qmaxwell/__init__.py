"""qmaxwell: local quantum equilibria on the torus.

Given a strictly positive periodic density n on [0,1], this package finds
the chemical potential A and the Gibbs density operator exp(-(H+A)),
H = -d^2/dx^2, whose local density is n; it also ships validators for the
operator inequalities underpinning that variational problem.
"""

from .errors import (
    BasisMismatch,
    BasisTooSmall,
    DensityFileError,
    DuplicatedEndpoint,
    MalformedRow,
    MaxIterExceeded,
    NonPositiveDensity,
    NonUniformGrid,
    NotPositiveSemidefinite,
    PotentialExprError,
    QMaxwellError,
    SingularDensityOperator,
    SolverError,
)
from .functionals import (
    FunctionalValue,
    InequalityReport,
    convexity_probe,
    dual_functional,
    dual_gradient,
    dual_hessian_apply,
    dual_hessian_matrix,
    eigenvalue_perturbation_check,
    entropy_lower_bound_ratio,
    free_energy,
    gateaux_entropy_derivative,
    gibbs_from_potential,
    log_sobolev_gap,
    penalized_free_energy,
    validate_lieb,
    validate_peierls,
)
from .io_cli import (
    cli_dispatch,
    parse_density_csv,
    parse_report,
    potential_from_expression,
    serialize_report,
    write_density_csv,
)
from .maxwellian_solver import (
    EpsilonSweepRow,
    HistoryEntry,
    SolveReport,
    SolverOptions,
    epsilon_sweep,
    euler_lagrange_residual,
    fourier_decay_diagnostic,
    reconstruct_potential_form,
    solve_maxwellian,
    solve_penalized,
)
from .spectral_core import (
    ChemicalPotential,
    DensityOperator,
    DensityProfile,
    SpectralBasis,
    SpectralDecomposition,
    assemble_hamiltonian_plus_potential,
    build_basis,
    density_of,
    energy_trace,
    entropy_trace,
    hs_norm,
    kernel_eval,
    matrix_entropy_function,
    sobolev_norm,
    symmetric_eigendecompose,
    trace_norm,
)

__version__ = "0.1.0"
