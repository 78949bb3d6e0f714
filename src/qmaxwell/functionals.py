"""Free energy, its penalized/regularized variants, the dual functional,
and validators for the exact operator inequalities used by the test suite.

The free energy of a density operator is

    F(rho) = Tr(rho log rho - rho) + Tr(sqrt(H) rho sqrt(H)),

and the concave dual of the density-constrained minimization is

    J(A) = -Tr exp(-(H+A)) - integral of A n dx,

whose gradient in A is exactly the constraint residual n[exp(-(H+A))] - n.

Gibbs states exp(-(H+A)) are evaluated in one place, :class:`GibbsState`,
which the dual, its derivatives, gibbs_from_potential and the solver share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    ChemicalPotential,
    DensityOperator,
    DensityProfile,
    SpectralBasis,
    _check_same_basis,
    _checked_clamped_spectrum,
    _multiplication_matrix,
    assemble_hamiltonian_plus_potential,
    density_of,
    energy_trace,
    entropy_trace,
    trace_norm,
)

__all__ = [
    "FunctionalValue",
    "InequalityReport",
    "GibbsState",
    "gibbs_from_potential",
    "free_energy",
    "penalized_free_energy",
    "dual_functional",
    "dual_gradient",
    "dual_hessian_apply",
    "dual_hessian_matrix",
    "gateaux_entropy_derivative",
    "validate_lieb",
    "validate_peierls",
    "entropy_lower_bound_ratio",
    "log_sobolev_gap",
    "convexity_probe",
    "eigenvalue_perturbation_check",
]

DEGENERACY_TOL = 1e-8
EXP_OVERFLOW_LIMIT = -float(np.log(np.finfo(float).max))  # exp(-lam) is inf below


@dataclass(frozen=True)
class FunctionalValue:
    entropy_term: float
    energy_term: float
    penalty_term: float
    total: float


def _functional_value(entropy, energy, penalty=0.0):
    return FunctionalValue(entropy_term=float(entropy), energy_term=float(energy),
                           penalty_term=float(penalty),
                           total=float(entropy + energy + penalty))


@dataclass(frozen=True)
class InequalityReport:
    """lhs/rhs of one inequality; the gap convention is stated per validator."""

    name: str
    lhs: float
    rhs: float
    gap: float
    holds: bool
    strict: bool | None = None
    diagnostic: bool = False


def free_energy(rho: DensityOperator) -> FunctionalValue:
    """F(rho) = Tr(rho log rho - rho) + Tr(sqrt(H) rho sqrt(H))."""
    return _functional_value(entropy_trace(rho, 0.0), energy_trace(rho))


def penalized_free_energy(rho: DensityOperator, n: DensityProfile,
                          epsilon: float, eta: float = 0.0) -> FunctionalValue:
    """F with beta_eta entropy plus the penalty (1/2 eps) ||n[rho] - n||_L2^2."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    _check_same_basis(rho.basis, n.basis)
    diff = density_of(rho) - n.values
    penalty = 0.5 / epsilon * rho.basis.quadrature(diff * diff)
    return _functional_value(entropy_trace(rho, eta), energy_trace(rho), penalty)


class GibbsState:
    """exp(-(H+A)) through the eigenpairs (lam, V) of H + A: ``weights`` =
    exp(-lam), eigenfunctions ``phi`` = V^T E on the grid, ``density``.

    Given a target n, also ``residual`` = n[rho] - n (the gradient of J),
    ``residual_l2``, ``grad_coeffs`` and ``objective`` = J(A).  Overflow is
    expected and silent: weights stay inf, gibbs_from_potential raises on
    them, and a line search reads a non-finite J and rejects the trial.
    """

    def __init__(self, A: ChemicalPotential, n: DensityProfile | None = None):
        basis = A.basis
        self.potential = A
        self.lam, self.V = np.linalg.eigh(assemble_hamiltonian_plus_potential(basis, A))
        self.phi = self.V.T @ basis.functions
        if n is not None:
            _check_same_basis(basis, n.basis)
        with np.errstate(over="ignore", invalid="ignore"):
            self.weights = np.exp(-self.lam)
            self.density = self.weights @ (self.phi * self.phi)
            if n is None:
                return
            self.residual = self.density - n.values
            self.residual_l2 = float(np.sqrt(basis.quadrature(self.residual**2)))
            self.grad_coeffs = basis.project(self.residual)
            coupling = basis.quadrature(A.on_grid() * n.values)
            self.objective = float(-np.sum(self.weights) - coupling)

    @property
    def matrix(self) -> np.ndarray:
        """Coefficient matrix V diag(weights) V^T, symmetrized."""
        m = (self.V * self.weights) @ self.V.T
        return 0.5 * (m + m.T)

    def operator_density(self, X) -> np.ndarray:
        """Grid density of the operator V X V^T, X given in the eigenbasis."""
        return np.sum(self.phi * (X @ self.phi), axis=0)


def gibbs_from_potential(basis: SpectralBasis, A: ChemicalPotential) -> DensityOperator:
    """rho = exp(-(H+A)); ValueError when exp(-lam) overflows (lam < -709.78)."""
    _check_same_basis(basis, A.basis)
    state = GibbsState(A)
    if not np.all(np.isfinite(state.weights)):
        raise ValueError(
            f"exp(-(H+A)) would overflow: the smallest eigenvalue of H+A is "
            f"{state.lam[0]:.6g}, below the overflow limit {EXP_OVERFLOW_LIMIT:.6g}")
    return DensityOperator(basis, state.matrix)


def dual_functional(A: ChemicalPotential, n: DensityProfile) -> float:
    """J(A) = -Tr exp(-(H+A)) - integral of A n dx; concave in A."""
    return GibbsState(A, n).objective


def dual_gradient(A: ChemicalPotential, n: DensityProfile) -> np.ndarray:
    """Gradient of J as a grid function: n[exp(-(H+A))] - n."""
    return GibbsState(A, n).residual


def _exp_divided_differences(lam):
    """Phi_pq = (exp(-l_p) - exp(-l_q)) / (l_q - l_p), midpoint value on clusters.

    The fallback exp(-(l_p+l_q)/2) avoids catastrophic cancellation on the
    degenerate cos/sin pairs that symmetric densities produce.
    """
    w = np.exp(-lam)
    dl = lam[:, None] - lam[None, :]
    tol = DEGENERACY_TOL * (1.0 + np.maximum(np.abs(lam)[:, None], np.abs(lam)[None, :]))
    separated = np.abs(dl) > tol
    denom = np.where(separated, -dl, 1.0)
    phi = np.where(separated, (w[:, None] - w[None, :]) / denom,
                   np.exp(-0.5 * (lam[:, None] + lam[None, :])))
    return phi


def dual_hessian_apply(A: ChemicalPotential, delta: ChemicalPotential) -> np.ndarray:
    """Directional derivative of A |-> n[exp(-(H+A))] along delta, on the grid.

    With H+A = V diag(lam) V^T and G the Galerkin matrix of delta, the
    operator response is -V (Phi o V^T G V) V^T where Phi carries the
    divided differences of exp(-s); the returned value is its density.
    """
    _check_same_basis(A.basis, delta.basis)
    state = GibbsState(A)
    G = _multiplication_matrix(A.basis, delta.on_grid())
    X = -_exp_divided_differences(state.lam) * (state.V.T @ G @ state.V)
    return state.operator_density(X)


def _hessian_from_spectrum(state: GibbsState) -> np.ndarray:
    """Coefficient-space Hessian of J at ``state``; symmetric negative semidefinite.

    H_qr = -sum_ij W_qij Phi_ij W_rij with W_qij = integral of e_q phi_i phi_j;
    W and H are one GEMM each over the grid.  Only active rows i
    (exp(-lam_i) > 0) enter: when both weights underflow, Phi_ij is exactly
    0 in either branch of _exp_divided_differences, and by symmetry each
    (active, inactive) pair counts twice.  The cost is O(k D^2 N) for k
    active states.
    """
    basis = state.potential.basis
    k = int(np.count_nonzero(state.weights))
    products = (state.phi[:k, None, :] * state.phi[None, :, :]).reshape(-1, basis.N)
    W = basis.functions @ products.T / basis.N
    coupling = _exp_divided_differences(state.lam)[:k]
    coupling[:, k:] *= 2.0
    H = -(W * coupling.ravel()) @ W.T
    return 0.5 * (H + H.T)


def dual_hessian_matrix(A: ChemicalPotential) -> np.ndarray:
    """D x D matrix of second derivatives of J in basis coefficients."""
    return _hessian_from_spectrum(GibbsState(A))


def gateaux_entropy_derivative(rho: DensityOperator, omega, eta: float) -> float:
    """Tr(log(rho + eta I) omega), the derivative of Tr beta_eta at rho along omega.

    eta must be positive: the unregularized entropy is not differentiable
    at the spectral boundary, so eta <= 0 is a hard error.
    """
    if eta <= 0.0:
        raise ValueError("eta must be > 0; beta_0 is not differentiable at 0")
    omega = np.asarray(omega, dtype=float)
    lam, V = _checked_clamped_spectrum(rho)
    L = (V * np.log(lam + eta)) @ V.T
    return float(np.sum(L * omega))


def _descending_spectrum(rho: DensityOperator):
    return np.linalg.eigvalsh(rho.matrix)[::-1]


def validate_lieb(rho: DensityOperator) -> InequalityReport:
    """Pairing bound: sum of rho's eigenvalues (descending) against H's
    (ascending) is at most the kinetic trace.  gap = rhs - lhs >= 0."""
    lam = _descending_spectrum(rho)
    mu = np.sort(rho.basis.h_eigenvalues)
    lhs = float(lam @ mu)
    rhs = energy_trace(rho)
    return InequalityReport(name="lieb", lhs=lhs, rhs=rhs, gap=rhs - lhs,
                            holds=bool(lhs <= rhs + 1e-10 * (1.0 + rhs)))


def validate_peierls(rho: DensityOperator, basis_rotation) -> InequalityReport:
    """Peierls: sum of beta over diagonal entries in any orthonormal frame is
    at most Tr beta(rho).  gap = rhs - lhs >= 0."""
    R = np.asarray(basis_rotation, dtype=float)
    if np.max(np.abs(R.T @ R - np.eye(R.shape[0]))) > 1e-10:
        raise ValueError("rotation is not orthogonal within 1e-10")
    diag = np.maximum(np.diag(R.T @ rho.matrix @ R), 0.0)
    lhs = float(np.sum(diag * np.log(np.where(diag > 0, diag, 1.0)) - diag))
    rhs = entropy_trace(rho, 0.0)
    return InequalityReport(name="peierls", lhs=lhs, rhs=rhs, gap=rhs - lhs,
                            holds=bool(lhs <= rhs + 1e-10 * (1.0 + abs(rhs))))


def entropy_lower_bound_ratio(rho: DensityOperator):
    """Ratio max(0, -entropy) / sqrt(kinetic trace), or None at zero energy.

    The matching constant in the entropy lower bound is not pinned down
    analytically, so callers assert an empirical ceiling on sweeps.
    """
    energy = energy_trace(rho)
    if energy <= 1e-12:
        return None
    ent = entropy_trace(rho, 0.0)
    return float(max(0.0, -ent) / np.sqrt(energy))


def log_sobolev_gap(rho: DensityOperator) -> InequalityReport:
    """Diagnostic only: gap = lhs - rhs of the log-Sobolev form

        Tr rho log rho + Tr sqrt(H) rho sqrt(H)
            >= integral n log n + (log 4 pi)/2 Tr rho.

    On the unit torus the constant fails for the flat projector, so
    ``holds`` is informational and never gates a verification run.
    """
    if rho.trace <= 0.0:
        raise ValueError("log-Sobolev diagnostic needs Tr rho > 0")
    lam, _ = _checked_clamped_spectrum(rho)
    pos = lam > 0.0
    lhs = float(np.sum(lam[pos] * np.log(lam[pos])) + energy_trace(rho))
    n = np.maximum(density_of(rho), 1e-300)
    rhs = rho.basis.quadrature(n * np.log(n)) + 0.5 * np.log(4.0 * np.pi) * rho.trace
    gap = lhs - rhs
    return InequalityReport(name="log_sobolev", lhs=lhs, rhs=float(rhs), gap=float(gap),
                            holds=bool(gap >= -1e-10 * (1.0 + abs(rhs))), diagnostic=True)


def convexity_probe(rho1: DensityOperator, rho2: DensityOperator,
                    t: float) -> InequalityReport:
    """Entropy convexity along the segment; gap = rhs - lhs >= 0, with
    ``strict`` set when the operators are distinguishable and the gap is."""
    _check_same_basis(rho1.basis, rho2.basis)
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly inside (0, 1)")
    mix = DensityOperator(rho1.basis, t * rho1.matrix + (1.0 - t) * rho2.matrix)
    lhs = entropy_trace(mix, 0.0)
    rhs = t * entropy_trace(rho1, 0.0) + (1.0 - t) * entropy_trace(rho2, 0.0)
    distinct = float(np.linalg.norm(rho1.matrix - rho2.matrix)) > 1e-8
    return InequalityReport(name="convexity", lhs=lhs, rhs=rhs, gap=rhs - lhs,
                            holds=bool(lhs <= rhs + 1e-10),
                            strict=bool(distinct and rhs - lhs > 1e-12))


def eigenvalue_perturbation_check(rho1: DensityOperator,
                                  rho2: DensityOperator) -> InequalityReport:
    """Weyl-type bound: eigenvalue sup-distance is at most the J1 distance.
    gap = rhs - lhs >= 0."""
    _check_same_basis(rho1.basis, rho2.basis)
    lhs = float(np.max(np.abs(_descending_spectrum(rho1) - _descending_spectrum(rho2))))
    rhs = trace_norm(rho1.matrix - rho2.matrix)
    return InequalityReport(name="eigenvalue_perturbation", lhs=lhs, rhs=rhs,
                            gap=rhs - lhs, holds=bool(lhs <= rhs + 1e-10))
