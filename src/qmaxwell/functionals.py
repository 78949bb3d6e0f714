"""Free energy, its penalized/regularized variants, the dual functional,
and validators for the exact operator inequalities that ``verify`` and the
test suite check, each one kernel over stacks of operators.

The free energy of a density operator is

    F(rho) = Tr(rho log rho - rho) + Tr(sqrt(H) rho sqrt(H)),

and the concave dual of the density-constrained minimization is

    J(A) = -Tr exp(-(H+A)) - integral of A n dx,

whose gradient in A is exactly the constraint residual n[exp(-(H+A))] - n.

Gibbs states exp(-(H+A)) are evaluated in one place, :class:`GibbsState`,
which the dual, its derivatives, gibbs_from_potential and the solver share.
Functions of a density operator read the spectra that its class checked,
``eigenvalues`` or ``eigenpairs``, and decompose nothing themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral_core import (
    ChemicalPotential,
    DensityOperator,
    DensityProfile,
    SpectralBasis,
    _check_orthogonal,
    _check_same_basis,
    _checked_spectra,
    _compose,
    _energy_traces,
    _multiplication_matrix,
    _spectral_entropy,
    _xlogx,
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
# the Newton Hessian keeps state i iff w_i > u^2 w_0, u the machine epsilon
ACTIVE_WEIGHT_CUT = np.finfo(float).eps ** 2
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
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")
    _check_same_basis(rho.basis, n.basis)
    diff = density_of(rho) - n.values
    with np.errstate(over="ignore"):  # an overflowed penalty reads inf
        penalty = 0.5 / epsilon * rho.basis.quadrature(diff * diff)
    return _functional_value(entropy_trace(rho, eta), energy_trace(rho), penalty)


class GibbsState:
    """exp(-(H+A)) through the eigenpairs (lam, V) of H + A: ``weights`` =
    exp(-lam), eigenfunctions ``phi`` = V^T E on the grid, ``density``.

    Given a ``target`` n and ``eps``, also ``residual`` = n[rho] - n (the
    gradient of J), ``residual_l2``, and the dual J_eps(A) = J(A) -
    (eps/2)||A||^2 that the ascent reads: ``objective`` = J_eps(A), its
    coefficient gradient ``grad_coeffs`` = P(residual) - eps a (||A||^2 =
    a.a, the basis being orthonormal) and its norm ``grad_norm``.  Overflow
    is silent: weights and norms stay inf, gibbs_from_potential raises on
    the weights, and a line search reads a non-finite J and rejects the trial.
    """

    def __init__(self, A: ChemicalPotential, n: DensityProfile | None = None,
                 eps: float = 0.0):
        basis = A.basis
        self.potential, self.target, self.eps = A, n, eps
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
            a = A.coefficients
            self.grad_coeffs = basis.project(self.residual) - eps * a
            self.grad_norm = float(np.linalg.norm(self.grad_coeffs))
            coupling = basis.quadrature(A.on_grid() * n.values)
            self.objective = float(-np.sum(self.weights) - coupling - 0.5 * eps * (a @ a))

    @property
    def matrix(self) -> np.ndarray:
        """Coefficient matrix V diag(weights) V^T, symmetrized."""
        return _compose(self.V, self.weights)


def gibbs_from_potential(basis: SpectralBasis, A: ChemicalPotential) -> DensityOperator:
    """rho = exp(-(H+A)) from the eigenpairs (exp(-lam), V) of H + A, decomposed
    once; ValueError when exp(-lam) overflows (lam < -709.78) or underflows
    to 0 on every state (lam above about 745)."""
    _check_same_basis(basis, A.basis)
    state = GibbsState(A)
    if not np.all(np.isfinite(state.weights)):
        raise ValueError(
            f"exp(-(H+A)) would overflow: the smallest eigenvalue of H+A is "
            f"{state.lam[0]:.6g}, below the overflow limit {EXP_OVERFLOW_LIMIT:.6g}")
    if state.weights[0] == 0.0:
        raise ValueError(
            f"exp(-(H+A)) underflows to 0 on every state: the smallest eigenvalue "
            f"of H+A is {state.lam[0]:.6g}, above the underflow limit of about 745")
    return DensityOperator.from_eigenpairs(basis, state.weights, state.V)


def dual_functional(A: ChemicalPotential, n: DensityProfile) -> float:
    """J(A) = -Tr exp(-(H+A)) - integral of A n dx; concave in A."""
    return GibbsState(A, n).objective


def dual_gradient(A: ChemicalPotential, n: DensityProfile) -> np.ndarray:
    """Gradient of J as a grid function: n[exp(-(H+A))] - n."""
    return GibbsState(A, n).residual


def _exp_divided_differences(lam, mu=None):
    """Phi_pq = (exp(-l_p) - exp(-m_q)) / (m_q - l_p) for l = ``lam`` and
    m = ``mu`` (default ``lam``), midpoint value on clusters.

    The fallback exp(-(l_p+m_q)/2) avoids catastrophic cancellation on the
    degenerate cos/sin pairs that symmetric densities produce.
    """
    mu = lam if mu is None else mu
    dl = lam[:, None] - mu[None, :]
    tol = DEGENERACY_TOL * (1.0 + np.maximum(np.abs(lam)[:, None], np.abs(mu)[None, :]))
    separated = np.abs(dl) > tol
    denom = np.where(separated, -dl, 1.0)
    phi = np.where(separated, (np.exp(-lam)[:, None] - np.exp(-mu)[None, :]) / denom,
                   np.exp(-0.5 * (lam[:, None] + mu[None, :])))
    return phi


def dual_hessian_apply(A: ChemicalPotential, delta: ChemicalPotential) -> np.ndarray:
    """Directional derivative of A |-> n[exp(-(H+A))] along delta, on the grid.

    With H+A = V diag(lam) V^T and G the Galerkin matrix of delta, the
    operator response is -V (Phi o V^T G V) V^T where Phi carries the
    divided differences of exp(-s); the returned value is its density.
    Every state enters, so this is the reference the Hessian matrix is
    tested against.
    """
    _check_same_basis(A.basis, delta.basis)
    state = GibbsState(A)
    G = _multiplication_matrix(A.basis, delta.coefficients)
    X = -_exp_divided_differences(state.lam) * (state.V.T @ G @ state.V)
    return np.sum(state.phi * (X @ state.phi), axis=0)


def _hessian_from_spectrum(state: GibbsState) -> np.ndarray:
    """Coefficient-space Hessian of J at ``state``; symmetric negative semidefinite.

    H_qr = -sum_ij W_qij Phi_ij W_rij with W_qij = integral of e_q phi_i phi_j;
    W and H are one GEMM each.  e_q phi_i phi_j has degree <= 3M, so W is
    exact on the 3M+1-point product grid of the basis.  Only the k active
    rows i, w_i = exp(-lam_i) > u^2 w_0 (ACTIVE_WEIGHT_CUT, w_0 the largest
    weight), enter; by symmetry each (active, inactive) pair counts twice.
    A dropped pair has both states cut, and Phi_ij <= max(w_i, w_j) <=
    u^2 w_0, below the rounding of the kept terms, which carry Phi_00 = w_0.
    The cost is O(k D^2 (3M+1)).  An overflowed w_0 = inf keeps every
    state, so the matrix comes out non-finite, silently, and the Newton
    step falls back to the gradient.
    """
    E = state.potential.basis.product_functions
    P = E.shape[1]
    w = state.weights
    cut = ACTIVE_WEIGHT_CUT * w[0]
    k = int(np.count_nonzero(w > cut)) if np.isfinite(cut) else w.size
    phi = state.V.T @ E
    products = (phi[:k, None, :] * phi[None, :, :]).reshape(-1, P)
    W = E @ products.T / P
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = _exp_divided_differences(state.lam[:k], state.lam)
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
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be finite and > 0, got {eta!r}")
    omega = np.asarray(omega, dtype=float)
    if omega.shape != rho.matrix.shape:
        raise ValueError(f"omega shape {omega.shape} differs from rho's {rho.matrix.shape}")
    lam, V = rho.eigenpairs
    L = (V * np.log(lam + eta)) @ V.T
    return float(np.sum(L * omega))


def validate_lieb(rho: DensityOperator) -> InequalityReport:
    """Pairing bound: sum of rho's eigenvalues (descending) against H's
    (ascending) is at most the kinetic trace.  gap = rhs - lhs >= 0."""
    return _lieb(rho.basis, rho.matrix[None], rho.eigenvalues[None]).report(0)


def validate_peierls(rho: DensityOperator, basis_rotation) -> InequalityReport:
    """Peierls: sum of beta over diagonal entries in any orthonormal frame is
    at most Tr beta(rho).  gap = rhs - lhs >= 0."""
    R = np.asarray(basis_rotation, dtype=float)
    return _peierls(rho.matrix[None], rho.eigenvalues[None], R[None]).report(0)


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
    lhs = float(np.sum(_xlogx(rho.eigenvalues)) + energy_trace(rho))
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
    return _convexity(rho1.matrix[None], rho1.eigenvalues[None], rho2.matrix[None],
                      rho2.eigenvalues[None], np.array([t], dtype=float)).report(0)


def eigenvalue_perturbation_check(rho1: DensityOperator,
                                  rho2: DensityOperator) -> InequalityReport:
    """Weyl-type bound: eigenvalue sup-distance is at most the J1 distance.
    gap = rhs - lhs >= 0."""
    _check_same_basis(rho1.basis, rho2.basis)
    return _perturbation(rho1.matrix[None], rho1.eigenvalues[None],
                         rho2.matrix[None], rho2.eigenvalues[None]).report(0)


# Each validator above is one stacked kernel below, applied to a stack of
# one.  A kernel takes density matrices (s, D, D) with the spectra (s, D)
# that spectral_core._checked_spectra returned for them, and returns one
# InequalityStack.  Every reduction runs along a sample's own axes, so a
# sample's entries do not depend on how many samples share its stack.

@dataclass(frozen=True)
class InequalityStack:
    """One inequality over s samples: arrays lhs, rhs, holds (and strict)."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    strict: np.ndarray | None = None

    def report(self, i: int) -> InequalityReport:
        """Sample i's report, gap = rhs - lhs."""
        return InequalityReport(
            name=self.name, lhs=float(self.lhs[i]), rhs=float(self.rhs[i]),
            gap=float(self.rhs[i] - self.lhs[i]), holds=bool(self.holds[i]),
            strict=None if self.strict is None else bool(self.strict[i]))

    def worst(self) -> InequalityReport:
        """The smallest-gap sample (first on ties), holding iff every sample does."""
        worst = self.report(int(np.argmin(self.rhs - self.lhs)))
        return replace(worst, holds=bool(np.all(self.holds)))

    @classmethod
    def concatenate(cls, stacks):
        def joined(attr):
            parts = [getattr(st, attr) for st in stacks]
            return None if parts[0] is None else np.concatenate(parts)

        return cls(stacks[0].name, *(joined(a) for a in ("lhs", "rhs", "holds", "strict")))


def _lieb(basis: SpectralBasis, matrices, eigenvalues) -> InequalityStack:
    mu = np.sort(basis.h_eigenvalues)
    lhs = np.sum(eigenvalues[:, ::-1] * mu, axis=-1)
    rhs = _energy_traces(basis, matrices)
    return InequalityStack("lieb", lhs, rhs, lhs <= rhs + 1e-10 * (1.0 + rhs))


def _peierls(matrices, eigenvalues, rotations) -> InequalityStack:
    _check_orthogonal(rotations, "rotation")
    Rt = np.swapaxes(rotations, -1, -2)
    lhs = _spectral_entropy(np.diagonal(Rt @ matrices @ rotations, axis1=-2, axis2=-1))
    rhs = _spectral_entropy(eigenvalues)
    return InequalityStack("peierls", lhs, rhs, lhs <= rhs + 1e-10 * (1.0 + np.abs(rhs)))


def _convexity(matrices1, eigenvalues1, matrices2, eigenvalues2, t) -> InequalityStack:
    if not np.all((0.0 < t) & (t < 1.0)):
        raise ValueError("t must lie strictly inside (0, 1)")
    ts = t[:, None, None]
    lhs = _spectral_entropy(_checked_spectra(ts * matrices1 + (1.0 - ts) * matrices2))
    rhs = t * _spectral_entropy(eigenvalues1) + (1.0 - t) * _spectral_entropy(eigenvalues2)
    diff = matrices1 - matrices2
    distinct = np.sqrt(np.sum(diff * diff, axis=(-2, -1))) > 1e-8
    return InequalityStack("convexity", lhs, rhs, lhs <= rhs + 1e-10,
                           strict=distinct & (rhs - lhs > 1e-12))


def _perturbation(matrices1, eigenvalues1, matrices2, eigenvalues2) -> InequalityStack:
    lhs = np.max(np.abs(eigenvalues1 - eigenvalues2), axis=-1)
    rhs = trace_norm(matrices1 - matrices2)
    return InequalityStack("eigenvalue_perturbation", lhs, rhs, lhs <= rhs + 1e-10)
