"""Free energy, its penalized/regularized variants, the dual functional
with its gradient and Hessian, and the entropy's directional derivative.

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

from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    ChemicalPotential,
    DensityOperator,
    DensityProfile,
    SpectralBasis,
    _check_same_basis,
    _compose,
    _multiplication_matrix,
    assemble_hamiltonian_plus_potential,
    density_of,
    energy_trace,
    entropy_trace,
)

__all__ = [
    "FunctionalValue",
    "GibbsState",
    "gibbs_from_potential",
    "free_energy",
    "penalized_free_energy",
    "dual_functional",
    "dual_gradient",
    "dual_hessian_apply",
    "gateaux_entropy_derivative",
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
