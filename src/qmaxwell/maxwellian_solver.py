"""Inverse solve: given a strictly positive density n, find the potential A
with n[exp(-(H+A))] = n.

The algorithm is damped Newton ascent on the concave dual

    J(A) = -Tr exp(-(H+A)) - integral of A n dx,

whose gradient is the constraint residual n[exp(-(H+A))] - n, with an
Armijo backtracking guard.  Each Newton step is one Cholesky solve of
-Hess J + 1e-12 I; the step falls back to the gradient when that
factorization fails or the slope is not positive.  Once the gain the
Armijo test asks for is below the rounding slack of J, the full step is
accepted iff it shrinks the coefficient gradient P(n[rho] - n), P the
projection onto the basis: the part of the residual the dual controls.  A
full step that cannot shrink it marks the dual's rounding floor.  There
BasisTooSmall is raised when the residual's in-basis part is within
tol_l2 and its out-of-basis part is not; any other floor goes on to the
backtracking search and, if the budget runs out, MaxIterExceeded.  The
penalized continuation path minimizes

    F_eps(rho) = F(rho) + (1/2 eps) ||n[rho] - n||_L2^2

along a descending eps schedule.  Each penalized minimizer is the Gibbs
state of the maximizer A_eps of the strictly concave dual
J_eps(A) = J(A) - (eps/2)||A||_L2^2, and the same Newton ascent serves
both duals: at eps > 0 it stops on the in-basis defect
||a - P(n[rho] - n)/eps||.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisTooSmall, MaxIterExceeded, SingularDensityOperator
from .functionals import (
    GibbsState,
    _hessian_from_spectrum,
    free_energy,
    penalized_free_energy,
)
from .spectral_core import (
    PSD_TOL,
    ChemicalPotential,
    DensityOperator,
    DensityProfile,
    SpectralBasis,
    _grid_spectrum,
    assemble_hamiltonian_plus_potential,
    sobolev_norm,
    spectral_derivative,
)

__all__ = [
    "SolverOptions",
    "SolveReport",
    "HistoryEntry",
    "EpsilonSweepRow",
    "solve_maxwellian",
    "solve_penalized",
    "epsilon_sweep",
    "euler_lagrange_residual",
    "reconstruct_potential_form",
    "fourier_decay_diagnostic",
]

log = logging.getLogger("qmaxwell.solver")

DEFAULT_SCHEDULE = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
NEWTON_SHIFT = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    tol_l2: float = 1e-9
    max_iter: int = 100
    epsilon_schedule: tuple = DEFAULT_SCHEDULE

    def __post_init__(self):
        if self.tol_l2 <= 0.0:
            raise ValueError("tol_l2 must be > 0")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        sched = tuple(float(e) for e in self.epsilon_schedule)
        if not sched:
            raise ValueError("epsilon schedule must not be empty")
        if any(e <= 0.0 for e in sched) or any(a <= b for a, b in zip(sched, sched[1:])):
            raise ValueError("epsilon schedule must be strictly descending and positive")
        object.__setattr__(self, "epsilon_schedule", sched)


@dataclass(frozen=True)
class HistoryEntry:
    residual: float
    step_size: float
    objective: float


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual_l2: float
    residual_hminus1: float
    free_energy: float
    dual_value: float
    duality_gap: float
    el_residual: float
    history: list = field(default_factory=list)


def _xlogx(lam):
    out = np.zeros_like(lam)
    pos = lam > 0.0
    out[pos] = lam[pos] * np.log(lam[pos])
    return out


def _evaluate(n: DensityProfile, a, eps: float) -> GibbsState:
    """The Gibbs state of coefficient vector ``a``, evaluated on J_eps against ``n``."""
    return GibbsState(ChemicalPotential(n.basis, np.asarray(a, dtype=float)), n, eps)


def _initial_coefficients(basis: SpectralBasis, n: DensityProfile):
    """Semiclassical first guess -log n + log Z0, exact for constant n."""
    z0 = float(np.sum(np.exp(-basis.h_eigenvalues)))
    return basis.project(-np.log(n.values) + np.log(z0))


def _suggest_modes(residual, M: int, tol: float) -> int | None:
    """Smallest cutoff above M beyond which ``residual`` carries at most
    ``tol``, or None when only the grid's Nyquist wavenumber does: that is
    the grid's cap, not a measurement."""
    k, mag2 = _grid_spectrum(residual)
    tails = np.sqrt(np.cumsum(mag2[::-1])[::-1])
    for cutoff in range(M + 1, k[-1]):
        if tails[cutoff + 1] <= tol:
            return cutoff
    return None


def _residual_split(state: GibbsState):
    """(in-basis, out-of-basis) L2 norms of n[rho] - n at eps = 0, split by
    Parseval: the basis is orthonormal and the quadrature exact."""
    inside = float(np.linalg.norm(state.grad_coeffs))
    return inside, float(np.sqrt(max(state.residual_l2**2 - inside**2, 0.0)))


def _stopping_measure(state: GibbsState, eps: float) -> float:
    """The stopping measure: the L2 residual ||n[rho] - n|| at eps = 0; for
    eps > 0 the in-basis defect ||a - P(n[rho] - n)/eps|| = ||grad J_eps|| / eps.
    The out-of-basis part (1/eps)(I - P)(n[rho] - n) of the grid defect is
    Galerkin truncation, which no potential in the basis can change."""
    if eps > 0.0:
        return float(np.linalg.norm(state.grad_coeffs)) / eps
    return state.residual_l2


def _newton_direction(state: GibbsState, shift: float, rhs):
    """Solve (-Hess J + shift I) d = rhs at ``state`` by one Cholesky
    factorization; LinAlgError when the shifted matrix is not finite or not
    positive definite (np.linalg.cholesky lets a NaN entry through)."""
    S = -_hessian_from_spectrum(state)
    S[np.diag_indices_from(S)] += shift
    if not np.all(np.isfinite(S)):
        raise np.linalg.LinAlgError("Newton matrix is not finite")
    L = np.linalg.cholesky(S)
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def _ascent_direction(state: GibbsState, eps: float = 0.0):
    """Newton direction on J_eps (fallback: gradient) and its slope;
    -Hess J_eps = -Hess J + eps I."""
    g = state.grad_coeffs
    try:
        d = _newton_direction(state, NEWTON_SHIFT + eps, g)
    except np.linalg.LinAlgError:
        log.info("Newton matrix not positive definite; falling back to gradient ascent")
        d = g
    slope = float(g @ d)
    if slope <= 0.0:
        d, slope = g, float(g @ g)
    return d, slope


def _rises_by(trial: GibbsState, state: GibbsState, gain: float) -> bool:
    """Armijo test: J rose by at least ``gain``; a non-finite J never passes."""
    return bool(np.isfinite(trial.objective) and trial.objective >= state.objective + gain)


def _dual_ascent(n: DensityProfile, opts: SolverOptions, eps: float = 0.0,
                 eta: float = 0.0, initial=None):
    """Damped Newton ascent on J_eps (J at eps = 0) from ``initial`` or the
    semiclassical guess; returns (state, history) once the stopping measure
    is within tol_l2.  Raises BasisTooSmall at a rounding floor the basis
    causes (eps = 0 only) and MaxIterExceeded when the budget runs out.
    ``eta`` only selects the entropy of a failure's report."""
    basis = n.basis
    a0 = _initial_coefficients(basis, n) if initial is None else initial
    state = _evaluate(n, a0, eps)
    history = []
    for iteration in range(opts.max_iter):
        if _stopping_measure(state, eps) <= opts.tol_l2:
            state, extra = _refine_once(n, state, eps)
            history.extend(extra)
            return state, history
        d, slope = _ascent_direction(state, eps)
        # sub-ulp objective gains cannot be certified; the slack keeps the
        # Armijo test meaningful once J saturates in double precision
        fp_slack = 1e-15 * (1.0 + abs(state.objective))
        alpha = 1.0
        trial = _evaluate(n, state.potential.coefficients + d, eps)
        # once the gain Armijo asks for is rounding noise in J it certifies
        # nothing: the full step is judged by the gradient the dual controls,
        # and a full step that cannot shrink it marks the dual's rounding floor
        unresolved = ARMIJO_C * slope <= fp_slack
        g_norm = np.linalg.norm(state.grad_coeffs)
        full_step = unresolved and np.linalg.norm(trial.grad_coeffs) < g_norm
        if unresolved and not full_step and eps == 0.0:
            inside, outside = _residual_split(state)
            if inside <= opts.tol_l2 < outside:
                modes = _suggest_modes(state.residual, basis.M, opts.tol_l2)
                advice = f"retry with at least M = {modes}"
                if modes is None:
                    modes = basis.N // 2
                    advice = (f"no cutoff below this {basis.N}-point grid's Nyquist "
                              f"wavenumber {modes} brings it within tol_l2 = "
                              f"{opts.tol_l2:.1e}; retry with at least M = {modes}")
                raise BasisTooSmall(
                    f"in-basis residual at its rounding floor {inside:.3e} while "
                    f"{outside:.3e} lies beyond wavenumber {basis.M}; {advice}",
                    suggested_modes=modes,
                    report=_solution(state, history, n)[1],
                    potential=state.potential)
        while not (full_step or _rises_by(trial, state, ARMIJO_C * alpha * slope - fp_slack)):
            alpha *= ARMIJO_SHRINK
            if alpha < 1e-14:
                break
            trial = _evaluate(n, state.potential.coefficients + alpha * d, eps)
        if np.isfinite(trial.objective):  # an exhausted search never moves to NaN or inf
            state = trial
        history.append(HistoryEntry(residual=state.residual_l2, step_size=alpha,
                                    objective=state.objective))
        log.debug("iter %d: residual %.3e, step %.3e, J %.12g",
                  iteration + 1, state.residual_l2, alpha, state.objective)
    error = _stopping_measure(state, eps)
    if error <= opts.tol_l2:
        return state, history
    measure = f"penalized (epsilon={eps:g}) in-basis defect" if eps > 0.0 else "residual"
    where = "" if eps > 0.0 else (
        f"; {_residual_split(state)[1]:.3e} of it lies beyond wavenumber {basis.M}")
    raise MaxIterExceeded(
        f"{measure} {error:.3e} above tolerance {opts.tol_l2:.1e} "
        f"after {opts.max_iter} iterations{where}",
        report=_solution(state, history, n, eps, eta)[1], potential=state.potential)


def _refine_once(n, state, eps):
    """One extra full Newton step once inside tolerance; the quadratic tail
    usually lands orders of magnitude below tol and sharpens the recovered A."""
    d, _ = _ascent_direction(state, eps)
    trial = _evaluate(n, state.potential.coefficients + d, eps)
    if _stopping_measure(trial, eps) < _stopping_measure(state, eps):
        entry = HistoryEntry(residual=trial.residual_l2, step_size=1.0,
                             objective=trial.objective)
        return trial, [entry]
    return state, []


def _solution(state: GibbsState, history, n: DensityProfile, eps: float = 0.0,
              eta: float = 0.0):
    """(rho, report) of the iterate ``state``, with the primal/dual pair
    (F, J), or (F_eps, J_eps) for eps > 0, which agree at the optimum."""
    rho = DensityOperator(n.basis, state.matrix)
    f = penalized_free_energy(rho, n, eps, eta) if eps > 0.0 else free_energy(rho)
    report = SolveReport(
        iterations=len(history),
        residual_l2=state.residual_l2,
        residual_hminus1=sobolev_norm(state.residual, -1),
        free_energy=f.total,
        dual_value=state.objective,
        duality_gap=f.total - state.objective,
        el_residual=euler_lagrange_residual(rho, state.potential),
        history=history,
    )
    return rho, report


def solve_maxwellian(n: DensityProfile, opts: SolverOptions | None = None):
    """Recover (A, rho, report) with rho = exp(-(H+A)) and n[rho] = n.

    The additive constant in A is pinned by the mass of n (it rescales the
    trace), so the solution is unique and no gauge projection is applied.
    Raises NonPositiveDensity (at profile construction), or MaxIterExceeded
    or BasisTooSmall carrying the last iterate's report and potential.
    """
    state, history = _dual_ascent(n, opts or SolverOptions())
    rho, report = _solution(state, history, n)
    return state.potential, rho, report


def solve_penalized(n: DensityProfile, epsilon: float, eta: float = 0.0,
                    opts: SolverOptions | None = None, initial=None):
    """Minimize the penalized functional; returns (rho_eps, A_eps, report).

    rho_eps = exp(-(H+A_eps)), where A_eps maximizes the strictly concave
    dual J_eps(A) = J(A) - (eps/2)||A||_L2^2 by the same Newton ascent as
    the constrained solve, cold-started from its semiclassical guess or
    warm-started from the coefficients ``initial``.  It stops when the
    in-basis defect ||a - P(n[rho] - n)/eps|| is at most tol_l2, and raises
    MaxIterExceeded otherwise.  Gibbs-form iterates are strictly positive
    definite, so eta never enters the iteration; it only selects the
    regularized entropy in the reported objective.

    The reported free_energy/dual_value pair is the penalized objective
    F_eps and its exact Fenchel dual J_eps, which agree at the optimum.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    state, history = _dual_ascent(n, opts or SolverOptions(), epsilon, eta, initial)
    rho, report = _solution(state, history, n, epsilon, eta)
    return rho, state.potential, report


@dataclass(frozen=True)
class EpsilonSweepRow:
    epsilon: float
    residual_l2: float
    f_eps: float
    a_dist_hminus1: float


def epsilon_sweep(n: DensityProfile, opts: SolverOptions | None = None):
    """Penalized solves along the eps schedule against the constrained reference.

    Rows are ordered by descending eps and track the L2 constraint residual,
    the penalized objective, and the H^-1 distance from A_eps to the
    constrained solve's A, which contracts linearly in eps.
    """
    opts = opts or SolverOptions()
    A_ref, _, _ = solve_maxwellian(n, opts)
    rows = []
    warm = None
    for eps in opts.epsilon_schedule:
        rho_eps, A_eps, report = solve_penalized(n, eps, 0.0, opts, initial=warm)
        warm = A_eps.coefficients
        dist = sobolev_norm(
            ChemicalPotential(n.basis, A_eps.coefficients - A_ref.coefficients), -1)
        rows.append(EpsilonSweepRow(
            epsilon=eps,
            residual_l2=report.residual_l2,
            f_eps=penalized_free_energy(rho_eps, n, eps, 0.0).total,
            a_dist_hminus1=dist,
        ))
    return rows


def euler_lagrange_residual(rho: DensityOperator, A: ChemicalPotential) -> float:
    """J2 norm of sqrt(rho)(log rho + H + A) sqrt(rho).

    Vanishes (to rounding) whenever rho = exp(-(H+A)) for the same A.
    Eigenvalues that underflow to zero enter through their continuous
    limit sqrt(s) log(s) -> 0; a spectrum negative beyond the PSD
    tolerance is rejected.
    """
    lam, V = np.linalg.eigh(rho.matrix)
    if lam[0] < -PSD_TOL * (abs(rho.trace) + 1.0):
        raise SingularDensityOperator(
            f"spectrum reaches {lam[0]:.3e}; the residual needs a nonnegative spectrum")
    lam = np.maximum(lam, 0.0)
    K = assemble_hamiltonian_plus_potential(rho.basis, A)
    Kt = V.T @ K @ V
    t = np.sqrt(lam)
    X = (t[:, None] * t[None, :]) * Kt + np.diag(_xlogx(lam))
    return float(np.linalg.norm(X))


def reconstruct_potential_form(rho: DensityOperator, n: DensityProfile, psi):
    """Linear form recovering integral of A psi from (rho, n) alone:

        (A, psi) = -Tr((psi/n) rho log rho)
                   - sum_p lam_p ( phi_p', ((psi/n) phi_p)' )

    over the eigenpairs (lam_p, phi_p) of rho.  At rho = exp(-(H+A)) with
    n = n[rho] this equals integral of A psi for every periodic test psi.
    ``psi`` is one grid function (N,), giving a float, or a stack (P, N),
    giving P values from one eigendecomposition of rho.
    """
    basis = rho.basis
    psi = np.asarray(psi, dtype=float)
    if psi.ndim not in (1, 2) or psi.shape[-1] != basis.N:
        raise ValueError(f"psi must be sampled on the {basis.N}-point grid")
    g = (psi / n.values)[..., None, :]
    lam, V = np.linalg.eigh(rho.matrix)
    lam = np.maximum(lam, 0.0)
    keep = lam > 1e-250
    lam = lam[keep]
    phi = V.T[keep] @ basis.functions          # eigenfunction values
    dphi = V.T[keep] @ basis.derivatives
    term1 = np.sum(_xlogx(lam) * np.mean(g * phi**2, axis=-1), axis=-1)
    w_prime = spectral_derivative(g * phi)
    term2 = np.sum(lam * np.mean(dphi * w_prime, axis=-1), axis=-1)
    form = -term1 - term2
    return float(form) if psi.ndim == 1 else form


def fourier_decay_diagnostic(A: ChemicalPotential):
    """Per-wavenumber coefficient magnitudes of A, for regularity reporting."""
    c = A.coefficients
    rows = [(0, abs(float(c[0])))]
    for k in range(1, A.basis.M + 1):
        rows.append((k, float(np.hypot(c[2 * k - 1], c[2 * k]))))
    return rows
