"""Inverse solve: given a strictly positive density n, find the potential A
with n[exp(-(H+A))] = n.

The default algorithm is damped Newton ascent on the concave dual

    J(A) = -Tr exp(-(H+A)) - integral of A n dx,

whose gradient is the constraint residual n[exp(-(H+A))] - n, with an
Armijo backtracking guard and a gradient-ascent fallback when the Newton
system is ill-conditioned.  The penalized continuation path minimizes

    F_eps(rho) = F(rho) + (1/2 eps) ||n[rho] - n||_L2^2

along a descending eps schedule; each penalized minimizer is the Gibbs
state of A_eps = (1/eps)(n[rho_eps] - n), computed here as the fixed point
of that self-consistency map.
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
NEWTON_COND_LIMIT = 1e12


@dataclass(frozen=True)
class SolverOptions:
    method: str = "dual_newton"
    tol_l2: float = 1e-9
    max_iter: int = 100
    epsilon_schedule: tuple = DEFAULT_SCHEDULE
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    newton_regularization: float = 1e-12

    def __post_init__(self):
        if self.method not in ("dual_newton", "dual_gradient_ascent", "penalized_path"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.tol_l2 <= 0.0:
            raise ValueError("tol_l2 must be > 0")
        sched = tuple(float(e) for e in self.epsilon_schedule)
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


def _evaluate(n: DensityProfile, a) -> GibbsState:
    """The Gibbs state of coefficient vector ``a``, evaluated against ``n``."""
    return GibbsState(ChemicalPotential(n.basis, np.asarray(a, dtype=float)), n)


def _initial_coefficients(basis: SpectralBasis, n: DensityProfile):
    """Semiclassical first guess -log n + log Z0, exact for constant n."""
    z0 = float(np.sum(np.exp(-basis.h_eigenvalues)))
    return basis.project(-np.log(n.values) + np.log(z0))


def _density_tail(n: DensityProfile, cutoff: int) -> float:
    k, mag2 = _grid_spectrum(n.values)
    return float(np.sqrt(np.sum(mag2[k > cutoff])))


def _suggest_modes(n: DensityProfile, tol: float) -> int:
    k, mag2 = _grid_spectrum(n.values)
    tails = np.sqrt(np.cumsum(mag2[::-1])[::-1])
    for cutoff in range(n.basis.M + 1, k[-1] + 1):
        if cutoff + 1 >= tails.size or tails[cutoff + 1] <= tol:
            return cutoff
    return int(k[-1])


def _ascent_direction(basis, state, opts, method):
    """Newton direction on the dual (fallback: gradient) and its slope."""
    g = state.grad_coeffs
    if method == "dual_newton":
        S = -_hessian_from_spectrum(state)
        S = S + opts.newton_regularization * np.eye(basis.D)
        if np.linalg.cond(S) > NEWTON_COND_LIMIT:
            log.info("Newton system ill-conditioned; falling back to gradient ascent")
            d = g.copy()
        else:
            d = np.linalg.solve(S, g)
    else:
        d = g.copy()
    slope = float(g @ d)
    if slope <= 0.0:
        d = g.copy()
        slope = float(g @ g)
    return d, slope


def _rises_by(trial: GibbsState, state: GibbsState, gain: float) -> bool:
    """Armijo test: J rose by at least ``gain``; a non-finite J never passes."""
    return bool(np.isfinite(trial.objective) and trial.objective >= state.objective + gain)


def _dual_ascent(n: DensityProfile, opts: SolverOptions, method: str, a0=None):
    basis = n.basis
    a = _initial_coefficients(basis, n) if a0 is None else np.asarray(a0, dtype=float)
    state = _evaluate(n, a)
    history = []
    # stall detection watches the projected residual, the part the dual
    # variables control; the full residual legitimately lags behind it
    recent = [float(np.linalg.norm(state.grad_coeffs))]
    for iteration in range(opts.max_iter):
        if state.residual_l2 <= opts.tol_l2:
            state, extra = _refine_once(basis, n, state, opts, method)
            history.extend(extra)
            return state, history
        if len(recent) >= 6 and recent[-1] > 0.99 * recent[-6]:
            tail = _density_tail(n, basis.M)
            if tail > opts.tol_l2:
                raise BasisTooSmall(
                    f"residual stalled at {state.residual_l2:.3e} while the density "
                    f"carries {tail:.3e} beyond wavenumber {basis.M}; "
                    f"retry with at least M = {_suggest_modes(n, opts.tol_l2)}",
                    suggested_modes=_suggest_modes(n, opts.tol_l2),
                    report=_constrained_report(state, history)[1],
                    potential=state.potential)
        d, slope = _ascent_direction(basis, state, opts, method)
        # sub-ulp objective gains cannot be certified; the slack keeps the
        # Armijo test meaningful once J saturates in double precision
        fp_slack = 1e-15 * (1.0 + abs(state.objective))
        alpha = 1.0
        trial = _evaluate(n, state.potential.coefficients + d)
        # a predicted gain below the slack is rounding noise in J: the full
        # step of the quadratic tail is then judged by the residual instead
        tail_step = slope <= fp_slack and trial.residual_l2 < state.residual_l2
        while not (tail_step or _rises_by(trial, state, opts.armijo_c * alpha * slope - fp_slack)):
            alpha *= opts.armijo_shrink
            if alpha < 1e-14:
                break
            trial = _evaluate(n, state.potential.coefficients + alpha * d)
        if np.isfinite(trial.objective):  # an exhausted search never moves to NaN or inf
            state = trial
        recent.append(float(np.linalg.norm(state.grad_coeffs)))
        history.append(HistoryEntry(residual=state.residual_l2, step_size=alpha,
                                    objective=state.objective))
        log.debug("iter %d: residual %.3e, step %.3e, J %.12g",
                  iteration + 1, state.residual_l2, alpha, state.objective)
    if state.residual_l2 <= opts.tol_l2:
        return state, history
    raise MaxIterExceeded(
        f"residual {state.residual_l2:.3e} above tolerance {opts.tol_l2:.1e} "
        f"after {opts.max_iter} iterations",
        report=_constrained_report(state, history)[1], potential=state.potential)


def _refine_once(basis, n, state, opts, method):
    """One extra full Newton step once inside tolerance; the quadratic tail
    usually lands orders of magnitude below tol and sharpens the recovered A."""
    d, _ = _ascent_direction(basis, state, opts, method)
    trial = _evaluate(n, state.potential.coefficients + d)
    if trial.residual_l2 < state.residual_l2:
        entry = HistoryEntry(residual=trial.residual_l2, step_size=1.0,
                             objective=trial.objective)
        return trial, [entry]
    return state, []


def _report(state: GibbsState, rho: DensityOperator, f_value, j_value, history):
    """Report of the iterate ``state`` with primal/dual objective pair (F, J)."""
    return SolveReport(
        iterations=len(history),
        residual_l2=state.residual_l2,
        residual_hminus1=sobolev_norm(state.residual, -1),
        free_energy=f_value,
        dual_value=j_value,
        duality_gap=f_value - j_value,
        el_residual=euler_lagrange_residual(rho, state.potential),
        history=history,
    )


def _constrained_report(state: GibbsState, history):
    """(rho, report) of the iterate ``state``."""
    rho = DensityOperator(state.potential.basis, state.matrix)
    return rho, _report(state, rho, free_energy(rho).total, state.objective, history)


def solve_maxwellian(n: DensityProfile, opts: SolverOptions | None = None):
    """Recover (A, rho, report) with rho = exp(-(H+A)) and n[rho] = n.

    The additive constant in A is pinned by the mass of n (it rescales the
    trace), so the solution is unique and no gauge projection is applied.
    Raises NonPositiveDensity (at profile construction), or MaxIterExceeded
    or BasisTooSmall carrying the last iterate's report and potential.
    """
    opts = opts or SolverOptions()
    a0 = None
    if opts.method == "penalized_path":
        warm = None
        for eps in opts.epsilon_schedule:
            _, A_eps, _ = solve_penalized(n, eps, 0.0, opts, initial=warm)
            warm = A_eps.coefficients
        a0 = warm
    method = "dual_newton" if opts.method == "penalized_path" else opts.method
    state, history = _dual_ascent(n, opts, method, a0=a0)
    rho, report = _constrained_report(state, history)
    return state.potential, rho, report


def solve_penalized(n: DensityProfile, epsilon: float, eta: float = 0.0,
                    opts: SolverOptions | None = None, initial=None):
    """Minimize the penalized functional; returns (rho_eps, A_eps, report).

    A_eps is the fixed point of A -> (1/eps)(n[exp(-(H+A))] - n), found by
    the damped fixed-point map, Newton-accelerated once the residual is
    small (and immediately when warm-started).  Gibbs-form iterates are
    strictly positive definite, so eta never enters the iteration; it only
    selects the regularized entropy in the reported objective.

    The reported free_energy/dual_value pair is the penalized objective
    F_eps and its exact Fenchel dual J(A) - (eps/2)||A||_L2^2, which agree
    at the fixed point.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    opts = opts or SolverOptions()
    basis = n.basis
    a = np.zeros(basis.D) if initial is None else np.asarray(initial, dtype=float)
    state = _evaluate(n, a)
    history = []

    def defect(st):
        # L2 norm of A - (1/eps)(n[rho_A] - n) on the grid
        return float(np.sqrt(basis.quadrature(
            (st.potential.on_grid() - st.residual / epsilon) ** 2)))

    current = defect(state)
    # damped fixed-point phase, only useful from a cold start at moderate eps
    if initial is None:
        for _ in range(12):
            if current <= max(1e-2, opts.tol_l2):
                break
            trial = _evaluate(n, 0.5 * (state.potential.coefficients
                                        + state.grad_coeffs / epsilon))
            d_trial = defect(trial)
            history.append(HistoryEntry(residual=trial.residual_l2, step_size=0.5,
                                        objective=-d_trial))
            if d_trial >= current:
                break
            state, current = trial, d_trial
    for _ in range(opts.max_iter):
        if current <= opts.tol_l2:
            break
        a = state.potential.coefficients
        res_coeffs = epsilon * a - state.grad_coeffs
        S = -_hessian_from_spectrum(state)
        jac = epsilon * np.eye(basis.D) + S
        d = np.linalg.solve(jac, -res_coeffs)
        alpha = 1.0
        trial = _evaluate(n, a + d)
        d_trial = defect(trial)
        while d_trial > current and alpha > 1e-14:
            alpha *= opts.armijo_shrink
            trial = _evaluate(n, a + alpha * d)
            d_trial = defect(trial)
        history.append(HistoryEntry(residual=trial.residual_l2, step_size=alpha,
                                    objective=-d_trial))
        if d_trial >= current and current <= 10.0 * opts.tol_l2:
            break  # rounding floor of the self-consistency defect
        state, current = trial, d_trial
    rho = DensityOperator(basis, state.matrix)
    a_l2_sq = basis.quadrature(state.potential.on_grid() ** 2)
    report = _report(state, rho, penalized_free_energy(rho, n, epsilon, eta).total,
                     state.objective - 0.5 * epsilon * a_l2_sq, history)
    if current > 10.0 * opts.tol_l2:
        raise MaxIterExceeded(
            f"penalized fixed-point defect {current:.3e} above tolerance "
            f"{opts.tol_l2:.1e} at epsilon={epsilon:g}", report=report,
            potential=state.potential)
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


def reconstruct_potential_form(rho: DensityOperator, n: DensityProfile,
                               psi) -> float:
    """Linear form recovering integral of A psi from (rho, n) alone:

        (A, psi) = -Tr((psi/n) rho log rho)
                   - sum_p lam_p ( phi_p', ((psi/n) phi_p)' )

    over the eigenpairs (lam_p, phi_p) of rho.  At rho = exp(-(H+A)) with
    n = n[rho] this equals integral of A psi for every periodic test psi.
    """
    basis = rho.basis
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (basis.N,):
        raise ValueError(f"psi must be sampled on the {basis.N}-point grid")
    g = psi / n.values
    lam, V = np.linalg.eigh(rho.matrix)
    lam = np.maximum(lam, 0.0)
    keep = lam > 1e-250
    lam = lam[keep]
    phi = V.T[keep] @ basis.functions          # eigenfunction values
    dphi = V.T[keep] @ basis.derivatives
    term1 = float(np.sum(_xlogx(lam) * np.mean(g * phi**2, axis=1)))
    w_prime = spectral_derivative(g * phi)
    term2 = float(np.sum(lam * np.mean(dphi * w_prime, axis=1)))
    return -term1 - term2


def fourier_decay_diagnostic(A: ChemicalPotential):
    """Per-wavenumber coefficient magnitudes of A, for regularity reporting."""
    c = A.coefficients
    rows = [(0, abs(float(c[0])))]
    for k in range(1, A.basis.M + 1):
        rows.append((k, float(np.hypot(c[2 * k - 1], c[2 * k]))))
    return rows
