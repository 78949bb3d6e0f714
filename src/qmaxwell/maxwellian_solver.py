"""Inverse solve: given a strictly positive density n, find the potential A
with n[exp(-(H+A))] = n.

The algorithm is damped Newton ascent on the concave dual

    J(A) = -Tr exp(-(H+A)) - integral of A n dx,

whose gradient is the constraint residual n[exp(-(H+A))] - n, with an
Armijo backtracking guard.  A cold solve starts at the pure-state (Bohm)
potential P[(sqrt n)''/sqrt n] - log(mass): the maximizer is the Gibbs
state exp(-(H+A)), and the gap 4 pi^2 of H makes it nearly the pure
state mass |phi_0><phi_0| with phi_0 = sqrt(n / mass), whose eigen-
equation gives that A in closed form.  The semiclassical guess
-log n + log Z0 is the start only when that potential overflows or its
J is not finite.  Each Newton step solves with the dense matrix
-Hess J + 1e-12 I once its Cholesky factorization shows it positive
definite; the step falls back to the gradient when that factorization
fails or the slope is not positive, and its history entry's ``direction``
reads "newton" or "gradient" accordingly.  From the first iterate within tol
the loop's last step is the refinement, kept iff it shrinks the stopping
measure by more than its rounding scale and not computed within that
scale, so a smooth solve that starts at that floor builds no dense
matrix.  Once the gain the Armijo test asks for is below the rounding
slack of J, the full step is accepted iff it shrinks the coefficient
gradient P(n[rho] - n), P the projection onto the basis: the part of the
residual the dual controls.  A full step that cannot shrink it marks the
dual's rounding floor.  There BasisTooSmall is raised when the
residual's in-basis part is within tol_l2 and its out-of-basis part is
not; any other floor goes on to the backtracking search and, if the
budget runs out, MaxIterExceeded.  The penalized continuation path
minimizes

    F_eps(rho) = F(rho) + (1/2 eps) ||n[rho] - n||_L2^2

along a descending eps schedule.  Each penalized minimizer is the Gibbs
state of the maximizer A_eps of the strictly concave dual
J_eps(A) = J(A) - (eps/2)||A||_L2^2, and the same Newton ascent serves
both duals: at eps > 0 it stops on the in-basis defect
||a - P(n[rho] - n)/eps||, once that is within tol_l2 or within its
rounding scale u ||n||_2 / eps, whichever is larger, and never on a
non-finite defect.  An iterate is a GibbsState, which keeps its n, eps and
gradient norm; the report keeps its density, which residual_l2 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisTooSmall, MaxIterExceeded
from .functionals import (
    GibbsState,
    _hessian_from_spectrum,
    free_energy,
    penalized_free_energy,
)
from .spectral_core import (
    ChemicalPotential,
    DensityOperator,
    DensityProfile,
    SpectralBasis,
    _grid_spectrum,
    _integer_at_least,
    _xlogx,
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
]

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
        if not 0.0 < self.tol_l2 < np.inf:
            raise ValueError(f"tol_l2 must be finite and > 0, got {self.tol_l2!r}")
        _integer_at_least("max_iter", self.max_iter, 0)
        sched = tuple(float(e) for e in self.epsilon_schedule)
        if not sched:
            raise ValueError("epsilon_schedule must not be empty")
        # each eps finite and above the next one, the last above 0
        if not all(np.inf > a > b >= 0.0 for a, b in zip(sched, sched[1:] + (0.0,))):
            raise ValueError("epsilon_schedule must be strictly descending, finite "
                             f"and positive, got {sched!r}")
        object.__setattr__(self, "epsilon_schedule", sched)


@dataclass(frozen=True)
class HistoryEntry:
    residual: float
    step_size: float
    objective: float
    direction: str  # "newton", or "gradient" for the fallback


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
    density: np.ndarray = field(default=None, repr=False, compare=False)


def _evaluate(n: DensityProfile, a, eps: float) -> GibbsState:
    """The Gibbs state of coefficient vector ``a``, evaluated on J_eps against ``n``."""
    return GibbsState(ChemicalPotential(n.basis, np.asarray(a, dtype=float)), n, eps)


def _semiclassical_coefficients(basis: SpectralBasis, n: DensityProfile):
    """Semiclassical guess -log n + log Z0, exact for constant n."""
    z0 = float(np.sum(np.exp(-basis.h_eigenvalues)))
    return basis.project(-np.log(n.values) + np.log(z0))


def _pure_state_coefficients(basis: SpectralBasis, n: DensityProfile):
    """Bohm potential P[(sqrt n)''/sqrt n] - log(mass) e_0, exact for a pure
    state: rho = w |phi><phi| with phi > 0 normalized has n = w phi^2, so
    w = mass, and -phi'' + A phi = -log(w) phi gives A.  Scaling n by c
    shifts a_0 by exactly -log c.  None when it overflows."""
    root = np.sqrt(n.values)
    with np.errstate(over="ignore", invalid="ignore"):
        a = basis.project(spectral_derivative(root, order=2) / root)
        a[0] -= np.log(n.mass)
    return a if np.all(np.isfinite(a)) else None


def _cold_start(n: DensityProfile, eps: float) -> GibbsState:
    """The pure-state start if it is finite and its J_eps is finite;
    otherwise the semiclassical guess."""
    a = _pure_state_coefficients(n.basis, n)
    if a is not None:
        pure = _evaluate(n, a, eps)
        if np.isfinite(pure.objective):
            return pure
    return _evaluate(n, _semiclassical_coefficients(n.basis, n), eps)


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
    Parseval: the basis is orthonormal and the quadrature exact.  An
    overflowed residual reads inf outside, not the NaN of inf - inf."""
    inside = state.grad_norm
    if state.residual_l2 == np.inf:
        return inside, np.inf
    return inside, float(np.sqrt(max(state.residual_l2**2 - inside**2, 0.0)))


def _stopping_measure(state: GibbsState) -> float:
    """The stopping measure: the L2 residual ||n[rho] - n|| at eps = 0; for
    eps > 0 the in-basis defect ||a - P(n[rho] - n)/eps|| = ||grad J_eps|| / eps.
    The out-of-basis part (1/eps)(I - P)(n[rho] - n) of the grid defect is
    Galerkin truncation, which no potential in the basis can change."""
    if state.eps > 0.0:
        return state.grad_norm / state.eps
    return state.residual_l2


def _rounding_scale(n: DensityProfile, eps: float) -> float:
    """The stopping measure's rounding scale: u ||n||_2 (u the machine
    epsilon, ||n||_2 the Euclidean norm of the N samples, sqrt(N) times the
    L2 norm), over eps for eps > 0.  It bounds the measure's floor on
    unit-size potentials, measured at 2-7 u ||n||_L2 at D = 41 and up to 9
    at D = 129."""
    with np.errstate(over="ignore"):  # an overflowed norm reads inf
        return np.finfo(float).eps * np.linalg.norm(n.values) / (eps if eps > 0.0 else 1.0)


def _ascent_direction(state: GibbsState):
    """(d, slope): the Newton direction on the state's J_eps and its slope
    g.d, g = ``state.grad_coeffs``.  d solves S d = g for the Newton matrix
    S = -Hess J_eps + NEWTON_SHIFT I = -Hess J + (NEWTON_SHIFT + eps) I by
    one LU solve, once S is finite and its Cholesky factorization shows it
    positive definite (that test alone lets a NaN entry through).  The
    fallback is the gradient array g itself, so ``d is g`` marks it, taken
    when S fails either test or the slope is not positive."""
    g = state.grad_coeffs
    S = -_hessian_from_spectrum(state)
    S.flat[::S.shape[0] + 1] += NEWTON_SHIFT + state.eps
    try:
        if not np.all(np.isfinite(S)):
            raise np.linalg.LinAlgError("Newton matrix is not finite")
        np.linalg.cholesky(S)
        d = np.linalg.solve(S, g)
    except np.linalg.LinAlgError:
        d = g
    slope = float(g @ d)
    if not slope > 0.0:  # a NaN slope (an overflowed solve) fails too
        with np.errstate(over="ignore"):  # a gradient too large to square gives slope inf
            d, slope = g, float(g @ g)
    return d, slope


def _rises_by(trial: GibbsState, state: GibbsState, gain: float) -> bool:
    """Armijo test: J rose by at least ``gain``; a non-finite J never passes."""
    return bool(np.isfinite(trial.objective) and trial.objective >= state.objective + gain)


def _dual_ascent(n: DensityProfile, opts: SolverOptions, eps: float = 0.0, initial=None):
    """Damped Newton ascent on J_eps (J at eps = 0) from ``initial`` or,
    cold, from :func:`_cold_start`.  From the first iterate whose stopping
    measure is within tolerance it returns (state, history) after the
    refinement: the full step along :func:`_ascent_direction`, kept (one
    history entry) iff it shrinks the measure by more than the rounding
    scale, and not computed when the measure is within that scale, where
    no trial could shrink it by more.  At eps > 0 the tolerance is raised
    to the scale when that is larger than tol_l2.  Raises BasisTooSmall at a
    rounding floor the basis causes (eps = 0 only) and MaxIterExceeded
    when the budget runs out."""
    basis = n.basis
    scale = _rounding_scale(n, eps)
    tol = max(opts.tol_l2, scale) if eps > 0.0 else opts.tol_l2
    state = _cold_start(n, eps) if initial is None else _evaluate(n, initial, eps)
    history = []
    for _ in range(opts.max_iter):
        measure = _stopping_measure(state)
        # an overflowed measure never converges, even against an inf scale
        converged = measure < np.inf and measure <= tol
        if converged and measure <= scale:
            return state, history
        d, slope = _ascent_direction(state)
        direction = "gradient" if d is state.grad_coeffs else "newton"
        alpha = 1.0
        trial = _evaluate(n, state.potential.coefficients + d, eps)
        if converged:
            if _stopping_measure(trial) < measure - scale:
                state = trial
                history.append(HistoryEntry(residual=state.residual_l2, step_size=1.0,
                                            objective=state.objective, direction=direction))
            return state, history
        # sub-ulp objective gains cannot be certified; the slack keeps the
        # Armijo test meaningful once J saturates in double precision
        fp_slack = 1e-15 * (1.0 + abs(state.objective))
        # once the gain Armijo asks for is rounding noise in J it certifies
        # nothing: the full step is judged by the gradient the dual controls,
        # and a full step that cannot shrink it marks the dual's rounding floor
        unresolved = ARMIJO_C * slope <= fp_slack
        full_step = unresolved and trial.grad_norm < state.grad_norm
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
                    report=_solution(state, history)[1],
                    potential=state.potential)
        while not (full_step or _rises_by(trial, state, ARMIJO_C * alpha * slope - fp_slack)):
            alpha *= ARMIJO_SHRINK
            if alpha < 1e-14:
                break
            trial = _evaluate(n, state.potential.coefficients + alpha * d, eps)
        if np.isfinite(trial.objective):  # an exhausted search never moves to NaN or inf
            state = trial
        history.append(HistoryEntry(residual=state.residual_l2, step_size=alpha,
                                    objective=state.objective, direction=direction))
    error = _stopping_measure(state)
    if error < np.inf and error <= tol:
        return state, history
    what = f"penalized (epsilon={eps:g}) in-basis defect" if eps > 0.0 else "residual"
    where = "" if eps > 0.0 else (
        f"; {_residual_split(state)[1]:.3e} of it lies beyond wavenumber {basis.M}")
    if tol == np.inf:  # eps > 0 only: print tol_l2, not the overflowed scale
        tol, where = opts.tol_l2, "; its rounding scale u ||n||_2 / epsilon overflowed"
    raise MaxIterExceeded(
        f"{what} {error:.3e} above tolerance {tol:.1e} "
        f"after {opts.max_iter} iterations{where}",
        report=_solution(state, history)[1], potential=state.potential)


def _solution(state: GibbsState, history):
    """(rho, report) of the iterate ``state``, with the primal/dual pair
    (F, J), or (F_eps, J_eps) for eps > 0, which agree at the optimum."""
    rho, eps = DensityOperator(state.potential.basis, state.matrix), state.eps
    f = penalized_free_energy(rho, state.target, eps) if eps > 0.0 else free_energy(rho)
    report = SolveReport(
        iterations=len(history),
        residual_l2=state.residual_l2,
        residual_hminus1=sobolev_norm(state.residual, -1),
        free_energy=f.total,
        dual_value=state.objective,
        duality_gap=f.total - state.objective,
        el_residual=euler_lagrange_residual(rho, state.potential),
        history=history,
        density=state.density,
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
    rho, report = _solution(state, history)
    return state.potential, rho, report


def solve_penalized(n: DensityProfile, epsilon: float, *,
                    opts: SolverOptions | None = None, initial=None):
    """Minimize the penalized functional; returns (rho_eps, A_eps, report).

    rho_eps = exp(-(H+A_eps)), where A_eps maximizes the strictly concave
    dual J_eps(A) = J(A) - (eps/2)||A||_L2^2 by the same Newton ascent as
    the constrained solve, cold-started from the pure-state potential (the
    semiclassical guess when that potential's J_eps is not finite), or
    warm-started from the coefficients ``initial``.  It stops when the
    in-basis defect ||a - P(n[rho] - n)/eps|| is at most tol_l2 or its
    rounding scale u ||n||_2 / eps, whichever is larger, and raises
    MaxIterExceeded otherwise.  epsilon must be finite and > 0.

    The reported free_energy/dual_value pair is the penalized objective
    F_eps and its exact Fenchel dual J_eps, which agree at the optimum;
    F_eps with the beta_eta entropy is penalized_free_energy(rho, n, eps, eta).
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")
    state, history = _dual_ascent(n, opts or SolverOptions(), epsilon, initial)
    rho, report = _solution(state, history)
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
    return list(_sweep_rows(n, opts or SolverOptions()))


def _sweep_rows(n: DensityProfile, opts: SolverOptions):
    """The rows of :func:`epsilon_sweep`, each yielded once its solve is done,
    so a caller keeps the rows finished before a solve raises."""
    A_ref, _, _ = solve_maxwellian(n, opts)
    warm = None
    for eps in opts.epsilon_schedule:
        _, A_eps, report = solve_penalized(n, eps, opts=opts, initial=warm)
        warm = A_eps.coefficients
        dist = sobolev_norm(
            ChemicalPotential(n.basis, A_eps.coefficients - A_ref.coefficients), -1)
        yield EpsilonSweepRow(
            epsilon=eps,
            residual_l2=report.residual_l2,
            f_eps=report.free_energy,
            a_dist_hminus1=dist,
        )


def euler_lagrange_residual(rho: DensityOperator, A: ChemicalPotential) -> float:
    """J2 norm of sqrt(rho)(log rho + H + A) sqrt(rho).

    Vanishes (to rounding) whenever rho = exp(-(H+A)) for the same A.  On a
    Gibbs state built from the eigenpairs (lam, V) of K = H + A, such as
    gibbs_from_potential's, V^T K V is diag(lam) plus rounding: the residual
    then checks the eigensolver, not the solve.  Reads ``rho.eigenpairs``: a
    spectrum negative beyond the PSD tolerance raises NotPositiveSemidefinite,
    and eigenvalues that underflow to zero enter through their continuous
    limit s log(s) -> 0.  A norm that overflows reads inf.
    """
    lam, V = rho.eigenpairs
    K = assemble_hamiltonian_plus_potential(rho.basis, A)
    Kt = V.T @ K @ V
    t = np.sqrt(lam)
    X = (t[:, None] * t[None, :]) * Kt + np.diag(_xlogx(lam))
    with np.errstate(over="ignore"):  # an overflowed norm reads inf
        return float(np.linalg.norm(X))
