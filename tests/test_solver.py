import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import basis_derivatives, random_potential

import qmaxwell as qm
from qmaxwell import maxwellian_solver
from qmaxwell.errors import BasisTooSmall, MaxIterExceeded, SingularDensityOperator
from qmaxwell.functionals import GibbsState
from qmaxwell.spectral_core import _xlogx, spectral_derivative


@pytest.fixture(scope="module")
def b4():
    return qm.build_basis(4)


@pytest.fixture(scope="module")
def b8():
    return qm.build_basis(8)


def forward(basis, a_callable):
    A = qm.ChemicalPotential.from_callable(basis, a_callable)
    n = qm.DensityProfile(basis, qm.density_of(qm.gibbs_from_potential(basis, A)))
    return A, n


@pytest.fixture(scope="module")
def roundtrip8(b8):
    A_star, n = forward(b8, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x))
    A, rho, report = qm.solve_maxwellian(n)
    return A_star, n, A, rho, report


# ---------------------------------------------------------------------------
# constrained solves

def test_constant_density_closed_form(b4):
    n = qm.DensityProfile(b4, np.full(b4.N, 2.0))
    A, rho, report = qm.solve_maxwellian(n)
    expected = np.log(np.sum(np.exp(-b4.h_eigenvalues)) / 2.0)
    assert np.max(np.abs(A.on_grid() - expected)) <= 1e-10
    assert report.residual_l2 <= 1e-9
    assert rho.trace == pytest.approx(2.0, abs=1e-10)


def test_roundtrip_recovery(roundtrip8, b8):
    A_star, n, A, rho, report = roundtrip8
    assert np.max(np.abs(A.on_grid() - A_star.on_grid())) <= 1e-6
    assert report.residual_l2 <= 1e-9
    assert np.sqrt(b8.quadrature((qm.density_of(rho) - n.values) ** 2)) <= 1e-9


def test_roundtrip_random_potentials(b8):
    rng = np.random.default_rng(77)
    for _ in range(3):
        coeffs = np.zeros(b8.D)
        coeffs[0] = rng.uniform(-2, 2)
        for k in range(1, b8.M // 2 + 1):
            coeffs[2 * k - 1] = rng.uniform(-2, 2)
            coeffs[2 * k] = rng.uniform(-2, 2)
        A_star = qm.ChemicalPotential(b8, coeffs)
        n = qm.DensityProfile(b8, qm.density_of(qm.gibbs_from_potential(b8, A_star)))
        A, _, report = qm.solve_maxwellian(n)
        assert np.max(np.abs(A.on_grid() - A_star.on_grid())) <= 1e-6
        assert report.residual_l2 <= 1e-9


def test_positivity_hypothesis_boundary(b4):
    # 1 + 0.5 cos needs M ~ 12 before the potential's spectral tail clears
    # the 1e-9 residual floor (A is analytic but not bandlimited)
    b12 = qm.build_basis(12)
    n_ok = qm.DensityProfile(b12, 1.0 + 0.5 * np.cos(2 * np.pi * b12.grid))
    _, _, report = qm.solve_maxwellian(n_ok)
    assert report.residual_l2 <= 1e-9
    with pytest.raises(qm.NonPositiveDensity):
        qm.DensityProfile(b4, np.cos(2 * np.pi * b4.grid))


def test_newton_history_monotone_objective(b4):
    _, n = forward(b4, lambda x: 0.8 * np.cos(2 * np.pi * x) - 0.3 * np.sin(2 * np.pi * x))
    _, _, report = qm.solve_maxwellian(n)
    objectives = [h.objective for h in report.history]
    assert all(b >= a - 5e-15 for a, b in zip(objectives, objectives[1:]))
    assert all(h.step_size > 0 for h in report.history)


def _state_off_solution(basis):
    """Gibbs state of A = 0 against the density of a smooth nonzero potential."""
    _, n = forward(basis, lambda x: 0.7 * np.cos(2 * np.pi * x) + 0.2 * np.sin(6 * np.pi * x))
    return GibbsState(qm.ChemicalPotential.constant(basis, 0.0), n)


def test_newton_direction_matches_dense_solve():
    b20 = qm.build_basis(20)
    state = _state_off_solution(b20)
    g = state.grad_coeffs
    S = -qm.dual_hessian_matrix(state.potential) + 1e-12 * np.eye(b20.D)
    expected = np.linalg.solve(S, g)
    d, slope = maxwellian_solver._ascent_direction(state)
    assert np.linalg.norm(d - expected) <= 1e-10 * np.linalg.norm(expected)
    assert slope == pytest.approx(float(g @ expected), rel=1e-10)
    assert slope > 0.0


def _with_nan_entry(D):
    H = -np.eye(D)
    H[1, 2] = H[2, 1] = np.nan
    return H


def test_newton_falls_back_to_gradient_when_not_positive_definite(b4, monkeypatch):
    # +I makes -H + 1e-12 I negative definite, so the Cholesky factorization
    # fails; a NaN entry must fail it too, where np.linalg.cholesky would
    # return a NaN factor and a NaN slope would slip past the slope test
    state = _state_off_solution(b4)
    g = state.grad_coeffs
    for hessian in (np.eye, _with_nan_entry):
        monkeypatch.setattr(maxwellian_solver, "_hessian_from_spectrum",
                            lambda state: hessian(state.potential.basis.D))
        d, slope = maxwellian_solver._ascent_direction(state)
        assert np.array_equal(d, g)
        assert slope == float(g @ g)


def test_history_records_each_step_direction(b4, monkeypatch):
    # the pure-state start is within tol_l2 but above the rounding scale, so
    # the solve takes one step, the refinement; with the Newton matrix not
    # positive definite, as above, that step is the gradient fallback
    _, n = forward(b4, lambda x: 0.7 * np.cos(2 * np.pi * x) + 0.2 * np.sin(6 * np.pi * x))
    _, _, report = qm.solve_maxwellian(n)
    assert [h.direction for h in report.history] == ["newton"]
    # the loop's own steps: this density stops at a too-small basis after
    # several (four at the time of writing)
    b12 = qm.build_basis(12)
    with pytest.raises(BasisTooSmall) as info:
        qm.solve_maxwellian(qm.DensityProfile(b12, 1.0 + 0.6 * np.cos(2 * np.pi * b12.grid)
                                              + 0.1 * np.sin(6 * np.pi * b12.grid)))
    directions = [h.direction for h in info.value.report.history]
    assert len(directions) >= 2 and set(directions) == {"newton"}
    monkeypatch.setattr(maxwellian_solver, "_hessian_from_spectrum",
                        lambda state: np.eye(state.potential.basis.D))
    _, _, report = qm.solve_maxwellian(n)
    assert [h.direction for h in report.history] == ["gradient"]
    assert report.residual_l2 <= 1e-9


def test_overflowed_newton_solve_falls_back_to_gradient(b4):
    # n spans 5e-324 to 1e300: from the semiclassical guess the gradient is
    # about 1e298, the Newton matrix is positive definite, and its solve
    # overflows to NaN, whose slope must fail the slope test like a
    # non-positive one; a NaN direction made the next trial's eigh raise
    # LinAlgError
    values = np.full(b4.N, 5e-324)
    values[b4.N // 2] = 1e300
    n = qm.DensityProfile(b4, values)
    a = maxwellian_solver._semiclassical_coefficients(b4, n)
    state = GibbsState(qm.ChemicalPotential(b4, a), n)
    with np.errstate(over="ignore", invalid="ignore"):
        d, _ = maxwellian_solver._ascent_direction(state)
    assert d is state.grad_coeffs


def test_overflowed_weights_fall_back_to_gradient():
    # at A = -800 + 0.5 sqrt2 cos 2 pi x the three lowest weights exp(-lambda)
    # overflow; a cut relative to w_0 = inf must not drop every state, which
    # would leave 1e-12 I as the Newton matrix and take the step g / 1e-12
    b8 = qm.build_basis(8)
    coeffs = np.zeros(b8.D)
    coeffs[0], coeffs[1] = -800.0, 0.5
    state = GibbsState(qm.ChemicalPotential(b8, coeffs), qm.DensityProfile(b8, np.ones(b8.N)))
    assert np.isinf(state.weights[0])
    assert not np.all(np.isfinite(qm.dual_hessian_matrix(state.potential)))
    d, _ = maxwellian_solver._ascent_direction(state)
    assert d is state.grad_coeffs


def _spy(monkeypatch, name, record):
    """Wrap maxwellian_solver.<name> so that each call runs record(args, result)."""
    original = getattr(maxwellian_solver, name)

    def spy(*args):
        out = original(*args)
        record(args, out)
        return out

    monkeypatch.setattr(maxwellian_solver, name, spy)


def _spy_directions(monkeypatch):
    """The kind of each search direction in order: dense or gradient (the
    fallback direction is the state's gradient array itself)."""
    kinds = []
    _spy(monkeypatch, "_ascent_direction",
         lambda args, out: kinds.append("gradient" if out[0] is args[0].grad_coeffs
                                        else "dense"))
    return kinds


def test_smooth_solve_builds_no_newton_matrix(monkeypatch):
    # the solve-m20 pattern: the pure-state start is within tolerance and at
    # the stopping measure's rounding floor, so no Newton step is taken and
    # the refinement, which could not be kept there, is not computed
    b20 = qm.build_basis(20)
    A_star, n = forward(b20, lambda x: 0.5 * np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x))
    built = []
    _spy(monkeypatch, "_hessian_from_spectrum", lambda args, out: built.append(out))
    kinds = _spy_directions(monkeypatch)
    A, _, report = qm.solve_maxwellian(n)
    assert kinds == []
    assert report.history == []
    assert built == []
    assert report.residual_l2 <= 1e-14
    assert np.max(np.abs(A.coefficients - A_star.coefficients)) <= 1e-11


def test_refinement_of_a_refined_state_adds_nothing(b8, monkeypatch):
    # these refinements reach the stopping measure's rounding floor, where a
    # further step's gain is rounding: no step is computed from there; on
    # smooth unit-size potentials, whose floor the rounding scale covers (a
    # large potential's floor can exceed it)
    for a_callable in (lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x),
                       lambda x: 0.6 * np.cos(2 * np.pi * x),
                       lambda x: 0.5 * np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x)):
        _, n = forward(b8, a_callable)
        opts = qm.SolverOptions()
        state, _ = maxwellian_solver._dual_ascent(n, opts)
        assert state.residual_l2 < np.finfo(float).eps * np.linalg.norm(n.values)
        a = state.potential.coefficients
        with monkeypatch.context() as patch:
            calls = []
            _spy(patch, "_ascent_direction", lambda args, out: calls.append(out))
            refined, extra = maxwellian_solver._dual_ascent(n, opts, initial=a)
        assert calls == []
        assert extra == []
        assert np.array_equal(refined.potential.coefficients, a)


def _refine_always(n, state, eps):
    """The refinement of a converged state without its skip at the rounding
    floor: the step is always computed, then judged by the same keep rule."""
    d, _ = maxwellian_solver._ascent_direction(state)
    trial = maxwellian_solver._evaluate(n, state.potential.coefficients + d, eps)
    scale = np.finfo(float).eps * np.linalg.norm(n.values) / (eps if eps > 0.0 else 1.0)
    measure = maxwellian_solver._stopping_measure
    if measure(trial) < measure(state) - scale:
        direction = "gradient" if d is state.grad_coeffs else "newton"
        entry = maxwellian_solver.HistoryEntry(residual=trial.residual_l2, step_size=1.0,
                                               objective=trial.objective, direction=direction)
        return trial, [entry]
    return state, []


@pytest.mark.parametrize("M", [4, 8, 20])
@pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-6])
def test_skipped_refinement_keeps_the_outcome(M, eps):
    # the skip at the rounding floor returns what computing the step would:
    # on converged states (below the scale) and on states nudged off them by
    # 1e-12 and 1e-10 (about 1e2 and 1e4 times above it); tol_l2 = 1e-3
    # holds every nudged state (the largest measure is 1.7e-4, at eps =
    # 1e-6), so the one step the ascent takes from it is the refinement
    basis = qm.build_basis(M)
    _, n = forward(basis, lambda x: 0.5 * np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x))
    solved, _ = maxwellian_solver._dual_ascent(n, qm.SolverOptions(), eps)
    a = solved.potential.coefficients
    v = np.random.default_rng(M).standard_normal(basis.D)
    scale = np.finfo(float).eps * np.linalg.norm(n.values) / (eps if eps > 0.0 else 1.0)
    below = []
    for delta in (0.0, 1e-12, 1e-10):
        state = maxwellian_solver._evaluate(n, a + delta * v, eps)
        below.append(maxwellian_solver._stopping_measure(state) <= scale)
        expected, expected_extra = _refine_always(n, state, eps)
        refined, extra = maxwellian_solver._dual_ascent(
            n, qm.SolverOptions(tol_l2=1e-3), eps, initial=a + delta * v)
        assert np.array_equal(refined.potential.coefficients, expected.potential.coefficients)
        assert extra == expected_extra
    assert below == [True, False, False]


def test_refinement_within_one_scale_of_its_start_is_not_kept():
    # states nudged 1e-17..1e-13 off the solution sit just above the rounding
    # scale (1.05-1.23 scales), and some have a full step that shrinks the
    # measure by less than one scale: a gain that size is rounding, so the
    # ascent returns the state it was given and records nothing.  Which
    # nudges do that depends on BLAS rounding, so the grid is searched
    found, measure = 0, maxwellian_solver._stopping_measure
    for M, eps in itertools.product((4, 8, 20), (0.0, 1e-3)):
        basis = qm.build_basis(M)
        _, n = forward(basis, lambda x: 0.5 * np.cos(2 * np.pi * x)
                       + 0.3 * np.sin(6 * np.pi * x))
        solved, _ = maxwellian_solver._dual_ascent(n, qm.SolverOptions(), eps)
        a = solved.potential.coefficients
        v = np.random.default_rng(M).standard_normal(basis.D)
        scale = np.finfo(float).eps * np.linalg.norm(n.values) / (eps if eps > 0.0 else 1.0)
        for delta in np.geomspace(1e-17, 1e-13, 81):
            state = maxwellian_solver._evaluate(n, a + delta * v, eps)
            start = measure(state)
            if not scale < start <= 1e-9:
                continue
            d, _ = maxwellian_solver._ascent_direction(state)
            trial = maxwellian_solver._evaluate(n, a + delta * v + d, eps)
            if not start - scale <= measure(trial) < start:
                continue
            found += 1
            refined, extra = maxwellian_solver._dual_ascent(
                n, qm.SolverOptions(), eps, initial=a + delta * v)
            assert np.array_equal(refined.potential.coefficients, a + delta * v)
            assert extra == []
    assert found >= 1


def test_refinement_above_the_rounding_scale_is_kept():
    # wavenumber 4 at M = 8 puts the pure-state start above the rounding
    # scale (7e3 times it) while within tol_l2: the refinement must still run
    # and be kept.  cos 2 pi x + 0.3 sin 4 pi x alone starts at 0.3 times the
    # scale, at its floor, and records no refinement
    b8 = qm.build_basis(8)
    A_star, n = forward(b8, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x)
                        + 0.5 * np.cos(8 * np.pi * x))
    start = maxwellian_solver._cold_start(n, 0.0)
    assert np.finfo(float).eps * np.linalg.norm(n.values) < start.residual_l2 <= 1e-9
    A, _, report = qm.solve_maxwellian(n)
    assert len(report.history) == 1
    assert report.history[0].step_size == 1.0
    assert report.history[0].residual < start.residual_l2
    assert report.residual_l2 == report.history[0].residual
    assert np.max(np.abs(A.coefficients - A_star.coefficients)) <= 1e-11


def test_warm_start_takes_dense_steps(b8, monkeypatch):
    _, n = forward(b8, lambda x: 0.6 * np.cos(2 * np.pi * x))
    _, A_cold, _ = qm.solve_penalized(n, 1e-2)
    kinds = _spy_directions(monkeypatch)
    qm.solve_penalized(n, 1e-3, initial=A_cold.coefficients)
    assert kinds and set(kinds) == {"dense"}


def test_pure_state_start_is_near_the_solution():
    # a smooth Gibbs state at M = 20 is a pure state to within exp(-4 pi^2)
    b20 = qm.build_basis(20)
    A_star, n = forward(b20, lambda x: 0.7 * np.cos(2 * np.pi * x) - 0.4 * np.sin(4 * np.pi * x))
    start = maxwellian_solver._cold_start(n, 0.0)
    assert np.max(np.abs(start.potential.coefficients - A_star.coefficients)) <= 1e-10


@pytest.mark.parametrize("c", [1e-300, 1e-100, 1e-10])
def test_scaled_density_shifts_the_constant(b8, c):
    # n -> c n shifts a_0 by exactly -log c; the semiclassical start
    # "converged" 0.67, 0.67 and 0.11 away on these inputs, since the
    # absolute tol_l2 is loose on a density of mass c
    A_star, n = forward(b8, lambda x: np.cos(2 * np.pi * x))
    A, _, report = qm.solve_maxwellian(qm.DensityProfile(b8, c * n.values))
    expected = A_star.coefficients.copy()
    expected[0] -= np.log(c)
    assert np.max(np.abs(A.coefficients - expected)) <= 1e-10
    assert report.residual_l2 <= 1e-9


def _narrow_density(basis):
    # (sqrt n)''/sqrt n reaches about 3e7: the pure-state potential's Gibbs
    # weights overflow, and the dual objective rejects that start
    return qm.DensityProfile(basis, 1e-300 + np.exp(-400.0 * (basis.grid - 0.5) ** 2))


def test_overflowing_pure_state_start_is_rejected_by_the_objective():
    # RuntimeWarnings are errors under pytest; started at the pure-state
    # potential, M = 32 emits "invalid value encountered in matmul" and
    # M = 8 raises LinAlgError
    n = _narrow_density(qm.build_basis(32))
    a = maxwellian_solver._pure_state_coefficients(n.basis, n)
    assert not np.isfinite(GibbsState(qm.ChemicalPotential(n.basis, a), n, 0.0).objective)
    _, _, report = qm.solve_maxwellian(n)
    assert report.residual_l2 <= 1e-9
    with pytest.raises(MaxIterExceeded):
        qm.solve_maxwellian(_narrow_density(qm.build_basis(8)))


def test_cold_start_is_the_pure_state_potential_when_its_objective_is_finite(monkeypatch):
    # one Gibbs evaluation and no semiclassical guess, also where that start
    # is outside tol_l2 (100 cos 6 pi x at M = 16); on the narrow density
    # the pure-state potential's J is not finite and the guess is the start
    _, smooth = forward(qm.build_basis(20), lambda x: 0.7 * np.cos(2 * np.pi * x))
    _, large = forward(qm.build_basis(16), lambda x: 100 * np.cos(6 * np.pi * x))
    narrow = _narrow_density(qm.build_basis(32))
    for n, expected in ((smooth, ["_evaluate"]), (large, ["_evaluate"]),
                        (narrow, ["_evaluate", "_semiclassical_coefficients", "_evaluate"])):
        with monkeypatch.context() as patch:
            calls = []
            for name in ("_evaluate", "_semiclassical_coefficients"):
                _spy(patch, name, lambda args, out, name=name: calls.append(name))
            start = maxwellian_solver._cold_start(n, 0.0)
        assert calls == expected
        assert np.isfinite(start.objective)
    assert maxwellian_solver._cold_start(large, 0.0).residual_l2 > 1e-9


def test_overflowing_scaled_density_reports_inf_without_warnings(b8):
    # n scaled by 1e250: the residual overflows, and so did the Frobenius
    # norm in euler_lagrange_residual, which leaked "overflow encountered in
    # dot"; RuntimeWarnings are errors under pytest
    _, n = forward(b8, lambda x: np.cos(2 * np.pi * x))
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_maxwellian(qm.DensityProfile(b8, 1e250 * n.values))
    assert info.value.report.residual_l2 == np.inf
    assert info.value.report.el_residual == np.inf


def test_extreme_range_density_fails_without_warnings(b4):
    # one 1e300 sample among 5e-324 ones: the gradient, its norms and the
    # report's H^-1 norm overflow.  RuntimeWarnings are errors under pytest,
    # and the out-of-basis part of an overflowed residual reads inf, not the
    # NaN of inf - inf
    values = np.full(b4.N, 5e-324)
    values[0] = 1e300
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_maxwellian(qm.DensityProfile(b4, values))
    assert "nan" not in str(info.value)
    assert "inf of it lies beyond wavenumber 4" in str(info.value)


def test_duality_gap_bounds(roundtrip8):
    *_, report = roundtrip8
    assert report.duality_gap >= -1e-8
    assert report.duality_gap <= 1e-6 * (1.0 + abs(report.free_energy))
    assert abs(report.duality_gap) <= 1e-8  # strong duality at the optimum
    assert report.duality_gap == pytest.approx(report.free_energy - report.dual_value,
                                               abs=1e-12)


def test_el_residual_bound_at_success(roundtrip8):
    _, _, _, rho, report = roundtrip8
    assert report.el_residual <= 10.0 * 1e-9 * (1.0 + rho.trace)


def test_max_iterations_carries_report(b4):
    # one step does not solve this input; the default budget does
    _, n = forward(b4, lambda x: 50.0 * np.cos(4 * np.pi * x))
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_maxwellian(n, qm.SolverOptions(max_iter=1))
    assert info.value.report is not None
    assert info.value.report.iterations == 1
    assert info.value.report.residual_l2 > 1e-9


def _hard_density(x):
    return 1e-4 + np.exp(-200.0 * (x - 0.5) ** 2)


def test_zero_budget_returns_a_converged_start_and_fails_any_other():
    # with max_iter = 0 the loop never runs: the start is judged after it
    b20 = qm.build_basis(20)
    _, n = forward(b20, lambda x: 0.5 * np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x))
    _, _, report = qm.solve_maxwellian(n, qm.SolverOptions(max_iter=0))
    assert report.iterations == 0
    assert report.history == []
    assert report.residual_l2 <= 1e-9
    hard = qm.DensityProfile(b20, _hard_density(b20.grid))
    with pytest.raises(MaxIterExceeded, match="after 0 iterations") as info:
        qm.solve_maxwellian(hard, qm.SolverOptions(max_iter=0))
    assert info.value.report.iterations == 0


# (mode cutoff M, density, least acceptable suggestion)
_TOO_SMALL = {
    "cos6-M1": (1, lambda x: 1.0 + 0.5 * np.cos(6 * np.pi * x), 3),
    "hard-M16": (16, _hard_density, 17),
    "hard-M24": (24, _hard_density, 25),
    # near the floor the Newton slope (1.1e-14) exceeds J's rounding slack
    # (6.2e-15) while the Armijo gain it asks for does not; judging that full
    # step by Armijo backtracks to alpha ~ 4e-12 and repeats it until the
    # budget runs out
    "wide-M32": (32, lambda x: 1e-2 + np.exp(-50.0 * (x - 0.5) ** 2), 33),
}


@pytest.mark.parametrize("M, density, least", _TOO_SMALL.values(), ids=_TOO_SMALL.keys())
def test_basis_too_small_detection(M, density, least):
    basis = qm.build_basis(M)
    n = qm.DensityProfile(basis, density(basis.grid))
    opts = qm.SolverOptions(max_iter=200)
    with pytest.raises(BasisTooSmall) as info:
        qm.solve_maxwellian(n, opts)
    assert info.value.suggested_modes >= least
    report = info.value.report
    assert report is not None
    assert report.iterations <= 40
    assert report.residual_l2 > opts.tol_l2
    assert info.value.potential.basis is basis
    # raised at the dual's rounding floor: what the basis can represent is met
    residual = GibbsState(info.value.potential, n).residual
    assert np.linalg.norm(basis.project(residual)) <= opts.tol_l2
    assert "beyond wavenumber" in str(info.value)


def test_basis_too_small_names_the_grid_cap():
    # the residual still exceeds tol_l2 beyond every cutoff below Nyquist on
    # the 256-point grid: the suggestion is the grid's cap, and says so
    M, density, _ = _TOO_SMALL["wide-M32"]
    basis = qm.build_basis(M)
    with pytest.raises(BasisTooSmall) as info:
        qm.solve_maxwellian(qm.DensityProfile(basis, density(basis.grid)),
                            qm.SolverOptions(max_iter=200))
    assert info.value.suggested_modes == basis.N // 2 == 128
    assert "no cutoff below this 256-point grid's Nyquist wavenumber 128" in str(info.value)
    # a measured suggestion does not claim the cap
    M, density, _ = _TOO_SMALL["hard-M16"]
    basis = qm.build_basis(M)
    with pytest.raises(BasisTooSmall) as info:
        qm.solve_maxwellian(qm.DensityProfile(basis, density(basis.grid)),
                            qm.SolverOptions(max_iter=200))
    assert info.value.suggested_modes < basis.N // 2
    assert "Nyquist" not in str(info.value)


def test_basis_too_small_retry_converges():
    # each suggestion is a measured lower estimate, so a retry may suggest again
    M, opts = 16, qm.SolverOptions(max_iter=200)
    for _ in range(6):
        basis = qm.build_basis(M)
        try:
            _, _, report = qm.solve_maxwellian(
                qm.DensityProfile(basis, _hard_density(basis.grid)), opts)
        except BasisTooSmall as exc:
            assert exc.suggested_modes > M
            M = exc.suggested_modes
            continue
        assert report.residual_l2 <= opts.tol_l2
        return
    pytest.fail(f"no convergence within 6 solves, last M = {M}")


@pytest.mark.parametrize("case", ["cos6-M1", "hard-M16"])
def test_basis_too_small_rests_on_a_dense_step(case, monkeypatch):
    M, density, least = _TOO_SMALL[case]
    basis = qm.build_basis(M)
    kinds = _spy_directions(monkeypatch)
    with pytest.raises(BasisTooSmall) as info:
        qm.solve_maxwellian(qm.DensityProfile(basis, density(basis.grid)),
                            qm.SolverOptions(max_iter=200))
    assert info.value.suggested_modes >= least
    assert kinds[-1] == "dense"


def test_scaled_density_is_not_blamed_on_basis(b8):
    # 1e100 n[exp(-(H + cos 2 pi x))] is exactly representable at M = 8; the
    # absolute tolerance may exhaust the budget, but the basis is not at fault
    _, n = forward(b8, lambda x: np.cos(2 * np.pi * x))
    try:
        qm.solve_maxwellian(qm.DensityProfile(b8, 1e100 * n.values))
    except MaxIterExceeded:
        pass


def test_max_iterations_names_out_of_basis_residual(b8):
    # the Newton matrix is nearly singular (condition ~4e15) and J still rises
    # at the end of the budget: not a rounding floor, but the message still
    # splits off what the basis cannot represent
    n = qm.DensityProfile(b8, 1e-6 + np.exp(-400.0 * (b8.grid - 0.5) ** 2))
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_maxwellian(n, qm.SolverOptions(max_iter=200))
    assert "beyond wavenumber 8" in str(info.value)


# potentials c0 + sum_k a_k cos 2 pi k x + b_k sin 2 pi k x with large amplitudes
_LARGE_POTENTIALS = [
    (4.287817398256083,
     [-0.10198162646622033, -4.982125401011602, -0.9558605364989001,
      0.21961363598695907, 2.9594167171075183, -4.580824497261742],
     [18.973274556016467, 7.6938743716281035, 6.963823020974915,
      -5.146353424750572, -2.7920934958897163, 1.468511911555879]),
    (4.221403542447447,
     [11.17884723673333, -17.558705598336623, -13.861767888238994,
      9.001231555205173, -5.360049227082346, 8.218156318525656],
     [0.024378091677050556, 13.51923767824933, -5.010326180769827,
      3.855154501761073, -13.526767304527429, 6.761484934260728]),
]


@pytest.mark.parametrize("c0, a, b", _LARGE_POTENTIALS)
def test_full_step_taken_when_gain_is_below_rounding(c0, a, b):
    # near convergence the predicted gain g.d is below the rounding error of
    # J, so the Armijo test alone would reject the full Newton step, backtrack
    # to tiny steps and report a false BasisTooSmall
    b16 = qm.build_basis(16)
    coeffs = np.zeros(b16.D)
    coeffs[0] = c0
    coeffs[1:13:2] = np.array(a) / np.sqrt(2.0)
    coeffs[2:13:2] = np.array(b) / np.sqrt(2.0)
    n = qm.DensityProfile(b16, GibbsState(qm.ChemicalPotential(b16, coeffs)).density)
    A, _, report = qm.solve_maxwellian(n)
    assert report.residual_l2 <= 1e-9
    assert np.max(np.abs(A.coefficients - coeffs)) <= 1e-6


def test_options_validation():
    for tol in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tol_l2 must be finite and > 0"):
            qm.SolverOptions(tol_l2=tol)
    with pytest.raises(ValueError):
        qm.SolverOptions(epsilon_schedule=(1e-2, 1e-1))
    with pytest.raises(ValueError):
        qm.SolverOptions(max_iter=-5)
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        qm.SolverOptions(max_iter=2.5)
    with pytest.raises(ValueError):
        qm.SolverOptions(epsilon_schedule=())


# ---------------------------------------------------------------------------
# penalized minimization

def test_penalized_large_epsilon_unconstrained_limit(b4):
    _, n = forward(b4, lambda x: 0.4 * np.cos(2 * np.pi * x))
    rho_eps, _, _ = qm.solve_penalized(n, 1e6)
    base = qm.gibbs_from_potential(b4, qm.ChemicalPotential.constant(b4, 0.0))
    assert np.max(np.abs(rho_eps.matrix - base.matrix)) <= 1e-5


def test_penalized_self_consistency_contract(b4):
    _, n = forward(b4, lambda x: 0.4 * np.cos(2 * np.pi * x))
    opts = qm.SolverOptions(tol_l2=1e-9)
    warm = None
    for eps in (1.0, 1e-2, 1e-4):
        rho_eps, A_eps, _ = qm.solve_penalized(n, eps, opts=opts, initial=warm)
        warm = A_eps.coefficients
        defect = A_eps.on_grid() - (qm.density_of(rho_eps) - n.values) / eps
        assert np.sqrt(b4.quadrature(defect**2)) <= opts.tol_l2


def test_penalized_chain_and_monotone_objective(b4):
    _, n = forward(b4, lambda x: 0.6 * np.cos(2 * np.pi * x))
    _, rho_ref, _ = qm.solve_maxwellian(n)
    f_ref = qm.free_energy(rho_ref).total
    warm = None
    residuals, f_eps_values = [], []
    for eps in qm.SolverOptions().epsilon_schedule:
        rho_eps, A_eps, report = qm.solve_penalized(n, eps, initial=warm)
        warm = A_eps.coefficients
        f_plain = qm.free_energy(rho_eps).total
        f_pen = qm.penalized_free_energy(rho_eps, n, eps).total
        assert f_plain <= f_pen + 1e-9
        assert f_pen <= f_ref + 1e-9
        residuals.append(report.residual_l2)
        f_eps_values.append(f_pen)
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    # penalized optimal values climb toward the constrained value as eps drops
    assert all(b >= a - 1e-9 for a, b in zip(f_eps_values, f_eps_values[1:]))


def test_penalized_duality_gap_vanishes(b4):
    _, n = forward(b4, lambda x: 0.5 * np.sin(2 * np.pi * x))
    for eps in (1.0, 1e-3):
        _, _, report = qm.solve_penalized(n, eps)
        assert report.duality_gap >= -1e-8
        assert abs(report.duality_gap) <= 1e-8


def test_penalized_stops_on_in_basis_defect(b4):
    # the grid defect of this density keeps the out-of-basis part
    # (1/eps)(I - P)(n[rho] - n); the solve stops on the in-basis part
    _, n = forward(b4, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x))
    eps, opts = 1e-2, qm.SolverOptions()
    rho_eps, A_eps, report = qm.solve_penalized(n, eps, opts=opts)
    projected = b4.project(qm.density_of(rho_eps) - n.values)
    assert np.linalg.norm(A_eps.coefficients - projected / eps) <= opts.tol_l2
    assert 0.0 <= report.duality_gap <= 1e-8


@pytest.mark.parametrize("eps", [1e-7, 1e-8])
def test_penalized_solve_stops_at_its_rounding_floor(roundtrip8, eps):
    # at these eps the in-basis defect's rounding floor exceeds tol_l2 =
    # 1e-9, which the solve could not reach: warm-started, it spent all 100
    # steps and raised MaxIterExceeded
    _, n, _, _, _ = roundtrip8
    _, warm, _ = qm.solve_penalized(n, 1e-6)
    _, A_eps, report = qm.solve_penalized(n, eps, initial=warm.coefficients)
    scale = np.finfo(float).eps * np.linalg.norm(n.values) / eps
    assert scale > 1e-9
    defect = GibbsState(A_eps, n, eps).grad_coeffs
    assert np.linalg.norm(defect) / eps <= scale
    assert report.iterations <= 5


def test_penalized_overflowed_defect_never_converges(b8):
    # the rounding scale u ||n||_2 / eps of these n overflows to inf, and
    # "defect inf <= tolerance inf" returned them after 0 iterations, with
    # residual and free energy inf; the defect's norm and the penalty leaked
    # overflow warnings on the way.  c = 1e160 still stops at its rounding
    # floor, a finite defect (see ROADMAP item 3)
    _, n0 = forward(b8, lambda x: np.cos(2 * np.pi * x))
    cases = [(c * n0.values, 1e-2) for c in (1e170, 1e200, 1e300)]
    cases += [(np.full(b8.N, 1e300), eps) for eps in (1e-2, 1.0)]
    for values, eps in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                _, _, report = qm.solve_penalized(qm.DensityProfile(b8, values), eps)
            except MaxIterExceeded:
                continue
        assert np.isfinite(report.residual_l2), (values[0], eps)


def test_penalized_budget_error_names_tol_l2_when_the_scale_overflows(b8):
    # u ||n||_2 / eps overflows for flat n = 1e300, and the message read
    # "defect inf above tolerance inf"
    n = qm.DensityProfile(b8, np.full(b8.N, 1e300))
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_penalized(n, 1e-2)
    message = str(info.value)
    assert "above tolerance 1.0e-09 " in message
    assert message.endswith("its rounding scale u ||n||_2 / epsilon overflowed")


def test_penalized_max_iter_report_is_penalized(b4):
    _, n = forward(b4, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x))
    eps = 1e-2
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_penalized(n, eps, opts=qm.SolverOptions(max_iter=1))
    report, A = info.value.report, info.value.potential
    rho = qm.gibbs_from_potential(b4, A)
    a = A.coefficients
    assert report.free_energy == qm.penalized_free_energy(rho, n, eps).total
    assert report.dual_value == qm.dual_functional(A, n) - 0.5 * eps * (a @ a)
    assert report.history[-1].objective == report.dual_value


def test_penalized_rejects_bad_epsilon(b4):
    _, n = forward(b4, lambda x: 0.1 * np.cos(2 * np.pi * x))
    with pytest.raises(ValueError):
        qm.solve_penalized(n, 0.0)


def test_penalized_takes_no_positional_options(b4):
    # the third positional argument was eta; options are keyword-only
    _, n = forward(b4, lambda x: 0.1 * np.cos(2 * np.pi * x))
    with pytest.raises(TypeError):
        qm.solve_penalized(n, 1e-2, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, call", [
    pytest.param("epsilon", lambda n, rho, x: qm.solve_penalized(n, x),
                 id="solve_penalized"),
    pytest.param("epsilon", lambda n, rho, x: qm.penalized_free_energy(rho, n, x),
                 id="penalized_free_energy-epsilon"),
    pytest.param("eta", lambda n, rho, x: qm.penalized_free_energy(rho, n, 1.0, x),
                 id="penalized_free_energy-eta"),
    pytest.param("eta", lambda n, rho, x: qm.entropy_trace(rho, x), id="entropy_trace"),
    pytest.param("eta", lambda n, rho, x: qm.matrix_entropy_function(rho, x),
                 id="matrix_entropy_function"),
    pytest.param("eta", lambda n, rho, x: qm.gateaux_entropy_derivative(
        rho, np.eye(rho.basis.D), x), id="gateaux_entropy_derivative"),
    pytest.param("epsilon_schedule", lambda n, rho, x: qm.SolverOptions(
        epsilon_schedule=(1.0, x)), id="schedule-last"),
    pytest.param("epsilon_schedule", lambda n, rho, x: qm.SolverOptions(
        epsilon_schedule=(x, 1.0)), id="schedule-first"),
    pytest.param("max_iter", lambda n, rho, x: qm.SolverOptions(max_iter=x), id="max_iter"),
])
def test_non_finite_parameters_are_rejected(b4, name, call, value):
    # NaN compares False both ways, so a test such as epsilon <= 0 let it
    # through: NaN reports, a failed eigensolve or a leaked RuntimeWarning
    _, n = forward(b4, lambda x: 0.4 * np.cos(2 * np.pi * x))
    rho = qm.gibbs_from_potential(b4, qm.ChemicalPotential.constant(b4, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            call(n, rho, value)


# ---------------------------------------------------------------------------
# epsilon sweep

def test_sweep_constant_density(b4):
    n = qm.DensityProfile(b4, np.full(b4.N, 2.0))
    rows = qm.epsilon_sweep(n, qm.SolverOptions())
    c_star = np.log(np.sum(np.exp(-b4.h_eigenvalues)) / 2.0)
    dists = [row.a_dist_hminus1 for row in rows]
    assert all(b <= a * 1.1 for a, b in zip(dists, dists[1:]))  # 10% jitter allowance
    # every penalized potential is constant; the distance is the scalar gap
    warm = None
    for row in rows:
        _, A_eps, _ = qm.solve_penalized(n, row.epsilon, initial=warm)
        warm = A_eps.coefficients
        grid_vals = A_eps.on_grid()
        assert np.max(grid_vals) - np.min(grid_vals) <= 1e-10
        assert row.a_dist_hminus1 == pytest.approx(abs(np.mean(grid_vals) - c_star),
                                                   rel=1e-6, abs=1e-12)


def test_sweep_single_epsilon(b4):
    _, n = forward(b4, lambda x: 0.3 * np.cos(2 * np.pi * x))
    rows = qm.epsilon_sweep(n, qm.SolverOptions(epsilon_schedule=(1e-2,)))
    assert len(rows) == 1
    assert rows[0].epsilon == 1e-2


def test_sweep_roundtrip_final_distance(b8):
    _, n = forward(b8, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x))
    schedule = tuple(10.0**-k for k in range(8))
    opts = qm.SolverOptions(epsilon_schedule=schedule, tol_l2=1e-8)
    rows = qm.epsilon_sweep(n, opts)
    dists = [row.a_dist_hminus1 for row in rows]
    assert all(b <= a * 1.1 for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 100.0 * opts.tol_l2


# ---------------------------------------------------------------------------
# Euler-Lagrange residual and potential reconstruction

def test_el_residual_gibbs_consistency(b4):
    A0 = qm.ChemicalPotential.constant(b4, 0.0)
    rho0 = qm.gibbs_from_potential(b4, A0)
    assert qm.euler_lagrange_residual(rho0, A0) <= 1e-10


def test_el_residual_constant_shift(b4):
    A0 = qm.ChemicalPotential.constant(b4, 0.0)
    rho0 = qm.gibbs_from_potential(b4, A0)
    shifted = qm.ChemicalPotential.constant(b4, 1.0)
    # sqrt(rho)(log rho + H + 1) sqrt(rho) = rho, so the residual is its J2 norm
    assert qm.euler_lagrange_residual(rho0, shifted) == pytest.approx(qm.hs_norm(rho0))


def test_el_residual_of_a_gibbs_state_decomposes_once(b8, monkeypatch):
    # gibbs_from_potential keeps the eigenpairs of H + A, and the residual
    # reads them instead of decomposing the composed matrix again
    A = qm.ChemicalPotential.from_callable(
        b8, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x))
    eigh, calls = np.linalg.eigh, []

    def spy(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    residual = qm.euler_lagrange_residual(qm.gibbs_from_potential(b8, A), A)
    assert len(calls) == 1
    assert residual <= 1e-12


def test_el_residual_rejects_negative_spectrum(b4):
    # an operator built from a matrix decomposes on demand; one built from
    # eigenpairs (gibbs_from_potential) keeps them and never reads its matrix
    m = np.diag([1.0, -0.5] + [0.0] * (b4.D - 2))
    rho = qm.DensityOperator(b4, np.eye(b4.D))
    object.__setattr__(rho, "matrix", m)
    with pytest.raises(SingularDensityOperator):
        qm.euler_lagrange_residual(rho, qm.ChemicalPotential.constant(b4, 0.0))


def test_reconstruction_zero_potential(b8):
    rho = qm.gibbs_from_potential(b8, qm.ChemicalPotential.constant(b8, 0.0))
    n = qm.DensityProfile(b8, qm.density_of(rho))
    for p in range(b8.D):
        assert abs(qm.reconstruct_potential_form(rho, n, b8.functions[p])) <= 1e-8


def test_reconstruction_matches_solved_potential(roundtrip8, b8):
    _, n, A, rho, _ = roundtrip8
    a_grid = A.on_grid()
    bound = 1e-6 * (1.0 + qm.sobolev_norm(a_grid, 0))
    for p in range(b8.D):
        psi = b8.functions[p]
        direct = b8.quadrature(a_grid * psi)
        assert abs(qm.reconstruct_potential_form(rho, n, psi) - direct) <= bound


def test_reconstruction_linearity(roundtrip8, b8):
    _, n, _, rho, _ = roundtrip8
    rng = np.random.default_rng(9)
    psi1 = rng.standard_normal(b8.N)
    psi2 = rng.standard_normal(b8.N)
    combined = qm.reconstruct_potential_form(rho, n, psi1 + 2.0 * psi2)
    parts = qm.reconstruct_potential_form(rho, n, psi1) \
        + 2.0 * qm.reconstruct_potential_form(rho, n, psi2)
    assert combined == pytest.approx(parts, abs=1e-12)


def test_reconstruction_stack_matches_single_calls(roundtrip8, b8):
    # a stack of test functions shares one eigendecomposition of rho and
    # rounds exactly as the one-function calls do
    _, n, _, rho, _ = roundtrip8
    psis = np.vstack([b8.functions, np.random.default_rng(4).standard_normal((3, b8.N))])
    stacked = qm.reconstruct_potential_form(rho, n, psis)
    assert stacked.shape == (psis.shape[0],)
    assert list(stacked) == [qm.reconstruct_potential_form(rho, n, psi) for psi in psis]
    with pytest.raises(ValueError):
        qm.reconstruct_potential_form(rho, n, psis[None])


def _reconstruction_reference(rho, n, psi):
    """The form as first written, with (D, K, N) temporaries and the FFT
    derivative of (psi/n) phi_p."""
    basis = rho.basis
    g = (np.asarray(psi, dtype=float) / n.values)[..., None, :]
    lam, V = rho.eigenpairs
    keep = lam > 1e-250
    lam = lam[keep]
    phi = V.T[keep] @ basis.functions
    dphi = V.T[keep] @ basis_derivatives(basis)
    term1 = np.sum(_xlogx(lam) * np.mean(g * phi**2, axis=-1), axis=-1)
    term2 = np.sum(lam * np.mean(dphi * spectral_derivative(g * phi), axis=-1), axis=-1)
    return -term1 - term2


@pytest.mark.parametrize("M", [4, 8, 20])
def test_reconstruction_matches_the_fft_derivative_form(M):
    basis = qm.build_basis(M)
    A, n = forward(basis, lambda x: np.cos(2 * np.pi * x) - 0.4 * np.sin(6 * np.pi * x))
    rho = qm.gibbs_from_potential(basis, A)
    psis = np.vstack([basis.functions,
                      np.random.default_rng(M).standard_normal((3, basis.N))])
    bound = 1e-12 * (1.0 + np.abs(A.on_grid()).max())
    stacked = qm.reconstruct_potential_form(rho, n, psis)
    assert np.abs(stacked - _reconstruction_reference(rho, n, psis)).max() <= bound
    for psi in psis[[0, 1, -1]]:
        single = qm.reconstruct_potential_form(rho, n, psi)
        assert abs(single - _reconstruction_reference(rho, n, psi)) <= bound


def test_reconstruction_error_is_the_galerkin_truncation(b8):
    # The form assumes -phi'' + A phi = E phi, but the discrete eigenpairs of
    # H + A solve -phi'' + P(A phi) = E phi, P the projection on the basis.
    # On an exact Gibbs state the recovered coefficients therefore miss a_q
    # by T_q = -mean((e_q/n) sum_p lam_p phi_p (I - P)(A phi_p)), which the
    # grid holds exactly: A phi_p has degree <= 2M and e_q (A phi_p) degree
    # 3M < N.  T grows with A; it is what fails the suite's
    # potential_reconstruction bound on 13 of these 20 potentials.
    E = b8.functions
    failing = 0
    for seed in range(20):
        A = random_potential(np.random.default_rng(seed), b8, 3, 10.0)
        rho = qm.gibbs_from_potential(b8, A)
        n = qm.DensityProfile(b8, qm.density_of(rho))
        error = qm.reconstruct_potential_form(rho, n, E) - A.coefficients
        lam, V = rho.eigenpairs
        phi = V.T @ E
        a_phi = A.on_grid() * phi
        truncated = a_phi - (a_phi @ E.T / b8.N) @ E
        T = -np.mean(E / n.values * (lam @ (phi * truncated)), axis=-1)
        assert np.abs(error - T).max() <= 1e-12 * (1.0 + np.abs(A.on_grid()).max())
        bound = 1e-6 * (1.0 + qm.sobolev_norm(A, 0))
        assert (np.abs(error).max() > bound) == (np.abs(T).max() > bound)
        failing += np.abs(T).max() > bound
    assert failing == 13


def test_reconstruction_memory_does_not_grow_with_basis_times_grid():
    # (D, K, N) temporaries, as in the FFT form, take about 100 MB at M = 64
    basis = qm.build_basis(64)
    A, n = forward(basis, lambda x: 0.5 * np.cos(2 * np.pi * x))
    rho = qm.gibbs_from_potential(basis, A)
    rho.eigenpairs  # decomposed before tracing: the form, not eigh, is measured
    tracemalloc.start()
    try:
        qm.reconstruct_potential_form(rho, n, basis.functions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# ---------------------------------------------------------------------------
# Fourier decay diagnostic

def test_decay_constant_potential(b4):
    rows = qm.fourier_decay_diagnostic(qm.ChemicalPotential.constant(b4, -0.7))
    assert rows[0] == (0, pytest.approx(0.7))
    assert all(mag == 0.0 for k, mag in rows[1:])


def test_decay_cosine_spike(b4):
    A = qm.ChemicalPotential.from_callable(b4, lambda x: np.cos(2 * np.pi * x))
    rows = qm.fourier_decay_diagnostic(A)
    assert rows[1][1] == pytest.approx(1 / np.sqrt(2.0), abs=1e-12)
    assert all(mag <= 1e-12 for k, mag in rows if k not in (1,))


def test_decay_of_solved_smooth_density():
    b16 = qm.build_basis(16)
    n = qm.DensityProfile(b16, 1.0 + 0.2 * np.cos(2 * np.pi * b16.grid))
    A, _, _ = qm.solve_maxwellian(n)
    rows = dict(qm.fourier_decay_diagnostic(A))
    assert max(rows[k] for k in range(14, 17)) <= 1e-10
