import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmaxwell as qm
from qmaxwell import maxwellian_solver
from qmaxwell.errors import BasisTooSmall, MaxIterExceeded, SingularDensityOperator
from qmaxwell.functionals import GibbsState


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
    _, n = forward(b4, lambda x: np.cos(2 * np.pi * x))
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_maxwellian(n, qm.SolverOptions(max_iter=1))
    assert info.value.report is not None
    assert info.value.report.iterations == 1
    assert info.value.report.residual_l2 > 1e-9


def _hard_density(x):
    return 1e-4 + np.exp(-200.0 * (x - 0.5) ** 2)


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
    with pytest.raises(ValueError):
        qm.SolverOptions(tol_l2=0.0)
    with pytest.raises(ValueError):
        qm.SolverOptions(epsilon_schedule=(1e-2, 1e-1))
    with pytest.raises(ValueError):
        qm.SolverOptions(max_iter=-5)
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
        rho_eps, A_eps, _ = qm.solve_penalized(n, eps, 0.0, opts, initial=warm)
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
        rho_eps, A_eps, report = qm.solve_penalized(n, eps, 0.0, initial=warm)
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


def test_penalized_eta_affects_reported_objective_only(b4):
    _, n = forward(b4, lambda x: 0.4 * np.cos(2 * np.pi * x))
    rho0, A0, rep0 = qm.solve_penalized(n, 1e-2, 0.0)
    rho1, A1, rep1 = qm.solve_penalized(n, 1e-2, 1e-3)
    assert_allclose(A0.coefficients, A1.coefficients, atol=1e-12)
    assert rep1.free_energy > rep0.free_energy  # beta_eta >= beta_0


def test_penalized_stops_on_in_basis_defect(b4):
    # the grid defect of this density keeps the out-of-basis part
    # (1/eps)(I - P)(n[rho] - n); the solve stops on the in-basis part
    _, n = forward(b4, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x))
    eps, opts = 1e-2, qm.SolverOptions()
    rho_eps, A_eps, report = qm.solve_penalized(n, eps, 0.0, opts)
    projected = b4.project(qm.density_of(rho_eps) - n.values)
    assert np.linalg.norm(A_eps.coefficients - projected / eps) <= opts.tol_l2
    assert 0.0 <= report.duality_gap <= 1e-8


def test_penalized_max_iter_report_is_penalized(b4):
    _, n = forward(b4, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x))
    eps, eta = 1e-2, 1e-3
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_penalized(n, eps, eta, qm.SolverOptions(max_iter=1))
    report, A = info.value.report, info.value.potential
    rho = qm.gibbs_from_potential(b4, A)
    a = A.coefficients
    assert report.free_energy == qm.penalized_free_energy(rho, n, eps, eta).total
    assert report.dual_value == qm.dual_functional(A, n) - 0.5 * eps * (a @ a)
    assert report.history[-1].objective == report.dual_value


def test_penalized_rejects_bad_epsilon(b4):
    _, n = forward(b4, lambda x: 0.1 * np.cos(2 * np.pi * x))
    with pytest.raises(ValueError):
        qm.solve_penalized(n, 0.0)


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
        _, A_eps, _ = qm.solve_penalized(n, row.epsilon, 0.0, initial=warm)
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


def test_el_residual_rejects_negative_spectrum(b4):
    m = np.diag([1.0, -0.5] + [0.0] * (b4.D - 2))
    rho = qm.gibbs_from_potential(b4, qm.ChemicalPotential.constant(b4, 0.0))
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
