import numpy as np
import pytest
from helpers import haar_rotation, hessian_matrix, random_psd, random_symmetric
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qmaxwell as qm
from qmaxwell import functionals as fn
from qmaxwell.functionals import GibbsState

TWO_PI_SQ = (2.0 * np.pi) ** 2


@pytest.fixture(scope="module")
def b4():
    return qm.build_basis(4)


@pytest.fixture(scope="module")
def profile(b4):
    return qm.DensityProfile(b4, 1.0 + 0.4 * np.cos(2 * np.pi * b4.grid)
                             + 0.2 * np.sin(4 * np.pi * b4.grid))


def projector(basis, index):
    m = np.zeros((basis.D, basis.D))
    m[index, index] = 1.0
    return qm.DensityOperator(basis, m)


def gibbs_zero(basis):
    return qm.gibbs_from_potential(basis, qm.ChemicalPotential.constant(basis, 0.0))


# ---------------------------------------------------------------------------
# free energy

def test_free_energy_flat_projector(b4):
    fv = qm.free_energy(projector(b4, 0))
    assert fv.entropy_term == pytest.approx(-1.0)
    assert fv.energy_term == 0.0
    assert fv.total == pytest.approx(-1.0)


def test_free_energy_half_projector(b4):
    m = 0.5 * projector(b4, 0).matrix
    fv = qm.free_energy(qm.DensityOperator(b4, m))
    assert fv.total == pytest.approx(0.5 * np.log(0.5) - 0.5)


def test_free_energy_excited_projector(b4):
    fv = qm.free_energy(projector(b4, 1))
    assert fv.total == pytest.approx(TWO_PI_SQ - 1.0)


def test_free_energy_total_is_sum(b4):
    rho = random_psd(np.random.default_rng(1), b4)
    fv = qm.free_energy(rho)
    assert fv.total == pytest.approx(fv.entropy_term + fv.energy_term + fv.penalty_term,
                                     abs=1e-12)


def test_free_energy_additive_on_blocks(b4):
    rng = np.random.default_rng(2)
    m1 = np.zeros((b4.D, b4.D))
    m2 = np.zeros((b4.D, b4.D))
    B1 = rng.standard_normal((4, 4))
    B2 = rng.standard_normal((b4.D - 4, b4.D - 4))
    m1[:4, :4] = B1 @ B1.T / 4
    m2[4:, 4:] = B2 @ B2.T / 4
    f_sum = qm.free_energy(qm.DensityOperator(b4, m1)).total \
        + qm.free_energy(qm.DensityOperator(b4, m2)).total
    f_block = qm.free_energy(qm.DensityOperator(b4, m1 + m2)).total
    assert abs(f_block - f_sum) <= 1e-10


# ---------------------------------------------------------------------------
# penalized / regularized free energy

def test_penalty_vanishes_on_matching_density(b4):
    rho = gibbs_zero(b4)
    n = qm.DensityProfile(b4, qm.density_of(rho))
    for eps in (1.0, 1e-3):
        fv = qm.penalized_free_energy(rho, n, eps, 0.0)
        assert fv.penalty_term <= 1e-25
        assert fv.total == pytest.approx(qm.free_energy(rho).total, abs=1e-12)


def test_penalized_value_at_zero_operator(b4, profile):
    # F_{eps,eta}(0) = (1/2 eps) ||n||_L2^2
    zero = qm.DensityOperator(b4, np.zeros((b4.D, b4.D)))
    for eps in (1.0, 0.05):
        for eta in (0.0, 0.3):
            fv = qm.penalized_free_energy(zero, profile, eps, eta)
            expected = 0.5 / eps * b4.quadrature(profile.values**2)
            assert fv.total == pytest.approx(expected, rel=1e-14)


def test_regularized_entropy_converges_as_eta_vanishes(b4):
    # beta_eta - beta_0 carries an eta log(1/eta) term, so the approach is
    # monotone at O(eta log 1/eta); the 1e-6 ballpark needs eta ~ 1e-12
    rho = random_psd(np.random.default_rng(3), b4)
    n = qm.DensityProfile(b4, qm.density_of(rho) + 0.5)
    base = qm.penalized_free_energy(rho, n, 0.1, 0.0).total
    gaps = [abs(qm.penalized_free_energy(rho, n, 0.1, eta).total - base)
            for eta in (1e-2, 1e-4, 1e-6, 1e-12)]
    assert gaps[0] >= gaps[1] >= gaps[2] >= gaps[3]
    assert gaps[2] <= 50.0 * 1e-6 * np.log(1e6) * (1.0 + rho.trace)
    assert gaps[3] <= 1e-6


def test_penalized_rejects_nonpositive_epsilon(b4, profile):
    for epsilon in (0.0, True):  # a bool is not a number here
        with pytest.raises(ValueError):
            qm.penalized_free_energy(gibbs_zero(b4), profile, epsilon)


# ---------------------------------------------------------------------------
# dual functional, gradient, hessian

def test_dual_value_at_zero_potential(b4, profile):
    z0 = np.sum(np.exp(-b4.h_eigenvalues))
    val = qm.dual_functional(qm.ChemicalPotential.constant(b4, 0.0), profile)
    assert val == pytest.approx(-z0, abs=0)
    assert abs(val + 1.0) <= 1e-16


def test_dual_constant_potential_scalar_form(b4):
    n1 = qm.DensityProfile(b4, np.ones(b4.N))
    z0 = np.sum(np.exp(-b4.h_eigenvalues))
    c_star = np.log(z0)
    for c in (-0.5, 0.0, 0.7):
        val = qm.dual_functional(qm.ChemicalPotential.constant(b4, c), n1)
        assert val == pytest.approx(-np.exp(-c) * z0 - c, rel=1e-14)
    j_star = qm.dual_functional(qm.ChemicalPotential.constant(b4, c_star), n1)
    for dc in (-0.01, 0.01):
        j_off = qm.dual_functional(qm.ChemicalPotential.constant(b4, c_star + dc), n1)
        assert j_star >= j_off


def test_dual_gradient_zero_at_flat_equilibrium(b4):
    z0 = np.sum(np.exp(-b4.h_eigenvalues))
    n = qm.DensityProfile(b4, np.full(b4.N, z0))
    g = qm.dual_gradient(qm.ChemicalPotential.constant(b4, 0.0), n)
    assert np.max(np.abs(g)) <= 1e-12


def test_dual_gradient_matches_finite_differences(b4, profile):
    rng = np.random.default_rng(4)
    a = rng.normal(0, 0.3, b4.D)
    A = qm.ChemicalPotential(b4, a)
    grad_coeffs = b4.project(qm.dual_gradient(A, profile))
    h = 1e-5
    for _ in range(5):
        d = rng.normal(0, 1, b4.D)
        jp = qm.dual_functional(qm.ChemicalPotential(b4, a + h * d), profile)
        jm = qm.dual_functional(qm.ChemicalPotential(b4, a - h * d), profile)
        fd = (jp - jm) / (2 * h)
        exact = grad_coeffs @ d
        assert abs(fd - exact) <= 1e-5 * max(1e-12, abs(exact))


def test_hessian_apply_zero_direction(b4):
    A = qm.ChemicalPotential.constant(b4, 0.2)
    out = qm.dual_hessian_apply(A, qm.ChemicalPotential(b4, np.zeros(b4.D)))
    assert np.max(np.abs(out)) == 0.0


def test_hessian_apply_matches_gradient_differences(b4, profile):
    rng = np.random.default_rng(6)
    a = rng.normal(0, 0.3, b4.D)
    A = qm.ChemicalPotential(b4, a)
    h = 1e-4
    for _ in range(5):
        d = rng.normal(0, 1, b4.D)
        gp = qm.dual_gradient(qm.ChemicalPotential(b4, a + h * d), profile)
        gm = qm.dual_gradient(qm.ChemicalPotential(b4, a - h * d), profile)
        fd = (gp - gm) / (2 * h)
        hv = qm.dual_hessian_apply(A, qm.ChemicalPotential(b4, d))
        assert np.linalg.norm(fd - hv) <= 1e-4 * np.linalg.norm(hv)


def test_hessian_quadratic_form_nonpositive(b4):
    rng = np.random.default_rng(8)
    A = qm.ChemicalPotential(b4, rng.normal(0, 0.4, b4.D))
    for _ in range(20):
        d = rng.normal(0, 1, b4.D)
        response = qm.dual_hessian_apply(A, qm.ChemicalPotential(b4, d))
        form = b4.quadrature(b4.synthesize(d) * response)
        assert form <= 1e-12


def test_hessian_bilinear_symmetry(b4):
    rng = np.random.default_rng(9)
    A = qm.ChemicalPotential(b4, rng.normal(0, 0.4, b4.D))
    for _ in range(5):
        d1 = rng.normal(0, 1, b4.D)
        d2 = rng.normal(0, 1, b4.D)
        r1 = qm.dual_hessian_apply(A, qm.ChemicalPotential(b4, d1))
        r2 = qm.dual_hessian_apply(A, qm.ChemicalPotential(b4, d2))
        f12 = b4.quadrature(b4.synthesize(d2) * r1)
        f21 = b4.quadrature(b4.synthesize(d1) * r2)
        assert abs(f12 - f21) <= 1e-9 * max(1.0, abs(f12))


def test_hessian_matrix_columns_match_apply(b4):
    # the matrix integrates on the 3M+1-point product grid, the response on
    # the basis grid: a power of two, and the odd N = 4M+1
    for basis in (b4, qm.build_basis(4, 17)):
        rng = np.random.default_rng(10)
        A = qm.ChemicalPotential(basis, rng.normal(0, 0.4, basis.D))
        H = hessian_matrix(A)
        assert_allclose(H, H.T, atol=1e-14)
        for q in range(basis.D):
            e_q = np.zeros(basis.D)
            e_q[q] = 1.0
            col = basis.project(qm.dual_hessian_apply(A, qm.ChemicalPotential(basis, e_q)))
            assert_allclose(col, H[:, q], atol=1e-12)


def _hessian_over_nonzero_weights(state):
    """The Newton Hessian with every state of nonzero weight active: the
    reference for the cut at u^2 w_0."""
    E = state.potential.basis.product_functions
    P = E.shape[1]
    k = int(np.count_nonzero(state.weights))
    phi = state.V.T @ E
    products = (phi[:k, None, :] * phi[None, :, :]).reshape(-1, P)
    W = E @ products.T / P
    coupling = fn._exp_divided_differences(state.lam[:k], state.lam)
    coupling[:, k:] *= 2.0
    H = -(W * coupling.ravel()) @ W.T
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("constant", [0.0, -600.0])
def test_hessian_matrix_with_inactive_states(constant):
    # at M=20 most states carry zero weight and the Hessian skips them, and
    # more that carry less than u^2 of the largest; -600 makes the weights
    # about 1e260, large but finite; on a power-of-two grid and on the odd
    # N = 4M+1
    for b20 in (qm.build_basis(20), qm.build_basis(20, 81)):
        rng = np.random.default_rng(12)
        coeffs = np.zeros(b20.D)
        coeffs[:9] = rng.normal(0, 1, 9)
        coeffs[0] = constant
        A = qm.ChemicalPotential(b20, coeffs)
        state = GibbsState(A)
        active = np.count_nonzero(state.weights)
        assert active < b20.D // 2
        assert np.count_nonzero(state.weights > fn.ACTIVE_WEIGHT_CUT * state.weights[0]) < active
        H = hessian_matrix(A)
        reference = _hessian_over_nonzero_weights(state)
        assert np.max(np.abs(H - reference)) <= 1e-14 * np.max(np.abs(H))
        scale = 1.0 + np.max(np.abs(H))
        assert_allclose(H, H.T, rtol=0, atol=1e-14 * scale)
        assert np.linalg.eigvalsh(H)[-1] <= 1e-12 * scale
        for q in range(b20.D):
            e_q = np.zeros(b20.D)
            e_q[q] = 1.0
            col = b20.project(qm.dual_hessian_apply(A, qm.ChemicalPotential(b20, e_q)))
            assert_allclose(col, H[:, q], rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("M, N", [(1, None), (4, None), (20, None), (4, 17), (20, 81)])
def test_free_response_is_the_constant_potential_hessian(M, N):
    # at a constant potential c, -Hess J = exp(-c) diag(chi) in closed form:
    # H has eigenfunctions exp(2 pi i m x), m = -M..M, so the response at
    # wavenumber kappa is chi(kappa) = sum_m Phi(mu_m, mu_{m+kappa}) over the
    # pairs inside the basis, Phi the divided difference of exp(-s)
    basis = qm.build_basis(M, N)
    mu = (2.0 * np.pi * np.arange(-M, M + 1)) ** 2
    phi = fn._exp_divided_differences(mu)
    chi = np.array([np.trace(phi, offset=kappa) for kappa in range(M + 1)])[basis.wavenumbers()]
    for c in (0.0, 0.7):
        H = hessian_matrix(qm.ChemicalPotential.constant(basis, c))
        expected = np.exp(-c) * chi
        scale = np.max(expected)  # the dense matrix rounds relative to its largest entry
        assert_allclose(-np.diag(H), expected, rtol=0, atol=1e-14 * scale)
        off = H - np.diag(np.diag(H))
        assert np.max(np.abs(off)) <= 1e-14 * scale
    # chi(0) is the partition function Z0 = sum exp(-mu_p): d/dc of the mass
    assert chi[0] == pytest.approx(np.sum(np.exp(-basis.h_eigenvalues)), rel=1e-15)


# ---------------------------------------------------------------------------
# Gateaux derivative of the regularized entropy

def test_gateaux_scalar_example(b4):
    rho = qm.DensityOperator(b4, 0.5 * projector(b4, 0).matrix)
    val = qm.gateaux_entropy_derivative(rho, projector(b4, 0).matrix, 0.1)
    assert val == pytest.approx(np.log(0.6))


def test_gateaux_zero_direction(b4):
    rho = random_psd(np.random.default_rng(12), b4)
    assert qm.gateaux_entropy_derivative(rho, np.zeros((b4.D, b4.D)), 0.5) == 0.0


def test_gateaux_rejects_eta_zero(b4):
    rho = random_psd(np.random.default_rng(13), b4)
    for eta in (0.0, -1.0, True):
        with pytest.raises(ValueError):
            qm.gateaux_entropy_derivative(rho, np.eye(b4.D), eta)
    # a direction that is not D x D would broadcast against log(rho + eta)
    for omega in (np.ones(b4.D), np.ones((1, b4.D)), 1.0):
        with pytest.raises(ValueError, match="omega shape"):
            qm.gateaux_entropy_derivative(rho, omega, 0.1)


@pytest.mark.parametrize("eta", [1e-1, 1e-3])
def test_gateaux_matches_finite_differences(b4, eta):
    rng = np.random.default_rng(14)
    t = 1e-6
    for _ in range(20):
        rho = qm.DensityOperator(b4, random_psd(rng, b4).matrix + 0.05 * np.eye(b4.D))
        W = random_symmetric(rng, b4.D)
        fp = qm.entropy_trace(qm.DensityOperator(b4, rho.matrix + t * W), eta)
        fm = qm.entropy_trace(qm.DensityOperator(b4, rho.matrix - t * W), eta)
        fd = (fp - fm) / (2 * t)
        exact = qm.gateaux_entropy_derivative(rho, W, eta)
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# inequality validators

def test_lieb_equality_when_aligned(b4):
    m = np.zeros((b4.D, b4.D))
    m[0, 0] = m[1, 1] = 0.5
    rep = qm.validate_lieb(qm.DensityOperator(b4, m))
    assert rep.holds
    assert rep.lhs == pytest.approx(TWO_PI_SQ / 2)
    assert rep.rhs == pytest.approx(TWO_PI_SQ / 2)


def test_lieb_strict_for_misaligned_projector(b4):
    c = np.zeros(b4.D)
    c[0] = c[1] = 1 / np.sqrt(2)
    rep = qm.validate_lieb(qm.DensityOperator(b4, np.outer(c, c)))
    assert rep.holds
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(TWO_PI_SQ / 2)


def test_lieb_random_sweep(b4):
    rng = np.random.default_rng(15)
    for _ in range(100):
        assert qm.validate_lieb(random_psd(rng, b4)).holds


def test_peierls_equality_in_eigenbasis(b4):
    rho = qm.DensityOperator(b4, np.diag(np.linspace(1.0, 0.1, b4.D)))
    rep = qm.validate_peierls(rho, np.eye(b4.D))
    assert rep.holds
    assert rep.gap == pytest.approx(0.0, abs=1e-12)


def test_peierls_rotated_block_example(b4):
    m = np.zeros((b4.D, b4.D))
    m[0, 0] = 1.0
    m[1, 1] = 0.5
    theta = np.pi / 4
    R = np.eye(b4.D)
    R[0, 0] = R[1, 1] = np.cos(theta)
    R[0, 1] = -np.sin(theta)
    R[1, 0] = np.sin(theta)
    rep = qm.validate_peierls(qm.DensityOperator(b4, m), R)
    beta = lambda s: s * np.log(s) - s
    assert rep.lhs == pytest.approx(2 * beta(0.75))
    assert rep.rhs == pytest.approx(beta(1.0) + beta(0.5))
    assert rep.holds and rep.lhs < rep.rhs


def test_peierls_random_sweep(b4):
    rng = np.random.default_rng(16)
    for _ in range(100):
        rep = qm.validate_peierls(random_psd(rng, b4), haar_rotation(rng, b4.D))
        assert rep.holds


def test_peierls_rejects_nonorthogonal(b4):
    with pytest.raises(ValueError):
        qm.validate_peierls(projector(b4, 0), np.eye(b4.D) * 1.1)


def _entropy_ratio(rho):
    """max(0, -Tr beta_0(rho)) / sqrt(kinetic trace): the entropy lower bound's
    constant, which is not pinned down analytically."""
    return max(0.0, -qm.entropy_trace(rho)) / np.sqrt(qm.energy_trace(rho))


def test_entropy_ratio_examples(b4):
    assert _entropy_ratio(projector(b4, 1)) == pytest.approx(1 / (2 * np.pi))
    assert qm.energy_trace(projector(b4, 0)) == 0.0  # the flat projector has no ratio


def test_entropy_ratio_sweep_bounded(b4):
    rng = np.random.default_rng(18)
    ratios = [_entropy_ratio(random_psd(rng, b4)) for _ in range(100)]
    assert all(np.isfinite(r) and r <= 10.0 for r in ratios)


def test_log_sobolev_flat_projector_counterexample(b4):
    rep = qm.log_sobolev_gap(projector(b4, 0))
    assert rep.diagnostic
    assert rep.gap == pytest.approx(-0.5 * np.log(4 * np.pi), abs=1e-12)
    assert not rep.holds  # recorded, never asserted by the suite


def test_log_sobolev_gibbs_state_reported(b4):
    rep = qm.log_sobolev_gap(gibbs_zero(b4))
    assert np.isfinite(rep.gap)
    assert rep.diagnostic


def test_log_sobolev_needs_a_positive_trace(b4):
    with pytest.raises(ValueError, match="Tr rho > 0"):
        qm.log_sobolev_gap(qm.DensityOperator(b4, np.zeros((b4.D, b4.D))))


def test_log_sobolev_scaling_identity(b4):
    rho = random_psd(np.random.default_rng(19), b4)
    doubled = qm.DensityOperator(b4, 2.0 * rho.matrix)
    # entropy and constraint terms scale affinely: gap(2 rho) = 2 gap(rho)
    assert qm.log_sobolev_gap(doubled).gap == pytest.approx(
        2.0 * qm.log_sobolev_gap(rho).gap, abs=1e-10)


def test_convexity_equality_on_identical_arguments(b4):
    rho = random_psd(np.random.default_rng(20), b4)
    rep = qm.convexity_probe(rho, rho, 0.5)
    assert rep.holds
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert not rep.strict


def test_convexity_scalar_example(b4):
    rho1 = projector(b4, 0)
    rho2 = qm.DensityOperator(b4, 0.5 * rho1.matrix)
    rep = qm.convexity_probe(rho1, rho2, 0.5)
    assert rep.lhs == pytest.approx(0.75 * np.log(0.75) - 0.75)
    assert rep.rhs == pytest.approx(0.5 * (-1.0) + 0.5 * (0.5 * np.log(0.5) - 0.5))
    assert rep.holds and rep.strict


@given(seed=st.integers(0, 2**31 - 1), t=st.floats(0.05, 0.95))
@settings(max_examples=50, deadline=None)
def test_convexity_strict_on_random_pairs(seed, t):
    b = qm.build_basis(3)
    rng = np.random.default_rng(seed)
    rep = qm.convexity_probe(random_psd(rng, b), random_psd(rng, b), t)
    assert rep.holds and rep.strict


def test_convexity_rejects_degenerate_t(b4):
    rho = projector(b4, 0)
    for t in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            qm.convexity_probe(rho, rho, t)


def test_eigenvalue_perturbation_examples(b4):
    rho1 = projector(b4, 0)
    rho2 = qm.DensityOperator(b4, 0.5 * rho1.matrix)
    rep = qm.eigenvalue_perturbation_check(rho1, rho2)
    assert rep.holds
    assert rep.lhs == pytest.approx(0.5)
    assert rep.rhs == pytest.approx(0.5)
    same = qm.eigenvalue_perturbation_check(rho1, rho1)
    assert same.holds and same.lhs == 0.0


def test_eigenvalue_perturbation_sweep(b4):
    rng = np.random.default_rng(21)
    for _ in range(100):
        rep = qm.eigenvalue_perturbation_check(random_psd(rng, b4), random_psd(rng, b4))
        assert rep.holds


def test_gap_fields_recompute(b4):
    rng = np.random.default_rng(22)
    rho1, rho2 = random_psd(rng, b4), random_psd(rng, b4)
    for rep in (qm.validate_lieb(rho1),
                qm.validate_peierls(rho1, haar_rotation(rng, b4.D)),
                qm.convexity_probe(rho1, rho2, 0.3),
                qm.eigenvalue_perturbation_check(rho1, rho2)):
        assert rep.gap == pytest.approx(rep.rhs - rep.lhs, abs=1e-12)
    diag = qm.log_sobolev_gap(rho1)
    assert diag.gap == pytest.approx(diag.lhs - diag.rhs, abs=1e-12)
