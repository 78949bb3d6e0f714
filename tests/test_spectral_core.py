import warnings

import numpy as np
import pytest
from helpers import basis_derivatives, fd_gibbs_projection, h1_seminorm_sq, random_psd
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qmaxwell as qm
from qmaxwell.errors import NotPositiveSemidefinite
from qmaxwell.functionals import GibbsState
from qmaxwell.spectral_core import spectral_derivative

TWO_PI_SQ = (2.0 * np.pi) ** 2


@pytest.fixture(scope="module")
def b3():
    return qm.build_basis(3)


@pytest.fixture(scope="module")
def b8():
    return qm.build_basis(8)


def projector(basis, index):
    m = np.zeros((basis.D, basis.D))
    m[index, index] = 1.0
    return qm.DensityOperator(basis, m)


# ---------------------------------------------------------------------------
# basis construction

def test_basis_m1():
    b = qm.build_basis(1)
    assert b.D == 3
    assert_allclose(b.h_eigenvalues, [0.0, TWO_PI_SQ, TWO_PI_SQ], rtol=0, atol=0)


def test_basis_m2():
    b = qm.build_basis(2)
    assert b.D == 5
    assert_allclose(b.h_eigenvalues,
                    [0.0, TWO_PI_SQ, TWO_PI_SQ, 4 * TWO_PI_SQ, 4 * TWO_PI_SQ])


@pytest.mark.parametrize("M,N", [(1, 8), (2, 16), (4, 32), (8, 64)])
def test_default_grid_is_power_of_two(M, N):
    assert qm.build_basis(M).N == N


def test_grid_below_4m_plus_1_rejected():
    with pytest.raises(ValueError):
        qm.build_basis(4, 16)
    assert qm.build_basis(4, 17).N == 17  # boundary is inclusive


def test_modes_must_be_positive():
    with pytest.raises(ValueError):
        qm.build_basis(0)


@pytest.mark.parametrize("M", [1, 3, 8])
def test_quadrature_orthonormality(M):
    b = qm.build_basis(M)
    gram = b.functions @ b.functions.T / b.N
    assert np.max(np.abs(gram - np.eye(b.D))) <= 1e-12


def test_quadrature_exact_for_degree_2m_polynomials(b8):
    rng = np.random.default_rng(5)
    for _ in range(50):
        c0 = rng.uniform(-2, 2)
        u = np.full(b8.N, c0)
        for k in range(1, 2 * b8.M + 1):
            u += rng.uniform(-1, 1) * np.cos(2 * np.pi * k * b8.grid)
            u += rng.uniform(-1, 1) * np.sin(2 * np.pi * k * b8.grid)
        assert abs(b8.quadrature(u) - c0) <= 1e-12


# ---------------------------------------------------------------------------
# Galerkin assembly

def test_assemble_zero_potential(b3):
    K = qm.assemble_hamiltonian_plus_potential(b3, qm.ChemicalPotential.constant(b3, 0.0))
    assert_allclose(K, np.diag(b3.h_eigenvalues), atol=1e-14)


def test_assemble_constant_shifts_diagonal(b3):
    c = -0.75
    K = qm.assemble_hamiltonian_plus_potential(b3, qm.ChemicalPotential.constant(b3, c))
    assert_allclose(K, np.diag(b3.h_eigenvalues) + c * np.eye(b3.D), atol=1e-13)


def test_assemble_cosine_entry():
    b = qm.build_basis(1)
    A = qm.ChemicalPotential.from_callable(b, lambda x: np.cos(2 * np.pi * x))
    K = qm.assemble_hamiltonian_plus_potential(b, A)
    # integral of cos(2 pi x) * 1 * sqrt(2) cos(2 pi x) = sqrt(2)/2
    assert_allclose(K[0, 1], np.sqrt(2.0) / 2.0, rtol=1e-12)
    assert np.max(np.abs(K - K.T)) <= 1e-12


def _quadrature_assembly(basis, A):
    """The N-point trapezoid Galerkin matrix, exact since A e_p e_q has
    degree <= 4M < N: the reference for the assembly from coefficients."""
    E = basis.functions
    G = (E * A.on_grid()) @ E.T / basis.N
    K = 0.5 * (G + G.T)
    K[np.diag_indices_from(K)] += basis.h_eigenvalues
    return K


@pytest.mark.parametrize("M", [1, 2, 8, 20, 64])
def test_assemble_matches_quadrature_and_is_exactly_symmetric(M):
    # on a power-of-two grid and on the odd N = 4M+1; every coefficient nonzero
    rng = np.random.default_rng(M)
    for basis in (qm.build_basis(M), qm.build_basis(M, 4 * M + 1)):
        A = qm.ChemicalPotential(basis, rng.normal(0, 1, basis.D))
        K = qm.assemble_hamiltonian_plus_potential(basis, A)
        assert np.max(np.abs(K - _quadrature_assembly(basis, A))) <= (
            1e-14 * (1.0 + np.max(np.abs(K))))
        assert np.array_equal(K, K.T)


def test_assemble_rejects_mismatched_basis(b3):
    other = qm.build_basis(4)
    A = qm.ChemicalPotential.constant(other, 1.0)
    with pytest.raises(qm.BasisMismatch):
        qm.assemble_hamiltonian_plus_potential(b3, A)



def test_value_types_compare_without_array_truth_values(b3):
    # == compared the bases' arrays and raised "truth value of an array is
    # ambiguous"; a basis is fixed by (M, N), and the array holders compare
    # by identity
    assert qm.build_basis(2) == qm.build_basis(2, 16)
    assert hash(qm.build_basis(2)) == hash(qm.build_basis(2, 16))
    assert qm.build_basis(2) != qm.build_basis(2, 12)
    assert qm.build_basis(2) != b3
    A = qm.ChemicalPotential.constant(b3, 0.5)
    n = qm.DensityProfile(b3, np.ones(b3.N))
    rho = qm.gibbs_from_potential(b3, A)
    for value, twin in ((A, qm.ChemicalPotential.constant(b3, 0.5)),
                        (n, qm.DensityProfile(b3, np.ones(b3.N))),
                        (rho, qm.gibbs_from_potential(b3, A))):
        assert value == value
        assert value != twin


# ---------------------------------------------------------------------------
# eigendecomposition

def test_eigendecompose_diagonal_input():
    m = np.diag([0.0, 39.4784, 39.4784])
    dec = qm.symmetric_eigendecompose(m)
    assert_allclose(dec.eigenvalues, [0.0, 39.4784, 39.4784])
    # columns of an orthogonal matrix spanning the degenerate pair
    assert np.max(np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(3))) <= 1e-10


def test_eigendecompose_embedded_swap_block():
    m = np.diag([0.0, 0.0, 5.0, 6.0, 7.0])
    m[0, 1] = m[1, 0] = 1.0
    dec = qm.symmetric_eigendecompose(m)
    assert_allclose(sorted(dec.eigenvalues), [-1.0, 1.0, 5.0, 6.0, 7.0], atol=1e-12)


def test_eigendecompose_reconstruction_and_determinism():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((5, 5))
        m = 0.5 * (m + m.T)
        dec = qm.symmetric_eigendecompose(m)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.linalg.norm(rebuilt - m) <= 1e-9 * (1 + np.linalg.norm(m))
        assert np.max(np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(5))) <= 1e-10
        again = qm.symmetric_eigendecompose(m)
        assert np.array_equal(dec.eigenvalues, again.eigenvalues)
        assert np.array_equal(dec.eigenvectors, again.eigenvectors)


def test_eigendecompose_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        qm.symmetric_eigendecompose(m)
    with pytest.raises(ValueError, match="not finite"):
        qm.symmetric_eigendecompose(np.diag([np.nan, 1.0]))


# ---------------------------------------------------------------------------
# Gibbs states

def test_gibbs_zero_potential_is_diagonal(b3):
    rho = qm.gibbs_from_potential(b3, qm.ChemicalPotential.constant(b3, 0.0))
    expected = np.diag(np.exp(-b3.h_eigenvalues))
    assert np.max(np.abs(rho.matrix - expected)) <= 1e-15
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert rho.matrix[1, 1] == pytest.approx(7.157e-18, rel=1e-3)


def test_gibbs_constant_commutes(b3):
    c = 0.8
    base = qm.gibbs_from_potential(b3, qm.ChemicalPotential.constant(b3, 0.0))
    shifted = qm.gibbs_from_potential(b3, qm.ChemicalPotential.constant(b3, c))
    assert np.max(np.abs(shifted.matrix - np.exp(-c) * base.matrix)) <= 1e-12


def test_gibbs_overflow_names_its_cause(b3):
    A = qm.ChemicalPotential.constant(b3, -800.0)
    with pytest.raises(ValueError, match="overflow") as info:
        qm.gibbs_from_potential(b3, A)
    assert "-800" in str(info.value) and "-709.78" in str(info.value)


def test_gibbs_state_is_composed_from_its_eigenpairs(b8, monkeypatch):
    # one eigh of H + A and no eigvalsh: the matrix is the Gibbs state's own,
    # bit for bit, and the spectrum is its weights exp(-lam), sorted
    A = qm.ChemicalPotential.from_callable(b8, lambda x: 0.5 * np.cos(2 * np.pi * x))
    state = GibbsState(A)

    def refuse(*args, **kwargs):
        raise AssertionError("gibbs_from_potential decomposed its matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rho = qm.gibbs_from_potential(b8, A)
    monkeypatch.undo()
    assert np.array_equal(rho.matrix, state.matrix)
    assert np.array_equal(rho.eigenvalues, np.sort(state.weights))
    scale = 1e-14 * rho.eigenvalues[-1]
    assert np.all(np.abs(np.linalg.eigvalsh(rho.matrix) - rho.eigenvalues) <= scale)


def test_from_eigenpairs_rejects_a_bad_spectrum_or_frame(b3):
    rng = np.random.default_rng(4)
    Q = np.linalg.qr(rng.standard_normal((b3.D, b3.D)))[0]
    w = rng.uniform(0.0, 2.0, b3.D)
    rho = qm.DensityOperator.from_eigenpairs(b3, w, Q)
    assert np.array_equal(rho.eigenvalues, np.sort(w))
    assert_allclose(rho.matrix, Q @ np.diag(w) @ Q.T, rtol=0, atol=1e-14)
    assert np.array_equal(rho.matrix, rho.matrix.T)
    skewed = Q.copy()
    skewed[0, 0] += 1e-8
    cases = [(np.where(np.arange(b3.D) == 2, -1e-300, w), Q, "finite and >= 0"),
             (np.where(np.arange(b3.D) == 2, np.nan, w), Q, "finite and >= 0"),
             (np.where(np.arange(b3.D) == 2, np.inf, w), Q, "finite and >= 0"),
             (w[:-1], Q, "shapes"),
             (w, skewed, "not orthogonal"),
             (w, np.where(np.eye(b3.D, dtype=bool), np.nan, Q), "not orthogonal")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eigenvalues, frame, message in cases:
            with pytest.raises(ValueError, match=message):
                qm.DensityOperator.from_eigenpairs(b3, eigenvalues, frame)


def test_from_eigenpairs_keeps_its_pairs_in_ascending_order(b3, monkeypatch):
    rng = np.random.default_rng(6)
    Q = np.linalg.qr(rng.standard_normal((b3.D, b3.D)))[0]
    w = rng.uniform(0.0, 2.0, b3.D)
    rho = qm.DensityOperator.from_eigenpairs(b3, w, Q)
    monkeypatch.setattr(np.linalg, "eigh", None)  # the pairs are not recomputed
    lam, V = rho.eigenpairs
    order = np.argsort(w)
    assert np.array_equal(lam, w[order]) and np.array_equal(V, Q[:, order])


def test_gibbs_matches_finite_difference_oracle_quick():
    b = qm.build_basis(2)

    def a_func(x):
        return np.cos(2 * np.pi * x)

    A = qm.ChemicalPotential.from_callable(b, a_func)
    ours = qm.gibbs_from_potential(b, A).matrix
    oracle = fd_gibbs_projection(a_func, b)
    rel = np.linalg.norm(ours - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-6


# ---------------------------------------------------------------------------
# densities and kernels

def test_density_flat_projector(b3):
    n = qm.density_of(projector(b3, 0))
    assert_allclose(n, np.ones(b3.N), atol=1e-14)
    assert b3.quadrature(n) == pytest.approx(1.0, abs=1e-14)


def test_density_cosine_projector(b3):
    n = qm.density_of(projector(b3, 1))
    assert_allclose(n, 2.0 * np.cos(2 * np.pi * b3.grid) ** 2, atol=1e-13)


def test_density_mixture(b3):
    m = np.zeros((b3.D, b3.D))
    m[0, 0] = 0.5
    m[1, 1] = 0.5
    n = qm.density_of(qm.DensityOperator(b3, m))
    assert_allclose(n, 0.5 + np.cos(2 * np.pi * b3.grid) ** 2, atol=1e-13)


def test_density_mass_and_nonnegativity(b3):
    rng = np.random.default_rng(11)
    for _ in range(200):
        rho = random_psd(rng, b3)
        n = qm.density_of(rho)
        assert abs(b3.quadrature(n) - rho.trace) <= 1e-10 * (1 + abs(rho.trace))
        assert np.min(n) >= -1e-10 * (rho.trace + 1.0)


def test_kernel_flat_and_rank_one(b3):
    assert qm.kernel_eval(projector(b3, 0), 0.13, 0.77) == pytest.approx(1.0)
    x, y = 0.21, 0.68
    val = qm.kernel_eval(projector(b3, 1), x, y)
    assert val == pytest.approx(2 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))


def test_kernel_symmetry_and_diagonal(b3):
    rng = np.random.default_rng(3)
    rho = random_psd(rng, b3)
    for x, y in rng.uniform(0, 1, size=(5, 2)):
        assert qm.kernel_eval(rho, x, y) == pytest.approx(qm.kernel_eval(rho, y, x))
    n = qm.density_of(rho)
    for j in (0, 5, 11):
        assert abs(qm.kernel_eval(rho, b3.grid[j], b3.grid[j]) - n[j]) <= 1e-10


def test_energy_trace_examples(b3):
    assert qm.energy_trace(projector(b3, 0)) == 0.0
    assert qm.energy_trace(projector(b3, 1)) == pytest.approx(TWO_PI_SQ)
    m = np.zeros((b3.D, b3.D))
    m[0, 0] = m[1, 1] = 0.5
    assert qm.energy_trace(qm.DensityOperator(b3, m)) == pytest.approx(TWO_PI_SQ / 2)


# ---------------------------------------------------------------------------
# norms

def test_norms_rank_one_and_signed(b3):
    p0 = projector(b3, 0).matrix
    assert qm.trace_norm(p0) == pytest.approx(1.0)
    assert qm.hs_norm(p0) == pytest.approx(1.0)
    signed = np.diag([1.0, -1.0] + [0.0] * (b3.D - 2))
    assert qm.trace_norm(signed) == pytest.approx(2.0)
    assert qm.hs_norm(signed) == pytest.approx(np.sqrt(2.0))


def test_trace_norm_dominates_hs(b3):
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.standard_normal((b3.D, b3.D))
        m = 0.5 * (m + m.T)
        assert qm.trace_norm(m) >= qm.hs_norm(m) - 1e-12


def test_sobolev_flat_mode(b3):
    u = np.ones(b3.N)
    for s in (-1, 0, 1):
        assert qm.sobolev_norm(u, s) == pytest.approx(1.0)


def test_sobolev_cosine_mode(b3):
    u = np.sqrt(2.0) * np.cos(2 * np.pi * b3.grid)
    assert qm.sobolev_norm(u, 0) == pytest.approx(1.0)
    assert qm.sobolev_norm(u, 1) == pytest.approx(np.sqrt(1 + TWO_PI_SQ))
    assert qm.sobolev_norm(u, -1) == pytest.approx(1 / np.sqrt(1 + TWO_PI_SQ))
    # coefficient route agrees with the grid route
    A = qm.ChemicalPotential.from_grid(b3, u)
    assert qm.sobolev_norm(A, 1) == pytest.approx(np.sqrt(1 + TWO_PI_SQ))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_sobolev_multiplier_monotone(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(32)
    low = qm.sobolev_norm(u, -1)
    mid = qm.sobolev_norm(u, 0)
    high = qm.sobolev_norm(u, 1)
    assert low <= mid + 1e-12 and mid <= high + 1e-12


def test_sobolev_rejects_other_exponents(b3):
    with pytest.raises(ValueError):
        qm.sobolev_norm(np.ones(b3.N), 2)


@pytest.mark.parametrize("N", [32, 33])
def test_spectral_derivatives_of_a_trig_polynomial(N):
    # in the basis, d/dx swaps and scales the cos/sin rows and d^2/dx^2 = -H;
    # the Nyquist mode cos(pi N x) of an even grid differentiates to 0 once
    # and to -(pi N)^2 cos(pi N x) twice
    basis = qm.build_basis(7, N)
    c = np.random.default_rng(3).normal(size=basis.D)
    u = basis.synthesize(c)
    assert_allclose(spectral_derivative(u), c @ basis_derivatives(basis), rtol=0, atol=1e-10)
    assert_allclose(spectral_derivative(u, order=2),
                    basis.synthesize(-basis.h_eigenvalues * c), rtol=0, atol=1e-9)
    if N % 2 == 0:
        nyquist = np.cos(np.pi * N * basis.grid)
        assert_allclose(spectral_derivative(nyquist), 0.0, rtol=0, atol=1e-9)
        assert_allclose(spectral_derivative(nyquist, order=2),
                        -(np.pi * N) ** 2 * nyquist, rtol=1e-12, atol=1e-9)


# ---------------------------------------------------------------------------
# entropy function of a matrix

def test_entropy_function_flat_projector(b3):
    out = qm.matrix_entropy_function(projector(b3, 0), 0.0)
    assert np.trace(out) == pytest.approx(-1.0)
    assert qm.entropy_trace(projector(b3, 0)) == pytest.approx(-1.0)


def test_entropy_function_half_projector(b3):
    m = 0.5 * projector(b3, 0).matrix
    val = qm.entropy_trace(qm.DensityOperator(b3, m))
    assert val == pytest.approx(0.5 * np.log(0.5) - 0.5)


@pytest.mark.parametrize("eta", [0.0, 1e-3, 0.25, 1.0])
def test_entropy_vanishes_on_zero_operator(b3, eta):
    zero = qm.DensityOperator(b3, np.zeros((b3.D, b3.D)))
    assert qm.entropy_trace(zero, eta) == 0.0
    assert np.max(np.abs(qm.matrix_entropy_function(zero, eta))) == 0.0


def test_entropy_rejects_indefinite_input(b3):
    m = np.diag([1.0, -0.5] + [0.0] * (b3.D - 2))
    with pytest.raises(NotPositiveSemidefinite):
        qm.DensityOperator(b3, m)
    # bypass the constructor check with a raw operator built from a valid one
    rho = projector(b3, 0)
    object.__setattr__(rho, "matrix", m)
    with pytest.raises(NotPositiveSemidefinite):
        qm.matrix_entropy_function(rho, 0.0)


@pytest.mark.parametrize("diagonal", [[np.nan, 1.0, 1.0, 1.0, 1.0],
                                      [np.inf, 0.0, 0.0, 0.0, 0.0],
                                      [1.0, np.nan, 1.0, 1.0, 1.0]])
def test_density_operator_rejects_non_finite_matrix(diagonal):
    # unchecked, NaN and inf pass as a made-up spectrum or fail in LAPACK
    with pytest.raises(ValueError, match="not finite"):
        qm.DensityOperator(qm.build_basis(2), np.diag(diagonal))


def test_constructors_reject_wrong_shapes_and_non_finite_samples(b3):
    with pytest.raises(ValueError, match=f"incompatible with D={b3.D}"):
        qm.DensityOperator(b3, np.eye(b3.D + 1))
    with pytest.raises(ValueError, match=f"expected {b3.N} samples"):
        qm.DensityProfile(b3, np.ones(b3.N - 1))
    values = np.ones(b3.N)
    values[2] = np.nan
    with pytest.raises(qm.NonPositiveDensity, match="non-finite"):
        qm.DensityProfile(b3, values)
    with pytest.raises(ValueError, match=f"expected {b3.D} coefficients"):
        qm.ChemicalPotential(b3, np.zeros(b3.D + 1))


def _spectral_consumers(basis):
    n = qm.DensityProfile(basis, np.ones(basis.N))
    A = qm.ChemicalPotential.constant(basis, 0.0)
    return {
        "matrix_entropy_function": lambda rho: qm.matrix_entropy_function(rho, 0.0),
        "gateaux_entropy_derivative":
            lambda rho: qm.gateaux_entropy_derivative(rho, np.eye(basis.D), 0.1),
        "euler_lagrange_residual": lambda rho: qm.euler_lagrange_residual(rho, A),
        "reconstruct_potential_form":
            lambda rho: qm.reconstruct_potential_form(rho, n, basis.functions[1]),
    }


@pytest.mark.parametrize("consumer", ["matrix_entropy_function", "gateaux_entropy_derivative",
                                      "euler_lagrange_residual", "reconstruct_potential_form"])
def test_eigenpairs_consumers_reject_indefinite_input(b3, consumer):
    # bypass the constructor check as test_entropy_rejects_indefinite_input does
    rho = projector(b3, 0)
    object.__setattr__(rho, "matrix", np.diag([1.0, -0.5] + [0.0] * (b3.D - 2)))
    with pytest.raises(NotPositiveSemidefinite):
        _spectral_consumers(b3)[consumer](rho)


def test_eigenpairs_consumers_share_one_eigh(b3, monkeypatch):
    rho = random_psd(np.random.default_rng(29), b3)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    for consume in _spectral_consumers(b3).values():
        consume(rho)
    assert len(calls) == 1


def test_entropy_trace_matches_matrix_trace(b3):
    rng = np.random.default_rng(23)
    rho = random_psd(rng, b3)
    for eta in (0.0, 1e-2):
        assert qm.entropy_trace(rho, eta) == pytest.approx(
            np.trace(qm.matrix_entropy_function(rho, eta)), abs=1e-12)


# ---------------------------------------------------------------------------
# profile validation and the sqrt-density energy bound

def test_density_profile_requires_positivity(b3):
    with pytest.raises(qm.NonPositiveDensity):
        qm.DensityProfile(b3, np.cos(2 * np.pi * b3.grid))  # touches -1
    profile = qm.DensityProfile(b3, 1.0 + 0.5 * np.cos(2 * np.pi * b3.grid))
    assert profile.min_value == pytest.approx(0.5)
    assert profile.mass == pytest.approx(1.0)


def test_sqrt_density_energy_bound(b8):
    rng = np.random.default_rng(29)
    for _ in range(40):
        rho = random_psd(rng, b8, floor=0.2)
        n = qm.density_of(rho)
        semi = h1_seminorm_sq(b8, np.sqrt(n + 1e-14))
        assert semi <= qm.energy_trace(rho) * (1 + 5e-3)


def test_sqrt_density_energy_equality_for_positive_pure_states(b8):
    rng = np.random.default_rng(31)
    for _ in range(10):
        c = np.zeros(b8.D)
        c[0] = 1.0
        c[1:7] = rng.uniform(-0.15, 0.15, 6)  # keeps psi positive
        c /= np.linalg.norm(c)
        rho = qm.DensityOperator(b8, np.outer(c, c))
        n = qm.density_of(rho)
        assert np.min(n) > 0
        semi = h1_seminorm_sq(b8, np.sqrt(n + 1e-14))
        energy = qm.energy_trace(rho)
        assert abs(semi - energy) <= 1e-6 * (1 + energy)
