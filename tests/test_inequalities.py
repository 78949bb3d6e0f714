"""The batched inequality suite behind ``verify`` against a per-sample loop
over the public validators that draws from the same per-block streams."""

import dataclasses
import itertools
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import qmaxwell as qm
from qmaxwell import functionals as fn
from qmaxwell import inequalities
from qmaxwell.errors import NotPositiveSemidefinite
from qmaxwell.inequalities import haar_rotation, random_psd
from qmaxwell.spectral_core import _checked_spectra


def _worst(reports):
    worst = min(reports, key=lambda r: r.gap)
    return dataclasses.replace(worst, holds=all(r.holds for r in reports))


def block_streams(samples, seed):
    """The suite's (generator, block size) pairs: one child of the seed per
    block, which all four inequalities draw from."""
    B = inequalities.BLOCK
    sizes = [min(B, samples - start) for start in range(0, samples, B)]
    return [(np.random.default_rng(c), s)
            for c, s in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes)]


def segments(rng, basis, s):
    """A block's samples (rho1, rho2, rotation, t): per sample the two
    operators and the rotation are drawn first, then the s weights."""
    draws = [(random_psd(rng, basis), random_psd(rng, basis), haar_rotation(rng, basis.D))
             for _ in range(s)]
    return [(*d, t) for d, t in zip(draws, rng.uniform(0.1, 0.9, s))]


def oracle_suite(basis, samples, seed):
    """The randomized entries of the suite, one sample at a time."""
    draws = [d for rng, s in block_streams(samples, seed) for d in segments(rng, basis, s)]
    return [
        _worst([qm.validate_lieb(r1) for r1, _, _, _ in draws]),
        _worst([qm.validate_peierls(r1, R) for r1, _, R, _ in draws]),
        _worst([qm.convexity_probe(r1, r2, t) for r1, r2, _, t in draws]),
        _worst([qm.eigenvalue_perturbation_check(r1, r2) for r1, r2, _, _ in draws]),
    ]


@pytest.fixture(scope="module", params=[1, 4, 8], ids=lambda M: f"M{M}")
def solved(request):
    basis = qm.build_basis(request.param)
    A = qm.ChemicalPotential.from_callable(basis, lambda x: 0.5 * np.cos(2 * np.pi * x))
    rho = qm.gibbs_from_potential(basis, A)
    n = qm.DensityProfile(basis, qm.density_of(rho))
    return basis, A, rho, n


# the block edges of inequalities.BLOCK = 32, and the CLI's default
@pytest.mark.parametrize("samples", [1, 31, 32, 33, 200])
def test_batched_suite_equals_per_sample_oracle(solved, samples):
    assert inequalities.BLOCK == 32
    basis, A, rho, n = solved
    opts = qm.SolverOptions()
    seed = 1000 * basis.M + samples
    suite = inequalities.run_inequality_suite(basis, A, rho, n, opts, samples, seed)
    assert [r.name for r in suite] == [
        "lieb", "peierls", "convexity", "eigenvalue_perturbation",
        "euler_lagrange_residual", "potential_reconstruction", "log_sobolev"]
    for got, want in zip(suite[:4], oracle_suite(basis, samples, seed)):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("samples", [1, 33, 200])
def test_each_randomized_entry_covers_exactly_the_samples(solved, samples, monkeypatch):
    basis, A, rho, n = solved
    worst, sizes = fn.InequalityStack.worst, {}

    def recording(stack):
        sizes[stack.name] = len(stack.lhs)
        return worst(stack)

    monkeypatch.setattr(fn.InequalityStack, "worst", recording)
    inequalities.run_inequality_suite(basis, A, rho, n, qm.SolverOptions(), samples, 3)
    assert sizes == {name: samples for name in
                     ("lieb", "peierls", "convexity", "eigenvalue_perturbation")}


def test_suite_decomposes_four_operators_per_sample(monkeypatch):
    # rho1, rho2, their convexity mixture and their difference's trace norm
    basis = qm.build_basis(8)
    A = qm.ChemicalPotential.from_callable(basis, lambda x: 0.5 * np.cos(2 * np.pi * x))
    rho = qm.gibbs_from_potential(basis, A)
    n = qm.DensityProfile(basis, qm.density_of(rho))
    eigvalsh, lock, decomposed = np.linalg.eigvalsh, threading.Lock(), [0]

    def counting(a, *args, **kwargs):
        with lock:
            decomposed[0] += int(np.prod(np.shape(a)[:-2]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    inequalities.run_inequality_suite(basis, A, rho, n, qm.SolverOptions(), 200, 1)
    assert decomposed[0] == 4 * 200


@pytest.mark.parametrize("name, value", [
    ("samples", 0), ("samples", -3), ("samples", 2.5), ("samples", "5"), ("samples", None),
    ("seed", -1), ("seed", 1.5), ("seed", "1"), ("seed", None),
])
def test_suite_rejects_a_bad_sample_count_or_seed(name, value, monkeypatch):
    # 0 used to raise from range(), 2.5 a bare TypeError and 1.5 from
    # SeedSequence; nothing may be submitted before the arguments are checked
    basis = qm.build_basis(2)
    A = qm.ChemicalPotential.constant(basis, 0.0)
    rho = qm.gibbs_from_potential(basis, A)
    n = qm.DensityProfile(basis, qm.density_of(rho))
    monkeypatch.setattr(inequalities, "_executor", None)
    args = {"samples": 5, "seed": 1, name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= "):
            inequalities.run_inequality_suite(basis, A, rho, n, qm.SolverOptions(),
                                              args["samples"], args["seed"])


class _RecordingPool(ThreadPoolExecutor):
    """A check pool that keeps every submitted call and its future."""

    def __init__(self, workers):
        super().__init__(max_workers=workers)
        self.submitted = []

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.submitted.append((fn, args, future))
        return future


@pytest.mark.parametrize("samples", [1, 31, 33, 200])
def test_suite_bytes_do_not_depend_on_the_worker_count(solved, samples, monkeypatch):
    basis, A, rho, n = solved
    opts = qm.SolverOptions()
    seed = 1000 * basis.M + samples
    default = inequalities.run_inequality_suite(basis, A, rho, n, opts, samples, seed)
    with _RecordingPool(1) as pool:
        monkeypatch.setattr(inequalities, "_executor", lambda: pool)
        single = inequalities.run_inequality_suite(basis, A, rho, n, opts, samples, seed)
    assert len(pool.submitted) == -(-samples // inequalities.BLOCK)
    assert [dataclasses.asdict(r) for r in single] == [dataclasses.asdict(r) for r in default]


def test_first_failing_block_in_order_raises_after_every_check_settles(solved, monkeypatch):
    basis, A, rho, n = solved
    opts = qm.SolverOptions()
    convexity, calls, failed = fn._convexity, itertools.count(1), set()

    def failing(*args):
        # every call from the 3rd on fails, the 3rd slowest, so that a later
        # block can fail first and checks are still running when one fails
        call, t0 = next(calls), args[-1][0]
        if call >= 3:
            time.sleep(0.05 if call == 3 else 0.02)
            failed.add(t0)
            raise RuntimeError(f"block with t[0] = {t0!r}")
        return convexity(*args)

    with _RecordingPool(2) as pool:
        monkeypatch.setattr(inequalities, "_executor", lambda: pool)
        monkeypatch.setattr(fn, "_convexity", failing)
        with pytest.raises(RuntimeError) as raised:
            inequalities.run_inequality_suite(basis, A, rho, n, opts, 200, 11)
        assert all(future.done() for _, _, future in pool.submitted)
        # checks may start out of order: the first failed block in submission
        # order raises, a middle block
        t0s = [segments(rng, basis, s)[0][3] for rng, s in block_streams(200, 11)]
        first_failed = next(t0 for t0 in t0s if t0 in failed)
        assert first_failed != t0s[-1]
        assert str(raised.value) == f"block with t[0] = {first_failed!r}"

        monkeypatch.setattr(fn, "_convexity", convexity)
        suite = inequalities.run_inequality_suite(basis, A, rho, n, opts, 200, 11)
        for got, want in zip(suite[:4], oracle_suite(basis, 200, 11)):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_stacked_psd_check_finds_one_bad_slice():
    basis = qm.build_basis(4)
    rng = np.random.default_rng(5)
    stack = np.array([random_psd(rng, basis).matrix for _ in range(40)])
    assert np.array_equal(_checked_spectra(stack)[7],
                          qm.DensityOperator(basis, stack[7]).eigenvalues)
    bad = stack.copy()
    bad[33, 0, 0] = -1.0
    with pytest.raises(NotPositiveSemidefinite):
        _checked_spectra(bad)
    bad = stack.copy()
    bad[33, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        _checked_spectra(bad)
    for value in (np.nan, np.inf):
        bad = stack.copy()
        bad[33, 2, 2] = value
        with pytest.raises(ValueError, match=r"not finite: .* at index \(33, 2, 2\)"):
            _checked_spectra(bad)


def test_stacked_peierls_finds_one_non_orthogonal_rotation():
    basis = qm.build_basis(4)
    rng = np.random.default_rng(6)
    ops = [random_psd(rng, basis) for _ in range(40)]
    matrices = np.array([op.matrix for op in ops])
    spectra = np.array([op.eigenvalues for op in ops])
    rotations = np.array([haar_rotation(rng, basis.D) for _ in range(40)])
    assert fn._peierls(matrices, spectra, rotations).holds.all()
    rotations[33] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match="not orthogonal"):
        fn._peierls(matrices, spectra, rotations)


def test_stacked_convexity_rejects_a_weight_outside_the_segment():
    basis = qm.build_basis(4)
    rng = np.random.default_rng(7)
    ops = [random_psd(rng, basis) for _ in range(3)]
    m = np.array([op.matrix for op in ops])
    lam = np.array([op.eigenvalues for op in ops])
    with pytest.raises(ValueError, match="strictly inside"):
        fn._convexity(m, lam, m[::-1], lam[::-1], np.array([0.5, 1.0, 0.5]))


def test_stacked_reductions_match_per_slice_dot_products():
    # the kernels reduce along each sample's own axes; the per-slice dot
    # products and Frobenius norms they replaced are the reference, within
    # the summation bound D u sum|terms| of double precision
    basis = qm.build_basis(8)
    rng = np.random.default_rng(9)
    ops = [random_psd(rng, basis) for _ in range(40)]
    m = np.array([op.matrix for op in ops])
    lam = np.array([op.eigenvalues for op in ops])
    mu = basis.h_eigenvalues
    sorted_mu = np.sort(mu)
    bound = basis.D * np.finfo(float).eps
    lieb = fn._lieb(basis, m, lam)
    for i in range(len(ops)):
        lhs = lam[i, ::-1] @ sorted_mu
        rhs = mu @ np.diag(m[i])
        assert abs(lieb.lhs[i] - lhs) <= bound * (np.abs(lam[i, ::-1]) @ sorted_mu)
        assert abs(lieb.rhs[i] - rhs) <= bound * (mu @ np.abs(np.diag(m[i])))
    m2 = m[::-1].copy()
    m2[5] = m[5]  # an identical pair is never strict
    convexity = fn._convexity(m, lam, m2, _checked_spectra(m2), np.full(len(ops), 0.5))
    distinct = np.array([np.linalg.norm(a - b) for a, b in zip(m, m2)]) > 1e-8
    assert not distinct[5]
    assert np.array_equal(convexity.strict, distinct & (convexity.rhs - convexity.lhs > 1e-12))
