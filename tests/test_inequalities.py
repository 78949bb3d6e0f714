"""The batched inequality suite behind ``verify`` against a per-sample loop
over the public validators at the normalized solved state, drawing from the
same per-block streams."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmaxwell as qm
from qmaxwell import inequalities
from qmaxwell.errors import NotPositiveSemidefinite
from qmaxwell.spectral_core import _checked_spectra

from helpers import haar_rotation, random_potential, random_psd


def _worst(reports):
    worst = min(reports, key=lambda r: r.gap)
    return dataclasses.replace(worst, holds=all(r.holds for r in reports))


def block_streams(samples, seed):
    """The suite's (generator, block size) pairs: one child of the seed per
    block, which the three sampled inequalities draw from."""
    B = inequalities.BLOCK
    sizes = [min(B, samples - start) for start in range(0, samples, B)]
    return [(np.random.default_rng(c), s)
            for c, s in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes)]


def sample(rng, basis):
    """One sample's (rho2, rotation): the rotation R, then rho2 with the
    spectrum g^2 of D normals g in the frame R."""
    R = haar_rotation(rng, basis.D)
    mu = rng.standard_normal(basis.D) ** 2
    return qm.DensityOperator.from_eigenpairs(basis, mu, R), R


def segments(rng, basis, s):
    """A block's samples (rho2, rotation, t): per sample the operator and the
    rotation are drawn first, then the s weights."""
    draws = [sample(rng, basis) for _ in range(s)]
    return [(*d, t) for d, t in zip(draws, rng.uniform(0.1, 0.9, s))]


def anchor_of(rho):
    """The suite's anchor: the solved operator normalized to unit trace."""
    return qm.DensityOperator(rho.basis, rho.matrix / rho.trace)


def oracle_suite(basis, rho, samples, seed):
    """The randomized entries of the suite, one sample at a time, through
    the public validators at rho/Tr rho."""
    r1 = anchor_of(rho)
    draws = [d for rng, s in block_streams(samples, seed) for d in segments(rng, basis, s)]
    return [
        qm.validate_lieb(r1),
        _worst([qm.validate_peierls(r1, R) for _, R, _ in draws]),
        _worst([qm.convexity_probe(r1, r2, t) for r2, _, t in draws]),
        _worst([qm.eigenvalue_perturbation_check(r1, r2) for r2, _, _ in draws]),
    ]


def solved_at(M):
    """(basis, A, rho, n) at cutoff M for A = 0.5 cos 2 pi x."""
    basis = qm.build_basis(M)
    A = qm.ChemicalPotential.from_callable(basis, lambda x: 0.5 * np.cos(2 * np.pi * x))
    rho = qm.gibbs_from_potential(basis, A)
    return basis, A, rho, qm.DensityProfile(basis, qm.density_of(rho))


@pytest.fixture(scope="module", params=[1, 4, 8], ids=lambda M: f"M{M}")
def solved(request):
    return solved_at(request.param)


# the block edges of inequalities.BLOCK = 32, and the CLI's default
@pytest.mark.parametrize("samples", [1, 31, 32, 33, 200])
def test_batched_suite_equals_per_sample_oracle(solved, samples):
    assert inequalities.BLOCK == 32
    basis, A, rho, n = solved
    opts = qm.SolverOptions()
    seed = 1000 * basis.M + samples
    suite = inequalities.run_inequality_suite(A, rho, n, opts.tol_l2, samples, seed)
    assert [r.name for r in suite] == [
        "lieb", "peierls", "convexity", "eigenvalue_perturbation",
        "euler_lagrange_residual", "potential_reconstruction", "log_sobolev"]
    for got, want in zip(suite[:4], oracle_suite(basis, rho, samples, seed)):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_randomized_entries_are_checked_at_the_solved_state():
    # one seed, two solved densities: every sampled entry moves with the
    # state, and lieb is the public validator's one check at rho/Tr rho
    basis, opts = qm.build_basis(8), qm.SolverOptions()
    suites = []
    for f in (lambda x: np.cos(2 * np.pi * x),
              lambda x: 0.7 * np.sin(6 * np.pi * x) + 0.2 * np.cos(2 * np.pi * x)):
        A = qm.ChemicalPotential.from_callable(basis, f)
        rho = qm.gibbs_from_potential(basis, A)
        n = qm.DensityProfile(basis, qm.density_of(rho))
        suite = inequalities.run_inequality_suite(A, rho, n, opts.tol_l2, 200, 1)
        assert dataclasses.asdict(suite[0]) == dataclasses.asdict(qm.validate_lieb(anchor_of(rho)))
        suites.append(suite)
    # (both states are nearly pure, so a side that reads only the anchor's
    # spectrum and the draws can agree; the gaps cannot)
    for first, second in zip(suites[0][1:4], suites[1][1:4]):
        assert first.name == second.name and first.gap != second.gap


_BASES = {M: qm.build_basis(M) for M in (1, 4, 8, 16)}


@given(seed=st.integers(0, 2**31 - 1), M=st.sampled_from(sorted(_BASES)),
       log_trace=st.floats(-450.0, 450.0))
@settings(max_examples=40, deadline=None)
def test_randomized_entries_hold_at_any_mass(seed, M, log_trace):
    # Gibbs states of a random shape, shifted by a constant to Tr rho ~
    # exp(log_trace): rho/Tr rho keeps the absolute 1e-10 slacks meaningful
    # and the Frobenius norms finite at any mass
    basis = _BASES[M]
    rng = np.random.default_rng(seed)
    shape = random_potential(rng, basis, min(M, 3), 3.0).coefficients
    shift = np.log(qm.gibbs_from_potential(basis, qm.ChemicalPotential(basis, shape)).trace)
    shape[0] += shift - log_trace
    A = qm.ChemicalPotential(basis, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rho = qm.gibbs_from_potential(basis, A)
        n = qm.DensityProfile(basis, qm.density_of(rho))
        suite = inequalities.run_inequality_suite(A, rho, n, qm.SolverOptions().tol_l2,
                                                  33, seed % 1000)
    assert abs(np.log(rho.trace) - log_trace) < 1e-6 * (1.0 + abs(log_trace))
    assert all(r.holds for r in suite[:4])
    anchor = anchor_of(rho)
    assert dataclasses.asdict(suite[0]) == dataclasses.asdict(qm.validate_lieb(anchor))
    assert suite[1].rhs == qm.validate_peierls(anchor, np.eye(basis.D)).rhs


@pytest.mark.parametrize("samples", [1, 33, 200])
def test_each_randomized_entry_covers_exactly_the_samples(solved, samples, monkeypatch):
    # every entry but log-Sobolev reports through one call of _report, on all
    # of its samples at once
    basis, A, rho, n = solved
    report, sizes, calls = inequalities._report, {}, {}

    def recording(name, lhs, rhs, holds, strict=None):
        sizes[name] = sizes.get(name, 0) + np.size(lhs)
        calls[name] = calls.get(name, 0) + 1
        return report(name, lhs, rhs, holds, strict)

    monkeypatch.setattr(inequalities, "_report", recording)
    inequalities.run_inequality_suite(A, rho, n, qm.SolverOptions().tol_l2, samples, 3)
    assert sizes == {"lieb": 1, "peierls": samples, "convexity": samples,
                     "eigenvalue_perturbation": samples, "euler_lagrange_residual": 1,
                     "potential_reconstruction": 1}
    assert calls == dict.fromkeys(sizes, 1)


def test_suite_decomposes_two_operators_per_sample_and_the_anchor(monkeypatch):
    # the convexity mixture and rho1 - rho2 for its trace norm, and rho/Tr rho
    # once; rho2's spectrum is drawn, not computed
    basis, A, rho, n = solved_at(8)
    eigvalsh, decomposed = np.linalg.eigvalsh, [0]

    def counting(a, *args, **kwargs):
        decomposed[0] += int(np.prod(np.shape(a)[:-2]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    inequalities.run_inequality_suite(A, rho, n, qm.SolverOptions().tol_l2, 200, 1)
    assert decomposed[0] == 2 * 200 + 1


@pytest.mark.parametrize("M", [1, 8, 32])
def test_suite_second_operator_has_the_drawn_spectrum(M, monkeypatch):
    # rho2 = R diag(mu) R^T is never decomposed by the suite: an independent
    # eigvalsh of its stack must give sort(mu), mu the squares of the normals
    # the per-sample oracle draws, within the rounding of the composition
    basis, A, rho, n = solved_at(M)
    perturbation, seen = inequalities._perturbation, []

    def recording(m1, lam1, m2, lam2):
        seen.append((m2, lam2))
        return perturbation(m1, lam1, m2, lam2)

    monkeypatch.setattr(inequalities, "_perturbation", recording)
    inequalities.run_inequality_suite(A, rho, n, qm.SolverOptions().tol_l2, 40, 5)
    spectra = np.concatenate([lam2 for _, lam2 in seen])
    drawn = [r2.eigenvalues for rng, s in block_streams(40, 5)
             for r2, _, _ in segments(rng, basis, s)]
    assert np.array_equal(spectra, np.array(drawn))
    computed = np.linalg.eigvalsh(np.concatenate([m2 for m2, _ in seen]))
    bound = 1e-12 * (1.0 + spectra.max(axis=-1, keepdims=True))
    assert np.all(np.abs(computed - spectra) <= bound)


@pytest.mark.parametrize("name, value", [
    ("samples", 0), ("samples", -3), ("samples", 2.5), ("samples", "5"), ("samples", None),
    ("seed", -1), ("seed", 1.5), ("seed", "1"), ("seed", None),
])
def test_suite_rejects_a_bad_sample_count_or_seed(name, value, monkeypatch):
    # 0 used to raise from range(), 2.5 a bare TypeError and 1.5 from
    # SeedSequence; no block may be checked before the arguments are
    basis = qm.build_basis(2)
    A = qm.ChemicalPotential.constant(basis, 0.0)
    rho = qm.gibbs_from_potential(basis, A)
    n = qm.DensityProfile(basis, qm.density_of(rho))
    checked = []
    monkeypatch.setattr(inequalities, "_check_block", lambda *a: checked.append(a))
    args = {"samples": 5, "seed": 1, name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= "):
            inequalities.run_inequality_suite(A, rho, n, qm.SolverOptions().tol_l2,
                                              args["samples"], args["seed"])
    assert checked == []


def test_suite_rejects_a_potential_or_density_off_rhos_basis(monkeypatch):
    # the suite reads its basis from rho; A and n on another basis are
    # rejected before any block is checked
    _, A, rho, n = solved_at(4)
    checked = []
    monkeypatch.setattr(inequalities, "_check_block", lambda *a: checked.append(a))
    other = qm.build_basis(4, 64)
    for A_, n_ in ((qm.ChemicalPotential(other, A.coefficients), n),
                   (A, qm.DensityProfile(other, np.ones(other.N)))):
        with pytest.raises(qm.BasisMismatch):
            inequalities.run_inequality_suite(A_, rho, n_, 1e-9, 5, 1)
    assert checked == []


_ONE_CPU_SUITES = """
import dataclasses, json, os, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
import qmaxwell as qm
from qmaxwell.inequalities import run_inequality_suite
out = {}
for M in (1, 4, 8):
    basis = qm.build_basis(M)
    A = qm.ChemicalPotential.from_callable(basis, lambda x: 0.5 * np.cos(2 * np.pi * x))
    rho = qm.gibbs_from_potential(basis, A)
    n = qm.DensityProfile(basis, qm.density_of(rho))
    for samples in (1, 31, 33, 200):
        suite = run_inequality_suite(A, rho, n, qm.SolverOptions().tol_l2, samples,
                                     1000 * M + samples)
        out[f"{M}-{samples}"] = [dataclasses.asdict(r) for r in suite]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def one_cpu_suites():
    """The suites of the worker-count test, computed by a fresh interpreter
    pinned to one CPU (where the platform allows) with one BLAS thread."""
    src = str(Path(qm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _ONE_CPU_SUITES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("samples", [1, 31, 33, 200])
def test_suite_bytes_do_not_depend_on_the_worker_count(solved, samples, one_cpu_suites):
    # the suite runs its blocks serially; the only workers left are BLAS's
    # threads, so one CPU and one BLAS thread must write the bytes that this
    # process writes with its default threads
    basis, A, rho, n = solved
    seed = 1000 * basis.M + samples
    suite = inequalities.run_inequality_suite(A, rho, n, qm.SolverOptions().tol_l2,
                                              samples, seed)
    here = json.dumps([dataclasses.asdict(r) for r in suite])
    assert here == json.dumps(one_cpu_suites[f"{basis.M}-{samples}"])


def test_first_failing_block_raises_before_later_blocks_run(solved, monkeypatch):
    basis, A, rho, n = solved
    opts = qm.SolverOptions()
    convexity, calls = inequalities._convexity, []

    def failing(*args):
        # the 3rd block of 7 fails
        calls.append(args[-1][0])
        if len(calls) == 3:
            raise RuntimeError(f"block with t[0] = {calls[-1]!r}")
        return convexity(*args)

    monkeypatch.setattr(inequalities, "_convexity", failing)
    with pytest.raises(RuntimeError) as raised:
        inequalities.run_inequality_suite(A, rho, n, opts.tol_l2, 200, 11)
    t0s = [segments(rng, basis, s)[0][2] for rng, s in block_streams(200, 11)]
    assert len(t0s) == 7 and calls == t0s[:3]
    assert str(raised.value) == f"block with t[0] = {t0s[2]!r}"

    monkeypatch.setattr(inequalities, "_convexity", convexity)
    suite = inequalities.run_inequality_suite(A, rho, n, opts.tol_l2, 200, 11)
    for got, want in zip(suite[:4], oracle_suite(basis, rho, 200, 11)):
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
    rotations = np.array([haar_rotation(rng, basis.D) for _ in range(40)])
    assert all(inequalities._peierls(op.matrix, op.eigenvalues, rotations)[2].all()
               for op in ops)
    rotations[33] *= 1.0 + 1e-8
    for op in ops:
        with pytest.raises(ValueError, match="not orthogonal"):
            inequalities._peierls(op.matrix, op.eigenvalues, rotations)
    rotations[33] = np.nan  # NaN passes a test such as error > tol
    for op in ops:
        with pytest.raises(ValueError, match="not orthogonal"):
            inequalities._peierls(op.matrix, op.eigenvalues, rotations)


def test_stacked_convexity_rejects_a_weight_outside_the_segment():
    basis = qm.build_basis(4)
    rng = np.random.default_rng(7)
    ops = [random_psd(rng, basis) for _ in range(3)]
    m = np.array([op.matrix for op in ops])
    lam = np.array([op.eigenvalues for op in ops])
    with pytest.raises(ValueError, match="strictly inside"):
        inequalities._convexity(m[0], lam[0], m[::-1], lam[::-1], np.array([0.5, 1.0, 0.5]))


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
    for i, op in enumerate(ops):
        lieb = qm.validate_lieb(op)
        lhs = lam[i, ::-1] @ sorted_mu
        rhs = mu @ np.diag(m[i])
        assert abs(lieb.lhs - lhs) <= bound * (np.abs(lam[i, ::-1]) @ sorted_mu)
        assert abs(lieb.rhs - rhs) <= bound * (mu @ np.abs(np.diag(m[i])))
    m2 = m[::-1].copy()
    m2[5] = m[5]  # an identical pair is never strict
    lam2 = _checked_spectra(m2)
    distinct = np.array([np.linalg.norm(a - b) for a, b in zip(m, m2)]) > 1e-8
    assert not distinct[5]
    for i in range(len(ops)):
        lhs, rhs, _, strict = inequalities._convexity(m[i], lam[i], m2[i:i + 1], lam2[i:i + 1],
                                                      np.array([0.5]))
        assert strict[0] == (distinct[i] and rhs[0] - lhs[0] > 1e-12)


def test_report_is_the_smallest_gap_sample_holding_iff_every_sample_holds():
    # gaps 1, 1, 3: the tie goes to the first sample, whatever holds and
    # strict say of the others
    lhs, rhs = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 5.0])
    rep = inequalities._report("x", lhs, rhs, np.array([True, True, True]),
                     strict=np.array([False, True, True]))
    assert rep == inequalities.InequalityReport("x", 0.0, 1.0, 1.0, True, strict=False)
    # one failing sample, not the smallest-gap one, fails the report
    rep = inequalities._report("x", lhs, rhs, np.array([True, True, False]))
    assert rep == inequalities.InequalityReport("x", 0.0, 1.0, 1.0, False)
    # strict is the chosen sample's
    rep = inequalities._report("x", lhs, np.array([3.0, 2.0, 2.5]), np.array([True, True, True]),
                     strict=np.array([False, True, False]))
    assert rep == inequalities.InequalityReport("x", 2.0, 2.5, 0.5, True, strict=False)
    rep = inequalities._report("x", lhs, np.array([3.0, 1.5, 2.5]), np.array([True, True, True]),
                     strict=np.array([False, True, False]))
    assert rep == inequalities.InequalityReport("x", 1.0, 1.5, 0.5, True, strict=True)
    # scalars are one sample
    rep = inequalities._report("x", 1.0, 3.0, True)
    assert rep == inequalities.InequalityReport("x", 1.0, 3.0, 2.0, True)
    assert type(rep.lhs) is float and type(rep.holds) is bool
