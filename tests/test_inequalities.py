"""The batched inequality suite behind ``verify`` against the per-sample
loop over the public validators that it replaced."""

import dataclasses

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


def oracle_suite(basis, samples, seed):
    """The randomized entries of the suite, one sample at a time."""
    rng = np.random.default_rng(seed)
    return [
        _worst([qm.validate_lieb(random_psd(rng, basis)) for _ in range(samples)]),
        _worst([qm.validate_peierls(random_psd(rng, basis), haar_rotation(rng, basis.D))
                for _ in range(samples)]),
        _worst([qm.convexity_probe(random_psd(rng, basis), random_psd(rng, basis),
                                   rng.uniform(0.1, 0.9))
                for _ in range(samples)]),
        _worst([qm.eigenvalue_perturbation_check(random_psd(rng, basis),
                                                 random_psd(rng, basis))
                for _ in range(samples)]),
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
    suite = inequalities.run_inequality_suite(basis, A, rho, n, None, opts, samples, seed)
    assert [r.name for r in suite] == [
        "lieb", "peierls", "convexity", "eigenvalue_perturbation",
        "euler_lagrange_residual", "potential_reconstruction", "log_sobolev"]
    for got, want in zip(suite[:4], oracle_suite(basis, samples, seed)):
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
