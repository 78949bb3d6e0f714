"""The seeded randomized suite behind ``verify``, and its draws.

Each randomized inequality runs over blocks of BLOCK samples.  The seed's
``SeedSequence`` is spawned into one stream per (inequality, block) check,
inequality-major, then block.  A process-wide thread pool, one worker per
CPU in the process's affinity mask, runs the checks: each draws its block's
Gaussians from its own stream, forms the density matrices, checks them for
symmetry and PSD, and runs the stacked kernel that the matching public
validator in :mod:`qmaxwell.functionals` also runs.  NumPy's ``eigvalsh``,
``qr`` and ``matmul`` release the interpreter lock, so checks overlap.  The
results are read in submission order, so a seed gives the same report bytes
for any number of workers.

Memory: a check's draws and temporaries live only while it runs, so peak
memory grows with the number of workers times BLOCK.
"""

from __future__ import annotations

import functools
import operator
import os

import numpy as np

from . import functionals as fn
from .maxwellian_solver import euler_lagrange_residual, reconstruct_potential_form
from .spectral_core import DensityOperator, _checked_spectra, sobolev_norm

__all__ = ["random_psd", "haar_rotation", "run_inequality_suite"]

# Samples per stacked block.  Fixed: peak memory grows with the workers times
# BLOCK.  The suite at 200 samples, D = 17, on 2 CPUs took 88-92 ms per call
# at BLOCK = 16, 52 ms at 32, 44-46 ms at 64 and 38-41 ms as one block, at
# 40.2, 40.7, 41.5 and 46.0-46.6 MB peak RSS.
BLOCK = 32


def _psd(B):
    """B B^T / D of square Gaussian draws B (one or a stack): PSD by construction."""
    return B @ np.swapaxes(B, -1, -2) / B.shape[-1]


def _rotations(G):
    """Haar-distributed orthogonal matrices from square Gaussian draws G (one
    or a stack): Q of G = QR, its columns signed by R's diagonal."""
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def random_psd(rng, basis) -> DensityOperator:
    """One sample of the suite's density operators: B B^T / D, B a D x D Gaussian."""
    return DensityOperator(basis, _psd(rng.standard_normal((basis.D, basis.D))))


def haar_rotation(rng, D):
    """One sample of the suite's rotations, from one D x D Gaussian draw."""
    return _rotations(rng.standard_normal((D, D)))


def _checked(B):
    """(matrices, spectra) of the density operators drawn as the stack B."""
    m = _psd(B)
    return m, _checked_spectra(m)


def _check_lieb(basis, rng, s):
    return fn._lieb(basis, *_checked(rng.standard_normal((s, basis.D, basis.D))))


def _check_peierls(basis, rng, s):
    G = rng.standard_normal((s, 2, basis.D, basis.D))  # per sample: operator, rotation
    return fn._peierls(*_checked(G[:, 0]), _rotations(G[:, 1]))


def _check_convexity(basis, rng, s):
    G = rng.standard_normal((s, 2, basis.D, basis.D))  # per sample: two operators
    return fn._convexity(*_checked(G[:, 0]), *_checked(G[:, 1]), rng.uniform(0.1, 0.9, s))


def _check_perturbation(basis, rng, s):
    G = rng.standard_normal((s, 2, basis.D, basis.D))
    return fn._perturbation(*_checked(G[:, 0]), *_checked(G[:, 1]))


@functools.cache
def _executor():
    """The suite's check pool, one thread per CPU in the affinity mask;
    created on first use, so importing the package starts no thread and
    loads no executor module (about 0.4 MB of RSS on a ``solve``)."""
    from concurrent.futures import ThreadPoolExecutor

    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="qmaxwell-suite")


def run_inequality_suite(basis, A, rho, n, opts, samples, seed):
    """Seeded randomized suite; each entry records its worst-case instance.
    ``samples`` is an integer >= 1 and ``seed`` an integer >= 0.  The first
    failing check in order raises, once every check has settled."""
    from concurrent.futures import wait

    for name, value, least in (("samples", samples, 1), ("seed", seed, 0)):
        try:
            valid = operator.index(value) >= least
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    sizes = [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]
    k = len(sizes)
    checks = (_check_lieb, _check_peierls, _check_convexity, _check_perturbation)
    streams = iter(np.random.SeedSequence(seed).spawn(len(checks) * k))
    pool = _executor()
    futures = [pool.submit(check, basis, np.random.default_rng(next(streams)), s)
               for check in checks for s in sizes]
    wait(futures)
    stacks = [future.result() for future in futures]
    out = [fn.InequalityStack.concatenate(stacks[i:i + k]).worst()
           for i in range(0, len(stacks), k)]
    el = euler_lagrange_residual(rho, A)
    el_bound = 10.0 * opts.tol_l2 * (1.0 + rho.trace)
    out.append(fn.InequalityReport(name="euler_lagrange_residual", lhs=el,
                                   rhs=el_bound, gap=el_bound - el,
                                   holds=bool(el <= el_bound)))
    a_grid = A.on_grid()
    direct = np.array([basis.quadrature(a_grid * psi) for psi in basis.functions])
    recovered = reconstruct_potential_form(rho, n, basis.functions)
    worst_diff = float(np.max(np.abs(recovered - direct)))
    rec_bound = 1e-6 * (1.0 + sobolev_norm(a_grid, 0))
    out.append(fn.InequalityReport(name="potential_reconstruction", lhs=worst_diff,
                                   rhs=rec_bound, gap=rec_bound - worst_diff,
                                   holds=bool(worst_diff <= rec_bound)))
    out.append(fn.log_sobolev_gap(rho))
    return out
