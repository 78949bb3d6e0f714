"""The seeded randomized inequality suite behind ``verify``, and its draws.

Each randomized inequality runs over blocks of BLOCK samples, as a
two-stage pipeline.  The calling thread draws each block's Gaussians from
the one seeded generator, in the order a per-sample loop would consume
them (validator by validator, sample by sample), so a seed gives the same
report whatever the block size.  A process-wide thread pool, one worker per
CPU in the process's affinity mask, checks the blocks: it forms the density
matrices, checks them for symmetry and PSD, and runs the stacked kernel
that the matching public validator in :mod:`qmaxwell.functionals` also
runs.  NumPy's ``eigvalsh``, ``qr`` and ``matmul`` release the interpreter
lock, so the checks of different blocks overlap.  The results are read in
submission order, so the report is the same bytes for any number of
workers.

Memory: the draws run at most two blocks per worker ahead of the oldest
unfinished check, and the draws, operators, rotations and check
temporaries of every block in flight are live together, so peak memory
grows with the number of workers times BLOCK.
"""

from __future__ import annotations

import collections
import functools
import os

import numpy as np

from . import functionals as fn
from .maxwellian_solver import euler_lagrange_residual, reconstruct_potential_form
from .spectral_core import DensityOperator, _checked_spectra, sobolev_norm

__all__ = ["random_psd", "haar_rotation", "run_inequality_suite"]

# Samples per stacked block.  Fixed: peak memory grows with the blocks in
# flight times BLOCK.  The suite at 200 samples, D = 17, on 2 CPUs (40 calls
# in one process) took 52-64 ms per call serially, at 38.8-39.1 MB peak RSS;
# with one block in flight per worker 50-53 ms at 40.1-40.2 MB, and with two
# 41-47 ms at 40.5-40.7 MB.  Most of the added memory is the malloc arena of
# each worker thread, about 0.45 MB.
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
    """The suite's random density operator: B B^T / D for one D x D Gaussian B."""
    return DensityOperator(basis, _psd(rng.standard_normal((basis.D, basis.D))))


def haar_rotation(rng, D):
    """The suite's random rotation, from one D x D Gaussian draw."""
    return _rotations(rng.standard_normal((D, D)))


def _checked(B):
    """(matrices, spectra) of the density operators drawn as the stack B."""
    m = _psd(B)
    return m, _checked_spectra(m)


def _check_lieb(basis, B):
    return fn._lieb(basis, *_checked(B))


def _check_peierls(G):
    return fn._peierls(*_checked(G[:, 0]), _rotations(G[:, 1]))


def _check_convexity(G, t):
    return fn._convexity(*_checked(G[:, 0]), *_checked(G[:, 1]), t)


def _check_perturbation(G):
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


def _pipeline(blocks):
    """``[check(*args) for check, args in blocks]``, in order.  The calling
    thread consumes ``blocks`` (the draws) at most two blocks per worker
    ahead of the oldest unfinished check; the pool runs the checks.  The
    first failing check in order raises, once every check in flight has
    settled."""
    pool = _executor()
    window = 2 * pool._max_workers
    pending, results = collections.deque(), []
    try:
        for check, args in blocks:
            if len(pending) == window:
                results.append(pending.popleft().result())
            pending.append(pool.submit(check, *args))
        while pending:
            results.append(pending.popleft().result())
    finally:
        for future in pending:
            if not future.cancel():  # running: wait for it to settle
                future.exception()
    return results


def run_inequality_suite(basis, A, rho, n, opts, samples, seed):
    """Seeded randomized suite; each entry records its worst-case instance."""
    rng = np.random.default_rng(seed)
    D = basis.D
    sizes = [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]

    def draws():
        for s in sizes:
            yield _check_lieb, (basis, rng.standard_normal((s, D, D)))
        for s in sizes:  # per sample: the operator's draw, then the rotation's
            yield _check_peierls, (rng.standard_normal((s, 2, D, D)),)
        for s in sizes:  # per sample: two operators, then the mixing weight t
            pairs = [(rng.standard_normal((2, D, D)), rng.uniform(0.1, 0.9))
                     for _ in range(s)]
            yield _check_convexity, (np.array([g for g, _ in pairs]),
                                     np.array([t for _, t in pairs]))
        for s in sizes:
            yield _check_perturbation, (rng.standard_normal((s, 2, D, D)),)

    stacks = _pipeline(draws())
    k = len(sizes)
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
