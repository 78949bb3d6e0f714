"""The seeded randomized suite behind ``verify``, and its draws.

The suite runs over blocks of BLOCK samples.  The seed's ``SeedSequence``
is spawned into one stream per block, and one draw from it feeds all four
randomized inequalities: per sample two operators and a rotation, then the
block's convexity weights.  A process-wide thread pool, one worker per CPU
in the process's affinity mask, runs the blocks: each forms its density
matrices, checks them for symmetry and PSD, and runs the stacked kernels
that the matching public validators in :mod:`qmaxwell.functionals` also
run.  NumPy's ``eigvalsh``, ``qr`` and ``matmul`` release the interpreter
lock, so blocks overlap.  The results are read in submission order, so a
seed gives the same report bytes for any number of workers.

Memory: a block's draws and temporaries live only while it runs, so peak
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
# BLOCK.  The suite at 200 samples, D = 17, on 2 CPUs took a median 51 ms per
# call at BLOCK = 16, 27-28 ms at 32, 26 ms at 64 and 30-35 ms as one block,
# at 39.4, 40.0, 40.9 and 42.7 MB peak RSS.
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


def _check_block(basis, rng, s):
    """The four randomized inequalities on one block of s samples, all on one
    draw: per sample the operators rho1 and rho2 and a rotation, then the
    block's convexity weights."""
    G = rng.standard_normal((s, 3, basis.D, basis.D))
    t = rng.uniform(0.1, 0.9, s)
    rho1, rho2 = _checked(G[:, 0]), _checked(G[:, 1])
    return (fn._lieb(basis, *rho1), fn._peierls(*rho1, _rotations(G[:, 2])),
            fn._convexity(*rho1, *rho2, t), fn._perturbation(*rho1, *rho2))


@functools.cache
def _executor():
    """The suite's block pool, one thread per CPU in the affinity mask;
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
    failing block in order raises, once every block has settled."""
    from concurrent.futures import wait

    for name, value, least in (("samples", samples, 1), ("seed", seed, 0)):
        try:
            valid = operator.index(value) >= least
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    sizes = [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    pool = _executor()
    futures = [pool.submit(_check_block, basis, np.random.default_rng(stream), s)
               for stream, s in zip(streams, sizes)]
    wait(futures)
    blocks = [future.result() for future in futures]
    out = [fn.InequalityStack.concatenate(stacks).worst() for stacks in zip(*blocks)]
    el = euler_lagrange_residual(rho, A)
    el_bound = 10.0 * opts.tol_l2 * (1.0 + rho.trace)
    out.append(fn.InequalityReport(name="euler_lagrange_residual", lhs=el,
                                   rhs=el_bound, gap=el_bound - el,
                                   holds=bool(el <= el_bound)))
    # the form at psi = e_p recovers integral of A e_p, which is the coefficient a_p
    recovered = reconstruct_potential_form(rho, n, basis.functions)
    worst_diff = float(np.max(np.abs(recovered - A.coefficients)))
    rec_bound = 1e-6 * (1.0 + sobolev_norm(A, 0))
    out.append(fn.InequalityReport(name="potential_reconstruction", lhs=worst_diff,
                                   rhs=rec_bound, gap=rec_bound - worst_diff,
                                   holds=bool(worst_diff <= rec_bound)))
    out.append(fn.log_sobolev_gap(rho))
    return out
