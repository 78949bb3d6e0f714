"""The seeded randomized suite behind ``verify``, and its draws.

The suite runs over blocks of BLOCK samples, one after another, on the
calling thread.  The seed's ``SeedSequence`` is spawned into one stream per
block, and one draw from it feeds all four randomized inequalities (see
:func:`_check_block`).  The second operator of a sample is composed from a
drawn spectrum, so a sample decomposes three operators.  Each block runs
the stacked kernels of the public validators in :mod:`qmaxwell.functionals`,
and its draws and temporaries live only while it runs.
"""

from __future__ import annotations

import numpy as np

from . import functionals as fn
from .maxwellian_solver import euler_lagrange_residual, reconstruct_potential_form
from .spectral_core import (
    DensityOperator,
    _checked_spectra,
    _compose,
    _integer_at_least,
    sobolev_norm,
)

__all__ = ["random_psd", "haar_rotation", "run_inequality_suite"]

# Samples per stacked block; fixed, so that a seed's bytes do not depend on
# the machine.  Peak memory grows with BLOCK: the serial suite at 200 samples,
# D = 17, with 2 BLAS threads took 20-33 ms per call at BLOCK = 16, 32, 64 and
# as one block alike, at 38.4, 38.8, 39.6 and 42.3 MB peak RSS.
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


def _check_block(basis, rng, s):
    """The four randomized inequalities on one block of s samples, all on one
    draw: per sample B for the Wishart rho1 = B B^T / D, G for the Haar
    rotation R (Mezzadri, Notices AMS 54, 592 (2007)) and D normals g, then
    the block's convexity weights.  rho2 = R diag(g^2) R^T has the known
    spectrum sort(g^2), chi-squared with one degree of freedom; the Peierls
    check, which runs first, rejects an R that is not orthogonal."""
    D = basis.D
    draws = rng.standard_normal((s, 2 * D * D + D))
    t = rng.uniform(0.1, 0.9, s)
    square = draws[:, :2 * D * D].reshape(s, 2, D, D)
    m1, R, mu = _psd(square[:, 0]), _rotations(square[:, 1]), draws[:, 2 * D * D:] ** 2
    rho1, rho2 = (m1, _checked_spectra(m1)), (_compose(R, mu), np.sort(mu, axis=-1))
    return (fn._lieb(basis, *rho1), fn._peierls(*rho1, R),
            fn._convexity(*rho1, *rho2, t), fn._perturbation(*rho1, *rho2))


def run_inequality_suite(basis, A, rho, n, opts, samples, seed):
    """Seeded randomized suite; each entry records its worst-case instance.
    ``samples`` is an integer >= 1 and ``seed`` an integer >= 0.  The blocks
    run in order, and the first failing block raises."""
    _integer_at_least("samples", samples, 1)
    _integer_at_least("seed", seed, 0)
    sizes = [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    blocks = [_check_block(basis, np.random.default_rng(stream), s)
              for stream, s in zip(streams, sizes)]
    out = [fn.InequalityStack.concatenate(stacks).worst() for stacks in zip(*blocks)]

    def bounded(name, lhs, rhs):
        return fn.InequalityReport(name=name, lhs=lhs, rhs=rhs, gap=rhs - lhs,
                                   holds=bool(lhs <= rhs))

    # the form at psi = e_p recovers integral of A e_p, which is the coefficient a_p
    recovered = reconstruct_potential_form(rho, n, basis.functions)
    return out + [
        bounded("euler_lagrange_residual", euler_lagrange_residual(rho, A),
                10.0 * opts.tol_l2 * (1.0 + rho.trace)),
        bounded("potential_reconstruction", float(np.max(np.abs(recovered - A.coefficients))),
                1e-6 * (1.0 + sobolev_norm(A, 0))),
        fn.log_sobolev_gap(rho)]
