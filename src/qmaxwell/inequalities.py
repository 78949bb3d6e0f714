"""The seeded randomized suite behind ``verify``, anchored at the solved state.

Every randomized entry checks the normalized solved operator rho/Tr rho
(:func:`run_inequality_suite`): Lieb once, and Peierls, convexity and
eigenvalue perturbation over samples that run in blocks of BLOCK, one after
another, on the calling thread.  The seed's ``SeedSequence`` is spawned into
one stream per block, and one draw from it feeds the three sampled
inequalities (see :func:`_check_block`).  The second operator of a sample is
composed from a drawn spectrum, so a sample decomposes two operators.  Each
block runs the stacked kernels of the public validators in
:mod:`qmaxwell.functionals`, and its draws and temporaries live only while it
runs.
"""

from __future__ import annotations

import numpy as np

from . import functionals as fn
from .maxwellian_solver import euler_lagrange_residual, reconstruct_potential_form
from .spectral_core import DensityOperator, _compose, _integer_at_least, sobolev_norm

__all__ = ["run_inequality_suite"]

# Samples per stacked block; fixed, so that a seed's bytes do not depend on
# the machine.
BLOCK = 32


def _rotations(G):
    """Haar-distributed orthogonal matrices from square Gaussian draws G (one
    or a stack): Q of G = QR, its columns signed by R's diagonal."""
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def _check_block(anchor, rng, s):
    """Peierls, convexity and perturbation at ``anchor`` on one block of s
    samples, all on one draw: per sample D^2 normals for the Haar rotation R
    (Mezzadri, Notices AMS 54, 592 (2007)) and D normals g, then the block's
    convexity weights.  Peierls reads the anchor in the frame R, and the other
    two pair it with rho2 = R diag(g^2) R^T, whose spectrum sort(g^2) is known;
    the Peierls check, which runs first, rejects an R that is not orthogonal."""
    D = anchor.basis.D
    draws = rng.standard_normal((s, D * D + D))
    t = rng.uniform(0.1, 0.9, s)
    R, mu = _rotations(draws[:, :D * D].reshape(s, D, D)), draws[:, D * D:] ** 2
    rho1 = (np.broadcast_to(anchor.matrix, (s, D, D)),
            np.broadcast_to(anchor.eigenvalues, (s, D)))
    rho2 = (_compose(R, mu), np.sort(mu, axis=-1))
    return (fn._peierls(*rho1, R), fn._convexity(*rho1, *rho2, t),
            fn._perturbation(*rho1, *rho2))


def run_inequality_suite(basis, A, rho, n, opts, samples, seed):
    """Seeded randomized suite at the solved state; each entry records its
    worst-case instance.  ``samples`` is an integer >= 1 and ``seed`` an
    integer >= 0.  The randomized entries check rho/Tr rho, so a gap does not
    scale with the mass; the blocks run in order, and the first failing block
    raises."""
    _integer_at_least("samples", samples, 1)
    _integer_at_least("seed", seed, 0)
    anchor = DensityOperator(basis, rho.matrix / rho.trace)
    sizes = [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    blocks = [_check_block(anchor, np.random.default_rng(stream), s)
              for stream, s in zip(streams, sizes)]
    out = [fn._lieb(basis, anchor.matrix[None], anchor.eigenvalues[None]).worst()]
    out += [fn.InequalityStack.concatenate(stacks).worst() for stacks in zip(*blocks)]

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
