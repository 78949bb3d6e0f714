"""The seeded randomized inequality suite behind ``verify``, and its draws.

Each randomized inequality runs over blocks of BLOCK samples: one stack of
Gaussian draws per block, formed into density matrices, checked for
symmetry and PSD, and passed to the stacked kernel that the matching
public validator in :mod:`qmaxwell.functionals` also runs.  The draws
consume the generator in the order a per-sample loop would (validator by
validator, sample by sample), so a seed gives the same report whatever the
block size.
"""

from __future__ import annotations

import numpy as np

from . import functionals as fn
from .maxwellian_solver import euler_lagrange_residual, reconstruct_potential_form
from .spectral_core import DensityOperator, _checked_spectra, sobolev_norm

__all__ = ["random_psd", "haar_rotation", "run_inequality_suite"]

# Samples per stacked block.  Fixed: the draws, the operators, the rotations
# and the check temporaries of one block are live together, so peak memory
# grows with it.  On the cli-verify-m8 benchmark (200 samples, D = 17) one
# block of 200 ran about 15% faster than blocks of 32 but raised the peak
# RSS from 41.9 to 46.0 MB.
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


def _worst(samples, block):
    """Worst instance of ``block(s)``, an InequalityStack over s fresh samples,
    run block by block over ``samples`` samples."""
    sizes = [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]
    return fn.InequalityStack.concatenate([block(s) for s in sizes]).worst()


def run_inequality_suite(basis, A, rho, n, report, opts, samples, seed):
    """Seeded randomized suite; each entry records its worst-case instance."""
    rng = np.random.default_rng(seed)
    D = basis.D

    def lieb(s):
        return fn._lieb(basis, *_checked(rng.standard_normal((s, D, D))))

    def peierls(s):  # per sample: the operator's draw, then the rotation's
        G = rng.standard_normal((s, 2, D, D))
        return fn._peierls(*_checked(G[:, 0]), _rotations(G[:, 1]))

    def convexity(s):  # per sample: two operators, then the mixing weight t
        draws = [(rng.standard_normal((2, D, D)), rng.uniform(0.1, 0.9))
                 for _ in range(s)]
        G = np.array([g for g, _ in draws])
        t = np.array([t for _, t in draws])
        return fn._convexity(*_checked(G[:, 0]), *_checked(G[:, 1]), t)

    def perturbation(s):
        G = rng.standard_normal((s, 2, D, D))
        return fn._perturbation(*_checked(G[:, 0]), *_checked(G[:, 1]))

    out = [_worst(samples, block) for block in (lieb, peierls, convexity, perturbation)]
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
