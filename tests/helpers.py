"""Shared generators and independent oracles for the test suite."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qmaxwell import ChemicalPotential, DensityOperator, spectral_core
from qmaxwell.functionals import GibbsState, _hessian_from_spectrum
from qmaxwell.inequalities import _rotations


def random_psd(rng, basis, floor=0.0):
    """A Wishart density operator B B^T / D, B a D x D Gaussian draw; ``floor``
    adds that multiple of the flat-mode projector (keeps the density bounded
    away from zero)."""
    B = rng.standard_normal((basis.D, basis.D))
    m = B @ B.T / basis.D
    if floor:
        m[0, 0] += floor * np.trace(m)
    return DensityOperator(basis, m)


def haar_rotation(rng, D):
    """A Haar-distributed orthogonal matrix from one D x D Gaussian draw, built
    as the verify suite builds its rotations."""
    return _rotations(rng.standard_normal((D, D)))


def random_potential(rng, basis, max_wavenumber, bound):
    """Coefficients uniform in [-bound, bound] on wavenumbers <= max_wavenumber."""
    coeffs = np.zeros(basis.D)
    coeffs[0] = rng.uniform(-bound, bound)
    for k in range(1, max_wavenumber + 1):
        coeffs[2 * k - 1] = rng.uniform(-bound, bound)
        coeffs[2 * k] = rng.uniform(-bound, bound)
    return ChemicalPotential(basis, coeffs)


def hessian_matrix(A):
    """The D x D Hessian of J at A that the Newton step solves with."""
    return _hessian_from_spectrum(GibbsState(A))


def random_symmetric(rng, D, scale=1.0):
    W = rng.standard_normal((D, D)) * scale
    return 0.5 * (W + W.T)


def basis_derivatives(basis):
    """(D, N) values e_p'(x_j) of the basis on its grid by the explicit
    formula e'_{2k-1} = -2 pi k e_{2k}, e'_{2k} = 2 pi k e_{2k-1}: a
    reference independent of spectral_derivative."""
    E = basis.functions
    w = 2.0 * np.pi * np.arange(1, basis.M + 1)[:, None]
    derivatives = np.zeros_like(E)
    derivatives[1::2] = -w * E[2::2]
    derivatives[2::2] = w * E[1::2]
    return derivatives


def h1_seminorm_sq(basis, values):
    """Discrete H^1 seminorm squared via the spectral derivative."""
    du = spectral_core.spectral_derivative(values)
    return basis.quadrature(du * du)


def fd_gibbs_projection(a_func, basis, points=4096, pairs=14):
    """Independent oracle for exp(-(H+A)): second-order periodic finite
    differences on a dense grid, exponentiated through the lowest eigenpairs
    (the rest carry Gibbs weights below 1e-60), projected onto the basis.
    """
    x = np.arange(points) / points
    h = 1.0 / points
    main = 2.0 / h**2 + a_func(x)
    off = -np.ones(points - 1) / h**2
    H = sp.lil_matrix((points, points))
    H.setdiag(main)
    H.setdiag(off, 1)
    H.setdiag(off, -1)
    H[0, -1] = -1.0 / h**2
    H[-1, 0] = -1.0 / h**2
    sigma = float(np.min(a_func(x))) - 1.0
    vals, vecs = spla.eigsh(H.tocsc(), k=pairs, sigma=sigma, which="LM",
                            v0=np.ones(points))
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    E = spectral_core._eval_functions(basis.M, x)
    C = (E @ vecs) * np.sqrt(h)
    return (C * np.exp(-vals)) @ C.T
