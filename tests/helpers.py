"""Shared generators and independent oracles for the test suite."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qmaxwell import ChemicalPotential, DensityOperator
from qmaxwell.inequalities import haar_rotation  # the verify suite's draws
from qmaxwell.inequalities import random_psd as _random_psd


def random_psd(rng, basis, floor=0.0):
    """The verify suite's random PSD density operator; ``floor`` adds that
    multiple of the flat-mode projector (keeps the density bounded away from zero)."""
    rho = _random_psd(rng, basis)
    if not floor:
        return rho
    m = rho.matrix.copy()
    m[0, 0] += floor * np.trace(m)
    return DensityOperator(basis, m)


def random_potential(rng, basis, max_wavenumber, bound):
    """Coefficients uniform in [-bound, bound] on wavenumbers <= max_wavenumber."""
    coeffs = np.zeros(basis.D)
    coeffs[0] = rng.uniform(-bound, bound)
    for k in range(1, max_wavenumber + 1):
        coeffs[2 * k - 1] = rng.uniform(-bound, bound)
        coeffs[2 * k] = rng.uniform(-bound, bound)
    return ChemicalPotential(basis, coeffs)


def random_symmetric(rng, D, scale=1.0):
    W = rng.standard_normal((D, D)) * scale
    return 0.5 * (W + W.T)


def h1_seminorm_sq(basis, values):
    """Discrete H^1 seminorm squared via the spectral derivative."""
    from qmaxwell import spectral_core

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
    E = basis.functions_at(x)
    C = (E @ vecs) * np.sqrt(h)
    return (C * np.exp(-vals)) @ C.T
