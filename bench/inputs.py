"""Seeded input generator for the benchmark workloads.

Inputs are built with plain NumPy, independently of the package under
test: a potential A* on wavenumbers <= kmax, its Galerkin matrix in the
truncated Fourier basis of cutoff M, and the density of exp(-(H + A*)).
The constant mode is set to log Tr exp(-(H + A*)) computed without it, so
every density has mass 1 and the absolute tolerance of the solver means
the same thing at every amplitude.
"""

import numpy as np


def grid_size(M):
    """Smallest power of two >= 4M + 2, the package's default grid."""
    N = 1
    while N < 4 * M + 2:
        N *= 2
    return N


def basis_functions(M, N):
    """Orthonormal real Fourier basis 1, sqrt2 cos, sqrt2 sin, ... on N points."""
    x = np.arange(N) / N
    E = np.empty((2 * M + 1, N))
    E[0] = 1.0
    for k in range(1, M + 1):
        E[2 * k - 1] = np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x)
        E[2 * k] = np.sqrt(2.0) * np.sin(2.0 * np.pi * k * x)
    return E


def make_potential(rng, kmax, amplitude, decay, M):
    """Trigonometric amplitudes of a mass-normalised potential.

    The zero-mean part is scaled so that its maximum modulus on a fine grid
    equals ``amplitude``; the constant c0 = log Tr exp(-(H + A - c0)) makes
    Tr exp(-(H + A)) = 1 at cutoff M.
    """
    k = np.arange(1, kmax + 1)
    scale = 1.0 / k if decay else np.ones(kmax)
    a, b = rng.standard_normal(kmax) * scale, rng.standard_normal(kmax) * scale
    x = np.arange(64 * kmax) / (64 * kmax)
    theta = 2 * np.pi * k[:, None] * x
    shape = a @ np.cos(theta) + b @ np.sin(theta)
    s = amplitude / np.max(np.abs(shape))
    a, b = a * s, b * s
    lam = np.linalg.eigvalsh(hamiltonian(M, 0.0, a, b))
    c0 = float(np.log(np.sum(np.exp(-(lam - lam[0])))) - lam[0])
    return c0, a, b


def coefficients(M, c0, a, b):
    """Coefficients of c0 + sum a_k cos + b_k sin against the orthonormal basis."""
    c = np.zeros(2 * M + 1)
    c[0] = c0
    c[1:2 * a.size:2] = a / np.sqrt(2.0)
    c[2:2 * b.size + 1:2] = b / np.sqrt(2.0)
    return c


def hamiltonian(M, c0, a, b):
    """Galerkin matrix of H + A in the cutoff-M basis, exact quadrature."""
    N = grid_size(M)
    E = basis_functions(M, N)
    A = coefficients(M, c0, a, b) @ E
    K = (E * A) @ E.T / N
    K[np.diag_indices_from(K)] += (2.0 * np.pi * ((np.arange(2 * M + 1) + 1) // 2)) ** 2
    return 0.5 * (K + K.T)


def density(M, c0, a, b):
    """Grid density of exp(-(H + A)) at cutoff M on the default grid."""
    lam, V = np.linalg.eigh(hamiltonian(M, c0, a, b))
    E = basis_functions(M, grid_size(M))
    phi = V.T @ E
    return np.exp(-lam) @ (phi * phi)


def expression(c0, a, b):
    """The potential in the CLI's restricted expression grammar."""
    terms = [repr(float(c0))]
    for k, (ak, bk) in enumerate(zip(a, b), start=1):
        terms.append(f"{float(ak)!r}*cos(2*pi*{k}*x)")
        terms.append(f"{float(bk)!r}*sin(2*pi*{k}*x)")
    return "+".join(terms).replace("+-", "-")
