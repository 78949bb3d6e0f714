"""Truncated Fourier discretization of the torus [0,1].

Everything downstream works in the real orthonormal eigenbasis of the
kinetic operator H = -d^2/dx^2 with periodic boundary conditions:

    e_0 = 1,  e_{2k-1} = sqrt(2) cos(2 pi k x),  e_{2k} = sqrt(2) sin(2 pi k x)

for wavenumbers k = 1..M, so the matrix dimension is D = 2M+1 and H is
diagonal with eigenvalues 0 and 4 pi^2 k^2 (doubly degenerate).  Integrals
are the trapezoid rule on N uniform points, which is exact for
trigonometric polynomials of degree < N; N >= 4M+1 keeps every product
A * e_p * e_q alias-free for potentials carried on wavenumbers <= 2M.

Operators are real symmetric D x D coefficient matrices; densities are
grid functions on the N points.  This module assembles H + A; the Gibbs
state exp(-(H+A)) built from that matrix lives in :mod:`qmaxwell.functionals`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatch, NonPositiveDensity, NotPositiveSemidefinite

__all__ = [
    "SpectralBasis",
    "DensityOperator",
    "DensityProfile",
    "ChemicalPotential",
    "SpectralDecomposition",
    "build_basis",
    "assemble_hamiltonian_plus_potential",
    "symmetric_eigendecompose",
    "density_of",
    "kernel_eval",
    "energy_trace",
    "trace_norm",
    "hs_norm",
    "sobolev_norm",
    "matrix_entropy_function",
    "entropy_trace",
    "spectral_derivative",
]

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10


def _eval_functions(M, x):
    """Stack e_p(x) for p = 0..2M, x array-like -> shape (2M+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((2 * M + 1, x.size))
    out[0] = 1.0
    root2 = np.sqrt(2.0)
    for k in range(1, M + 1):
        theta = 2.0 * np.pi * k * x
        out[2 * k - 1] = root2 * np.cos(theta)
        out[2 * k] = root2 * np.sin(theta)
    return out


@dataclass(frozen=True)
class SpectralBasis:
    """Fourier basis truncated at wavenumber ``M`` with an N-point grid."""

    M: int
    N: int
    grid: np.ndarray
    h_eigenvalues: np.ndarray
    functions: np.ndarray = field(repr=False)    # (D, N) values e_p(x_j)
    derivatives: np.ndarray = field(repr=False)  # (D, N) values e_p'(x_j)

    @property
    def D(self) -> int:
        return 2 * self.M + 1

    def quadrature(self, values) -> float:
        """Trapezoid integral over [0,1] of a grid function."""
        return float(np.mean(values))

    def synthesize(self, coefficients) -> np.ndarray:
        """Grid values of sum_p c_p e_p."""
        return np.asarray(coefficients, dtype=float) @ self.functions

    def project(self, values) -> np.ndarray:
        """Coefficients c_p = integral of u * e_p by quadrature."""
        return self.functions @ np.asarray(values, dtype=float) / self.N

    def functions_at(self, x) -> np.ndarray:
        """Basis values at arbitrary points, shape (D, len(x))."""
        return _eval_functions(self.M, x)

    def wavenumbers(self) -> np.ndarray:
        """Wavenumber of each basis index: 0, 1, 1, 2, 2, ..."""
        return (np.arange(self.D) + 1) // 2


def build_basis(M: int, N: int | None = None) -> SpectralBasis:
    """Basis with mode cutoff M; N defaults to the smallest power of two >= 4M+2.

    N < 4M+1 is rejected: the Galerkin matrix of a potential carried on
    wavenumbers <= 2M would alias on a coarser grid.
    """
    if M < 1:
        raise ValueError(f"mode cutoff must be >= 1, got {M}")
    if N is None:
        N = 1
        while N < 4 * M + 2:
            N *= 2
    if N < 4 * M + 1:
        raise ValueError(f"grid size {N} < 4M+1 = {4 * M + 1} aliases potential matrix elements")
    grid = np.arange(N) / N
    k = (np.arange(2 * M + 1) + 1) // 2
    h_eigenvalues = (2.0 * np.pi * k) ** 2
    functions = _eval_functions(M, grid)
    derivatives = np.empty_like(functions)
    derivatives[0] = 0.0
    root2 = np.sqrt(2.0)
    for kk in range(1, M + 1):
        theta = 2.0 * np.pi * kk * grid
        w = 2.0 * np.pi * kk
        derivatives[2 * kk - 1] = -root2 * w * np.sin(theta)
        derivatives[2 * kk] = root2 * w * np.cos(theta)
    return SpectralBasis(M=M, N=N, grid=grid, h_eigenvalues=h_eigenvalues,
                         functions=functions, derivatives=derivatives)


def _check_same_basis(a: SpectralBasis, b: SpectralBasis):
    if a.M != b.M or a.N != b.N:
        raise BasisMismatch(f"bases differ: (M={a.M}, N={a.N}) vs (M={b.M}, N={b.N})")


def _checked_spectra(matrices) -> np.ndarray:
    """Ascending spectra, shape (s, D), of a stack (s, D, D) of density
    operator matrices, once every slice is symmetric within SYMMETRY_TOL and
    PSD within PSD_TOL; raises if any slice is not.

    Every :class:`DensityOperator` runs this check as a stack of one.
    """
    m = np.asarray(matrices, dtype=float)
    scale = 1.0 + np.abs(m).max(axis=(-2, -1))
    asym = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1))
    if (asym > SYMMETRY_TOL * scale).any():
        raise ValueError("density operator matrix is not symmetric within tolerance")
    lam = np.linalg.eigvalsh(m)
    lam_min = lam[:, 0]
    below = lam_min < -PSD_TOL * (np.abs(m.trace(axis1=-2, axis2=-1)) + 1.0)
    if below.any():
        raise NotPositiveSemidefinite(
            f"smallest eigenvalue {lam_min[below][0]:.3e} below PSD tolerance")
    return lam


@dataclass(frozen=True)
class DensityOperator:
    """PSD symmetric coefficient matrix rho_pq = (e_p, rho e_q); ``eigenvalues``
    (ascending) is the spectrum the constructor's PSD check computed."""

    basis: SpectralBasis
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        D = self.basis.D
        if m.shape != (D, D):
            raise ValueError(f"matrix shape {m.shape} incompatible with D={D}")
        object.__setattr__(self, "eigenvalues", _checked_spectra(m[None])[0])

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True)
class DensityProfile:
    """Strictly positive periodic density samples on the basis grid."""

    basis: SpectralBasis
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.basis.N,):
            raise ValueError(f"expected {self.basis.N} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonPositiveDensity("density contains non-finite samples")
        if np.min(v) <= 0.0:
            raise NonPositiveDensity(
                f"density must be strictly positive; min sample is {np.min(v):.6g}")

    @property
    def min_value(self) -> float:
        return float(np.min(self.values))

    @property
    def mass(self) -> float:
        return self.basis.quadrature(self.values)


@dataclass(frozen=True)
class ChemicalPotential:
    """Real periodic potential stored as D Fourier coefficients."""

    basis: SpectralBasis
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", c)
        if c.shape != (self.basis.D,):
            raise ValueError(f"expected {self.basis.D} coefficients, got shape {c.shape}")

    def on_grid(self) -> np.ndarray:
        return self.basis.synthesize(self.coefficients)

    @classmethod
    def constant(cls, basis: SpectralBasis, c: float) -> "ChemicalPotential":
        coeffs = np.zeros(basis.D)
        coeffs[0] = c
        return cls(basis, coeffs)

    @classmethod
    def from_grid(cls, basis: SpectralBasis, values) -> "ChemicalPotential":
        return cls(basis, basis.project(values))

    @classmethod
    def from_callable(cls, basis: SpectralBasis, f) -> "ChemicalPotential":
        return cls.from_grid(basis, f(basis.grid))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with an orthogonal column matrix of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def assemble_hamiltonian_plus_potential(basis: SpectralBasis,
                                        A: ChemicalPotential) -> np.ndarray:
    """Galerkin matrix K_pq = mu_p delta_pq + integral of A e_p e_q.

    The potential integral is the N-point quadrature, exact because
    A e_p e_q has degree <= 4M < N.
    """
    _check_same_basis(basis, A.basis)
    K = _multiplication_matrix(basis, A.on_grid())
    K[np.diag_indices_from(K)] += basis.h_eigenvalues
    return K


def _multiplication_matrix(basis: SpectralBasis, grid_values) -> np.ndarray:
    """Symmetric Galerkin matrix G_pq = integral of u e_p e_q of a grid function u."""
    E = basis.functions
    G = (E * grid_values) @ E.T / basis.N
    return 0.5 * (G + G.T)


def symmetric_eigendecompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a real symmetric matrix, deterministically ordered.

    Eigenvalues come out ascending.  Within a numerically degenerate cluster
    (gap <= 1e-10 * (1 + |lambda|)) columns are sign-fixed so their first
    significant entry is positive, then ordered lexicographically; cos/sin
    pairs at the same wavenumber make such clusters generic.
    """
    m = np.asarray(matrix, dtype=float)
    scale = 1.0 + np.max(np.abs(m)) if m.size else 1.0
    if np.max(np.abs(m - m.T)) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    lam, V = np.linalg.eigh(0.5 * (m + m.T))
    V = V.copy()
    D = lam.size
    for j in range(D):
        col = V[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, np.max(np.abs(col))))[0]
        if nz.size and col[nz[0]] < 0:
            V[:, j] = -col
    # reorder inside degenerate clusters
    start = 0
    while start < D:
        stop = start + 1
        while stop < D and lam[stop] - lam[stop - 1] <= 1e-10 * (1.0 + abs(lam[stop])):
            stop += 1
        if stop - start > 1:
            order = sorted(range(start, stop), key=lambda j: tuple(V[:, j]))
            lam[start:stop] = lam[order]
            V[:, start:stop] = V[:, order]
        start = stop
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=V)


def density_of(rho: DensityOperator) -> np.ndarray:
    """Local density n(x_j) = sum_pq rho_pq e_p(x_j) e_q(x_j).

    The quadrature mass of the result equals the trace exactly up to
    rounding; samples may be slightly negative for general PSD input.
    """
    E = rho.basis.functions
    return np.einsum("pj,pj->j", E, rho.matrix @ E)


def kernel_eval(rho: DensityOperator, x, y) -> float:
    """Integral kernel rho(x, y) = sum_pq rho_pq e_p(x) e_q(y)."""
    ex = rho.basis.functions_at(x)
    ey = rho.basis.functions_at(y)
    val = np.einsum("pi,pq,qi->i", ex, rho.matrix, ey)
    return float(val[0]) if val.size == 1 else val


def energy_trace(rho: DensityOperator) -> float:
    """Kinetic trace Tr(sqrt(H) rho sqrt(H)) = sum_p mu_p rho_pp (H is diagonal)."""
    return float(_energy_traces(rho.basis, rho.matrix[None])[0])


def _energy_traces(basis: SpectralBasis, matrices) -> np.ndarray:
    """:func:`energy_trace` of each slice of a stack (s, D, D).  One dot
    product per slice: a stacked matrix-vector product rounds differently."""
    mu = basis.h_eigenvalues
    return np.array([mu @ np.diag(m) for m in matrices])


def _as_matrix(op):
    return op.matrix if isinstance(op, DensityOperator) else np.asarray(op, dtype=float)


def trace_norm(op) -> float:
    """J1 norm: sum of absolute eigenvalues of a symmetric matrix, or an
    array of them for a stack (s, D, D)."""
    norms = np.sum(np.abs(np.linalg.eigvalsh(_as_matrix(op))), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def hs_norm(op) -> float:
    """J2 (Hilbert-Schmidt/Frobenius) norm."""
    return float(np.linalg.norm(_as_matrix(op)))


def _grid_spectrum(values):
    """(wavenumbers, squared orthonormal coefficient magnitudes) of grid samples."""
    v = np.asarray(values, dtype=float)
    N = v.size
    X = np.fft.rfft(v)
    k = np.arange(X.size)
    mag2 = 2.0 * np.abs(X) ** 2 / N**2
    mag2[0] = (X[0].real / N) ** 2
    if N % 2 == 0:
        mag2[-1] = (X[-1].real / N) ** 2
    return k, mag2


def sobolev_norm(u, s: int) -> float:
    """Fourier-multiplier norm with weight (1 + 4 pi^2 k^2)^s, s in {-1, 0, 1}.

    ``u`` is either a grid function (uniform periodic samples) or a
    ChemicalPotential; s = 0 reduces to the L2 norm.
    """
    if s not in (-1, 0, 1):
        raise ValueError(f"s must be -1, 0 or +1, got {s}")
    if isinstance(u, ChemicalPotential):
        k = u.basis.wavenumbers()
        mag2 = u.coefficients**2
    else:
        k, mag2 = _grid_spectrum(u)
    weights = (1.0 + (2.0 * np.pi * k) ** 2) ** s
    return float(np.sqrt(np.sum(weights * mag2)))


def spectral_derivative(values) -> np.ndarray:
    """d/dx along the last axis via the FFT; the Nyquist mode differentiates to 0."""
    v = np.asarray(values, dtype=float)
    N = v.shape[-1]
    X = np.fft.rfft(v, axis=-1)
    k = np.arange(X.shape[-1])
    X = X * (2j * np.pi * k)
    if N % 2 == 0:
        X[..., -1] = 0.0
    return np.fft.irfft(X, n=N, axis=-1)


def _beta_eta(s, eta):
    """Regularized entropy integrand (s+eta) log(s+eta) - s - eta log eta, beta_0(0)=0."""
    s = np.asarray(s, dtype=float)
    if eta == 0.0:
        out = np.zeros_like(s)
        pos = s > 0.0
        sp = s[pos]
        out[pos] = sp * np.log(sp) - sp
        return out
    return (s + eta) * np.log(s + eta) - s - eta * np.log(eta)


def _checked_clamped_spectrum(rho: DensityOperator):
    lam, V = np.linalg.eigh(rho.matrix)
    tol = PSD_TOL * (abs(rho.trace) + 1.0)
    if lam[0] < -tol:
        raise NotPositiveSemidefinite(
            f"eigenvalue {lam[0]:.3e} below PSD tolerance {-tol:.3e}")
    return np.maximum(lam, 0.0), V


def matrix_entropy_function(rho: DensityOperator, eta: float = 0.0) -> np.ndarray:
    """Spectral application of the (regularized) entropy integrand to rho."""
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    lam, V = _checked_clamped_spectrum(rho)
    m = (V * _beta_eta(lam, eta)) @ V.T
    return 0.5 * (m + m.T)


def entropy_trace(rho: DensityOperator, eta: float = 0.0) -> float:
    """Tr beta_eta(rho); equals the trace of :func:`matrix_entropy_function`.
    Reads the spectrum the constructor computed and checked for PSD."""
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    return float(_spectral_entropy(rho.eigenvalues, eta))


def _spectral_entropy(eigenvalues, eta: float = 0.0):
    """Tr beta_eta over the last axis of checked spectra, negative rounding clamped to 0."""
    return np.sum(_beta_eta(np.maximum(eigenvalues, 0.0), eta), axis=-1)
