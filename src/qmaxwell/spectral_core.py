"""Truncated Fourier discretization of the torus [0,1].

Everything downstream works in the real orthonormal eigenbasis of the
kinetic operator H = -d^2/dx^2 with periodic boundary conditions:

    e_0 = 1,  e_{2k-1} = sqrt(2) cos(2 pi k x),  e_{2k} = sqrt(2) sin(2 pi k x)

for wavenumbers k = 1..M, so the matrix dimension is D = 2M+1 and H is
diagonal with eigenvalues 0 and 4 pi^2 k^2 (doubly degenerate).  The
Galerkin matrix of a potential is read from its coefficients, exactly and
in O(D^2): a multiplication operator is Toeplitz-plus-Hankel in this
basis.  Integrals of grid functions (densities, projections onto the
basis, L2 norms) are the trapezoid rule on N uniform points, which is
exact for trigonometric polynomials of degree < N; a density has degree
<= 2M, so N >= 4M+1 keeps its square alias-free.  Products of three basis
functions have degree <= 3M, so the Newton Hessian integrates them
exactly on its own (3M+1)-point product grid, whatever N is.

Operators are real symmetric D x D coefficient matrices; densities are
grid functions on the N points.  This module assembles H + A; the Gibbs
state exp(-(H+A)) built from that matrix lives in :mod:`qmaxwell.functionals`.

:class:`DensityOperator` is the one place that decomposes and checks a
density operator: finite, symmetric and PSD at construction, keeping that
check's ``eigvalsh`` spectrum, and ``eigenpairs`` (one ``eigh``) on demand;
``from_eigenpairs`` composes one from known eigenpairs, keeps them as its
``eigenpairs`` and decomposes nothing.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatch, NonPositiveDensity, NotPositiveSemidefinite

__all__ = [
    "SpectralBasis",
    "DensityOperator",
    "DensityProfile",
    "ChemicalPotential",
    "build_basis",
    "assemble_hamiltonian_plus_potential",
    "density_of",
    "energy_trace",
    "trace_norm",
    "sobolev_norm",
    "entropy_trace",
    "spectral_derivative",
]

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10


def _integer_at_least(name, value, least):
    """``value`` if it is an integer >= least, else a ValueError naming it."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


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
    """Fourier basis truncated at wavenumber ``M`` with an N-point grid;
    bases compare (and hash) by (M, N), which fix every array."""

    M: int
    N: int
    grid: np.ndarray = field(compare=False)
    h_eigenvalues: np.ndarray = field(compare=False)
    functions: np.ndarray = field(repr=False, compare=False)  # (D, N) values e_p(x_j)
    # (D, 3M+1) values of e_p on the 3M+1-point product grid
    product_functions: np.ndarray = field(repr=False, compare=False)

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

    def wavenumbers(self) -> np.ndarray:
        """Wavenumber of each basis index: 0, 1, 1, 2, 2, ..."""
        return (np.arange(self.D) + 1) // 2


def build_basis(M: int, N: int | None = None) -> SpectralBasis:
    """Basis with mode cutoff M; N defaults to the smallest power of two >= 4M+2.

    M and N must be integers.  N < 4M+1 is rejected: the square of a
    density, degree <= 4M, would alias on a coarser grid.
    """
    _integer_at_least("mode cutoff", M, 1)
    if N is None:
        N = 1
        while N < 4 * M + 2:
            N *= 2
    if isinstance(N, numbers.Integral) and N < 4 * M + 1:
        raise ValueError(f"grid size {N} < 4M+1 = {4 * M + 1} aliases squared densities")
    _integer_at_least("grid size", N, 4 * M + 1)
    grid = np.arange(N) / N
    k = (np.arange(2 * M + 1) + 1) // 2
    h_eigenvalues = (2.0 * np.pi * k) ** 2
    product_grid = np.arange(3 * M + 1) / (3 * M + 1)
    return SpectralBasis(M=M, N=N, grid=grid, h_eigenvalues=h_eigenvalues,
                         functions=_eval_functions(M, grid),
                         product_functions=_eval_functions(M, product_grid))


def _check_same_basis(a: SpectralBasis, b: SpectralBasis):
    if a != b:
        raise BasisMismatch(f"bases differ: (M={a.M}, N={a.N}) vs (M={b.M}, N={b.N})")


def _check_finite_symmetric(m, what):
    """ValueError unless each matrix of m (one or a stack) is finite and symmetric."""
    scale = 1.0 + np.abs(m).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(scale).all():  # max propagates NaN and inf
        bad = np.argwhere(~np.isfinite(m))
        first = tuple(bad[0].tolist())
        raise ValueError(f"{what} is not finite: {m[first]} at index {first} "
                         f"({len(bad)} non-finite entries)")
    asym = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1), initial=0.0)
    if (asym > SYMMETRY_TOL * scale).any():
        raise ValueError(f"{what} is not symmetric within tolerance")


def _check_orthogonal(frames, what):
    """ValueError unless each frame V of a stack has V^T V = I within ORTHOGONALITY_TOL."""
    error = np.swapaxes(frames, -1, -2) @ frames - np.eye(frames.shape[-1])
    if not np.all(np.abs(error) <= ORTHOGONALITY_TOL):
        raise ValueError(f"{what} is not orthogonal within {ORTHOGONALITY_TOL:g}")


def _compose(frames, weights):
    """V diag(w) V^T, symmetrized, of frames V and weights w (one or a stack)."""
    m = (frames * weights[..., None, :]) @ np.swapaxes(frames, -1, -2)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _check_psd(lam, matrices):
    """NotPositiveSemidefinite if a spectrum in lam (s, D) is below -PSD_TOL (|Tr| + 1)."""
    lam_min = lam[:, 0]
    below = lam_min < -PSD_TOL * (np.abs(matrices.trace(axis1=-2, axis2=-1)) + 1.0)
    if below.any():
        raise NotPositiveSemidefinite(
            f"smallest eigenvalue {lam_min[below][0]:.3e} below PSD tolerance")


def _checked_spectra(matrices) -> np.ndarray:
    """Ascending spectra, shape (s, D), of a stack (s, D, D) of density
    operator matrices, once every slice is finite, symmetric within
    SYMMETRY_TOL and PSD within PSD_TOL; raises if any slice is not.

    A :class:`DensityOperator` built from a matrix runs it as a stack of one.
    """
    m = np.asarray(matrices, dtype=float)
    _check_finite_symmetric(m, "density operator matrix")
    lam = np.linalg.eigvalsh(m)
    _check_psd(lam, m)
    return lam


@dataclass(frozen=True, eq=False)  # identity equality: == on arrays is ambiguous
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

    @classmethod
    def from_eigenpairs(cls, basis: SpectralBasis, eigenvalues, eigenvectors) -> "DensityOperator":
        """V diag(w) V^T, with no decomposition: ``eigenvalues`` is sort(w), and
        ``eigenpairs`` these pairs in that order.  V must be a D x D frame
        orthogonal within ORTHOGONALITY_TOL, w finite and >= 0."""
        w, V = np.asarray(eigenvalues, dtype=float), np.asarray(eigenvectors, dtype=float)
        if not (w.shape == (basis.D,) and V.shape == (basis.D, basis.D)
                and np.all((w >= 0.0) & (w < np.inf))):
            raise ValueError(f"need {basis.D} eigenvalues, finite and >= 0, and a "
                             f"{basis.D} x {basis.D} frame; got shapes {w.shape}, {V.shape}")
        _check_orthogonal(V[None], "eigenvector frame")
        order = np.argsort(w, kind="stable")
        rho = object.__new__(cls)  # skips __post_init__, which decomposes the matrix
        rho.__dict__.update(basis=basis, matrix=_compose(V, w), eigenvalues=w[order],
                            eigenpairs=(w[order], V[:, order]))
        return rho

    @functools.cached_property
    def eigenpairs(self):
        """(lam, V), lam ascending and clamped at 0: the pairs from_eigenpairs was
        given, or one PSD-checked ``eigh`` on first use."""
        lam, V = np.linalg.eigh(self.matrix)
        _check_psd(lam[None], self.matrix[None])
        return np.maximum(lam, 0.0), V

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def assemble_hamiltonian_plus_potential(basis: SpectralBasis,
                                        A: ChemicalPotential) -> np.ndarray:
    """Galerkin matrix K_pq = mu_p delta_pq + integral of A e_p e_q.

    The potential integral is exact and read from A's coefficients in
    O(D^2), with no quadrature (:func:`_multiplication_matrix`); K is
    exactly symmetric.
    """
    _check_same_basis(basis, A.basis)
    K = _multiplication_matrix(basis, A.coefficients)
    K.flat[::basis.D + 1] += basis.h_eigenvalues
    return K


def _multiplication_matrix(basis: SpectralBasis, coefficients) -> np.ndarray:
    """Galerkin matrix G_pq = integral of u e_p e_q of the function u with
    these basis coefficients: G = s1 * c[I] + s2 * c[J] for c the
    coefficients padded with one zero (see :func:`_galerkin_gather`)."""
    I, J, s1, s2 = _galerkin_gather(basis.M)
    c = np.append(np.asarray(coefficients, dtype=float), 0.0)
    return s1 * c[I] + s2 * c[J]


@functools.cache
def _galerkin_gather(M: int):
    """(I, J, s1, s2), read-only and cached per M, that give the Galerkin
    matrix of a multiplication operator from the zero-padded coefficients c
    of its function u as G = s1 * c[I] + s2 * c[J].

    A multiplication operator is Toeplitz-plus-Hankel in the cos/sin basis
    (Boyd, *Chebyshev and Fourier Spectral Methods*, 2nd ed., 2001): with
    e_p = r_p t_p(2 pi k_p x), t_p cos or sin, r_0 = 1 and r_p = sqrt 2
    otherwise, 2 t_p t_q is a sum of two trig functions at the wavenumbers
    d = k_p - k_q (term I) and s = k_p + k_q (term J):

        2 cos cos = cos d + cos s,   2 sin sin = cos d - cos s,
        2 cos sin = sin s - sin d,   2 sin cos = sin s + sin d.

    The moments of u are integral of u cos(2 pi m x) = c_0 at m = 0 and
    c_{2|m|-1} / sqrt 2 otherwise, and integral of u sin(2 pi m x) =
    sign(m) c_{2|m|} / sqrt 2; a moment at m = 0 of sin, or beyond |m| = M,
    reads the zero pad c_D.  Entries (p, q) and (q, p) read the same
    coefficients with the same scales up to a sign flip of both factor
    and moment, so G is exactly symmetric.
    """
    D = 2 * M + 1
    p = np.arange(D)
    k = (p + 1) // 2
    sine = (p > 0) & (p % 2 == 0)
    r = np.where(p == 0, 1.0, np.sqrt(2.0))
    half = 0.5 * r[:, None] * r[None, :]
    mixed = sine[:, None] != sine[None, :]  # the moments are of sin

    def moment(m, flip):
        """(index into c, scale) of the moments at wavenumbers m, times flip."""
        a = np.abs(m)
        index = np.where(mixed, 2 * a, np.maximum(2 * a - 1, 0))
        index[(a > M) | (mixed & (a == 0))] = D
        scale = np.where(a == 0, 1.0, np.sqrt(0.5)) * np.where(mixed, np.sign(m), 1) * flip
        return index, half * scale

    I, s1 = moment(k[:, None] - k[None, :], np.where(mixed & ~sine[:, None], -1, 1))
    J, s2 = moment(k[:, None] + k[None, :], np.where(~mixed & sine[:, None], -1, 1))
    for a in (I, J, s1, s2):
        a.setflags(write=False)
    return I, J, s1, s2


def density_of(rho: DensityOperator) -> np.ndarray:
    """Local density n(x_j) = sum_pq rho_pq e_p(x_j) e_q(x_j).

    The quadrature mass of the result equals the trace exactly up to
    rounding; samples may be slightly negative for general PSD input.
    """
    E = rho.basis.functions
    return np.einsum("pj,pj->j", E, rho.matrix @ E)


def energy_trace(rho: DensityOperator) -> float:
    """Kinetic trace Tr(sqrt(H) rho sqrt(H)) = sum_p mu_p rho_pp (H is diagonal)."""
    return float(np.sum(np.diagonal(rho.matrix) * rho.basis.h_eigenvalues))


def trace_norm(op) -> float:
    """J1 norm: sum of absolute eigenvalues of a symmetric matrix, or an
    array of them for a stack (s, D, D)."""
    norms = np.sum(np.abs(np.linalg.eigvalsh(np.asarray(op, dtype=float))), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _grid_spectrum(values):
    """(wavenumbers, squared orthonormal coefficient magnitudes) of grid samples."""
    v = np.asarray(values, dtype=float)
    N = v.size
    X = np.fft.rfft(v)
    k = np.arange(X.size)
    with np.errstate(over="ignore"):  # a coefficient too large to square reads inf
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


def spectral_derivative(values, order: int = 1) -> np.ndarray:
    """d^order/dx^order along the last axis via the FFT; for odd orders the
    Nyquist mode differentiates to 0."""
    v = np.asarray(values, dtype=float)
    N = v.shape[-1]
    X = np.fft.rfft(v, axis=-1)
    k = np.arange(X.shape[-1])
    X = X * (2j * np.pi * k) ** order
    if N % 2 == 0 and order % 2:
        X[..., -1] = 0.0
    return np.fft.irfft(X, n=N, axis=-1)


def _xlogx(s):
    """s log s for s > 0, and its continuous limit 0 elsewhere."""
    pos = s > 0.0
    return np.where(pos, s * np.log(np.where(pos, s, 1.0)), 0.0)


def _beta_eta(s, eta):
    """Regularized entropy integrand (s+eta) log(s+eta) - s - eta log eta, s >= 0;
    ValueError unless eta is finite and >= 0."""
    if not 0.0 <= eta < np.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")
    if eta == 0.0:
        return _xlogx(s) - s
    return (s + eta) * np.log(s + eta) - s - eta * np.log(eta)


def entropy_trace(rho: DensityOperator, eta: float = 0.0) -> float:
    """Tr beta_eta(rho), read from the spectrum the constructor computed and
    checked for PSD."""
    return float(_spectral_entropy(rho.eigenvalues, eta))


def _spectral_entropy(eigenvalues, eta: float = 0.0):
    """Tr beta_eta over the last axis of checked spectra, negative rounding clamped to 0."""
    return np.sum(_beta_eta(np.maximum(eigenvalues, 0.0), eta), axis=-1)
