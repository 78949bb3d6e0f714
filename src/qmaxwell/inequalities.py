"""The operator inequalities behind the unique minimizer, and the seeded
suite behind ``verify`` that checks them at the solved state.

A kernel takes one anchor matrix (D, D) with its checked spectrum (D,)
against a stack (s, D, D) of Haar frames or second operators with their
spectra (s, D), and returns per-sample arrays ``(lhs, rhs, holds[, strict])``
reduced along each sample's own axes.  :func:`_report` is the one reduction:
a validator calls it on a stack of one, the suite once per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maxwellian_solver import euler_lagrange_residual
from .spectral_core import (
    DensityOperator,
    DensityProfile,
    _check_orthogonal,
    _check_same_basis,
    _checked_spectra,
    _compose,
    _integer_at_least,
    _spectral_entropy,
    _xlogx,
    density_of,
    energy_trace,
    sobolev_norm,
    trace_norm,
)

__all__ = [
    "InequalityReport",
    "validate_lieb",
    "validate_peierls",
    "log_sobolev_gap",
    "convexity_probe",
    "eigenvalue_perturbation_check",
    "reconstruct_potential_form",
    "run_inequality_suite",
]

# Samples per stacked block; fixed, so that a seed's bytes do not depend on
# the machine.
BLOCK = 32


@dataclass(frozen=True)
class InequalityReport:
    """lhs/rhs of one inequality; the gap convention is stated per validator."""

    name: str
    lhs: float
    rhs: float
    gap: float
    holds: bool
    strict: bool | None = None
    diagnostic: bool = False


def validate_lieb(rho: DensityOperator) -> InequalityReport:
    """Pairing bound: sum of rho's eigenvalues (descending) against H's
    (ascending) is at most the kinetic trace.  gap = rhs - lhs >= 0."""
    lhs = np.sum(rho.eigenvalues[::-1] * np.sort(rho.basis.h_eigenvalues))
    rhs = energy_trace(rho)
    return _report("lieb", lhs, rhs, lhs <= rhs + 1e-10 * (1.0 + rhs))


def validate_peierls(rho: DensityOperator, basis_rotation) -> InequalityReport:
    """Peierls: sum of beta over diagonal entries in any orthonormal frame is
    at most Tr beta(rho).  gap = rhs - lhs >= 0."""
    R = np.asarray(basis_rotation, dtype=float)
    return _report("peierls", *_peierls(rho.matrix, rho.eigenvalues, R[None]))


def log_sobolev_gap(rho: DensityOperator) -> InequalityReport:
    """Diagnostic only: gap = lhs - rhs of the log-Sobolev form

        Tr rho log rho + Tr sqrt(H) rho sqrt(H)
            >= integral n log n + (log 4 pi)/2 Tr rho.

    On the unit torus the constant fails for the flat projector, so
    ``holds`` is informational and never gates a verification run.
    """
    if rho.trace <= 0.0:
        raise ValueError("log-Sobolev diagnostic needs Tr rho > 0")
    lhs = float(np.sum(_xlogx(rho.eigenvalues)) + energy_trace(rho))
    n = np.maximum(density_of(rho), 1e-300)
    rhs = rho.basis.quadrature(n * np.log(n)) + 0.5 * np.log(4.0 * np.pi) * rho.trace
    gap = lhs - rhs
    return InequalityReport(name="log_sobolev", lhs=lhs, rhs=float(rhs), gap=float(gap),
                            holds=bool(gap >= -1e-10 * (1.0 + abs(rhs))), diagnostic=True)


def convexity_probe(rho1: DensityOperator, rho2: DensityOperator,
                    t: float) -> InequalityReport:
    """Entropy convexity along the segment; gap = rhs - lhs >= 0, with
    ``strict`` set when the operators are distinguishable and the gap is."""
    _check_same_basis(rho1.basis, rho2.basis)
    return _report("convexity", *_convexity(
        rho1.matrix, rho1.eigenvalues, rho2.matrix[None], rho2.eigenvalues[None],
        np.array([t], dtype=float)))


def eigenvalue_perturbation_check(rho1: DensityOperator,
                                  rho2: DensityOperator) -> InequalityReport:
    """Weyl-type bound: eigenvalue sup-distance is at most the J1 distance.
    gap = rhs - lhs >= 0."""
    _check_same_basis(rho1.basis, rho2.basis)
    return _report("eigenvalue_perturbation", *_perturbation(
        rho1.matrix, rho1.eigenvalues, rho2.matrix[None], rho2.eigenvalues[None]))


def reconstruct_potential_form(rho: DensityOperator, n: DensityProfile, psi):
    """Linear form recovering integral of A psi from (rho, n) alone:

        (A, psi) = -Tr((psi/n) rho log rho)
                   - sum_p lam_p ( phi_p', ((psi/n) phi_p)' )

    over ``rho.eigenpairs`` (lam_p, phi_p), which raise NotPositiveSemidefinite
    on a negative spectrum.  At rho = exp(-(H+A)) with n = n[rho] this equals
    integral of A psi for every periodic test psi.  ``psi`` is one grid
    function (N,), giving a float, or a stack (P, N), giving P values.
    ``n`` on another basis raises BasisMismatch.
    """
    basis = rho.basis
    _check_same_basis(basis, n.basis)
    psi = np.asarray(psi, dtype=float)
    if psi.ndim not in (1, 2) or psi.shape[-1] != basis.N:
        raise ValueError(f"psi must be sampled on the {basis.N}-point grid")
    lam, V = rho.eigenpairs
    keep = lam > 1e-250
    lam = lam[keep]
    phi = V.T[keep] @ basis.functions          # eigenfunction values
    d2phi = V.T[keep] @ (-basis.h_eigenvalues[:, None] * basis.functions)
    # phi' has degree <= M < N/2 and the grid derivative is antisymmetric, so
    # mean(phi' ((psi/n) phi)') = -mean(phi'' (psi/n) phi): one grid weight
    w = _xlogx(lam) @ phi**2 - lam @ (phi * d2phi)
    form = -np.mean(psi / n.values * w, axis=-1)  # a stack rounds as its rows
    return float(form) if psi.ndim == 1 else form


def _report(name, lhs, rhs, holds, strict=None) -> InequalityReport:
    """The report of the smallest-gap sample (first on ties) of per-sample
    lhs and rhs of one shape (or scalars, one sample), gap = rhs - lhs,
    holding iff every sample holds; ``strict`` is the chosen sample's."""
    lhs, rhs = np.ravel(lhs), np.ravel(rhs)
    i = int(np.argmin(rhs - lhs))
    return InequalityReport(
        name=name, lhs=float(lhs[i]), rhs=float(rhs[i]), gap=float(rhs[i] - lhs[i]),
        holds=bool(np.all(holds)), strict=None if strict is None else bool(strict[i]))


def _peierls(matrix, eigenvalues, rotations):
    _check_orthogonal(rotations, "rotation")
    Rt = np.swapaxes(rotations, -1, -2)
    lhs = _spectral_entropy(np.diagonal(Rt @ matrix @ rotations, axis1=-2, axis2=-1))
    rhs = np.full(lhs.shape, _spectral_entropy(eigenvalues))
    return lhs, rhs, lhs <= rhs + 1e-10 * (1.0 + np.abs(rhs))


def _convexity(matrix1, eigenvalues1, matrices2, eigenvalues2, t):
    if not np.all((0.0 < t) & (t < 1.0)):
        raise ValueError("t must lie strictly inside (0, 1)")
    ts = t[:, None, None]
    lhs = _spectral_entropy(_checked_spectra(ts * matrix1 + (1.0 - ts) * matrices2))
    rhs = t * _spectral_entropy(eigenvalues1) + (1.0 - t) * _spectral_entropy(eigenvalues2)
    diff = matrix1 - matrices2
    distinct = np.sqrt(np.sum(diff * diff, axis=(-2, -1))) > 1e-8
    return lhs, rhs, lhs <= rhs + 1e-10, distinct & (rhs - lhs > 1e-12)


def _perturbation(matrix1, eigenvalues1, matrices2, eigenvalues2):
    lhs = np.max(np.abs(eigenvalues1 - eigenvalues2), axis=-1)
    rhs = trace_norm(matrix1 - matrices2)
    return lhs, rhs, lhs <= rhs + 1e-10


def _rotations(G):
    """Haar-distributed orthogonal matrices from square Gaussian draws G (one
    or a stack): Q of G = QR, its columns signed by R's diagonal."""
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def _check_block(anchor, rng, s):
    """Peierls, convexity and perturbation arrays at ``anchor`` on one block of
    s samples, all on one draw: per sample D^2 normals for the Haar rotation R
    (Mezzadri, Notices AMS 54, 592 (2007)) and D normals g, then the block's
    convexity weights.  Peierls reads the anchor in the frame R, and the
    other two pair it with rho2 = R diag(g^2) R^T, of known spectrum sort(g^2);
    the Peierls check, which runs first, rejects an R that is not orthogonal."""
    D = anchor.basis.D
    draws = rng.standard_normal((s, D * D + D))
    t = rng.uniform(0.1, 0.9, s)
    R, mu = _rotations(draws[:, :D * D].reshape(s, D, D)), draws[:, D * D:] ** 2
    rho1 = (anchor.matrix, anchor.eigenvalues)
    rho2 = (_compose(R, mu), np.sort(mu, axis=-1))
    return _peierls(*rho1, R), _convexity(*rho1, *rho2, t), _perturbation(*rho1, *rho2)


def run_inequality_suite(A, rho, n, tol_l2, samples, seed):
    """Seeded randomized suite at the solved state rho of A and n, all on rho's
    basis, with the solve's ``tol_l2``; each entry records its worst-case
    instance.  ``samples`` is an integer >= 1 and ``seed`` one >= 0.  The
    randomized entries check rho/Tr rho, so a gap does not scale with the mass;
    the blocks run in order, and the first failing block raises."""
    _integer_at_least("samples", samples, 1)
    _integer_at_least("seed", seed, 0)
    basis = rho.basis
    _check_same_basis(basis, A.basis)
    _check_same_basis(basis, n.basis)
    anchor = DensityOperator(basis, rho.matrix / rho.trace)
    sizes = [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    blocks = [_check_block(anchor, np.random.default_rng(stream), s)
              for stream, s in zip(streams, sizes)]
    out = [validate_lieb(anchor)]
    for name, parts in zip(("peierls", "convexity", "eigenvalue_perturbation"), zip(*blocks)):
        out.append(_report(name, *map(np.concatenate, zip(*parts))))

    def bounded(name, lhs, rhs):
        return _report(name, lhs, rhs, lhs <= rhs)

    # the form at psi = e_p recovers integral of A e_p, which is the coefficient a_p
    recovered = reconstruct_potential_form(rho, n, basis.functions)
    return out + [
        bounded("euler_lagrange_residual", euler_lagrange_residual(rho, A),
                10.0 * tol_l2 * (1.0 + rho.trace)),
        bounded("potential_reconstruction", float(np.max(np.abs(recovered - A.coefficients))),
                1e-6 * (1.0 + sobolev_norm(A, 0))),
        log_sobolev_gap(rho)]
