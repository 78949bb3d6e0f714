"""CSV/JSON serialization and the ``qmaxwell`` command-line surface.

Density profiles travel as CSV with header ``x,n`` on a uniform periodic
grid that excludes x = 1, with finite fields; ``parse_density_csv`` reads
one on the basis grid or, when the file is finer, on its own grid, never a
coarser one.  Solver output is a JSON report that round-trips losslessly
(floats are written at full round-trip precision).  Exit codes: 0 success,
1 a failed ``verify`` inequality, 2 iteration budget exhausted, 3 invalid
input (including a mode cutoff too small for the density, a potential that
is not finite in double precision and an output that cannot be written), 64
usage error.  Exits 2 and 3 print one stderr line, ``error: <message>``;
a usage error prints it above the usage.  ``solve`` and ``verify`` write
the report for the last iterate, with the density its residual was
measured on, on exit 2 and on a too-small basis as well;
``sweep-epsilon`` then writes the rows finished before the failed solve.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys

import numpy as np

from . import functionals as fn
from .errors import (
    BasisTooSmall,
    DensityFileError,
    DuplicatedEndpoint,
    MalformedRow,
    MaxIterExceeded,
    NonPositiveDensity,
    NonUniformGrid,
    PotentialExprError,
    QMaxwellError,
)
from .inequalities import run_inequality_suite
from .maxwellian_solver import SolverOptions, _sweep_rows, solve_maxwellian
from .spectral_core import (
    ChemicalPotential,
    DensityProfile,
    SpectralBasis,
    _integer_at_least,
    build_basis,
    density_of,
)

__all__ = [
    "parse_density_csv",
    "write_density_csv",
    "parse_potential",
    "potential_from_expression",
    "build_report_dict",
    "serialize_report",
    "cli_dispatch",
    "main",
]

EXIT_OK = 0
EXIT_MAXITER = 2
EXIT_INPUT = 3
EXIT_USAGE = 64


# ---------------------------------------------------------------------------
# density / potential files

def _read_uniform_csv(path, header, positive):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a spreadsheet's BOM is dropped
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DensityFileError(f"{path}: {exc.strerror or exc}") from exc
    lines = [ln for ln in lines if ln.strip() != ""]
    if not lines or lines[0].strip().replace(" ", "") != header:
        raise MalformedRow(f"expected header {header!r}", line_number=1)
    xs, vs = [], []
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise MalformedRow(f"expected 2 comma-separated fields, got {len(parts)}",
                               line_number=idx)
        try:
            x, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise MalformedRow(f"could not parse {line!r} as two floats",
                               line_number=idx) from None
        if not (np.isfinite(x) and np.isfinite(v)):
            raise MalformedRow(f"non-finite field in {line!r}", line_number=idx)
        xs.append(x)
        vs.append(v)
    xs = np.asarray(xs)
    vs = np.asarray(vs)
    if xs.size < 2:
        raise DensityFileError(f"{path}: need at least 2 samples, got {xs.size}")
    rows = xs.size
    if np.any(np.abs(xs - 1.0) <= 1e-9):
        raise DuplicatedEndpoint(
            "grid contains x = 1, which duplicates x = 0 on the torus; "
            "drop the final row (grids exclude the periodic endpoint)")
    h = 1.0 / rows
    if np.max(np.abs(xs - np.arange(rows) * h)) > 1e-9 * h:
        raise NonUniformGrid(
            f"x column must be j/{rows} for j = 0..{rows - 1} (uniform, starting at 0)")
    if positive and np.min(vs) <= 0.0:
        j = int(np.argmin(vs))
        raise NonPositiveDensity(
            f"density must be strictly positive; row at x={xs[j]:g} has n={vs[j]:g}")
    return vs


def _resample(values, N):
    """Fourier resample onto N points by scipy.signal.resample's formula: the
    shorter length's unpaired Nyquist bin doubles (down) or halves (up)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == N:
        return values
    m = min(n, N)
    X = np.fft.rfft(values)[: m // 2 + 1]
    if m % 2 == 0:
        X[m // 2] *= 2.0 if N < n else 0.5
    return np.fft.irfft(X, n=N) * (N / n)


def parse_density_csv(path, basis: SpectralBasis) -> DensityProfile:
    """Load a density CSV on the basis grid, trigonometrically upsampling a
    coarser file; a file with more rows is read on its own grid at the same
    cutoff, and the profile's ``basis`` says which grid was used."""
    values = _read_uniform_csv(path, "x,n", positive=True)
    if values.size > basis.N:
        basis = build_basis(basis.M, values.size)
    resampled = _resample(values, basis.N)
    if np.min(resampled) <= 0.0:
        raise NonPositiveDensity(
            "density is no longer strictly positive after resampling to the basis grid")
    return DensityProfile(basis, resampled)


def write_density_csv(path, basis: SpectralBasis, values):
    if np.shape(values) != (basis.N,):
        raise ValueError(f"density of shape {np.shape(values)} on the {basis.N}-point grid")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,n\n")
        for x, v in zip(basis.grid, values):
            fh.write(f"{float(x)!r},{float(v)!r}\n")


_NUMBER = r"(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
_TERM_RE = re.compile(
    rf"^(?P<coeff>{_NUMBER})?"
    r"(?P<trig>\*?(?P<fn>cos|sin)\(2\*pi(?:\*(?P<k>\d+))?\*x\))?$")


def _finite_potential(basis: SpectralBasis, coeffs, source) -> ChemicalPotential:
    """The potential with these coefficients once its values on the grid are
    finite (an inf coefficient makes some of them inf or NaN);
    PotentialExprError naming ``source`` otherwise."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.all(np.isfinite(basis.synthesize(coeffs)))
    if not finite:
        raise PotentialExprError(f"{source} is not finite in double precision on "
                                 f"the {basis.N}-point grid")
    return ChemicalPotential(basis, coeffs)


def potential_from_expression(expr: str, basis: SpectralBasis) -> ChemicalPotential:
    """Restricted grammar: sums of ``c``, ``c*cos(2*pi*k*x)``, ``c*sin(2*pi*k*x)``.

    ``zero`` is accepted as an alias for 0; a missing coefficient means 1.
    A term or a sum that is not finite in double precision is rejected.
    """
    text = expr.replace(" ", "")
    if text in ("zero", ""):
        return ChemicalPotential.constant(basis, 0.0)
    coeffs = np.zeros(basis.D)
    # split on term-level signs only, not on exponent signs as in 1e-2
    pieces = [p for p in re.split(rf"(?<![eE*(])(?=[+-])", text) if p]
    for term in pieces:
        piece, sign = term, 1.0
        if piece[0] in "+-":
            sign = -1.0 if piece[0] == "-" else 1.0
            piece = piece[1:]
        m = _TERM_RE.match(piece)
        if not piece or not m or (m.group("coeff") is None and m.group("trig") is None):
            raise PotentialExprError(
                f"cannot parse term {piece!r} in {expr!r}; allowed terms are c, "
                f"c*cos(2*pi*k*x) and c*sin(2*pi*k*x)")
        c = sign * (float(m.group("coeff")) if m.group("coeff") is not None else 1.0)
        if not np.isfinite(c):
            raise PotentialExprError(f"term {term!r} in {expr!r} is not finite "
                                     f"in double precision")
        idx = 0
        if m.group("trig") is not None:
            k = int(m.group("k")) if m.group("k") else 1
            if k < 1 or k > basis.M:
                raise PotentialExprError(
                    f"wavenumber {k} outside the basis (1..{basis.M}); " + (
                        "wavenumbers start at 1, and a constant is written as a plain "
                        "number" if k < 1 else "raise --modes"))
            idx = 2 * k - 1 if m.group("fn") == "cos" else 2 * k
            c /= np.sqrt(2.0)  # against the orthonormal basis
        with np.errstate(over="ignore"):  # a sum that overflows is rejected below
            coeffs[idx] += c
    return _finite_potential(basis, coeffs, f"potential {expr!r}")


def parse_potential(arg: str, basis: SpectralBasis) -> ChemicalPotential:
    """Potential from a CSV file (header ``x,a``) if ``arg`` is a path, else
    from the restricted expression grammar."""
    if os.path.exists(arg):
        values = _read_uniform_csv(arg, "x,a", positive=False)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            coeffs = basis.project(_resample(values, basis.N))
        return _finite_potential(basis, coeffs, f"potential file {arg}")
    return potential_from_expression(arg, basis)


# ---------------------------------------------------------------------------
# report JSON

def build_report_dict(opts: SolverOptions, report, A: ChemicalPotential,
                      inequalities=()) -> dict:
    return {
        "meta": {
            "modes": A.basis.M,
            "grid": A.basis.N,
            "tolerances": {"tol_l2": opts.tol_l2, "max_iter": opts.max_iter},
            "schedule": list(opts.epsilon_schedule),
        },
        "result": {
            "residual_l2": report.residual_l2,
            "residual_hminus1": report.residual_hminus1,
            "free_energy": report.free_energy,
            "dual_value": report.dual_value,
            "duality_gap": report.duality_gap,
            "el_residual": report.el_residual,
            "iterations": report.iterations,
        },
        "potential": {"fourier_coefficients": [float(c) for c in A.coefficients]},
        "density_achieved": {"values": [float(v) for v in report.density]},
        "inequalities": [dataclasses.asdict(r) for r in inequalities],
        "history": [dataclasses.asdict(h) for h in report.history],
    }


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def serialize_report(report_dict: dict) -> str:
    """RFC 8259 JSON: a non-finite float, such as the residual of a solve
    that overflowed, is written as null."""
    return json.dumps(_finite_or_null(report_dict), indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# CLI

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low):
    """argparse type: an integer >= low, else a usage error naming the flag."""
    def parse(text):
        try:
            return _integer_at_least("value", int(text), low)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return parse


@functools.cache
def _build_parser():
    """The CLI's parser, built on first use; parse_args leaves it unchanged."""
    parser = _Parser(prog="qmaxwell",
                     description="Inverse chemical-potential solver on the torus")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--modes", type=_int_at_least(1), required=True, metavar="M")

    p_fwd = sub.add_parser("forward", help="density of exp(-(H+A))")
    common(p_fwd)
    p_fwd.add_argument("--potential", required=True, metavar="FILE|EXPR")
    p_fwd.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", help="recover A from a density CSV")
    common(p_solve)
    p_solve.add_argument("--density", required=True)
    p_solve.add_argument("--tol", type=float, default=1e-9)
    p_solve.add_argument("--max-iter", type=int, default=100)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--density-out", default=None)

    p_verify = sub.add_parser("verify", help="solve, then run the inequality suite")
    common(p_verify)
    p_verify.add_argument("--density", required=True)
    p_verify.add_argument("--samples", type=_int_at_least(1), default=200)
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0, metavar="U64")
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(max_iter=SolverOptions.max_iter, density_out=None)

    p_sweep = sub.add_parser("sweep-epsilon", help="penalized continuation table")
    common(p_sweep)
    p_sweep.add_argument("--density", required=True)
    p_sweep.add_argument("--schedule", default=None,
                         help="comma-separated descending epsilons")
    p_sweep.add_argument("--tol", type=float, default=1e-9)
    p_sweep.add_argument("--out", required=True)
    return parser


def _cmd_forward(args) -> int:
    basis = build_basis(args.modes)
    A = parse_potential(args.potential, basis)
    n = DensityProfile(basis, density_of(fn.gibbs_from_potential(basis, A)))
    write_density_csv(args.out, basis, n.values)
    return EXIT_OK


def _cmd_solve(args) -> int:
    """``solve``, and ``verify``: the inequality suite runs once the solve converges."""
    n = parse_density_csv(args.density, build_basis(args.modes))
    opts = SolverOptions(tol_l2=args.tol, max_iter=args.max_iter)
    failure, inequalities, code = None, [], EXIT_OK
    try:
        A, rho, report = solve_maxwellian(n, opts)
    except (MaxIterExceeded, BasisTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        failure, A, report = exc, exc.potential, exc.report
        code = EXIT_INPUT if isinstance(exc, BasisTooSmall) else EXIT_MAXITER
    if failure is None and args.command == "verify":
        inequalities = run_inequality_suite(A, rho, n, opts.tol_l2, args.samples, args.seed)
        if not all(r.holds for r in inequalities if not r.diagnostic):
            code = 1
    payload = build_report_dict(opts, report, A, inequalities)
    if isinstance(failure, BasisTooSmall):
        payload["result"]["suggested_modes"] = failure.suggested_modes
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_report(payload))
    if args.density_out:
        write_density_csv(args.density_out, n.basis, report.density)
    return code


def _cmd_sweep(args) -> int:
    n = parse_density_csv(args.density, build_basis(args.modes))
    kwargs = {"tol_l2": args.tol}
    if args.schedule:
        try:
            kwargs["epsilon_schedule"] = tuple(
                float(tok) for tok in args.schedule.split(",") if tok.strip())
        except ValueError:
            raise ValueError(f"--schedule must be comma-separated numbers, "
                             f"got {args.schedule!r}") from None
    opts = SolverOptions(**kwargs)
    # each row is written once its solve is done: a failed solve leaves the
    # header and every row finished before it
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("epsilon,residual_l2,F_eps,A_dist_hminus1\n")
        try:
            for row in _sweep_rows(n, opts):
                fh.write(f"{float(row.epsilon)!r},{float(row.residual_l2)!r},"
                         f"{float(row.f_eps)!r},{float(row.a_dist_hminus1)!r}\n")
        except (MaxIterExceeded, BasisTooSmall) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT if isinstance(exc, BasisTooSmall) else EXIT_MAXITER
    return EXIT_OK


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    handler = {"forward": _cmd_forward, "solve": _cmd_solve,
               "verify": _cmd_solve, "sweep-epsilon": _cmd_sweep}[args.command]
    try:
        return handler(args)
    except (QMaxwellError, ValueError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))
