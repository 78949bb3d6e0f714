"""CSV/JSON serialization and the ``qmaxwell`` command-line surface.

Density profiles travel as CSV with header ``x,n`` on a uniform periodic
grid that excludes x = 1, with finite fields; solver output is a JSON
report that round-trips losslessly (floats are written at full round-trip
precision).  Exit codes: 0 success, 1 a failed ``verify`` inequality, 2
iteration budget exhausted, 3 invalid input (including a mode cutoff too
small for the density), 64 usage error.  ``solve`` and ``verify`` write
the report for the last iterate on exit 2 and on a too-small basis as well.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
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
from .maxwellian_solver import SolverOptions, epsilon_sweep, solve_maxwellian
from .spectral_core import (
    ChemicalPotential,
    DensityProfile,
    SpectralBasis,
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
    "parse_report",
    "cli_dispatch",
    "main",
]

log = logging.getLogger("qmaxwell.cli")

EXIT_OK = 0
EXIT_MAXITER = 2
EXIT_INPUT = 3
EXIT_USAGE = 64


# ---------------------------------------------------------------------------
# density / potential files

def _read_uniform_csv(path, header, positive):
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    """Load a density CSV and trigonometrically resample it to the basis grid."""
    values = _read_uniform_csv(path, "x,n", positive=True)
    if values.size < 4 * basis.M + 1:
        raise DensityFileError(
            f"{path}: {values.size} rows cannot resolve M={basis.M} "
            f"(need at least {4 * basis.M + 1})")
    resampled = _resample(values, basis.N)
    if np.min(resampled) <= 0.0:
        raise NonPositiveDensity(
            "density is no longer strictly positive after resampling to the basis grid")
    return DensityProfile(basis, resampled)


def write_density_csv(path, basis: SpectralBasis, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,n\n")
        for x, v in zip(basis.grid, values):
            fh.write(f"{float(x)!r},{float(v)!r}\n")


_NUMBER = r"(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
_TERM_RE = re.compile(
    rf"^(?P<coeff>{_NUMBER})?"
    r"(?P<trig>\*?(?P<fn>cos|sin)\(2\*pi(?:\*(?P<k>\d+))?\*x\))?$")


def potential_from_expression(expr: str, basis: SpectralBasis) -> ChemicalPotential:
    """Restricted grammar: sums of ``c``, ``c*cos(2*pi*k*x)``, ``c*sin(2*pi*k*x)``.

    ``zero`` is accepted as an alias for 0; a missing coefficient means 1.
    """
    text = expr.replace(" ", "")
    if text in ("zero", ""):
        return ChemicalPotential.constant(basis, 0.0)
    coeffs = np.zeros(basis.D)
    # split on term-level signs only, not on exponent signs as in 1e-2
    pieces = [p for p in re.split(rf"(?<![eE*(])(?=[+-])", text) if p]
    for piece in pieces:
        sign = 1.0
        if piece[0] in "+-":
            sign = -1.0 if piece[0] == "-" else 1.0
            piece = piece[1:]
        m = _TERM_RE.match(piece)
        if not piece or not m or (m.group("coeff") is None and m.group("trig") is None):
            raise PotentialExprError(
                f"cannot parse term {piece!r} in {expr!r}; allowed terms are c, "
                f"c*cos(2*pi*k*x) and c*sin(2*pi*k*x)")
        c = sign * (float(m.group("coeff")) if m.group("coeff") is not None else 1.0)
        if m.group("trig") is None:
            coeffs[0] += c
            continue
        k = int(m.group("k")) if m.group("k") else 1
        if k < 1 or k > basis.M:
            raise PotentialExprError(
                f"wavenumber {k} outside the basis (1..{basis.M}); raise --modes")
        idx = 2 * k - 1 if m.group("fn") == "cos" else 2 * k
        coeffs[idx] += c / np.sqrt(2.0)  # against the orthonormal basis
    return ChemicalPotential(basis, coeffs)


def parse_potential(arg: str, basis: SpectralBasis) -> ChemicalPotential:
    """Potential from a CSV file (header ``x,a``) if ``arg`` is a path, else
    from the restricted expression grammar."""
    if os.path.exists(arg):
        values = _read_uniform_csv(arg, "x,a", positive=False)
        return ChemicalPotential.from_grid(basis, _resample(values, basis.N))
    return potential_from_expression(arg, basis)


# ---------------------------------------------------------------------------
# report JSON

def _inequality_dict(rep: fn.InequalityReport) -> dict:
    return {"name": rep.name, "lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap,
            "holds": rep.holds, "strict": rep.strict, "diagnostic": rep.diagnostic}


def build_report_dict(basis, opts: SolverOptions, report, A: ChemicalPotential,
                      density_achieved, inequalities=()) -> dict:
    return {
        "meta": {
            "modes": basis.M,
            "grid": basis.N,
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
        "density_achieved": {"values": [float(v) for v in density_achieved]},
        "inequalities": [_inequality_dict(r) for r in inequalities],
        "history": [dataclasses.asdict(h) for h in report.history],
    }


def serialize_report(report_dict: dict) -> str:
    return json.dumps(report_dict, indent=2) + "\n"


def parse_report(text: str) -> dict:
    return json.loads(text)


# ---------------------------------------------------------------------------
# CLI

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


@functools.cache
def _build_parser():
    """The CLI's parser, built on first use; parse_args leaves it unchanged."""
    parser = _Parser(prog="qmaxwell",
                     description="Inverse chemical-potential solver on the torus")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--modes", type=int, required=True, metavar="M")
        p.add_argument("--grid", type=int, default=None, metavar="N")

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
    p_verify.add_argument("--samples", type=_positive_int, default=200)
    p_verify.add_argument("--seed", type=int, default=0, metavar="U64")
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


def _configure_logging():
    level = {"error": logging.ERROR, "warn": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("QMAXWELL_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(name)s %(levelname)s %(message)s")
    logging.getLogger("qmaxwell").setLevel(level)


def _basis_for(args) -> SpectralBasis:
    return build_basis(args.modes, args.grid)


def _cmd_forward(args) -> int:
    basis = _basis_for(args)
    A = parse_potential(args.potential, basis)
    n = density_of(fn.gibbs_from_potential(basis, A))
    write_density_csv(args.out, basis, n)
    return EXIT_OK


def _cmd_solve(args) -> int:
    """``solve``, and ``verify``: the inequality suite runs once the solve converges."""
    basis = _basis_for(args)
    n = parse_density_csv(args.density, basis)
    opts = SolverOptions(tol_l2=args.tol, max_iter=args.max_iter)
    failure, inequalities = None, []
    try:
        A, rho, report = solve_maxwellian(n, opts)
        achieved, code = density_of(rho), EXIT_OK
    except (MaxIterExceeded, BasisTooSmall) as exc:
        log.error("%s", exc)
        failure, A, report = exc, exc.potential, exc.report
        code = EXIT_INPUT if isinstance(exc, BasisTooSmall) else EXIT_MAXITER
        achieved = fn.GibbsState(A).density
    if failure is None and args.command == "verify":
        inequalities = run_inequality_suite(basis, A, rho, n, report, opts,
                                            args.samples, args.seed)
        if not all(r.holds for r in inequalities if not r.diagnostic):
            code = 1
    payload = build_report_dict(basis, opts, report, A, achieved, inequalities)
    if isinstance(failure, BasisTooSmall):
        payload["result"]["suggested_modes"] = failure.suggested_modes
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_report(payload))
    if args.density_out:
        write_density_csv(args.density_out, basis, achieved)
    return code


def _cmd_sweep(args) -> int:
    basis = _basis_for(args)
    n = parse_density_csv(args.density, basis)
    kwargs = {"tol_l2": args.tol}
    if args.schedule:
        try:
            kwargs["epsilon_schedule"] = tuple(
                float(tok) for tok in args.schedule.split(",") if tok.strip())
        except ValueError:
            raise PotentialExprError(f"bad schedule {args.schedule!r}") from None
    opts = SolverOptions(**kwargs)
    try:
        rows = epsilon_sweep(n, opts)
    except MaxIterExceeded as exc:
        log.error("%s", exc)
        return EXIT_MAXITER
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("epsilon,residual_l2,F_eps,A_dist_hminus1\n")
        for row in rows:
            fh.write(f"{float(row.epsilon)!r},{float(row.residual_l2)!r},"
                     f"{float(row.f_eps)!r},{float(row.a_dist_hminus1)!r}\n")
    return EXIT_OK


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    _configure_logging()
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
    except (QMaxwellError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
