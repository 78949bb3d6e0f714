import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qmaxwell as qm
from qmaxwell import io_cli, maxwellian_solver
from qmaxwell.errors import (
    BasisTooSmall,
    DensityFileError,
    DuplicatedEndpoint,
    MalformedRow,
    MaxIterExceeded,
    NonPositiveDensity,
    NonUniformGrid,
    PotentialExprError,
)
from qmaxwell.inequalities import run_inequality_suite


@pytest.fixture(scope="module")
def b4():
    return qm.build_basis(4)


def write_density(path, values):
    values = np.asarray(values, dtype=float)
    rows = values.size
    with open(path, "w") as fh:
        fh.write("x,n\n")
        for j, v in enumerate(values):
            fh.write(f"{j / rows!r},{float(v)!r}\n")


# ---------------------------------------------------------------------------
# density CSV ingestion

def test_density_roundtrip_flat(tmp_path, b4):
    path = tmp_path / "const2.csv"
    write_density(path, np.full(8 * b4.M, 2.0))
    profile = io_cli.parse_density_csv(path, b4)
    assert profile.values.min() == pytest.approx(2.0)
    assert profile.mass == pytest.approx(2.0, abs=1e-14)


def test_density_eight_row_file(tmp_path):
    basis = qm.build_basis(1, 8)
    path = tmp_path / "n8.csv"
    write_density(path, np.full(8, 2.0))
    profile = io_cli.parse_density_csv(path, basis)
    assert profile.values.min() == 2.0
    assert profile.mass == pytest.approx(2.0)


def test_density_csv_exact_roundtrip(tmp_path, b4):
    rng = np.random.default_rng(41)
    values = 1.0 + 0.5 * rng.random(b4.N)
    path = tmp_path / "rand.csv"
    io_cli.write_density_csv(path, b4, values)
    profile = io_cli.parse_density_csv(path, b4)
    assert np.array_equal(profile.values, values)  # full-precision decimals


def test_density_resampling_preserves_mass(tmp_path):
    # 17 rows up to 32 points; 64 rows on their own grid, never down to 34
    # points, which would drop the file's content above wavenumber 17
    for rows in (17, 64):
        x = np.arange(rows) / rows
        write_density(tmp_path / f"wave{rows}.csv", 1.0 + 0.5 * np.cos(2 * np.pi * x))
    basis = qm.build_basis(4)
    profile = io_cli.parse_density_csv(tmp_path / "wave17.csv", basis)
    assert profile.values.size == basis.N
    assert abs(profile.mass - 1.0) <= 1e-12
    expected = 1.0 + 0.5 * np.cos(2 * np.pi * basis.grid)
    assert_allclose(profile.values, expected, atol=1e-12)
    fine = io_cli.parse_density_csv(tmp_path / "wave64.csv", qm.build_basis(8, 34))
    assert (fine.basis.M, fine.basis.N) == (8, 64)
    assert np.array_equal(fine.values, 1.0 + 0.5 * np.cos(2 * np.pi * np.arange(64) / 64))


@st.composite
def band_limited_files(draw):
    """(M, rows, values, coarser): a positive density of wavenumber <= rows/2
    sampled on 2 <= rows <= 512 points, and a basis grid of fewer points than
    rows (None when rows <= 4M+1, the coarsest grid at M)."""
    M = draw(st.integers(1, 16))
    rows = draw(st.integers(2, 512))
    kmax = draw(st.integers(1, rows // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.standard_normal((2, kmax))
    c0 = draw(st.floats(1e-3, 1e3))
    scale = 0.9 * c0 / (np.sum(np.abs(a)) + np.sum(np.abs(b)))
    theta = 2 * np.pi * np.outer(np.arange(rows) / rows, np.arange(1, kmax + 1))
    values = c0 + scale * (np.cos(theta) @ a + np.sin(theta) @ b)
    coarser = draw(st.integers(4 * M + 1, rows - 1)) if rows > 4 * M + 1 else None
    return M, rows, values, coarser


@given(band_limited_files())
@settings(max_examples=40, deadline=None)
def test_density_file_is_read_on_its_own_grid(tmp_path_factory, case):
    # a file is read on the basis grid or on its own, whichever is finer: at
    # or above the basis grid the profile is the file, bit for bit; below
    # it, the file's trigonometric interpolant, however few its rows
    M, rows, values, coarser = case
    path = tmp_path_factory.mktemp("grid") / "n.csv"
    write_density(path, values)
    default = qm.build_basis(M)
    profile = io_cli.parse_density_csv(path, default)
    if rows >= default.N:
        assert profile.basis.N == rows
        assert np.array_equal(profile.values, values)
    else:
        assert profile.basis.N == default.N
        expected = np.fft.rfft(values) / rows
        got = np.fft.rfft(profile.values)[: rows // 2 + 1] / default.N
        if rows % 2 == 0:
            got[-1] *= 2.0  # the file's Nyquist term splits between +-rows/2
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(values)
    if coarser is not None:
        fine = io_cli.parse_density_csv(path, qm.build_basis(M, coarser))
        assert (fine.basis.M, fine.basis.N) == (M, rows)
        assert np.array_equal(fine.values, values)


def test_resample_matches_scipy_reference():
    # every upsampling case, fewer rows than grid points, on the smallest
    # cutoff's grids (N >= 4M+1 = 5)
    from scipy.signal import resample  # test-only reference

    bases = {N: qm.build_basis(1, N) for N in range(5, 140)}
    rng = np.random.default_rng(5)
    worst = 0.0
    for rows in range(2, 70):
        values = rng.uniform(-1.0, 1.0, rows)
        for N in range(max(rows + 1, 5), 140):
            grid, upsampled = io_cli._on_grid(values, bases[N])
            assert grid is bases[N]
            worst = max(worst, np.max(np.abs(upsampled - resample(values, N))))
    assert worst <= 1e-14


def test_density_header_and_row_errors(tmp_path, b4):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b\n0.0,1.0\n")
    with pytest.raises(MalformedRow) as info:
        io_cli.parse_density_csv(bad_header, b4)
    assert info.value.line_number == 1

    bad_row = tmp_path / "r.csv"
    rows = ["x,n"] + [f"{j / 32},1.0" for j in range(32)]
    rows[5] = "0.125,not-a-number"
    bad_row.write_text("\n".join(rows) + "\n")
    with pytest.raises(MalformedRow) as info:
        io_cli.parse_density_csv(bad_row, b4)
    assert info.value.line_number == 6

    three_fields = tmp_path / "f.csv"
    three_fields.write_text("x,n\n0.0,1.0,9\n")
    with pytest.raises(MalformedRow):
        io_cli.parse_density_csv(three_fields, b4)


def test_density_grid_errors(tmp_path, b4):
    nonuniform = tmp_path / "nu.csv"
    rows = ["x,n"] + [f"{j / 32},1.0" for j in range(32)]
    rows[9] = "0.2500001,1.0"
    nonuniform.write_text("\n".join(rows) + "\n")
    with pytest.raises(NonUniformGrid):
        io_cli.parse_density_csv(nonuniform, b4)

    duplicated = tmp_path / "dup.csv"
    rows = ["x,n"] + [f"{j / 32},1.0" for j in range(32)] + ["1.0,1.0"]
    duplicated.write_text("\n".join(rows) + "\n")
    with pytest.raises(DuplicatedEndpoint):
        io_cli.parse_density_csv(duplicated, b4)

    # a NaN x once passed the uniform-grid check, since NaN > tol is False
    for row in ("nan,1.0", "0.25,inf"):
        nonfinite = tmp_path / "nonfinite.csv"
        rows = ["x,n"] + [f"{j / 32},1.0" for j in range(32)]
        rows[9] = row
        nonfinite.write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedRow) as info:
            io_cli.parse_density_csv(nonfinite, b4)
        assert info.value.line_number == 10


def test_density_positivity_error(tmp_path, b4):
    path = tmp_path / "zero.csv"
    values = np.ones(32)
    values[16] = 0.0
    write_density(path, values)
    with pytest.raises(NonPositiveDensity) as info:
        io_cli.parse_density_csv(path, b4)
    assert "x=0.5" in str(info.value)


def test_density_too_few_rows(tmp_path, b4):
    # fewer rows than 4M+1 = 17 are upsampled to the basis grid: a retry at
    # a larger cutoff reads the same file
    path = tmp_path / "few.csv"
    write_density(path, np.full(8, 1.0))
    profile = io_cli.parse_density_csv(path, b4)
    assert profile.basis == b4
    assert_allclose(profile.values, np.ones(b4.N), rtol=0, atol=1e-15)


def test_write_density_csv_rejects_values_off_the_grid(tmp_path, b4):
    # zip wrote the shorter length: 64 values as 32 rows under the wrong x,
    # 5 values as a file that fails the uniform-grid check
    path = tmp_path / "n.csv"
    for size in (64, 5):
        with pytest.raises(ValueError, match=rf"\({size},\) on the 32-point grid"):
            io_cli.write_density_csv(path, b4, np.ones(size))
        assert not path.exists()


def test_density_that_resamples_below_zero_is_rejected(tmp_path, b4):
    # positive on its 17 rows, but the Fourier interpolant of a spike on a
    # small floor rings below zero between them on the 32-point grid
    values = np.full(17, 1e-3)
    values[8] = 1.0
    assert np.min(io_cli._on_grid(values, b4)[1]) < 0.0
    path = tmp_path / "spike.csv"
    write_density(path, values)
    with pytest.raises(NonPositiveDensity, match="after resampling"):
        io_cli.parse_density_csv(path, b4)


# ---------------------------------------------------------------------------
# potential expressions and files

def test_expression_zero_and_constant(b4):
    A = io_cli.potential_from_expression("zero", b4)
    assert np.max(np.abs(A.coefficients)) == 0.0
    A = io_cli.potential_from_expression("-0.25", b4)
    assert A.coefficients[0] == pytest.approx(-0.25)


def test_expression_acceptance_potential(b4):
    A = io_cli.potential_from_expression("1*cos(2*pi*1*x)+0.3*sin(2*pi*2*x)", b4)
    expected = np.cos(2 * np.pi * b4.grid) + 0.3 * np.sin(4 * np.pi * b4.grid)
    assert_allclose(A.on_grid(), expected, atol=1e-14)


def test_expression_implied_pieces(b4):
    A = io_cli.potential_from_expression("cos(2*pi*x) - 0.5*sin(2*pi*3*x) + 2", b4)
    expected = (np.cos(2 * np.pi * b4.grid)
                - 0.5 * np.sin(6 * np.pi * b4.grid) + 2.0)
    assert_allclose(A.on_grid(), expected, atol=1e-14)


def test_expression_scientific_notation_and_bare_sign(b4):
    A = io_cli.potential_from_expression("1e-2*cos(2*pi*x)-cos(2*pi*2*x)+2.5e-1", b4)
    expected = (1e-2 * np.cos(2 * np.pi * b4.grid)
                - np.cos(4 * np.pi * b4.grid) + 0.25)
    assert_allclose(A.on_grid(), expected, atol=1e-14)


def test_expression_rejects_garbage(b4):
    for bad in ("cos(3*x)", "exp(x)", "1*", "0.5*tan(2*pi*x)", "++1"):
        with pytest.raises(PotentialExprError):
            io_cli.potential_from_expression(bad, b4)


def test_expression_rejects_unresolvable_wavenumber(b4):
    with pytest.raises(PotentialExprError):
        io_cli.potential_from_expression("cos(2*pi*9*x)", b4)


def test_cli_zero_wavenumber_is_reported_for_its_cause(tmp_path, capsys):
    # a zero wavenumber was told to raise --modes, which can never help
    out = tmp_path / "n.csv"
    for expr in ("cos(2*pi*0*x)", "0.5*sin(2*pi*0*x)"):
        capsys.readouterr()
        assert run_cli("forward", "--modes", "8", "--potential", expr, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "wavenumbers start at 1" in err and "plain number" in err, err
        assert "--modes" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("header", ["x,n", "x,a"])
def test_csv_with_a_byte_order_mark_reads_as_without_one(tmp_path, b4, header):
    # spreadsheet exports start with a UTF-8 byte-order mark, which made the
    # header read as '\ufeffx,n' and the file a MalformedRow at line 1
    text = header + "\n" + "".join(
        f"{j / b4.N!r},{1.0 + 0.25 * float(np.cos(2 * np.pi * j / b4.N))!r}\n"
        for j in range(b4.N))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    if header == "x,n":
        read = [io_cli.parse_density_csv(p, b4).values for p in (plain, marked)]
    else:
        read = [io_cli.parse_potential(str(p), b4).coefficients for p in (plain, marked)]
    assert np.array_equal(read[0], read[1])


def test_cli_solve_reads_a_density_with_a_byte_order_mark(tmp_path):
    density = tmp_path / "n.csv"
    assert run_cli("forward", "--potential", "cos(2*pi*x)", "--modes", "8",
                   "--out", str(density)) == 0
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + density.read_bytes())
    reports = []
    for path in (density, marked):
        out = tmp_path / f"{path.stem}.json"
        assert run_cli("solve", "--density", str(path), "--modes", "8", "--out", str(out)) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_potential_file_matches_expression(tmp_path, b4):
    x = b4.grid
    path = tmp_path / "pot.csv"
    with open(path, "w") as fh:
        fh.write("x,a\n")
        for xi, ai in zip(x, 0.4 * np.cos(2 * np.pi * x)):
            fh.write(f"{float(xi)!r},{float(ai)!r}\n")
    A_file = io_cli.parse_potential(str(path), b4)
    A_expr = io_cli.potential_from_expression("0.4*cos(2*pi*x)", b4)
    assert_allclose(A_file.coefficients, A_expr.coefficients, atol=1e-13)


def test_finer_potential_file_keeps_its_grid(tmp_path, b4):
    # 4N rows with a term at wavenumber 20, above the cutoff and above the
    # basis grid's Nyquist wavenumber 16: projected on the file's own grid,
    # the out-of-basis term leaves the in-basis coefficients alone
    x = np.arange(4 * b4.N) / (4 * b4.N)
    a = (0.5 + 0.4 * np.cos(2 * np.pi * x) - 0.3 * np.sin(6 * np.pi * x)
         + 0.2 * np.cos(40 * np.pi * x))
    path = tmp_path / "fine.csv"
    with open(path, "w") as fh:
        fh.write("x,a\n")
        for xi, ai in zip(x, a):
            fh.write(f"{float(xi)!r},{float(ai)!r}\n")
    A_file = io_cli.parse_potential(str(path), b4)
    A_expr = io_cli.potential_from_expression("0.5+0.4*cos(2*pi*x)-0.3*sin(2*pi*3*x)", b4)
    assert A_file.basis == b4
    assert_allclose(A_file.coefficients, A_expr.coefficients, rtol=0, atol=1e-13)


def test_potential_file_needs_two_rows(tmp_path, b4):
    path = tmp_path / "one.csv"
    path.write_text("x,a\n0.0,1.5\n")
    with pytest.raises(DensityFileError, match="need at least 2 samples, got 1"):
        io_cli.parse_potential(str(path), b4)


# ---------------------------------------------------------------------------
# report serialization

def test_report_json_roundtrip(b4):
    n = qm.DensityProfile(b4, qm.density_of(
        qm.gibbs_from_potential(b4, io_cli.potential_from_expression("0.5*cos(2*pi*x)", b4))))
    opts = qm.SolverOptions()
    A, rho, report = qm.solve_maxwellian(n, opts)
    inequalities = run_inequality_suite(A, rho, n, opts.tol_l2, samples=10, seed=3)
    payload = io_cli.build_report_dict(opts, report, A, inequalities)
    text = io_cli.serialize_report(payload)
    assert json.loads(text) == payload
    for key in ("meta", "result", "potential", "density_achieved",
                "inequalities", "history"):
        assert key in payload
    assert (payload["meta"]["modes"], payload["meta"]["grid"]) == (4, 32)
    assert payload["density_achieved"]["values"] == report.density.tolist()
    assert "method" not in payload["meta"]
    assert set(payload["meta"]["tolerances"]) == {"tol_l2", "max_iter"}


# ---------------------------------------------------------------------------
# CLI end to end

def run_cli(*argv):
    return io_cli.cli_dispatch(list(argv))


def test_cli_forward_zero_potential(tmp_path):
    out = tmp_path / "n.csv"
    assert run_cli("forward", "--potential", "zero", "--modes", "4",
                   "--out", str(out)) == 0
    basis = qm.build_basis(4)
    profile = io_cli.parse_density_csv(out, basis)
    assert np.max(np.abs(profile.values - 1.0)) <= 1e-15


def test_cli_forward_rejects_a_density_that_underflows(tmp_path, capsys):
    # every weight exp(-lam) of this potential underflows to 0, and forward
    # wrote n = 0.0 on every row, a file that solve rejects
    out = tmp_path / "n.csv"
    capsys.readouterr()
    assert run_cli("forward", "--modes", "4", "--potential", "800", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "smallest eigenvalue of H+A is 800" in err
    assert not out.exists()


def test_cli_reads_a_fine_density_on_its_own_grid(tmp_path):
    # read on the default 64-point grid at M = 8, this file lost its
    # wavenumber-40 term, and all three commands exited 0 at its start
    density = tmp_path / "n256.csv"
    write_density(density, 1.0 + 0.05 * np.cos(80 * np.pi * np.arange(256) / 256))
    for command in ("solve", "verify"):
        out = tmp_path / f"{command}.json"
        assert run_cli(command, "--density", str(density), "--modes", "8",
                       "--out", str(out)) == 3
        payload = json.loads(out.read_text())
        assert payload["meta"]["grid"] == 256
        assert payload["result"]["suggested_modes"] == 40
    sweep = tmp_path / "sweep.csv"
    assert run_cli("sweep-epsilon", "--density", str(density), "--modes", "8",
                   "--out", str(sweep)) == 3
    assert sweep.read_text() == "epsilon,residual_l2,F_eps,A_dist_hminus1\n"


def test_cli_retry_at_the_suggested_cutoff_reads_the_same_file(tmp_path):
    # the file is finer than M = 32 resolves, and the suggested retry at
    # M = 128 upsamples its 256 rows to 1024 points; it was rejected for
    # having fewer than 4M+1 = 513 rows
    density, report = tmp_path / "n.csv", tmp_path / "r.json"
    write_density(density, 1e-2 + np.exp(-50 * (np.arange(256) / 256 - 0.5) ** 2))
    assert run_cli("solve", "--density", str(density), "--modes", "32",
                   "--out", str(report)) == 3
    assert json.loads(report.read_text())["result"]["suggested_modes"] == 128
    assert run_cli("solve", "--density", str(density), "--modes", "128",
                   "--out", str(report)) == 0
    payload = json.loads(report.read_text())
    assert (payload["meta"]["modes"], payload["meta"]["grid"]) == (128, 1024)
    assert payload["result"]["residual_l2"] <= 1e-9


def test_cli_solve_constant_density(tmp_path):
    density = tmp_path / "const2.csv"
    write_density(density, np.full(32, 2.0))
    out = tmp_path / "r.json"
    code = run_cli("solve", "--density", str(density), "--modes", "4",
                   "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    coeffs = payload["potential"]["fourier_coefficients"]
    assert coeffs[0] == pytest.approx(-np.log(2.0), abs=1e-10)
    assert max(abs(c) for c in coeffs[1:]) <= 1e-10
    assert payload["result"]["residual_l2"] <= 1e-9
    assert payload["meta"]["modes"] == 4


def test_cli_solve_forward_roundtrip(tmp_path):
    density = tmp_path / "rt.csv"
    report = tmp_path / "rt.json"
    achieved = tmp_path / "achieved.csv"
    assert run_cli("forward", "--potential", "cos(2*pi*x)+0.3*sin(2*pi*2*x)",
                   "--modes", "8", "--out", str(density)) == 0
    code = run_cli("solve", "--density", str(density), "--modes", "8",
                   "--out", str(report), "--density-out", str(achieved))
    assert code == 0
    payload = json.loads(report.read_text())
    basis = qm.build_basis(8)
    recovered = basis.synthesize(np.array(payload["potential"]["fourier_coefficients"]))
    target = np.cos(2 * np.pi * basis.grid) + 0.3 * np.sin(4 * np.pi * basis.grid)
    assert np.max(np.abs(recovered - target)) <= 1e-6
    target_profile = io_cli.parse_density_csv(density, basis)
    achieved_profile = io_cli.parse_density_csv(achieved, basis)
    assert np.max(np.abs(achieved_profile.values - target_profile.values)) <= 1e-8


def test_cli_solve_exit_2_on_budget(tmp_path):
    density = tmp_path / "rt.csv"
    # one step does not solve this input
    assert run_cli("forward", "--potential", "50*cos(2*pi*2*x)", "--modes", "4",
                   "--out", str(density)) == 0
    code = run_cli("solve", "--density", str(density), "--modes", "4",
                   "--max-iter", "1", "--out", str(tmp_path / "r.json"),
                   "--density-out", str(tmp_path / "achieved.csv"))
    assert code == 2
    # the report holds the last iterate, the same one the library raises with
    payload = json.loads((tmp_path / "r.json").read_text())
    n = io_cli.parse_density_csv(density, qm.build_basis(4))
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_maxwellian(n, qm.SolverOptions(max_iter=1))
    coeffs = payload["potential"]["fourier_coefficients"]
    assert coeffs == info.value.potential.coefficients.tolist()
    assert max(abs(c) for c in coeffs) > 0.1
    assert payload["result"]["residual_l2"] == info.value.report.residual_l2
    achieved = np.array(payload["density_achieved"]["values"])
    assert np.sqrt(np.mean((achieved - n.values) ** 2)) == pytest.approx(
        payload["result"]["residual_l2"], rel=1e-12)
    written = io_cli.parse_density_csv(tmp_path / "achieved.csv", qm.build_basis(4))
    assert_allclose(written.values, achieved, rtol=0, atol=0)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_cli_solve_writes_null_for_an_overflowed_residual(tmp_path):
    # n scaled by 1e250 overflows the residual; json.dumps alone would write
    # Infinity, which strict parsers reject
    density = tmp_path / "n.csv"
    scaled = tmp_path / "scaled.csv"
    report = tmp_path / "r.json"
    assert run_cli("forward", "--potential", "cos(2*pi*x)", "--modes", "8",
                   "--out", str(density)) == 0
    write_density(scaled, 1e250 * io_cli.parse_density_csv(density, qm.build_basis(8)).values)
    assert run_cli("solve", "--density", str(scaled), "--modes", "8",
                   "--out", str(report)) == 2
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    result = payload["result"]
    assert result["residual_l2"] is None
    assert result["residual_hminus1"] is None
    assert result["el_residual"] is None
    assert None in [h["residual"] for h in payload["history"]]
    assert all(np.isfinite(c) for c in payload["potential"]["fourier_coefficients"])


def test_cli_solve_basis_too_small_writes_report(tmp_path):
    density = tmp_path / "n.csv"
    write_density(density, 1.0 + 0.5 * np.cos(6 * np.pi * np.arange(64) / 64))
    code = run_cli("solve", "--density", str(density), "--modes", "1",
                   "--out", str(tmp_path / "r.json"),
                   "--density-out", str(tmp_path / "achieved.csv"))
    assert code == 3
    # the report holds the last iterate and the cutoff the library suggests
    payload = json.loads((tmp_path / "r.json").read_text())
    basis = qm.build_basis(1, 64)  # the file's own grid
    with pytest.raises(BasisTooSmall) as info:
        qm.solve_maxwellian(io_cli.parse_density_csv(density, basis))
    assert payload["result"]["suggested_modes"] == info.value.suggested_modes >= 3
    assert payload["result"]["residual_l2"] == info.value.report.residual_l2
    coeffs = payload["potential"]["fourier_coefficients"]
    assert coeffs == info.value.potential.coefficients.tolist()
    achieved = np.array(payload["density_achieved"]["values"])
    written = io_cli.parse_density_csv(tmp_path / "achieved.csv", basis)
    assert_allclose(written.values, achieved, rtol=0, atol=0)
    # verify shares the failure path: the same report, with no inequalities
    assert run_cli("verify", "--density", str(density), "--modes", "1",
                   "--out", str(tmp_path / "v.json")) == 3
    verified = json.loads((tmp_path / "v.json").read_text())
    assert verified["inequalities"] == []
    assert verified["result"] == payload["result"]
    assert verified["potential"] == payload["potential"]


@pytest.mark.parametrize("grid", [17, 64])
def test_cli_grid_option(tmp_path, capsys, grid):
    # a density file is read on its own grid, so no command takes --grid:
    # the grid is the file's when it is finer than the default 32 points at
    # M = 4; 17 = 4M+1 is the smallest file at M = 4, and odd
    density, report = tmp_path / "n.csv", tmp_path / "r.json"
    basis = qm.build_basis(4, grid)
    write_density(density, qm.density_of(qm.gibbs_from_potential(
        basis, io_cli.potential_from_expression("cos(2*pi*x)", basis))))
    assert run_cli("solve", "--density", str(density), "--modes", "4",
                   "--out", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["meta"]["grid"] == max(grid, 32)
    assert len(payload["density_achieved"]["values"]) == max(grid, 32)
    out = str(tmp_path / "out")
    for argv in (("forward", "--potential", "zero"), ("solve", "--density", str(density)),
                 ("verify", "--density", str(density)),
                 ("sweep-epsilon", "--density", str(density))):
        assert run_cli(*argv, "--modes", "4", "--grid", str(grid), "--out", out) == 64
        assert "--grid" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_cli_solve_success_writes_the_density_its_residual_measures(tmp_path):
    # residual_l2 is measured on the solve's own Gibbs density: the density
    # written is that one, bit for bit, not n[rho] recomputed from the
    # composed matrix, which differs from it in the last bits
    density, report = tmp_path / "rt.csv", tmp_path / "rt.json"
    basis = qm.build_basis(8)
    for potential in ("cos(2*pi*x)+0.3*sin(2*pi*2*x)", "0.5*cos(2*pi*x)-0.7*sin(2*pi*3*x)"):
        assert run_cli("forward", "--potential", potential, "--modes", "8",
                       "--out", str(density)) == 0
        assert run_cli("solve", "--density", str(density), "--modes", "8",
                       "--out", str(report)) == 0
        payload = json.loads(report.read_text())
        achieved = np.array(payload["density_achieved"]["values"])
        n = io_cli.parse_density_csv(density, basis)
        residual = float(np.sqrt(basis.quadrature((achieved - n.values) ** 2)))
        assert payload["result"]["residual_l2"] == residual


def test_cli_solve_failure_writes_the_reports_density_without_a_decomposition(
        tmp_path, monkeypatch):
    # the report of a failed solve carries its iterate's density; the CLI
    # writes it as it is instead of decomposing H + A once more
    density = tmp_path / "n.csv"
    assert run_cli("forward", "--potential", "50*cos(2*pi*2*x)", "--modes", "4",
                   "--out", str(density)) == 0
    basis = qm.build_basis(4)
    with pytest.raises(MaxIterExceeded) as info:
        qm.solve_maxwellian(io_cli.parse_density_csv(density, basis),
                            qm.SolverOptions(max_iter=1))

    def failed_solve(n, opts):
        raise info.value

    eigh, calls = np.linalg.eigh, []

    def spy(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(io_cli, "solve_maxwellian", failed_solve)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    assert run_cli("solve", "--density", str(density), "--modes", "4",
                   "--out", str(tmp_path / "r.json"),
                   "--density-out", str(tmp_path / "achieved.csv")) == 2
    assert calls == []
    payload = json.loads((tmp_path / "r.json").read_text())
    expected = info.value.report.density
    assert payload["density_achieved"]["values"] == expected.tolist()
    written = io_cli.parse_density_csv(tmp_path / "achieved.csv", basis)
    assert np.array_equal(written.values, expected)


def test_cli_verify_deterministic(tmp_path):
    density = tmp_path / "roundtrip.csv"
    assert run_cli("forward", "--potential", "0.8*cos(2*pi*x)", "--modes", "6",
                   "--out", str(density)) == 0
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert run_cli("verify", "--density", str(density), "--modes", "6",
                   "--samples", "25", "--seed", "7", "--out", str(out1)) == 0
    assert run_cli("verify", "--density", str(density), "--modes", "6",
                   "--samples", "25", "--seed", "7", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    names = {entry["name"] for entry in payload["inequalities"]}
    assert {"lieb", "peierls", "convexity", "eigenvalue_perturbation",
            "euler_lagrange_residual", "potential_reconstruction",
            "log_sobolev"} <= names
    diag = [e for e in payload["inequalities"] if e["name"] == "log_sobolev"][0]
    assert diag["diagnostic"] is True


def test_cli_verify_exits_1_and_writes_the_failed_inequality(tmp_path, monkeypatch):
    density = tmp_path / "n.csv"
    assert run_cli("forward", "--potential", "0.8*cos(2*pi*x)", "--modes", "4",
                   "--out", str(density)) == 0
    failed = qm.InequalityReport(name="lieb", lhs=2.0, rhs=1.0, gap=-1.0, holds=False)
    monkeypatch.setattr(io_cli, "run_inequality_suite", lambda *args: [failed])
    out = tmp_path / "v.json"
    assert run_cli("verify", "--density", str(density), "--modes", "4",
                   "--out", str(out)) == 1
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["inequalities"] == [dataclasses.asdict(failed)]
    assert payload["inequalities"][0]["holds"] is False
    assert payload["result"]["residual_l2"] <= 1e-9


def test_cli_sweep_epsilon(tmp_path, monkeypatch):
    # the second density, on the default schedule, failed when the penalized
    # solve stopped on the grid defect, whose out-of-basis part no potential
    # in the basis can reduce
    cases = [("0.5*cos(2*pi*x)", ["--schedule", "1,1e-1,1e-2"], [1.0, 0.1, 0.01]),
             ("cos(2*pi*x)+0.3*sin(2*pi*2*x)", [],
              list(qm.SolverOptions().epsilon_schedule))]
    for i, (potential, schedule, expected) in enumerate(cases):
        density = tmp_path / f"rt{i}.csv"
        assert run_cli("forward", "--potential", potential, "--modes", "4",
                       "--out", str(density)) == 0
        out = tmp_path / f"sweep{i}.csv"
        code = run_cli("sweep-epsilon", "--density", str(density), "--modes", "4",
                       *schedule, "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epsilon,residual_l2,F_eps,A_dist_hminus1"
        assert len(lines) == len(expected) + 1
        eps_column = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps_column == expected
    # a failed solve keeps the header and the rows finished before it; the
    # constrained reference fails on a too-small cutoff: exit 3, header only
    density = tmp_path / "n3.csv"
    write_density(density, 1.0 + 0.5 * np.cos(6 * np.pi * np.arange(64) / 64))
    out = tmp_path / "small.csv"
    assert run_cli("sweep-epsilon", "--density", str(density), "--modes", "1",
                   "--out", str(out)) == 3
    assert out.read_text().splitlines() == [lines[0]]
    # eps = 1e-14 amplifies rounding in the in-basis defect by 1e14, above
    # tol_l2: its solve stops at that rounding floor instead of spending
    # the budget, exit 0 with both rows
    density = tmp_path / "rt0.csv"
    out = tmp_path / "floor.csv"
    assert run_cli("sweep-epsilon", "--density", str(density), "--modes", "4",
                   "--schedule", "1e-2,1e-14", "--out", str(out)) == 0
    assert [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]] == [
        1e-2, 1e-14]
    # a penalized solve that spends its budget: exit 2, with the row of
    # eps = 1e-2 finished before it
    solve_penalized = maxwellian_solver.solve_penalized

    def budget_spent_below_1e_2(n, eps, *args, **kwargs):
        if eps < 1e-2:
            raise MaxIterExceeded("budget spent")
        return solve_penalized(n, eps, *args, **kwargs)

    monkeypatch.setattr(maxwellian_solver, "solve_penalized", budget_spent_below_1e_2)
    out = tmp_path / "budget.csv"
    assert run_cli("sweep-epsilon", "--density", str(density), "--modes", "4",
                   "--schedule", "1e-2,1e-14", "--out", str(out)) == 2
    budget = out.read_text().splitlines()
    assert budget[0] == lines[0] and len(budget) == 2
    assert float(budget[1].split(",")[0]) == 1e-2


def test_cli_usage_errors(tmp_path, capsys):
    assert run_cli("solve", "--no-such-flag") == 64
    assert run_cli("frobnicate") == 64
    assert run_cli() == 64
    # --seed is a verify flag only
    assert run_cli("forward", "--potential", "zero", "--modes", "4",
                   "--out", str(tmp_path / "n.csv"), "--seed", "5") == 64
    # solve has one method; every required flag is present here
    assert run_cli("solve", "--density", str(tmp_path / "n.csv"), "--modes", "4",
                   "--out", str(tmp_path / "r.json"), "--method", "dual_newton") == 64
    # a sample count below 1 is refused before any solve
    for samples in ("0", "-3"):
        assert run_cli("verify", "--density", str(tmp_path / "n.csv"), "--modes", "4",
                       "--samples", samples, "--out", str(tmp_path / "v.json")) == 64
    # so is a negative seed, naming the flag
    capsys.readouterr()
    assert run_cli("verify", "--density", str(tmp_path / "n.csv"), "--modes", "4",
                   "--seed", "-1", "--out", str(tmp_path / "v.json")) == 64
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()
    # a cutoff below 1 is a usage error on every command, naming the flag
    out = str(tmp_path / "out")
    density = str(tmp_path / "n.csv")
    for argv in (("forward", "--potential", "zero"), ("solve", "--density", density),
                 ("verify", "--density", density), ("sweep-epsilon", "--density", density)):
        for modes in ("0", "-1"):
            assert run_cli(*argv, "--modes", modes, "--out", out) == 64
            assert "--modes" in capsys.readouterr().err
            assert not os.path.exists(out)


def test_cli_input_errors(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run_cli("solve", "--density", str(missing), "--modes", "4",
                   "--out", str(tmp_path / "r.json")) == 3
    bad = tmp_path / "bad.csv"
    values = np.ones(32)
    values[3] = -0.25
    write_density(bad, values)
    assert run_cli("solve", "--density", str(bad), "--modes", "4",
                   "--out", str(tmp_path / "r.json")) == 3
    assert run_cli("forward", "--potential", "tan(x)", "--modes", "4",
                   "--out", str(tmp_path / "n.csv")) == 3
    # solver options are validated: a negative budget, an empty schedule
    good = tmp_path / "good.csv"
    write_density(good, np.ones(32))
    assert run_cli("solve", "--density", str(good), "--modes", "4", "--max-iter", "-5",
                   "--out", str(tmp_path / "r.json")) == 3
    assert run_cli("sweep-epsilon", "--density", str(good), "--modes", "4",
                   "--schedule", ",,", "--out", str(tmp_path / "s.csv")) == 3
    # a non-finite epsilon, before the file is opened: "1,nan" used to write
    # the eps = 1 row and then fail the eigensolve, "inf,1" to leak a
    # RuntimeWarning
    for schedule in ("1,nan", "inf,1"):
        assert run_cli("sweep-epsilon", "--density", str(good), "--modes", "4",
                       "--schedule", schedule, "--out", str(tmp_path / "s.csv")) == 3
        assert "epsilon_schedule must be" in capsys.readouterr().err
    # a tolerance that is not finite and positive, before any solve
    for command in ("solve", "verify"):
        for tol in ("nan", "inf", "-inf"):
            assert run_cli(command, "--density", str(good), "--modes", "4", f"--tol={tol}",
                           "--out", str(tmp_path / "r.json")) == 3
            assert "tol_l2 must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "s.csv").exists()
    # exp(-(H+A)) overflows: reported as such, not as a failed eigensolve
    capsys.readouterr()
    assert run_cli("forward", "--potential", "-800", "--modes", "4",
                   "--out", str(tmp_path / "n.csv")) == 3
    err = capsys.readouterr().err
    assert "overflow limit" in err and "RuntimeWarning" not in err
    # non-finite fields are rejected where they are read, naming the line
    x = qm.build_basis(4).grid
    for command, header, field in (("solve", "x,n", "nan,1.0"),
                                   ("forward", "x,a", "0.25,nan"),
                                   ("forward", "x,a", "0.25,inf")):
        path = tmp_path / "nonfinite.csv"
        rows = [header] + [f"{float(xi)!r},1.0" for xi in x]
        rows[9] = field
        path.write_text("\n".join(rows) + "\n")
        flag = "--density" if command == "solve" else "--potential"
        assert run_cli(command, flag, str(path), "--modes", "4",
                       "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "line 10" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("command", ["forward", "solve", "density-out", "verify",
                                     "sweep-epsilon"])
def test_cli_unwritable_output_exits_3(tmp_path, capsys, command):
    # an output in a missing directory is invalid input: exit 3 and a
    # one-line error, not exit 1 (a failed inequality) with a traceback
    density = tmp_path / "n.csv"
    write_density(density, np.ones(32))
    missing = str(tmp_path / "missing" / "out")
    source = ["--density", str(density), "--modes", "4"]
    argv = {
        "forward": ["forward", "--potential", "zero", "--modes", "4", "--out", missing],
        "solve": ["solve", *source, "--out", missing],
        "density-out": ["solve", *source, "--out", str(tmp_path / "r.json"),
                        "--density-out", missing],
        "verify": ["verify", *source, "--samples", "2", "--out", missing],
        "sweep-epsilon": ["sweep-epsilon", *source, "--schedule", "1", "--out", missing],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing" in err


def test_cli_non_finite_potential_exits_3(tmp_path, capsys):
    # a coefficient that overflows read as nan, a sum that overflows as an
    # eigenvalue -inf, and under error::RuntimeWarning a constant sum or a
    # file of +-1e308 died with a traceback; each is rejected where it is
    # read, naming the term, the expression or the file
    path = tmp_path / "huge.csv"
    path.write_text("x,a\n" + "".join(f"{j / 32!r},{(-1) ** j * 1e308!r}\n"
                                         for j in range(32)))
    for potential, named in (("1e400", "term '1e400'"),
                             ("1e308*cos(2*pi*x)+1e308*cos(2*pi*x)", "potential '1e308"),
                             ("1e308+1e308", "potential '1e308+1e308'"),
                             (str(path), f"potential file {path}")):
        capsys.readouterr()
        assert run_cli("forward", "--potential", potential, "--modes", "4",
                       "--out", str(tmp_path / "n.csv")) == 3
        err = capsys.readouterr().err
        assert named in err and "not finite" in err, err
    assert not (tmp_path / "n.csv").exists()
    with pytest.raises(PotentialExprError):
        io_cli.potential_from_expression("1e400", qm.build_basis(4))


def test_cli_bad_schedule_is_a_value_error(tmp_path, capsys):
    # a schedule that does not parse is a bad option value, not a violation
    # of the potential grammar; it exits 3 before the output file is opened
    density = tmp_path / "n.csv"
    write_density(density, np.ones(32))
    out = tmp_path / "s.csv"
    argv = ["sweep-epsilon", "--density", str(density), "--modes", "4",
            "--schedule", "1,abc", "--out", str(out)]
    assert run_cli(*argv) == 3
    assert "--schedule" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="--schedule") as info:
        io_cli._cmd_sweep(io_cli._build_parser().parse_args(argv))
    assert not isinstance(info.value, PotentialExprError)
    assert not out.exists()


def _python(args, cwd, **env):
    """``python *args`` in a fresh interpreter with the package on its path:
    the test suite itself imports SciPy and logging."""
    src = str(Path(qm.__file__).resolve().parents[1])
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_runtime_loads_no_scipy(tmp_path):
    # nor does any command, verify included, load an executor or start a thread
    script = (
        "import sys, threading\n"
        "import qmaxwell\n"
        "from qmaxwell.io_cli import cli_dispatch\n"
        "def pool():\n"
        "    return ('concurrent.futures' in sys.modules, any(t.name.startswith("
        "'qmaxwell-suite') for t in threading.enumerate()))\n"
        "assert cli_dispatch(['forward', '--potential', 'cos(2*pi*x)', '--modes', '4',"
        " '--out', 'n.csv']) == 0\n"
        "assert cli_dispatch(['solve', '--density', 'n.csv', '--modes', '4',"
        " '--out', 'r.json']) == 0\n"
        "assert pool() == (False, False), pool()\n"
        "assert cli_dispatch(['verify', '--density', 'n.csv', '--modes', '4',"
        " '--samples', '5', '--out', 'v.json']) == 0\n"
        "assert pool() == (False, False), pool()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = _python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# at M = 8 its solve takes more than one Newton step, and at tol_l2 = 1e-14
# it exhausts the default budget
_STEEP = "40*cos(2*pi*x)+30*sin(2*pi*3*x)"


def test_cli_loads_no_logging(tmp_path):
    # the CLI leaves the caller's logging alone: neither a command nor a
    # solver failure imports it
    script = (
        "import sys\n"
        "import qmaxwell\n"
        "from qmaxwell.io_cli import cli_dispatch\n"
        f"assert cli_dispatch(['forward', '--potential', {_STEEP!r}, '--modes', '8',"
        " '--out', 'n.csv']) == 0\n"
        "assert cli_dispatch(['solve', '--density', 'n.csv', '--modes', '8',"
        " '--max-iter', '1', '--out', 'r.json']) == 2\n"
        "print('logging' in sys.modules)\n")
    proc = _python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, code", [
    (["solve", "--density", "n.csv", "--modes", "8", "--max-iter", "1"], 2),
    (["verify", "--density", "n.csv", "--modes", "8", "--tol", "1e-14"], 2),
    (["sweep-epsilon", "--density", "n.csv", "--modes", "8", "--tol", "1e-14"], 2),
    (["solve", "--density", "bump.csv", "--modes", "32"], 3),  # README's Gaussian
], ids=["solve-max-iter", "verify-max-iter", "sweep-max-iter", "solve-basis-too-small"])
def test_solver_failure_prints_one_error_line(tmp_path, argv, code):
    # MaxIterExceeded and BasisTooSmall print the one "error: " line every
    # other failure prints, and the command still writes its output
    assert run_cli("forward", "--potential", _STEEP, "--modes", "8",
                   "--out", str(tmp_path / "n.csv")) == 0
    x = np.arange(256) / 256
    write_density(tmp_path / "bump.csv", 1e-2 + np.exp(-50 * (x - 0.5) ** 2))
    out = tmp_path / ("out.csv" if argv[0] == "sweep-epsilon" else "out.json")
    proc = _python(["-m", "qmaxwell", *argv, "--out", out.name], tmp_path,
                   PYTHONWARNINGS="error::RuntimeWarning")
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if argv[0] == "sweep-epsilon":  # the reference solve fails: no row is finished
        assert out.read_text() == "epsilon,residual_l2,F_eps,A_dist_hminus1\n"
        return
    report = json.loads(out.read_text())
    assert len(report["history"]) == report["result"]["iterations"] >= 1
    assert {h["direction"] for h in report["history"]} <= {"newton", "gradient"}


def test_python_m_qmaxwell_runs_the_cli(tmp_path):
    # runpy warns when the package imports the module it is asked to run,
    # and the warning filter makes that an exit 1 before any parsing
    proc = _python(["-m", "qmaxwell", "--help"], tmp_path,
                   PYTHONWARNINGS="error::RuntimeWarning")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qmaxwell ")
