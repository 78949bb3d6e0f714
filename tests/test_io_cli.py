import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmaxwell as qm
from qmaxwell import io_cli
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
    assert profile.min_value == pytest.approx(2.0)
    assert profile.mass == pytest.approx(2.0, abs=1e-14)


def test_density_eight_row_file(tmp_path):
    basis = qm.build_basis(1, 8)
    path = tmp_path / "n8.csv"
    write_density(path, np.full(8, 2.0))
    profile = io_cli.parse_density_csv(path, basis)
    assert profile.min_value == 2.0
    assert profile.mass == pytest.approx(2.0)


def test_density_csv_exact_roundtrip(tmp_path, b4):
    rng = np.random.default_rng(41)
    values = 1.0 + 0.5 * rng.random(b4.N)
    path = tmp_path / "rand.csv"
    io_cli.write_density_csv(path, b4, values)
    profile = io_cli.parse_density_csv(path, b4)
    assert np.array_equal(profile.values, values)  # full-precision decimals


def test_density_resampling_preserves_mass(tmp_path):
    # 64 rows down to 34 points, and 17 rows up to 32
    for rows, basis in ((64, qm.build_basis(8, 34)), (17, qm.build_basis(4))):
        x = np.arange(rows) / rows
        path = tmp_path / f"wave{rows}.csv"
        write_density(path, 1.0 + 0.5 * np.cos(2 * np.pi * x))
        profile = io_cli.parse_density_csv(path, basis)
        assert profile.values.size == basis.N
        assert abs(profile.mass - 1.0) <= 1e-12
        expected = 1.0 + 0.5 * np.cos(2 * np.pi * basis.grid)
        assert_allclose(profile.values, expected, atol=1e-12)


def test_resample_matches_scipy_reference():
    from scipy.signal import resample  # test-only reference

    rng = np.random.default_rng(5)
    worst = 0.0
    for rows in range(2, 70):
        values = rng.uniform(-1.0, 1.0, rows)
        for N in range(2, 140):
            worst = max(worst, np.max(np.abs(io_cli._resample(values, N)
                                              - resample(values, N))))
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
    path = tmp_path / "few.csv"
    write_density(path, np.full(8, 1.0))  # below 4M+1 = 17
    with pytest.raises(DensityFileError):
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


# ---------------------------------------------------------------------------
# report serialization

def test_report_json_roundtrip(b4):
    n = qm.DensityProfile(b4, qm.density_of(
        qm.gibbs_from_potential(b4, io_cli.potential_from_expression("0.5*cos(2*pi*x)", b4))))
    opts = qm.SolverOptions()
    A, rho, report = qm.solve_maxwellian(n, opts)
    inequalities = run_inequality_suite(b4, A, rho, n, report, opts, samples=10, seed=3)
    payload = io_cli.build_report_dict(b4, opts, report, A, qm.density_of(rho),
                                       inequalities)
    text = io_cli.serialize_report(payload)
    assert io_cli.parse_report(text) == payload
    for key in ("meta", "result", "potential", "density_achieved",
                "inequalities", "history"):
        assert key in payload
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
    assert run_cli("forward", "--potential", "cos(2*pi*x)", "--modes", "4",
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


def test_cli_solve_basis_too_small_writes_report(tmp_path):
    density = tmp_path / "n.csv"
    write_density(density, 1.0 + 0.5 * np.cos(6 * np.pi * np.arange(64) / 64))
    code = run_cli("solve", "--density", str(density), "--modes", "1",
                   "--out", str(tmp_path / "r.json"),
                   "--density-out", str(tmp_path / "achieved.csv"))
    assert code == 3
    # the report holds the last iterate and the cutoff the library suggests
    payload = json.loads((tmp_path / "r.json").read_text())
    basis = qm.build_basis(1)
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


def test_cli_sweep_epsilon(tmp_path):
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


def test_cli_usage_errors(tmp_path):
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
    assert not (tmp_path / "v.json").exists()


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


def test_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter: the test suite itself imports SciPy
    src = str(Path(qm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import qmaxwell\n"
        "from qmaxwell.io_cli import cli_dispatch\n"
        "assert cli_dispatch(['forward', '--potential', 'cos(2*pi*x)', '--modes', '4',"
        " '--out', 'n.csv']) == 0\n"
        "assert cli_dispatch(['solve', '--density', 'n.csv', '--modes', '4',"
        " '--out', 'r.json']) == 0\n"
        "assert cli_dispatch(['verify', '--density', 'n.csv', '--modes', '4',"
        " '--samples', '5', '--out', 'v.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_logging_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QMAXWELL_LOG", "debug")
    out = tmp_path / "n.csv"
    assert run_cli("forward", "--potential", "zero", "--modes", "2",
                   "--out", str(out)) == 0
