"""The package's public surface: the top-level names, each submodule's
``__all__``, and README's library example."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import qmaxwell as qm

PUBLIC_NAMES = {
    "BasisMismatch", "BasisTooSmall", "ChemicalPotential", "DensityFileError",
    "DensityOperator", "DensityProfile", "DuplicatedEndpoint", "EpsilonSweepRow",
    "FunctionalValue", "HistoryEntry", "InequalityReport", "MalformedRow",
    "MaxIterExceeded", "NonPositiveDensity", "NonUniformGrid",
    "NotPositiveSemidefinite", "PotentialExprError", "QMaxwellError", "SolveReport",
    "SolverError", "SolverOptions", "SpectralBasis",
    "assemble_hamiltonian_plus_potential", "build_basis", "cli_dispatch",
    "convexity_probe", "density_of", "dual_functional", "dual_gradient",
    "dual_hessian_apply", "eigenvalue_perturbation_check", "energy_trace",
    "entropy_trace", "epsilon_sweep", "euler_lagrange_residual", "free_energy",
    "gateaux_entropy_derivative", "gibbs_from_potential", "log_sobolev_gap",
    "parse_density_csv", "penalized_free_energy", "potential_from_expression",
    "reconstruct_potential_form", "serialize_report", "sobolev_norm",
    "solve_maxwellian", "solve_penalized", "trace_norm", "validate_lieb",
    "validate_peierls", "write_density_csv",
}

# the operator inequalities have one owner
INEQUALITY_NAMES = (
    "InequalityReport", "validate_lieb", "validate_peierls", "log_sobolev_gap",
    "convexity_probe", "eigenvalue_perturbation_check", "reconstruct_potential_form",
)

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(qm.__path__) if m.name != "__main__")


def test_public_top_level_names_are_pinned():
    names = {name for name in dir(qm)
             if not name.startswith("_") and not inspect.ismodule(getattr(qm, name))}
    assert names == PUBLIC_NAMES
    assert {name: getattr(qm, name).__module__ for name in INEQUALITY_NAMES} == dict.fromkeys(
        INEQUALITY_NAMES, "qmaxwell.inequalities")


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_name_in_a_submodules_all_exists(module):
    mod = importlib.import_module(f"qmaxwell.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library at a glance", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    iterations, residual, _ = capsys.readouterr().out.split()
    assert int(iterations) >= 0 and float(residual) <= 1e-9
    assert namespace["A"].basis == namespace["basis"] and len(namespace["rows"]) == 7
