"""The narrative demos and the README's Python examples run to the end, in
process, with stdout captured; the package root offers exactly the entry points
the demos, the README and the benchmark import from it, and every name a
module's __all__ lists exists."""
import importlib
import pkgutil
import re
import runpy
import sys
import types
from pathlib import Path

import pytest

import hbvm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


ENTRY_POINTS = [
    "HamiltonianSystem", "RunConfig", "SolveOptions", "StageProblem", "amplification_report",
    "build_splitting", "build_tableau", "charged_particle", "fpu_modified", "gauss_rule",
    "harmonic_oscillator", "integrate", "verify_conditions",
]


def test_package_root_exports_the_entry_points():
    public = sorted(name for name, value in vars(hbvm).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == ENTRY_POINTS


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(hbvm.__path__)))
def test_every_name_in_a_module_all_exists(name):
    # `from hbvm.<name> import *` raises on a listed name that is gone
    module = importlib.import_module(f"hbvm.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_readme_python_examples_run(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    quick_start, own_problem = blocks
    exec(quick_start, {})
    rel_error, counts = capsys.readouterr().out.splitlines()
    assert abs(float(rel_error)) < 1e-13  # "~1e-14: exact up to rounding"
    outer, factorizations = map(int, counts.split())
    assert outer > 0 and factorizations > 0
    namespace = {}
    exec(own_problem, namespace)
    assert isinstance(namespace["quartic"], hbvm.HamiltonianSystem)


def _run(monkeypatch, capsys, name, *argv):
    path = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_demo_01_tableaus(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "01_tableaus_and_quadrature.py")
    assert "HBVM(6,3)" in out and "Xhat =" in out


def test_demo_02_splitting_analysis(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "02_splitting_analysis.py")
    assert all(f"s = {s}" in out for s in range(2, 7))


def test_demo_03_charged_particle_short(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "03_charged_particle.py", "10")
    assert "t_end = 10" in out
    ks = [row[0] for row in map(str.split, out.splitlines()) if row and row[0].isdigit()]
    assert ks == ["2", "4", "6", "8", "10"]


@pytest.mark.optional
def test_demo_04_stiff_chain(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "04_stiff_chain.py")
    assert "diverges" in out and "triangular-splitting" in out
