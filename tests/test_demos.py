"""The narrative demos run to the end, in process, with stdout captured, and
the package root offers exactly the entry points the demos, the README and the
benchmark import from it."""
import runpy
import sys
import types
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


ENTRY_POINTS = [
    "HamiltonianSystem", "RunConfig", "SolveOptions", "StageProblem", "amplification_report",
    "build_splitting", "build_tableau", "charged_particle", "composition6_stormer_verlet",
    "fpu_modified", "gauss_rule", "harmonic_oscillator", "integrate", "verify_conditions",
]


def test_package_root_exports_the_entry_points():
    import hbvm

    public = sorted(name for name, value in vars(hbvm).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == ENTRY_POINTS


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
