"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hbvm.nlsolve  # noqa: E402
from hbvm import (  # noqa: E402
    RunConfig,
    SolveOptions,
    StageProblem,
    build_tableau,
    charged_particle,
    fpu_modified,
    harmonic_oscillator,
)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _case(name, system, solver="splitting", k=4, s=2, h=0.1, t_end=0.5, **opts):
    return workloads.IntegrateCase(name, RunConfig(
        system=system, k=k, s=s, h=h, t_end=t_end,
        options=SolveOptions(solver=solver, **opts), store_every=0))


@pytest.mark.parametrize("k", [2, 4, 6])
def test_wrappers_count_k_grad_calls_per_residual(k):
    tracer = Tracer()
    sysm = tracer.wrap_system(harmonic_oscillator(1.3))
    p = StageProblem(build_tableau(k, 2), sysm, np.array([0.4, -0.2]), 0.1)
    with tracer.installed():
        for _ in range(3):
            hbvm.nlsolve.residual_F(p, np.zeros((2, 2)))
        res = hbvm.nlsolve.fixed_point_solve(p, SolveOptions(solver="fixed_point"))
    assert tracer.calls("nlsolve.residual_F") == 3
    assert tracer.calls("nlsolve.stage_map") == 3 + res.residual_evaluations
    assert tracer.calls("hamiltonian.grad") == k * (3 + res.residual_evaluations)
    assert hbvm.nlsolve.residual_F.__module__ == "hbvm.nlsolve"  # wrappers removed


def test_raising_and_non_converging_cases_fail_without_raising():
    on_axis = dataclasses.replace(charged_particle(), y0=np.array([0.0, 0.0, 0.0, 0.1, 0.3, 0.0]))
    cases = [
        _case("raises", on_axis),
        _case("stalls", fpu_modified(), solver="fixed_point", k=6, s=3, h=0.5, max_outer=2),
        _case("fine", harmonic_oscillator()),
    ]
    wl = workloads.Workload("selftest", cases, lambda out: {})
    for tracer in (None, Tracer()):
        p = run.run_pass(cases, tracer)
        verdict = run.evaluate(wl, p)
        assert set(verdict.failures) == {"raises", "stalls"}
        assert verdict.failures["raises"][0].startswith("ValueError")
        assert verdict.failures["stalls"] == ["did not converge"]
        if tracer is not None:
            assert tracer._stack == []


def test_self_times_reconcile_with_traced_wall():
    sysm = harmonic_oscillator(2.0)
    cases = [_case(solver, sysm, solver=solver) for solver in run.SOLVERS]
    cases.append(workloads.AnalyzeCase("analyze", ("analyze", "-s", "2", "--mu", "1")))
    wl = workloads.Workload("selftest", cases, lambda out: {})
    untraced = run.run_pass(cases)
    traced = run.run_pass(cases, Tracer())
    verdict = run.evaluate(wl, traced)
    assert not verdict.failures
    m = run.layer_metrics(wl, traced, verdict, [traced], [untraced.wall])
    parts = [m[name] for name in run.SELF_TIMES] + [m["trace.unattributed_s"]]
    assert all(x >= 0 for x in parts)
    assert sum(parts) == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["nlsolve.solve_calls"] == 3 * 5
    assert m["nlsolve.factor_calls"] == 2 * 5   # splitting and Newton, once per step
    assert m["convergence.z_evals"] > 0
    assert verdict.fingerprints["splitting"]["hess_calls"] == 2 * 5


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_paper_tables_are_read_from_the_acceptance_suite():
    tables = workloads.paper_tables()
    assert tables["ENERGY_BY_K"][2] == 1.6e-3
    assert tables["SPLITTING_COUNTS"][0.01] == 8955
    assert set(tables["AVERAGED"]) == set(tables["ASYMPTOTIC"]) == {2, 3, 4, 5, 6}


def _good_charged():
    errs = {2: 1e-3, 4: 1e-6, 6: 1e-9, 8: 1e-12, 10: 1e-15}
    return {f"{col}-k{k}": {"energy_rel": e} for col in ("splitting", "fixed-point")
            for k, e in errs.items()}


def test_checks_flag_outputs_off_the_tables():
    charged, fpu, table = workloads.paper_parts()
    out = _good_charged()
    assert charged.check(out) == {}
    out["splitting-k8"] = {"energy_rel": 1e-8}       # above 3x the table, not monotone
    assert set(charged.check(out)) == {"splitting-k8"}

    out = {c.name: {"energy_rel": 1e-14, "outer": workloads.paper_tables()["SPLITTING_COUNTS"][c.cfg.h]}
           for c in fpu.cases}
    assert fpu.check(out) == {}
    out["h0.1"]["energy_rel"] = 1e-9
    assert set(fpu.check(out)) == {"h0.1"}

    chain = workloads.build("chain-scaling", 0)
    y = np.ones(4)
    out = {c.name: {"energy_rel": 0.0, "steps": round(c.cfg.t_end / c.cfg.h), "final": y}
           for c in chain.cases}
    assert chain.check(out) == {}
    out["newton-m64"]["final"] = y + 1e-8
    assert set(chain.check(out)) == {"splitting-m64", "newton-m64"}

    rows = {(s, "inf"): (*v, 0.0) for s, v in workloads.paper_tables()["ASYMPTOTIC"].items()}
    rows.update({(s, str(mu)): v for s, d in workloads.paper_tables()["AVERAGED"].items()
                 for mu, v in d.items()})
    assert table.check({"analyze": {"rows": dict(rows)}}) == {}
    rows[(4, "2")] = (0.4098 + 1e-3, 0.1200, 0.1757)
    assert len(table.check({"analyze": {"rows": rows}})["analyze"]) == 1

    paper = workloads.build("paper-tables", 0)
    assert len(paper.cases) == len(charged.cases) + len(fpu.cases) + 1
    out = {f"charged-particle/{n}": o for n, o in _good_charged().items()}
    out["charged-particle/fixed-point-k10"] = {"energy_rel": 1e-3}
    assert set(paper.check(out)) == {"charged-particle/fixed-point-k10"}


def test_chain_derivatives_match_finite_differences():
    sysm = workloads.fpu_chain(3, np.random.default_rng(7))
    y = sysm.y0 + 0.1 * np.random.default_rng(8).standard_normal(sysm.dim)
    eps = 1e-6
    basis = np.eye(sysm.dim) * eps
    g_fd = np.array([(sysm.H(y + e) - sysm.H(y - e)) / (2 * eps) for e in basis])
    h_fd = np.array([(sysm.grad(y + e) - sysm.grad(y - e)) / (2 * eps) for e in basis])
    assert np.max(np.abs(g_fd - sysm.grad(y))) < 1e-6
    assert np.max(np.abs(h_fd - sysm.hess(y))) < 1e-5


def test_fingerprint_mismatches_are_reported_by_name(tmp_path, monkeypatch):
    store = tmp_path / "fingerprint.json"
    store.write_text(json.dumps({"w": {"a": {"outer": 10, "steps": 5}}}))
    monkeypatch.setattr(run, "FINGERPRINT", store)
    v1 = run.Verdict({}, {}, {"a": {"outer": 11, "steps": 5}, "b": {"outer": 3}})
    v2 = run.Verdict({}, {}, {"a": {"outer": 11, "steps": 5}, "b": {"outer": 4}})
    lines, unchecked, counts = run.compare_fingerprints("w", [v1, v2])
    assert unchecked == ["b"]
    assert lines == ["b outer 4 differs between passes (3)", "a outer 11 (stored 10)"]
    assert counts["a"] == {"outer": 11, "steps": 5}
