"""hbvm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``hbvm`` is imported from its ``src/``.
One client runs the workload's cases in a closed loop: each case starts when
the previous one has returned. A pass is one run of every case. The first pass
warms caches and is not timed; passes then repeat until S seconds have passed,
and at least MIN_PASSES are timed. Every pass, the first included, is checked
against the paper tables, and a case that raises, does not converge or fails
its check is counted as failed, never raised.

--trace 0  end-to-end metrics from untraced passes, plus the median set-up
           time of SETUP_PROBES fresh interpreters.
--trace 1  untraced and traced passes alternate. The per-layer metrics come
           from the traced pass with the median wall time; the tracer wraps
           the public entry points of each hbvm module (see tracer.py).

The lines before the last are a human-readable report: environment, cases,
work-count fingerprint and counter check. The last line is one JSON object
with the keys correct, attempted, failed and metrics.

Workloads (workloads.py): paper-tables and chain-scaling.
``--record-fingerprint`` (with --trace 1) stores the measured work counts in
fingerprint.json as the reference later runs are compared with.
Self-tests: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""
import os

# The BLAS thread count is pinned before numpy is imported; on a small machine
# it changes dense factorization times by several times.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINT = HERE / "fingerprint.json"

MIN_PASSES = 3      # timed passes per run, per kind in a traced run
SETUP_PROBES = 5    # fresh interpreters timed for setup_s

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
)

# per-layer metric -> the spans whose self time it reports; with
# trace.unattributed_s these add up to trace.wall_s
SELF_TIMES = {
    "hamiltonian.grad_s": ("hamiltonian.grad",),
    "hamiltonian.hess_s": ("hamiltonian.hess",),
    "hamiltonian.H_s": ("hamiltonian.H",),
    "nlsolve.residual_self_s": ("nlsolve.residual_F", "nlsolve.stage_map"),
    "nlsolve.lu_solve_s": ("nlsolve.lu_solve",),
    "nlsolve.factor_s": ("nlsolve.lu_factor",),
    "nlsolve.sweep_self_s": ("nlsolve.solve",),
    "integrator.self_s": ("integrator.integrate",),
    "tableau.build_s": ("tableau.build",),
    "splitting.build_s": ("splitting.build",),
    "polybasis.gauss_rule_s": ("polybasis.gauss_rule",),
    "convergence.z_eval_s": ("convergence.iteration_matrix",),
    "convergence.spectral_s": ("convergence.spectral_radius",),
    "convergence.self_s": ("convergence.analyze",),
}
SOLVERS = ("fixed_point", "splitting", "simplified_newton")
CHAIN_CASES = ("splitting-m64", "newton-m64", "splitting-m256", "newton-m256")

# Which end-to-end metric each layer should move, on which workload:
#   hamiltonian.grad_*     steps_per_s on paper-tables, most on the charged
#                          particle at k = 10; barely on chain-scaling
#   hamiltonian.hess_*     chain-scaling: dense 2m x 2m Hessian, twice per
#                          splitting step
#   nlsolve.residual_*     paper-tables, both charged-particle columns
#   nlsolve.lu_solve_*, nlsolve.sweep_self_s
#                          paper-tables through the FPU ladder and the
#                          splitting column, not the fixed-point column
#   nlsolve.factor_*, chain.*
#                          chain-scaling, per solver and size
#   integrator.self_s      paper-tables, whose charged-particle steps are cheapest
#   tableau.*, splitting.*, polybasis.*
#                          setup_s on both workloads
#   convergence.*          wall_s on paper-tables (hbvm analyze) only

PER_LAYER = (
    ("hamiltonian.grad_calls", "count", "lower"),
    ("hamiltonian.grad_calls_reported", "count", "lower"),
    ("hamiltonian.grad_s", "s", "lower"),
    ("hamiltonian.hess_calls", "count", "lower"),
    ("hamiltonian.hess_calls_reported", "count", "lower"),
    ("hamiltonian.hess_s", "s", "lower"),
    ("hamiltonian.H_s", "s", "lower"),
    ("nlsolve.solve_calls", "count", "lower"),
    ("nlsolve.step_ms_p50", "ms", "lower"),
    ("nlsolve.step_ms_p99", "ms", "lower"),
    ("nlsolve.step_samples", "count", "higher"),
    *((f"nlsolve.{s}.step_ms_p50", "ms", "lower") for s in SOLVERS),
    ("nlsolve.residual_calls", "count", "lower"),
    ("nlsolve.residual_self_s", "s", "lower"),
    ("nlsolve.lu_solve_calls", "count", "lower"),
    ("nlsolve.lu_solve_s", "s", "lower"),
    ("nlsolve.sweep_self_s", "s", "lower"),
    ("nlsolve.factor_calls", "count", "lower"),
    ("nlsolve.factor_s", "s", "lower"),
    ("nlsolve.factor_gflop", "GFLOP-computed", "lower"),
    ("nlsolve.factor_gflop_per_s", "GFLOP/s-computed", "higher"),
    ("nlsolve.outer_iters", "count", "lower"),
    ("nlsolve.inner_iters", "count", "lower"),
    ("nlsolve.outer_per_step", "count", "lower"),
    ("nlsolve.converged_frac", "frac", "higher"),
    *(item for case in CHAIN_CASES for item in (
        (f"chain.{case}.factor_s", "s", "lower"),
        (f"chain.{case}.factor_gflop", "GFLOP-computed", "lower"),
        (f"chain.{case}.step_ms_p50", "ms", "lower"),
    )),
    ("integrator.steps", "count", "higher"),
    ("integrator.self_s", "s", "lower"),
    ("integrator.energy_err_rel", "frac", "lower"),
    ("tableau.build_calls", "count", "lower"),
    ("tableau.build_s", "s", "lower"),
    ("splitting.build_calls", "count", "lower"),
    ("splitting.build_s", "s", "lower"),
    ("polybasis.gauss_rule_s", "s", "lower"),
    ("convergence.z_evals", "count", "lower"),
    ("convergence.z_eval_s", "s", "lower"),
    ("convergence.spectral_s", "s", "lower"),
    ("convergence.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("fingerprint.mismatches", "count", "lower"),
)

# fingerprint entry -> span whose calls it counts in a traced pass
TRACED_COUNTS = {
    "integrate": {"grad_calls": "hamiltonian.grad", "hess_calls": "hamiltonian.hess",
                  "factor_calls": "nlsolve.lu_factor"},
    "analyze": {"z_evals": "convergence.iteration_matrix",
                "spectral_calls": "convergence.spectral_radius"},
}


def import_program():
    """Put the checkout's src/ first on the path; refuse any other hbvm."""
    if not (SRC / "hbvm" / "__init__.py").is_file():
        raise SystemExit(f"error: no hbvm sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hbvm
    if Path(hbvm.__file__).resolve().parent != SRC / "hbvm":
        raise SystemExit(f"error: imported hbvm from {hbvm.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads each loaded OpenBLAS reports, by library file name."""
    out = {}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.split()[-1]})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = getattr(lib, sym)()
                break
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# passes

@dataclass
class Pass:
    wall: float
    records: list   # (case, raw result or None, error or None, work counts or None)
    tracer: object  # Tracer for a traced pass, else None


def _work(tracer, before, after):
    """Per-case differences of two tracer snapshots."""
    (s0, f0, n0), (s1, f1, n1) = before, after
    spans = {name: (c - s0.get(name, (0, 0.0))[0], t - s0.get(name, (0, 0.0))[1])
             for name, (c, t) in s1.items()}
    return {"spans": spans, "flops": f1 - f0, "samples": tracer.samples["nlsolve.solve"][n0:n1]}


def run_pass(cases, tracer=None):
    """Closed loop over the cases. A case that raises is recorded, not raised."""
    records = []
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter()
        for case in cases:
            before = tracer.snapshot() if tracer else None
            try:
                raw, error = case(tracer), None
            except Exception as exc:  # noqa: BLE001 -- a failing case is a result
                raw, error = None, f"{type(exc).__name__}: {exc}"
            work = _work(tracer, before, tracer.snapshot()) if tracer else None
            records.append((case, raw, error, work))
        wall = perf_counter() - t0
    return Pass(wall, records, tracer)


@dataclass
class Verdict:
    outcomes: dict      # case name -> outcome, for cases that returned
    failures: dict      # case name -> reasons
    fingerprints: dict  # case name -> work counts


def evaluate(workload, p):
    outcomes, failures, fingerprints = {}, {}, {}
    for case, raw, error, work in p.records:
        if error is not None:
            failures[case.name] = [error]
            continue
        o = case.outcome(raw)
        outcomes[case.name] = o
        if not o["converged"]:
            failures[case.name] = ["did not converge"]
        kind = "analyze" if "rows" in o else "integrate"
        fp = ({"rows": len(o["rows"])} if kind == "analyze" else
              {"steps": o["steps"], "outer": o["outer"], "inner": o["inner"]})
        if work is not None:
            for count, span in TRACED_COUNTS[kind].items():
                fp[count] = work["spans"].get(span, (0, 0.0))[0]
        fingerprints[case.name] = fp
    for name, reasons in workload.check(outcomes).items():
        failures.setdefault(name, []).extend(reasons)
    return Verdict(outcomes, failures, fingerprints)


def measure_setup(workload, seed):
    """Median over fresh interpreters of import plus builds before the first step."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _steps(verdict):
    """Integration steps completed in one pass."""
    return sum(o.get("steps", 0) for o in verdict.outcomes.values())


def _percentile(samples, q):
    import numpy as np
    return float(np.percentile(samples, q)) if samples else 0.0


def layer_metrics(workload, p, verdict, traced, untraced_walls):
    """Per-layer metrics of traced pass p; step percentiles pool all traced passes."""
    t = p.tracer
    unknown = set(t.stats) - {s for spans in SELF_TIMES.values() for s in spans}
    if unknown:
        raise RuntimeError(f"spans without a per-layer self-time metric: {sorted(unknown)}")
    m = {name: sum(t.self_time(s) for s in spans) for name, spans in SELF_TIMES.items()}
    m["trace.wall_s"] = p.wall
    m["trace.unattributed_s"] = p.wall - t.root_s
    total = sum(m[name] for name in SELF_TIMES) + m["trace.unattributed_s"]
    if abs(total - p.wall) > 1e-9 * max(p.wall, 1.0) or m["trace.unattributed_s"] < -1e-9:
        raise RuntimeError(f"self times do not reconcile: {total!r} vs wall {p.wall!r}")

    integ = [o for o in verdict.outcomes.values() if "steps" in o]
    solves = t.calls("nlsolve.solve")
    steps = sum(o["steps"] for o in integ)
    samples, by_solver = [], {s: [] for s in SOLVERS}
    for q in traced:
        for case, _, _, work in q.records:
            samples += work["samples"]
            if case.solver in by_solver:
                by_solver[case.solver] += work["samples"]
    m.update({
        "hamiltonian.grad_calls": t.calls("hamiltonian.grad"),
        "hamiltonian.grad_calls_reported": sum(o["grad_reported"] for o in integ),
        "hamiltonian.hess_calls": t.calls("hamiltonian.hess"),
        "hamiltonian.hess_calls_reported": sum(o["hess_reported"] for o in integ),
        "nlsolve.solve_calls": solves,
        "nlsolve.step_ms_p50": 1e3 * _percentile(samples, 50),
        "nlsolve.step_ms_p99": 1e3 * _percentile(samples, 99),
        "nlsolve.step_samples": len(samples),
        "nlsolve.residual_calls": t.calls("nlsolve.stage_map"),
        "nlsolve.lu_solve_calls": t.calls("nlsolve.lu_solve"),
        "nlsolve.factor_calls": t.calls("nlsolve.lu_factor"),
        "nlsolve.factor_gflop": t.factor_flops / 1e9,
        "nlsolve.factor_gflop_per_s": (t.factor_flops / 1e9 / m["nlsolve.factor_s"]
                                       if m["nlsolve.factor_s"] > 0 else 0.0),
        "nlsolve.outer_iters": sum(o["outer"] for o in integ),
        "nlsolve.inner_iters": sum(o["inner"] for o in integ),
        "nlsolve.outer_per_step": sum(o["outer"] for o in integ) / solves if solves else 0.0,
        "nlsolve.converged_frac": steps / solves if solves else 0.0,
        "integrator.steps": steps,
        "integrator.energy_err_rel": max((o["energy_rel"] for o in integ), default=0.0),
        "tableau.build_calls": t.calls("tableau.build"),
        "splitting.build_calls": t.calls("splitting.build"),
        "convergence.z_evals": t.calls("convergence.iteration_matrix"),
        "trace.overhead_frac": _median([q.wall for q in traced]) / _median(untraced_walls) - 1.0,
    })
    for s in SOLVERS:
        m[f"nlsolve.{s}.step_ms_p50"] = 1e3 * _percentile(by_solver[s], 50)
    chain = {case.name: work for case, _, _, work in p.records}
    for name in CHAIN_CASES:
        work = chain.get(name) if workload.name == "chain-scaling" else None
        m[f"chain.{name}.factor_s"] = work["spans"].get("nlsolve.lu_factor", (0, 0.0))[1] if work else 0.0
        m[f"chain.{name}.factor_gflop"] = work["flops"] / 1e9 if work else 0.0
        m[f"chain.{name}.step_ms_p50"] = 1e3 * _percentile(work["samples"], 50) if work else 0.0
    return m


# ---------------------------------------------------------------------------
# work-count fingerprint and counter check

def fingerprint_key(workload, seed):
    # the chain is generated from the seed, so its counts are stored per seed
    return f"{workload}/seed={seed}" if workload == "chain-scaling" else workload


def compare_fingerprints(key, verdicts):
    """Mismatches against the stored counts and between passes of this run."""
    stored = json.loads(FINGERPRINT.read_text()).get(key, {}) if FINGERPRINT.is_file() else {}
    lines, unchecked = [], []
    first = {}
    for v in verdicts:
        for case, fp in v.fingerprints.items():
            ref = first.setdefault(case, dict(fp))
            for count, value in fp.items():
                if ref.setdefault(count, value) != value:
                    lines.append(f"{case} {count} {value} differs between passes ({ref[count]})")
    for case, fp in first.items():
        if case not in stored:
            unchecked.append(case)
            continue
        for count, value in fp.items():
            if count in stored[case] and stored[case][count] != value:
                lines.append(f"{case} {count} {value} (stored {stored[case][count]})")
    return lines, unchecked, first


def record_fingerprint(key, counts):
    data = json.loads(FINGERPRINT.read_text()) if FINGERPRINT.is_file() else {}
    data[key] = counts
    FINGERPRINT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def counter_report(m):
    out = []
    for what, field in (("grad", "gradient_evaluations"), ("hess", "hessian_evaluations")):
        measured = m[f"hamiltonian.{what}_calls"]
        reported = m[f"hamiltonian.{what}_calls_reported"]
        verdict = "equal" if measured == reported else "DIFFER"
        out.append(f"counters: {what} calls measured {measured}, "
                   f"RunStats.{field} {reported}: {verdict}")
    return out


# ---------------------------------------------------------------------------
# runs

def timed_passes(workload, seconds, traced):
    """Warm-up pass, then timed passes until `seconds` have passed. In a traced
    run the timed passes alternate untraced and traced."""
    from tracer import Tracer

    start = perf_counter()
    passes = [(run_pass(workload.cases), False)]
    done = {False: 0, True: 0}
    kinds = (False, True) if traced else (False,)
    while perf_counter() - start < seconds or min(done[k] for k in kinds) < MIN_PASSES:
        kind = traced and done[True] < done[False]
        passes.append((run_pass(workload.cases, Tracer() if kind else None), kind))
        done[kind] += 1
    return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprint", action="store_true")
    args = ap.parse_args(argv)
    if args.record_fingerprint and not args.trace:
        ap.error("--record-fingerprint needs --trace 1")

    import_program()
    import workloads
    try:
        wl = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        ap.error(str(exc))
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload {wl.name}, seed {args.seed}: {len(wl.cases)} cases per pass, "
          f"closed loop, one client, trace {args.trace}")

    if not args.trace:
        setup, setup_all = measure_setup(wl.name, args.seed)
        print("setup_s probes: " + " ".join(f"{x:.4f}" for x in setup_all))

    passes = timed_passes(wl, args.seconds, bool(args.trace))
    verdicts = [evaluate(wl, p) for p, _ in passes]
    attempted = sum(len(p.records) for p, _ in passes)
    failed = sum(len(v.failures) for v in verdicts)
    for v in verdicts:
        for case, reasons in sorted(v.failures.items()):
            print(f"FAILED {case}: {'; '.join(reasons)}")
    last = verdicts[-1]
    for case in wl.cases:
        o = last.outcomes.get(case.name, {})
        if "steps" in o:
            print(f"case {case.name}: {o['steps']} steps, outer {o['outer']}, "
                  f"inner {o['inner']}, rel energy error {o['energy_rel']:.2e}")
        elif "rows" in o:
            print(f"case {case.name}: {len(o['rows'])} table rows")

    key = fingerprint_key(wl.name, args.seed)
    mismatches, unchecked, counts = compare_fingerprints(key, verdicts)
    for line in mismatches:
        print(f"fingerprint MISMATCH {key}: {line}")
    print(f"fingerprint {key}: {len(counts) - len(unchecked)} cases compared with "
          f"{FINGERPRINT.name}, {len(mismatches)} mismatches"
          + (f", unchecked (no stored counts): {', '.join(unchecked)}" if unchecked else ""))

    timed = [(p, v) for (p, kind), v in zip(passes[1:], verdicts[1:]) if not kind]
    walls = [p.wall for p, _ in timed]
    if args.trace:
        traced = sorted((p for p, kind in passes if kind), key=lambda p: p.wall)
        rep = traced[(len(traced) - 1) // 2]
        rep_verdict = next(v for (p, _), v in zip(passes, verdicts) if p is rep)
        values = layer_metrics(wl, rep, rep_verdict, traced, walls)
        values["fingerprint.mismatches"] = len(mismatches)
        for line in counter_report(values):
            print(line)
        specs = PER_LAYER
        print(f"traced passes {len(traced)}, untraced passes {len(walls)}; per-layer "
              f"metrics from the median traced pass ({rep.wall:.4f} s)")
        if args.record_fingerprint:
            record_fingerprint(key, counts)
            print(f"recorded work counts for {key} in {FINGERPRINT.name}")
    else:
        values = {
            "wall_s": _median(walls),
            "steps_per_s": _median([_steps(v) / p.wall for p, v in timed]),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        specs = END_TO_END
        print(f"timed passes {len(walls)}: wall_s min {min(walls):.4f} "
              f"median {values['wall_s']:.4f} max {max(walls):.4f}")

    metrics = {}
    for name, unit, _ in specs:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
