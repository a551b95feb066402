"""Command-line front end: dump tableaus and splittings, run the
amplification-factor analysis, integrate the benchmark problems and drive
parameter sweeps, all as deterministic CSV.

Exit codes: 0 success (a recorded non-convergence is a result, not a tool
failure), 2 usage error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .convergence import averaged_factors, rho_star, rho_tilde
from .hamiltonian import charged_particle, fpu_modified, harmonic_oscillator
from .integrator import RunConfig, composition6_stormer_verlet, integrate
from .nlsolve import SolveOptions
from .splitting import build_splitting, verify_conditions
from .tableau import build_tableau

PROBLEMS = {
    "charged-particle": charged_particle,
    "fpu": fpu_modified,
    "harmonic": harmonic_oscillator,
}

SOLVERS = ("fixed-point", "simplified-newton", "splitting", "composition6")

STATS_HEADER = ("method,k,s,h,t_end,solver,mu,tol,steps,outer_iters,"
                "inner_iters,ham_err,sol_err,converged")


def _fmt(x):
    """Deterministic CSV float format: 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _rows_to_csv(rows):
    return "".join(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n"
                   for row in rows)


def _write(path, text):
    try:
        if path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="") as f:
                f.write(text)
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        raise SystemExit(3)


def cmd_tableau(args):
    tab = build_tableau(args.k, args.s)
    rows = [["section", "i"] + [f"v{j+1}" for j in range(max(args.k, args.s))]]
    for i in range(args.k):
        rows.append(["A", i + 1] + list(tab.A[i]))
    rows.append(["b", 1] + list(tab.b))
    rows.append(["c", 1] + list(tab.c))
    for i in range(args.s + 1):
        rows.append(["Xhat", i + 1] + list(tab.Xhat[i]))
    _write(args.out, _rows_to_csv(rows))
    return 0


def cmd_splitting(args):
    data = build_splitting(args.s)
    res = verify_conditions(data)
    rows = [["section", "i"] + [f"v{j+1}" for j in range(data.s)]]
    rows.append(["chat", 1] + list(data.chat))
    rows.append(["d", 1, data.d])
    for i in range(data.s):
        rows.append(["L", i + 1] + list(data.L[i]))
    for i in range(data.s):
        rows.append(["U", i + 1] + list(data.U[i]))
    rows.append(["cond_residuals", 1] + list(res))
    _write(args.out, _rows_to_csv(rows))
    return 0


def cmd_analyze(args):
    rows = [["s", "mu", "rho_star", "rho_tilde", "rho_inf"]]
    for s in args.s:
        data = build_splitting(s)
        star, _ = rho_star(data)
        rows.append([s, "inf", star, rho_tilde(data), 0.0])
        for mu in args.mu:
            st, ti, inf_ = averaged_factors(data, mu)
            rows.append([s, mu, st, ti, inf_])
    _write(args.out, _rows_to_csv(rows))
    return 0


def _solve_options(args):
    solver = args.solver.replace("-", "_")
    return SolveOptions(tol=args.tol, mu=args.mu, solver=solver,
                        max_outer=args.max_outer)


def _stats_row(args, stats, sol_err=None):
    iters = str(stats.total_outer_iterations) if stats.all_converged else "***"
    return ",".join([
        "hbvm" if args.solver != "composition6" else "composition6",
        str(args.k), str(args.s), _fmt(args.h), _fmt(args.t_end), args.solver,
        str(args.mu), _fmt(args.tol), str(stats.steps), iters,
        str(stats.total_inner_iterations),
        _fmt(stats.max_hamiltonian_error),
        _fmt(sol_err) if sol_err is not None else "",
        _fmt(stats.all_converged),
    ])


def _run_one(args):
    factory = PROBLEMS[args.problem]
    system = factory(args.omega) if args.problem == "harmonic" else factory()
    if args.solver == "composition6":
        traj, stats = composition6_stormer_verlet(system, args.h, args.t_end,
                                                  store_every=args.every)
        return traj, stats, system
    cfg = RunConfig(system=system, k=args.k, s=args.s, h=args.h,
                    t_end=args.t_end, options=_solve_options(args),
                    store_every=args.every)
    traj, stats = integrate(cfg)
    return traj, stats, system


def cmd_integrate(args):
    traj, stats, system = _run_one(args)
    if args.out:
        header = "t," + ",".join(f"y{i+1}" for i in range(system.dim))
        rows = [[t] + list(state) for t, state in zip(traj.times, traj.states)]
        _write(args.out, header + "\n" + _rows_to_csv(rows))
    sol_err = None
    if args.problem == "harmonic":
        t_fin = traj.times[-1]
        w = args.omega
        exact = np.array([np.cos(w * t_fin), -w * np.sin(w * t_fin)])
        sol_err = float(np.linalg.norm(traj.states[-1] - exact) / (1 + np.linalg.norm(exact)))
    print(STATS_HEADER)
    print(_stats_row(args, stats, sol_err))
    return 0


def _parse_sweep_spec(text):
    """Flat [run] blocks of key=value lines."""
    runs, cur = [], None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[run]":
            cur = {}
            runs.append(cur)
            continue
        if cur is None or "=" not in line:
            raise ValueError(f"malformed sweep spec at line {ln}: {raw!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        cur[key] = val
    return runs


def cmd_sweep(args):
    try:
        with open(args.spec) as f:
            text = f.read()
    except OSError as e:
        print(f"error: cannot read spec: {e}", file=sys.stderr)
        return 3
    try:
        runs = _parse_sweep_spec(text)
        configs = [_sweep_args(r, args) for r in runs]
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    rows = [_stats_row(cfg, _run_one(cfg)[1]) for cfg in configs]
    _write(args.out, STATS_HEADER + "\n" + "".join(r + "\n" for r in rows))
    return 0


def _sweep_args(run, args):
    ns = argparse.Namespace(
        problem=run.get("problem", "harmonic"),
        k=int(run.get("k", 2)),
        s=int(run.get("s", 2)),
        h=float(run["h"]),
        t_end=float(run.get("t_end", 10.0)),
        solver=run.get("solver", "splitting"),
        mu=int(run.get("mu", 2)),
        tol=float(run.get("tol", 1e-13)),
        max_outer=int(run.get("max_outer", 100)),
        omega=float(run.get("omega", 1.0)),
        every=0,
        out=None,
    )
    if ns.problem not in PROBLEMS:
        raise ValueError(f"unknown problem {ns.problem!r}")
    if ns.solver not in SOLVERS:
        raise ValueError(f"unknown solver {ns.solver!r}")
    return ns


def build_parser():
    p = argparse.ArgumentParser(prog="hbvm",
                                description="HBVM(k,s) energy-conserving integrators "
                                            "with a triangular-splitting stage solver")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tableau", help="dump the HBVM(k,s) Butcher tableau as CSV")
    t.add_argument("-k", type=int, required=True)
    t.add_argument("-s", type=int, required=True)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_tableau)

    sp = sub.add_parser("splitting", help="dump auxiliary abscissae, d_s, L, U and "
                                          "condition residuals as CSV")
    sp.add_argument("-s", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_splitting)

    an = sub.add_parser("analyze", help="amplification factors per s (and per mu)")
    an.add_argument("-s", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    an.add_argument("--mu", type=int, nargs="+", default=[1, 2, 3])
    an.add_argument("--out", default=None)
    an.set_defaults(func=cmd_analyze)

    it = sub.add_parser("integrate", help="integrate one problem, write trajectory "
                                          "CSV and print a stats row")
    it.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    it.add_argument("-k", type=int, default=2)
    it.add_argument("-s", type=int, default=2)
    it.add_argument("--h", type=float, required=True)
    it.add_argument("--t-end", type=float, required=True)
    it.add_argument("--solver", choices=SOLVERS, default="splitting")
    it.add_argument("--mu", type=int, default=2)
    it.add_argument("--tol", type=float, default=1e-13)
    it.add_argument("--max-outer", type=int, default=100)
    it.add_argument("--omega", type=float, default=1.0)
    it.add_argument("--every", type=int, default=1,
                    help="store every N-th state (0: endpoints only); stats always "
                         "use full resolution")
    it.add_argument("--out", default=None)
    it.set_defaults(func=cmd_integrate)

    sw = sub.add_parser("sweep", help="run all [run] blocks of a spec file, one "
                                      "stats row each")
    sw.add_argument("spec")
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
