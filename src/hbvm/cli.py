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

from .convergence import amplification_report
from .hamiltonian import charged_particle, fpu_modified, harmonic_oscillator
from .integrator import RunConfig, composition6_run, integrate
from .nlsolve import SolveOptions
from .splitting import build_splitting, verify_conditions
from .tableau import build_tableau

PROBLEMS = {
    "charged-particle": charged_particle,
    "fpu": fpu_modified,
    "harmonic": harmonic_oscillator,
}

# run parameter (integrate dest, sweep spec key) -> (integrate flag, parser, default,
# valid values or None, integrate requires it); h has no default, a sweep requires only h
_RUN_PARAMS = {
    "problem": ("--problem", str, "harmonic", sorted(PROBLEMS), True),
    "k": ("-k", int, 2, None, False),
    "s": ("-s", int, 2, None, False),
    "h": ("--h", float, None, None, True),
    "t_end": ("--t-end", float, 10.0, None, True),
    "solver": ("--solver", str, SolveOptions.solver.replace("_", "-"),
               ("fixed-point", "simplified-newton", "splitting", "composition6"), False),
    "mu": ("--mu", int, SolveOptions.mu, None, False),
    "tol": ("--tol", float, SolveOptions.tol, None, False),
    "max_outer": ("--max-outer", int, SolveOptions.max_outer, None, False),
    "omega": ("--omega", float, 1.0, None, False),
}

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
        r = amplification_report(build_splitting(s), args.mu)
        rows.append([s, "inf", r.rho_star, r.rho_tilde, r.rho_inf])
        rows.extend([s, *factors] for factors in r.averaged)
    _write(args.out, _rows_to_csv(rows))
    return 0


def _solve_options(args):
    solver = args.solver.replace("-", "_")
    return SolveOptions(tol=args.tol, mu=args.mu, solver=solver,
                        max_outer=args.max_outer)


def _stats_row(args, stats, sol_err=None):
    """The values of one STATS_HEADER row. composition6 has no k, s, mu or
    tol, and _plan checks none of them for it, so its row leaves them empty;
    a run that made no step leaves ham_err empty, as sol_err is left empty
    when it is not computed."""
    is_hbvm = args.solver != "composition6"
    return [
        "hbvm" if is_hbvm else "composition6",
        *((args.k, args.s) if is_hbvm else ("", "")),
        args.h, args.t_end, args.solver,
        *((args.mu, args.tol) if is_hbvm else ("", "")),
        stats.steps,
        stats.total_outer_iterations if stats.all_converged else "***",
        stats.total_inner_iterations,
        stats.max_hamiltonian_error if stats.steps else "",
        "" if sol_err is None else sol_err,
        stats.all_converged,
    ]


def _plan(args):
    """(system, run): every parameter of the run args describe is checked
    here (ValueError), and run() -> (traj, stats) then makes the run."""
    if args.every < 0:
        raise ValueError(f"require --every >= 0, got --every = {args.every}")
    factory = PROBLEMS[args.problem]
    system = factory(args.omega) if args.problem == "harmonic" else factory()
    if args.solver == "composition6":
        return system, composition6_run(system, args.h, args.t_end, args.every)
    cfg = RunConfig(system=system, k=args.k, s=args.s, h=args.h,
                    t_end=args.t_end, options=_solve_options(args),
                    store_every=args.every)
    return system, lambda: integrate(cfg)


def cmd_integrate(args):
    system, run = _plan(args)
    traj, stats = run()
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
    row = _stats_row(args, stats, sol_err)
    sys.stdout.write(STATS_HEADER + "\n" + _rows_to_csv([row]))
    return 0


def _parse_sweep_spec(text):
    """Flat [run] blocks, each (header line, key -> (value, line) of its key=value lines)."""
    runs, cur = [], None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[run]":
            cur = {}
            runs.append((ln, cur))
            continue
        if cur is None or "=" not in line:
            raise ValueError(f"malformed sweep spec at line {ln}: {raw!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        if key in cur:
            raise ValueError(f"sweep spec key {key!r} given twice in one [run] block, "
                             f"again at line {ln}")
        cur[key] = (val, ln)
    return runs


def cmd_sweep(args):
    """One stats row per [run] block. Every block is checked before the first
    run starts; an error exits 2 with no rows."""
    try:
        with open(args.spec) as f:
            text = f.read()
    except OSError as e:
        print(f"error: cannot read spec: {e}", file=sys.stderr)
        return 3
    try:
        planned = [_sweep_run(ln, block) for ln, block in _parse_sweep_spec(text)]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    rows = [_stats_row(cfg, run()[1]) for cfg, run in planned]
    _write(args.out, STATS_HEADER + "\n" + _rows_to_csv(rows))
    return 0


def _sweep_run(ln, block):
    """(args, run) of the [run] block whose header is at line ln. An error
    that names no line of its own, the missing h or any of _plan's, names ln."""
    args = _sweep_args(block)
    try:
        if args.h is None:
            raise ValueError("missing required sweep spec key 'h'")
        return args, _plan(args)[1]
    except ValueError as e:
        raise ValueError(f"sweep spec [run] block at line {ln}: {e}") from None


def _sweep_args(run):
    """The argparse.Namespace of one [run] block; a ValueError names each
    unknown key, or the first value that does not parse, or else the first
    that is not valid, with its line."""
    unknown = sorted(set(run) - set(_RUN_PARAMS), key=lambda key: run[key][1])
    if unknown:
        raise ValueError("unknown sweep spec key " + ", ".join(
            f"{key!r} at line {run[key][1]}" for key in unknown))
    ns = argparse.Namespace(every=0, out=None, **{k: p[2] for k, p in _RUN_PARAMS.items()})
    for key, (val, ln) in run.items():
        parse = _RUN_PARAMS[key][1]
        try:
            setattr(ns, key, parse(val))
        except ValueError:
            raise ValueError(f"sweep spec key {key!r} at line {ln}: {val!r} is not "
                             f"{'an int' if parse is int else 'a float'}") from None
    for key, (val, ln) in run.items():
        valid = _RUN_PARAMS[key][3]
        if valid is not None and getattr(ns, key) not in valid:
            raise ValueError(f"sweep spec key {key!r} at line {ln}: unknown {key} {val!r}")
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
    for flag, parse, default, valid, required in _RUN_PARAMS.values():
        it.add_argument(flag, type=parse, default=default, choices=valid, required=required)
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
