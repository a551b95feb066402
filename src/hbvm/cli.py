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
from .polybasis import require_integer
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


def _sections(width, **blocks):
    """CSV of named blocks of rows under a section,i,v1..v<width> header; the
    rows of a block are numbered i = 1, 2, ..."""
    rows = [["section", "i"] + [f"v{j+1}" for j in range(width)]]
    for name, block in blocks.items():
        rows.extend([name, i, *row] for i, row in enumerate(block, 1))
    return _rows_to_csv(rows)


def cmd_tableau(args):
    tab = build_tableau(args.k, args.s)
    _write(args.out, _sections(max(args.k, args.s), A=tab.A, b=[tab.b], c=[tab.c],
                               Xhat=tab.Xhat))
    return 0


def cmd_splitting(args):
    data = build_splitting(args.s)
    _write(args.out, _sections(data.s, chat=[data.chat], d=[[data.d]], L=data.L, U=data.U,
                               cond_residuals=[verify_conditions(data)]))
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


def _stats_row(args, traj, stats):
    """The values of the STATS_HEADER row of the run args describe, which made
    traj and stats. composition6 has no k, s, mu or tol (_plan checks none for
    it), so its row leaves them empty. sol_err, the error against the closed-form
    flow at traj's last time, exists for the harmonic oscillator only; a run
    that made no step leaves ham_err and sol_err empty."""
    is_hbvm = args.solver != "composition6"
    sol_err = ""
    if args.problem == "harmonic" and stats.steps:
        t, w = traj.times[-1], args.omega
        exact = np.array([np.cos(w * t), -w * np.sin(w * t)])
        sol_err = float(np.linalg.norm(traj.states[-1] - exact) / (1 + np.linalg.norm(exact)))
    return [
        "hbvm" if is_hbvm else "composition6",
        *((args.k, args.s) if is_hbvm else ("", "")),
        args.h, args.t_end, args.solver,
        *((args.mu, args.tol) if is_hbvm else ("", "")),
        stats.steps,
        stats.total_outer_iterations if stats.all_converged else "***",
        stats.total_inner_iterations,
        stats.max_hamiltonian_error if stats.steps else "",
        sol_err,
        stats.all_converged,
    ]


def _plan(args):
    """run() -> (traj, stats), the run args describe; every parameter of it
    is checked here (ValueError)."""
    require_integer("--every", args.every, lo=0)
    factory = PROBLEMS[args.problem]
    system = factory(args.omega) if args.problem == "harmonic" else factory()
    if args.solver == "composition6":
        return composition6_run(system, args.h, args.t_end, args.every)
    cfg = RunConfig(system=system, k=args.k, s=args.s, h=args.h,
                    t_end=args.t_end, options=_solve_options(args),
                    store_every=args.every)
    return lambda: integrate(cfg)


def cmd_integrate(args):
    traj, stats = _plan(args)()
    if args.out:
        header = [["t"] + [f"y{i+1}" for i in range(traj.states.shape[1])]]
        _write(args.out, _rows_to_csv(header + [[t, *y] for t, y in zip(traj.times, traj.states)]))
    (sys.stderr if args.out == "-" else sys.stdout).write(
        STATS_HEADER + "\n" + _rows_to_csv([_stats_row(args, traj, stats)]))
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
    planned = [_sweep_run(ln, block) for ln, block in _parse_sweep_spec(text)]
    rows = [_stats_row(run_args, *run()) for run_args, run in planned]
    _write(args.out, STATS_HEADER + "\n" + _rows_to_csv(rows))
    return 0


def _sweep_run(ln, block):
    """(args, run) of the [run] block whose header is at line ln. An error
    that names no line of its own, the missing h or any of _plan's, names ln."""
    args = _sweep_args(block)
    try:
        if args.h is None:
            raise ValueError("missing required sweep spec key 'h'")
        return args, _plan(args)
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
    t.set_defaults(func=cmd_tableau)

    sp = sub.add_parser("splitting", help="dump auxiliary abscissae, d_s, L, U and "
                                          "condition residuals as CSV")
    sp.add_argument("-s", type=int, required=True)
    sp.set_defaults(func=cmd_splitting)

    an = sub.add_parser("analyze", help="amplification factors per s (and per mu)")
    an.add_argument("-s", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    an.add_argument("--mu", type=int, nargs="+", default=[1, 2, 3])
    an.set_defaults(func=cmd_analyze)

    it = sub.add_parser("integrate", help="integrate one problem: trajectory CSV to "
                                          "--out, stats row to stdout (stderr with --out -)")
    for flag, parse, default, valid, required in _RUN_PARAMS.values():
        it.add_argument(flag, type=parse, default=default, choices=valid, required=required)
    it.add_argument("--every", type=int, default=1,
                    help="store every N-th state (0: endpoints only); stats always "
                         "use full resolution")
    it.set_defaults(func=cmd_integrate)

    sw = sub.add_parser("sweep", help="run all [run] blocks of a spec file, one "
                                      "stats row each")
    sw.add_argument("spec")
    sw.set_defaults(func=cmd_sweep)
    for cmd in sub.choices.values():
        cmd.add_argument("--out")
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
