"""The benchmark's workloads: their cases, inputs and correctness checks.

A workload is a list of cases run one after another. A case is one call into
the public API (``integrate`` or the ``hbvm analyze`` command); its outcome is
checked against the paper tables that the acceptance suite encodes, read from
``tests/test_acceptance.py`` so that the two never disagree.
"""
from __future__ import annotations

import ast
import dataclasses
import functools
import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import hbvm.cli
from hbvm import (
    HamiltonianSystem,
    RunConfig,
    SolveOptions,
    build_splitting,
    build_tableau,
    charged_particle,
    fpu_modified,
    integrate,
)

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

NAMES = ("paper-tables", "chain-scaling")

# charged particle: the acceptance-6 table at h = 0.1, s = 2. The horizon is
# shorter than the paper's t = 1e3; the energy error is a running maximum, so
# the table's values stay upper bounds.
CHARGED_KS = (2, 4, 6, 8, 10)
CHARGED_T_END = 10.0
# stiff chain: the acceptance-7 stepsize ladder with HBVM(6,3), mu = 2
FPU_HS = (0.5, 0.1, 0.05, 0.01)
FPU_T_END = 10.0
# generated chain: (spring pairs, steps) at h = 0.1 with HBVM(6,3)
CHAIN_SIZES = ((32, 20), (128, 4))
CHAIN_H = 0.1
CONSERVED_REL = 1e-10    # quartic H is conserved to rounding
AGREE_REL = 1e-10        # splitting and simplified Newton solve the same equations
TABLE_ABS = 5e-4         # amplification factors: tolerance of acceptance 2 and 3


@functools.cache
def paper_tables(path=ACCEPTANCE):
    """The literal reference tables assigned at the top level of the
    acceptance suite, without importing it (and so pytest and sympy)."""
    wanted = {"ENERGY_BY_K", "SPLITTING_COUNTS", "ASYMPTOTIC", "AVERAGED"}
    out = {}
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in wanted):
            out[node.targets[0].id] = ast.literal_eval(node.value)
    missing = wanted - set(out)
    if missing:
        raise RuntimeError(f"paper tables missing from {path}: {sorted(missing)}")
    return out


# ---------------------------------------------------------------------------
# cases

@dataclasses.dataclass(frozen=True)
class IntegrateCase:
    """One run of ``integrate`` on a fixed configuration."""

    name: str
    cfg: RunConfig

    @property
    def solver(self):
        return self.cfg.options.solver

    def __call__(self, tracer=None):
        if tracer is None:
            return integrate(self.cfg)
        cfg = dataclasses.replace(self.cfg, system=tracer.wrap_system(self.cfg.system))
        return tracer.wrap("integrator.integrate", integrate)(cfg)

    def outcome(self, raw):
        traj, st = raw
        sysm = self.cfg.system
        return {
            "converged": st.all_converged,
            "steps": st.steps,
            "outer": st.total_outer_iterations,
            "inner": st.total_inner_iterations,
            "grad_reported": st.gradient_evaluations,
            "hess_reported": st.hessian_evaluations,
            "energy_rel": st.max_hamiltonian_error / abs(sysm.H(sysm.y0)),
            "final": traj.states[-1],
        }

    def prebuild(self):
        """The builds a user pays before the first step."""
        build_tableau(self.cfg.k, self.cfg.s)
        if self.solver == "splitting":
            build_splitting(self.cfg.s)


@dataclasses.dataclass(frozen=True)
class AnalyzeCase:
    """``hbvm analyze`` in-process through ``hbvm.cli.main``."""

    name: str
    argv: tuple = ("analyze",)
    solver = "analyze"

    def __call__(self, tracer=None):
        main = hbvm.cli.main if tracer is None else tracer.wrap("convergence.analyze", hbvm.cli.main)
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(list(self.argv))
        if rc != 0:
            raise RuntimeError(f"hbvm {' '.join(self.argv)} exited with {rc}")
        return buf.getvalue()

    def outcome(self, raw):
        rows = {}
        for line in raw.splitlines()[1:]:
            s, mu, star, tilde, inf = line.split(",")
            rows[(int(s), mu)] = (float(star), float(tilde), float(inf))
        return {"converged": True, "rows": rows}

    def prebuild(self):
        for s in hbvm.cli.build_parser().parse_args(list(self.argv)).s:
            build_splitting(s)


# ---------------------------------------------------------------------------
# workloads

@dataclasses.dataclass
class Workload:
    name: str
    cases: list
    check: object  # outcomes {case name: outcome} -> {case name: [problems]}

    def prebuild(self):
        for case in self.cases:
            case.prebuild()


def build(name, seed):
    """The workload's inputs. The seed perturbs only the generated chain; the
    paper tables keep the paper's initial data so that they apply."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name == "chain-scaling":
        return _chain_scaling(seed)
    return _combined("paper-tables", paper_parts())


def paper_parts():
    """The charged-particle table, the stiff FPU ladder and the amplification
    table, each with its own check."""
    return [_charged_particle(), _fpu_stiff(), _amplification_table()]


def _combined(name, parts):
    """One workload running the parts' cases in turn; case names get the
    part's name as a prefix, and each part checks its own cases."""
    cases = [dataclasses.replace(c, name=f"{w.name}/{c.name}") for w in parts for c in w.cases]

    def check(out):
        problems = {}
        for w in parts:
            prefix = w.name + "/"
            mine = {n[len(prefix):]: o for n, o in out.items() if n.startswith(prefix)}
            for n, reasons in w.check(mine).items():
                problems[prefix + n] = reasons
        return problems

    return Workload(name, cases, check)


def _add(problems, case, text):
    problems.setdefault(case, []).append(text)


def _charged_particle():
    sysm = charged_particle()
    columns = (("splitting", "splitting"), ("fixed-point", "fixed_point"))
    cases = [
        IntegrateCase(f"{col}-k{k}", RunConfig(
            system=sysm, k=k, s=2, h=0.1, t_end=CHARGED_T_END,
            options=SolveOptions(solver=solver, mu=2), store_every=0))
        for col, solver in columns for k in CHARGED_KS
    ]

    def check(out):
        ref = paper_tables()["ENERGY_BY_K"]
        problems = {}
        for col, _ in columns:
            prev = None
            for k in CHARGED_KS:
                name = f"{col}-k{k}"
                if name not in out:
                    prev = None
                    continue
                err = out[name]["energy_rel"]
                if k in ref and err > 3 * ref[k]:
                    _add(problems, name, f"energy error {err:.2e} > 3 x {ref[k]:.1e}")
                if col == "splitting" and k == 10 and err > 1e-14:
                    _add(problems, name, f"energy error {err:.2e} > 1e-14")
                if prev is not None and err > prev:
                    _add(problems, name, f"energy error {err:.2e} not monotone in k")
                prev = err
        return problems

    return Workload("charged-particle", cases, check)


def _fpu_stiff():
    sysm = fpu_modified()
    cases = [
        IntegrateCase(f"h{h:g}", RunConfig(
            system=sysm, k=6, s=3, h=h, t_end=FPU_T_END,
            options=SolveOptions(solver="splitting", mu=2), store_every=0))
        for h in FPU_HS
    ]

    def check(out):
        counts = paper_tables()["SPLITTING_COUNTS"]
        problems = {}
        for case in cases:
            o = out.get(case.name)
            if o is None:
                continue
            _check_conserved(problems, case.name, o)
            # counts are for t = 10, the horizon used here
            ref = counts[case.cfg.h]
            if not ref / 2 <= o["outer"] <= 2 * ref:
                _add(problems, case.name, f"outer iterations {o['outer']} vs paper {ref}")
        return problems

    return Workload("fpu-stiff", cases, check)


def _check_conserved(problems, name, o):
    if o["energy_rel"] > CONSERVED_REL:
        _add(problems, name, f"quartic H drift {o['energy_rel']:.2e} > {CONSERVED_REL:g}")


def fpu_chain(n, rng):
    """FPU-type chain of n stiff spring pairs coupled by quartic soft springs.

    H = 1/2 |p|^2 + 1/4 sum w_i^2 (q_{2i} - q_{2i-1})^2
        + sum_{i=0..n} (q_{2i+1} - q_{2i})^4,   q_0 = q_{2n+1} = 0,
    m = 2n. The rng draws the stiff frequencies w_i in [10, 15) and perturbs
    the evenly spread initial positions; momenta start at zero. H is a quartic
    polynomial, so HBVM(6,3) conserves it to rounding. grad and hess are
    vectorized; hess returns the dense 2m x 2m matrix the solvers expect.
    """
    m = 2 * n
    w2 = (10.0 * (1.0 + 0.5 * rng.random(n))) ** 2
    odd, even = np.arange(1, m + 1, 2), np.arange(2, m + 2, 2)  # padded q_{2i-1}, q_{2i}
    lo, hi = np.arange(0, m + 1, 2), np.arange(1, m + 2, 2)     # padded q_{2i}, q_{2i+1}

    def pad(q):
        return np.concatenate([[0.0], q, [0.0]])

    def H(y):
        qe, p = pad(y[:m]), y[m:]
        return (0.5 * p @ p + 0.25 * np.sum(w2 * (qe[even] - qe[odd]) ** 2)
                + np.sum((qe[hi] - qe[lo]) ** 4))

    def grad(y):
        qe = pad(y[:m])
        g = np.zeros(m + 2)
        spring = 0.5 * w2 * (qe[even] - qe[odd])
        g[odd] -= spring
        g[even] += spring
        cube = 4.0 * (qe[hi] - qe[lo]) ** 3
        g[hi] += cube
        g[lo] -= cube
        return np.concatenate([g[1:-1], y[m:]])

    def hess(y):
        qe = pad(y[:m])
        Hq = np.zeros((m + 2, m + 2))
        for a, b, c in ((odd, even, 0.5 * w2), (lo, hi, 12.0 * (qe[hi] - qe[lo]) ** 2)):
            Hq[a, a] += c
            Hq[b, b] += c
            Hq[a, b] -= c
            Hq[b, a] -= c
        M = np.zeros((2 * m, 2 * m))
        M[:m, :m] = Hq[1:-1, 1:-1]
        M[m:, m:] = np.eye(m)
        return M

    q0 = np.arange(m) / (m - 1.0) + 0.05 * rng.standard_normal(m)
    return HamiltonianSystem(m=m, H=H, grad=grad, hess=hess,
                             y0=np.concatenate([q0, np.zeros(m)]),
                             label=f"fpu-chain-m{m}")


def _chain_scaling(seed):
    cases = []
    for n, steps in CHAIN_SIZES:
        sysm = fpu_chain(n, np.random.default_rng([seed, n]))
        for label, solver in (("splitting", "splitting"), ("newton", "simplified_newton")):
            cases.append(IntegrateCase(f"{label}-m{2 * n}", RunConfig(
                system=sysm, k=6, s=3, h=CHAIN_H, t_end=steps * CHAIN_H,
                options=SolveOptions(solver=solver, mu=2), store_every=0)))
    expected_steps = {f"{label}-m{2 * n}": steps for n, steps in CHAIN_SIZES
                      for label in ("splitting", "newton")}

    def check(out):
        problems = {}
        for name, o in out.items():
            _check_conserved(problems, name, o)
            if o["steps"] != expected_steps[name]:
                _add(problems, name, f"{o['steps']} steps, expected {expected_steps[name]}")
        for n, _ in CHAIN_SIZES:
            a, b = f"splitting-m{2 * n}", f"newton-m{2 * n}"
            if a in out and b in out:
                ya, yb = out[a]["final"], out[b]["final"]
                dev = np.max(np.abs(ya - yb)) / (1.0 + np.max(np.abs(yb)))
                if dev > AGREE_REL:
                    for name in (a, b):
                        _add(problems, name, f"splitting and Newton differ by {dev:.1e}")
        return problems

    return Workload("chain-scaling", cases, check)


def _amplification_table():
    case = AnalyzeCase("analyze")

    def check(out):
        asym, avg = paper_tables()["ASYMPTOTIC"], paper_tables()["AVERAGED"]
        problems = {}
        if case.name not in out:
            return problems
        rows = out[case.name]["rows"]
        expected = {(s, "inf"): (*asym[s], 0.0) for s in asym}
        expected.update({(s, str(mu)): v for s in avg for mu, v in avg[s].items()})
        for key, ref in expected.items():
            got = rows.get(key)
            if got is None:
                _add(problems, case.name, f"row s={key[0]} mu={key[1]} missing")
                continue
            for g, e in zip(got, ref):
                if (g > 1e-12) if e == 0.0 else (abs(g - e) > TABLE_ABS):
                    _add(problems, case.name, f"s={key[0]} mu={key[1]}: {g:.4f} vs {e:.4f}")
        return problems

    return Workload("amplification-table", [case], check)
