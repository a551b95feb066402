"""End-to-end acceptance suite: one printed PASS/FAIL line per criterion.

Every test prints its verdict directly to the terminal (outside pytest's
capture) before asserting, so a full run always shows the scoreboard.
Long-running refinements of criteria 7 and 9 carry the 'optional' marker and
are deselected by default; the mandatory parts run in every suite invocation.
"""
import time

import numpy as np
import pytest
from composition6 import composition6_stormer_verlet  # demos/composition6.py

from hbvm.cli import main as cli_main
from hbvm.convergence import amplification_report
from hbvm.hamiltonian import charged_particle, fpu_modified, harmonic_oscillator
from hbvm.integrator import RunConfig, integrate
from hbvm.nlsolve import (
    SolveOptions,
    StageProblem,
    simplified_newton_solve,
    splitting_solve,
)
from hbvm.polybasis import legendre_basis
from hbvm.splitting import build_splitting, verify_conditions
from hbvm.tableau import build_tableau
from tests.test_integrator import order_errors
from tests.test_tableau import gauss_collocation_matrix

D_TABLE = {2: 0.28867513459481288, 3: 0.20274006651911334,
           4: 0.15619699684601279, 5: 0.12702337351164259,
           6: 0.10702845478806510}

ASYMPTOTIC = {2: (0.1340, 0.0774), 3: (0.2536, 0.0870), 4: (0.3291, 0.0859),
              5: (0.3709, 0.0654), 6: (0.4353, 0.0650)}

AVERAGED = {
    2: {1: (0.1340, 0.0774, 0.0981), 2: (0.1340, 0.0774, 0.0), 3: (0.1340, 0.0774, 0.0)},
    3: {1: (0.4492, 0.0874, 0.2606), 2: (0.3423, 0.0873, 0.1091), 3: (0.3087, 0.0872, 0.0)},
    4: {1: (0.4751, 0.1459, 0.4751), 2: (0.4098, 0.1200, 0.1757), 3: (0.3848, 0.1091, 0.1294)},
    5: {1: (0.8625, 0.2045, 0.7471), 2: (0.6775, 0.1385, 0.2872), 3: (0.5874, 0.1154, 0.1747)},
    6: {1: (3.0797, 0.2747, 1.4988), 2: (1.2780, 0.1356, 0.4929), 3: (0.9451, 0.1121, 0.2697)},
}

# charged particle, h = 0.1, t = 1e3, s = 2: relative energy error per k,
# and per-column iteration totals (fixed-point / splitting outer)
ENERGY_BY_K = {2: 1.6e-3, 4: 8.3e-6, 6: 5.9e-9, 8: 1.7e-12}
ITER_TOTALS = (8.0e4, 4.8e4)

# stiff chain, HBVM(6,3), t = 10: splitting outer iterations per stepsize
SPLITTING_COUNTS = {1e-4: 856691, 5e-4: 299586, 1e-3: 141506, 5e-3: 19148,
                    1e-2: 8955, 5e-2: 1556, 1e-1: 864, 5e-1: 258}
FIXED_POINT_FINE = {1e-4: 2278912}


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        tail = f"  [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:>3} {name}: {'PASS' if ok else 'FAIL'}{tail}")
        assert ok, f"criterion {num} ({name}) failed {detail}"
    return _report


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_01_splitting_constants(report):
    def check():
        for s in range(2, 7):
            data = build_splitting(s)
            if np.max(np.abs(np.diag(data.L) - D_TABLE[s])) > 1e-10:
                return False
            if np.max(np.abs(data.Ahat - data.L @ data.U)) > 1e-12:
                return False
            if np.max(verify_conditions(data)) > 1e-11:
                return False
        return True
    ok, dt = _timed(check)
    report(1, "constant-diagonal LU splitting s=2..6", ok, f"{dt:.2f}s")


def test_02_asymptotic_amplification(report):
    def check():
        worst = 0.0
        for s in range(2, 7):
            data = build_splitting(s)
            rep = amplification_report(data, mus=())
            worst = max(worst, abs(rep.rho_star - ASYMPTOTIC[s][0]),
                        abs(rep.rho_tilde - ASYMPTOTIC[s][1]))
        return worst
    worst, dt = _timed(check)
    report(2, "asymptotic amplification factors", worst < 5e-4,
           f"max dev {worst:.1e}, {dt:.2f}s")


def test_03_averaged_amplification(report):
    def check():
        worst = 0.0
        for s in range(2, 7):
            data = build_splitting(s)
            for mu, *got in amplification_report(data, mus=(1, 2, 3)).averaged:
                for g, e in zip(got, AVERAGED[s][mu]):
                    if e == 0.0:
                        if g > 1e-12:
                            return np.inf
                    else:
                        worst = max(worst, abs(g - e))
        return worst
    worst, dt = _timed(check)
    report(3, "averaged amplification factors (45 values)", worst < 5e-4,
           f"max dev {worst:.1e}, {dt:.2f}s")


def test_04_gauss_collocation_recovered(report):
    def check():
        return max(np.max(np.abs(build_tableau(s, s).A - gauss_collocation_matrix(s)))
                   for s in range(2, 5))
    worst, dt = _timed(check)
    report(4, "k=s tableau is Gauss collocation", worst < 1e-12,
           f"max dev {worst:.1e}, {dt:.2f}s")


def test_05_convergence_order(report):
    sysm = harmonic_oscillator(1.0)
    exact = lambda t: np.array([np.cos(t), -np.sin(t)])

    def check():
        details = []
        ok = True
        for k, s, h0 in ((2, 1, 0.08), (4, 2, 0.16), (6, 3, 0.4)):
            errs = order_errors(sysm, k, s, [h0, h0 / 2, h0 / 4], 2.0, exact)
            target = 2.0 ** (2 * s)
            for e1, e2 in zip(errs, errs[1:]):
                ratio = e1 / e2
                details.append(f"(k={k},s={s}) {ratio:.1f}/{target:.0f}")
                ok = ok and abs(ratio / target - 1.0) <= 0.20
        return ok, "; ".join(details)
    (ok, detail), dt = _timed(check)
    report(5, "order 2s under stepsize halving", ok, f"{detail}, {dt:.2f}s")


@pytest.mark.slow
def test_06_charged_particle_energy_and_iterations(report):
    sysm = charged_particle()
    H0 = abs(sysm.H(sysm.y0))

    def check():
        errs, fp_tot, sp_tot = {}, {}, {}
        for k in (2, 4, 6, 8, 10):
            fp_cfg = RunConfig(system=sysm, k=k, s=2, h=0.1, t_end=1e3,
                               options=SolveOptions(solver="fixed_point"),
                               store_every=0)
            _, fp = integrate(fp_cfg)
            sp_cfg = RunConfig(system=sysm, k=k, s=2, h=0.1, t_end=1e3,
                               options=SolveOptions(solver="splitting", mu=2),
                               store_every=0)
            _, sp = integrate(sp_cfg)
            if not (fp.all_converged and sp.all_converged):
                return False, f"k={k} did not converge"
            errs[k] = sp.max_hamiltonian_error / H0
            fp_tot[k] = fp.total_outer_iterations
            sp_tot[k] = sp.total_outer_iterations
        for k, ref in ENERGY_BY_K.items():
            if not (ref / 3 <= errs[k] <= ref * 3):
                return False, f"energy error k={k}: {errs[k]:.2e} vs {ref:.1e}"
        if errs[10] > 1e-14:
            return False, f"energy error k=10: {errs[10]:.2e} > 1e-14"
        prev = np.inf
        for k in (2, 4, 6, 8, 10):
            if errs[k] > prev:
                return False, f"energy error not monotone at k={k}"
            prev = errs[k]
        for k in (2, 4, 6, 8, 10):
            if not (ITER_TOTALS[0] / 2 <= fp_tot[k] <= ITER_TOTALS[0] * 2):
                return False, f"fixed-point total k={k}: {fp_tot[k]}"
            if not (ITER_TOTALS[1] / 2 <= sp_tot[k] <= ITER_TOTALS[1] * 2):
                return False, f"splitting total k={k}: {sp_tot[k]}"
        return True, (f"k=10 energy {errs[10]:.1e}, fp {fp_tot[2]}..{fp_tot[10]}, "
                      f"split {sp_tot[2]}..{sp_tot[10]}")
    (ok, detail), dt = _timed(check)
    report(6, "magnetic-field benchmark energy/iteration table", ok,
           f"{detail}, {dt:.1f}s")


@pytest.mark.slow
def test_07_stiff_chain_solver_robustness(report):
    sysm = fpu_modified()

    def check():
        cfg = RunConfig(system=sysm, k=6, s=3, h=5e-4, t_end=10.0,
                        options=SolveOptions(solver="fixed_point"), store_every=0)
        _, fp = integrate(cfg)
        if fp.all_converged:
            return False, "fixed point unexpectedly converged at h=5e-4"
        details = []
        for h in (1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1):
            cfg = RunConfig(system=sysm, k=6, s=3, h=h, t_end=10.0,
                            options=SolveOptions(solver="splitting", mu=2),
                            store_every=0)
            _, sp = integrate(cfg)
            ref = SPLITTING_COUNTS[h]
            if not sp.all_converged:
                return False, f"splitting failed at h={h}"
            if not (ref / 2 <= sp.total_outer_iterations <= ref * 2):
                return False, f"h={h}: {sp.total_outer_iterations} vs {ref}"
            details.append(f"{sp.total_outer_iterations}/{ref}")
        return True, "outer/ref: " + " ".join(details)
    (ok, detail), dt = _timed(check)
    report(7, "stiff chain: fixed point fails, splitting tracks counts", ok,
           f"{detail}, {dt:.1f}s")


@pytest.mark.optional
@pytest.mark.parametrize("h", [1e-4, 5e-4])
def test_07b_stiff_chain_finest_steps(h, report):
    sysm = fpu_modified()

    def check():
        cfg = RunConfig(system=sysm, k=6, s=3, h=h, t_end=10.0,
                        options=SolveOptions(solver="splitting", mu=2),
                        store_every=0)
        _, sp = integrate(cfg)
        ref = SPLITTING_COUNTS[h]
        return (sp.all_converged and ref / 2 <= sp.total_outer_iterations <= ref * 2,
                f"h={h}: {sp.total_outer_iterations} vs {ref}")
    (ok, detail), dt = _timed(check)
    report("7b", "stiff chain splitting at finest stepsizes", ok, f"{detail}, {dt:.0f}s")


@pytest.mark.optional
def test_07c_stiff_chain_fixed_point_fine_step(report):
    sysm = fpu_modified()

    def check():
        cfg = RunConfig(system=sysm, k=6, s=3, h=1e-4, t_end=10.0,
                        options=SolveOptions(solver="fixed_point"), store_every=0)
        _, fp = integrate(cfg)
        ref = FIXED_POINT_FINE[1e-4]
        return (fp.all_converged and ref / 2 <= fp.total_outer_iterations <= ref * 2,
                f"{fp.total_outer_iterations} vs {ref}")
    (ok, detail), dt = _timed(check)
    report("7c", "stiff chain fixed point at h=1e-4", ok, f"{detail}, {dt:.0f}s")


def test_08_exact_energy_conservation(report):
    sysm = fpu_modified()

    def check():
        cfg = RunConfig(system=sysm, k=6, s=3, h=0.1, t_end=10.0,
                        options=SolveOptions(solver="splitting", mu=10, tol=1e-13),
                        store_every=0)
        _, st = integrate(cfg)
        rel = st.max_hamiltonian_error / abs(sysm.H(sysm.y0))
        return st.all_converged and rel <= 1e-10, f"rel energy drift {rel:.1e}"
    (ok, detail), dt = _timed(check)
    report(8, "quartic energy conserved to rounding", ok, f"{detail}, {dt:.2f}s")


def test_09_composition_baseline_divergence(report):
    sysm = fpu_modified()

    def check():
        for h in (2e-4, 4e-4, 5e-4):
            st = composition6_stormer_verlet(sysm, h, 10.0)
            if not st.diverged:
                return False, f"no divergence at h={h}"
        return True, "diverged at h=2e-4, 4e-4, 5e-4"
    (ok, detail), dt = _timed(check)
    report(9, "explicit composition diverges past stability limit", ok,
           f"{detail}, {dt:.2f}s")


@pytest.mark.optional
def test_09b_composition_baseline_accuracy(report):
    sysm = fpu_modified()

    def check():
        st = composition6_stormer_verlet(sysm, 1e-5, 10.0)
        rel = st.max_hamiltonian_error / abs(sysm.H(sysm.y0))
        return (not st.diverged) and 9.2e-8 / 5 <= rel <= 9.2e-8 * 5, f"rel {rel:.2e}"
    (ok, detail), dt = _timed(check)
    report("9b", "explicit composition energy error at h=1e-5", ok,
           f"{detail}, {dt:.0f}s")


def test_10_splitting_newton_equivalence(report):
    rng = np.random.default_rng(1234)
    cases = ([(charged_particle(), 0.1, 0.1)] * 7
             + [(fpu_modified(), 0.05, 5e-3)] * 7
             + [(harmonic_oscillator(2.0), 0.3, 0.05)] * 6)

    def check():
        worst = 0.0
        for sysm, spread, h in cases:
            y = sysm.y0 + spread * rng.standard_normal(sysm.dim)
            p = StageProblem(build_tableau(6, 3), sysm, y, h)
            nw = simplified_newton_solve(p, SolveOptions())
            sp = splitting_solve(p, build_splitting(3),
                                 SolveOptions(mu=50, max_outer=200))
            if not (nw.converged and sp.converged):
                return np.inf
            y1n = y + h * nw.gamma[0]
            y1s = y + h * sp.gamma[0]
            worst = max(worst, np.max(np.abs(y1s - y1n)) / (1.0 + np.max(np.abs(y1n))))
        return worst
    worst, dt = _timed(check)
    report(10, "splitting agrees with simplified Newton on 20 random steps",
           worst < 1e-10, f"max rel dev {worst:.1e}, {dt:.2f}s")


def test_11_property_invariants(report, tmp_path):
    def check():
        # structural invariants
        for k, s in ((3, 1), (5, 2), (6, 3), (8, 4)):
            tab = build_tableau(k, s)
            if np.max(np.abs(tab.A @ np.ones(k) - tab.c)) > 1e-13:
                return False, f"row sums ({k},{s})"
            Ps = legendre_basis(tab.c, s)
            if np.max(np.abs(Ps.T @ np.diag(tab.b) @ Ps - np.eye(s))) > 1e-13:
                return False, f"orthonormality ({k},{s})"
        for s in range(2, 7):
            data = build_splitting(s)
            if np.max(np.abs(np.linalg.matrix_power(data.U - np.eye(s), s))) > 1e-12:
                return False, f"nilpotency s={s}"
            back = np.linalg.solve(data.Phat, data.Phat)
            if np.max(np.abs(back - np.eye(s))) > 1e-12:
                return False, f"basis round trip s={s}"
        # CSV determinism: two identical invocations, byte-identical output
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            rc = cli_main(["analyze", "-s", "3", "--mu", "1", "2",
                           "--out", str(f)])
            if rc != 0:
                return False, "analyze command failed"
        if f1.read_bytes() != f2.read_bytes():
            return False, "analyze output not deterministic"
        return True, "structure, nilpotency, CSV determinism"
    (ok, detail), dt = _timed(check)
    report(11, "module invariants and deterministic CSV", ok, f"{detail}, {dt:.2f}s")
