import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import hbvm.convergence as convergence
import hbvm.nlsolve as nlsolve
from hbvm.convergence import (
    _BLOCK,
    _GRID,
    _averaged_norm,
    _golden_max,
    amplification_report,
    iteration_matrix,
    spectral_radius,
)
from hbvm.hamiltonian import HamiltonianSystem, harmonic_oscillator
from hbvm.nlsolve import SolveOptions, StageProblem
from hbvm.tableau import build_tableau

# printed to 4 decimals; tolerance 5e-4 absorbs the rounding
TABLE2 = {2: (0.1340, 0.0774), 3: (0.2536, 0.0870), 4: (0.3291, 0.0859),
          5: (0.3709, 0.0654), 6: (0.4353, 0.0650)}

TABLE3 = {
    2: {1: (0.1340, 0.0774, 0.0981), 2: (0.1340, 0.0774, 0.0), 3: (0.1340, 0.0774, 0.0)},
    3: {1: (0.4492, 0.0874, 0.2606), 2: (0.3423, 0.0873, 0.1091), 3: (0.3087, 0.0872, 0.0)},
    4: {1: (0.4751, 0.1459, 0.4751), 2: (0.4098, 0.1200, 0.1757), 3: (0.3848, 0.1091, 0.1294)},
    5: {1: (0.8625, 0.2045, 0.7471), 2: (0.6775, 0.1385, 0.2872), 3: (0.5874, 0.1154, 0.1747)},
    6: {1: (3.0797, 0.2747, 1.4988), 2: (1.2780, 0.1356, 0.4929), 3: (0.9451, 0.1121, 0.2697)},
}


def test_iteration_matrix_at_zero(splittings):
    Z = iteration_matrix(0.0, splittings[3])
    assert np.max(np.abs(Z)) == 0.0


@pytest.mark.parametrize("s", range(2, 7))
def test_iteration_matrix_stiff_limit(s, splittings):
    # q (I - qL)^{-1} L -> -I as |q| -> inf, so Z(q) -> -(U - I)
    data = splittings[s]
    Z = iteration_matrix(1e10j, data)
    assert np.max(np.abs(Z + (data.U - np.eye(s)))) < 1e-6


def test_iteration_matrix_bounded_by_rho_star(splittings):
    Z = iteration_matrix(1j, splittings[2])
    assert spectral_radius(Z) <= 0.1340 + 5e-4


@pytest.mark.parametrize("s", range(2, 7))
def test_batched_scan_matches_scalar_bitwise(s, splittings):
    data = splittings[s]
    x = np.logspace(-3.0, 4.0, 300)
    Z = iteration_matrix(1j * x, data)
    assert Z.shape == (300, s, s)
    assert np.array_equal(Z, np.array([iteration_matrix(1j * xi, data) for xi in x]))
    r = spectral_radius(Z)
    assert r.shape == (300,)
    assert np.array_equal(r, [spectral_radius(iteration_matrix(1j * xi, data)) for xi in x])
    for mu in (1, 2, 3):
        a = _averaged_norm(Z, mu)
        assert np.array_equal(a, [_averaged_norm(iteration_matrix(1j * xi, data), mu) for xi in x])


def test_spectral_radius_of_single_matrix_is_a_float():
    assert isinstance(spectral_radius(np.eye(3)), float)


def test_spectral_radius_identity():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0)


def test_spectral_radius_nilpotent():
    M = np.triu(np.ones((4, 4)), k=1)
    assert spectral_radius(M) < 1e-12


def test_spectral_radius_companion():
    # roots of z^2 - z - 1: golden ratio and its conjugate
    M = np.array([[1.0, 1.0], [1.0, 0.0]])
    assert spectral_radius(M) == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)


@pytest.mark.parametrize("s", range(2, 7))
def test_rho_star_matches_table2(s, splittings):
    rep = amplification_report(splittings[s], mus=())
    star, xstar = rep.rho_star, rep.x_star
    assert star == pytest.approx(TABLE2[s][0], abs=5e-4)
    assert xstar > 0


@pytest.mark.parametrize("s", range(2, 7))
def test_rho_tilde_matches_table2(s, splittings):
    rep = amplification_report(splittings[s], mus=())
    assert rep.rho_tilde == pytest.approx(TABLE2[s][1], abs=5e-4)


def test_rho_tilde_small_q_expansion(splittings):
    data = splittings[4]
    x = 1e-6
    r = spectral_radius(iteration_matrix(1j * x, data))
    assert abs(r / x - amplification_report(data, mus=()).rho_tilde) < 1e-4


@pytest.mark.parametrize("s", range(2, 7))
def test_rho_inf_vanishes(s, splittings):
    assert amplification_report(splittings[s], mus=()).rho_inf < 1e-12


@pytest.mark.parametrize("s", range(2, 7))
@pytest.mark.parametrize("mu", [1, 2, 3])
def test_averaged_factors_match_table3(s, mu, splittings):
    _, *got = amplification_report(splittings[s], mus=(mu,)).averaged[0]
    exp = TABLE3[s][mu]
    for g, e in zip(got, exp):
        if e == 0.0:
            assert g < 1e-12
        else:
            assert g == pytest.approx(e, abs=5e-4)


def test_averaged_stiff_factor_zero_for_mu_ge_s(splittings):
    stiff = amplification_report(splittings[2], mus=(2,)).averaged[0][3]
    assert stiff < 1e-12


@pytest.mark.parametrize("s", range(2, 7))
def test_a_convergence(s, splittings):
    star = amplification_report(splittings[s], mus=()).rho_star
    assert star < 1.0


@pytest.mark.parametrize("s", [2, 3])
def test_averaged_converges_to_asymptotic(s, splittings):
    rep = amplification_report(splittings[s], mus=(64,))
    star, star64 = rep.rho_star, rep.averaged[0][1]
    assert abs(star64 - star) < 5e-3


def test_s6_needs_three_inner_iterations(splittings):
    star1, star3 = (a[1] for a in amplification_report(splittings[6], mus=(1, 3)).averaged)
    assert star1 > 1.0
    assert star3 < 1.0


def test_conjugate_symmetry(splittings):
    data = splittings[5]
    for x in np.logspace(-2, 3, 10):
        rp = spectral_radius(iteration_matrix(1j * x, data))
        rm = spectral_radius(iteration_matrix(-1j * x, data))
        assert abs(rp - rm) < 1e-12


def test_report_assembles(splittings):
    rep = amplification_report(splittings[3], mus=(1, 2, 3))
    assert rep.s == 3
    assert rep.rho_star == pytest.approx(0.2536, abs=5e-4)
    assert rep.rho_inf < 1e-12
    assert [mu for mu, *_ in rep.averaged] == [1, 2, 3]


@pytest.mark.parametrize("mus", [(), (1, 2, 3), tuple(range(1, 8))])
def test_report_evaluates_each_grid_block_once(mus, splittings, monkeypatch):
    # rho* and every rho*_mu come from one scan: one Z stack per grid block,
    # whatever mus is; the golden refinements evaluate single points
    sizes = []

    def counting(q, data):
        sizes.append(np.size(q))
        return iteration_matrix(q, data)

    monkeypatch.setattr(convergence, "iteration_matrix", counting)
    amplification_report(splittings[3], mus=mus)
    assert sizes.count(_BLOCK) == len(_GRID) // _BLOCK
    assert set(sizes) == {_BLOCK, 1}


@pytest.mark.parametrize("s", range(2, 7))
@pytest.mark.parametrize("mus", [(), (3,), (1, 2, 3), (2, 4)])
def test_report_computes_rho_only_where_its_maximum_can_be(s, mus, splittings, monkeypatch):
    # every ||Z^mu||^(1/mu) bounds rho(Z): the scan computes rho(Z) at fewer
    # than all grid points, and rho* and its argmax are those of rho(Z) at
    # every point, refined alike
    data = splittings[s]
    full = np.concatenate([spectral_radius(iteration_matrix(1j * _GRID[i:i + _BLOCK], data))
                           for i in range(0, len(_GRID), _BLOCK)])
    expected = convergence._maximize_on_axis(
        full, lambda x: spectral_radius(iteration_matrix(1j * x, data)))
    evaluated = []

    def counting(M):
        evaluated.append(1 if np.ndim(M) == 2 else len(M))
        return spectral_radius(M)

    monkeypatch.setattr(convergence, "spectral_radius", counting)
    rep = amplification_report(data, mus=mus)
    assert (rep.rho_star, rep.x_star) == expected
    assert sum(evaluated) < len(_GRID)


def test_report_blocks_bound_its_temporaries(splittings):
    # _BLOCK exists to bound the (N, s, s) temporaries of the scan: traced
    # peak about 0.6 MB at s = 6, three mus; one 2000-point batch reaches 3.6 MB
    amplification_report(splittings[6], mus=(1, 2, 3))  # warm-up: lazy allocations
    tracemalloc.start()
    try:
        amplification_report(splittings[6], mus=(1, 2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_report_rejects_mu_below_one_before_scanning(splittings, monkeypatch):
    monkeypatch.setattr(convergence, "iteration_matrix", None)  # must not be called
    with pytest.raises(ValueError, match="^require mu >= 1, got mu = 0$"):
        amplification_report(splittings[3], mus=(1, 0))


def _scipy_golden_max(f, lo, mid, hi, xtol):
    res = minimize_scalar(lambda x: -f(x), bracket=(lo, mid, hi), method="golden",
                          options={"xtol": xtol})
    return -res.fun, res.x


@pytest.mark.parametrize("s", range(2, 7))
def test_golden_max_is_scipys_golden_on_every_axis_refinement(s, splittings, monkeypatch):
    # every refinement of rho* and of rho*_mu, mu = 1..7, gives scipy's x
    # and maximum bit for bit
    calls = []

    def recording(f, lo, mid, hi, xtol):
        got = _golden_max(f, lo, mid, hi, xtol)
        calls.append((got, _scipy_golden_max(f, lo, mid, hi, xtol)))
        return got

    monkeypatch.setattr(convergence, "_golden_max", recording)
    amplification_report(splittings[s], mus=tuple(range(1, 8)))
    # at s = 4, rho*_1 is the stiff limit, reached at the end of the grid,
    # so there is nothing to refine
    assert len(calls) == (7 if s == 4 else 8)
    for got, ref in calls:
        assert got == ref


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(m=st.floats(-100.0, 100.0), w=st.floats(0.01, 100.0), a=st.floats(0.0, 10.0),
       b=st.floats(-1.0, 1.0), d_lo=st.floats(0.01, 10.0), d_hi=st.floats(0.01, 10.0),
       e=st.floats(-0.5, 0.5), xtol=st.sampled_from([1e-4, 1e-8, 1e-10, 1e-12]))
def test_golden_max_is_scipys_golden_on_concave_functions(m, w, a, b, d_lo, d_hi, e, xtol):
    # f(x) = -u^2 - a u^4 + b u, u = (x - m) / w, is strictly concave; the
    # bracket is m - d_lo w < m + e w < m + d_hi w, kept where it brackets
    def f(x):
        u = (x - m) / w
        return -u * u - a * u * u * u * u + b * u

    lo, mid, hi = m - d_lo * w, m + e * w, m + d_hi * w
    assume(lo < mid < hi and f(mid) > f(lo) and f(mid) > f(hi))
    assert _golden_max(f, lo, mid, hi, xtol) == _scipy_golden_max(f, lo, mid, hi, xtol)


def test_golden_max_stops_when_the_stop_test_holds_with_equality():
    # on (-1, 0, 1) the first interior points are -c and 0, c = 1 - 0.61803399,
    # so for xtol = 2 / c the first stop test |x3 - x0| <= xtol (|x1| + |x2|)
    # reads 2 <= 2: scipy returns mid without a step, where one step would
    # move to c, nearer the maximum at 0.3
    c = 1.0 - 0.61803399
    xtol = 2.0 / c
    assert xtol * c == 2.0

    def f(x):
        return -(x - 0.3) * (x - 0.3)

    ref = _scipy_golden_max(f, -1.0, 0.0, 1.0, xtol)
    assert ref[1] == 0.0
    assert _golden_max(f, -1.0, 0.0, 1.0, xtol) == ref


def test_import_hbvm_leaves_scipy_optimize_unloaded():
    # the golden search is in-house, so neither an import nor the analysis
    # (hbvm analyze, amplification_report) loads scipy.optimize
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "\n".join([
        "import contextlib, io, sys",
        "sys.path.insert(0, sys.argv[1])",
        "import hbvm",
        "print('scipy.optimize' in sys.modules)",
        "from hbvm.cli import main",
        "from hbvm.convergence import amplification_report",
        "from hbvm.splitting import build_splitting",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['analyze']) == 0",
        "amplification_report(build_splitting(3))",
        "print('scipy.optimize' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]


def test_splitting_contracts_at_the_predicted_rate(monkeypatch, splittings):
    # one HBVM(s+2, s) step of h = x on the harmonic oscillator, a linear
    # problem with eigenvalues +-i: the outer error contracts by Z(ix)^mu, so
    # successive increments shrink by about rho(Z(ix))^mu. The observed rate is
    # the median ratio over the second half of the iterations; with fewer
    # than 8 iterations the rounding floor comes before the rate settles
    norms = []
    iterate = nlsolve._iterate

    def recording(p, opts, step, cap):
        def recorded(x):
            x, delta = step(x)
            norms.append(float(np.abs(delta).max()))
            return x, delta
        return iterate(p, opts, recorded, cap)

    monkeypatch.setattr(nlsolve, "_iterate", recording)
    sysm = harmonic_oscillator(1.0)
    checked = []
    for s in range(2, 7):
        tab, data = build_tableau(s + 2, s), splittings[s]
        for mu in (1, 2, 3):
            for x in (0.05, 0.3, 1.0, 3.0, 30.0):
                norms.clear()
                res = nlsolve.splitting_solve(StageProblem(tab, sysm, sysm.y0, x), data,
                                              SolveOptions(mu=mu))
                assert res.converged and res.outer_iterations == len(norms)
                if len(norms) < 8:
                    continue
                ratios = np.array(norms[1:]) / np.array(norms[:-1])
                observed = np.median(ratios[len(ratios) // 2:])
                predicted = spectral_radius(iteration_matrix(1j * x, data)) ** mu
                checked.append((s, mu, x))
                assert observed == pytest.approx(predicted, rel=0.15), (s, mu, x)
    assert len(checked) >= 30


def _linear_chain(m):
    """H = |p|^2/2 + q^T K q / 2 with K tridiagonal: unit masses whose own
    frequencies 10^(a - 4) are coupled to their neighbours by springs of
    stiffness 0.1 sqrt(K_aa K_bb); a generic y0 excites every normal mode."""
    w = 10.0 ** (np.arange(m) - 4.0)
    off = -0.1 * w[:-1] * w[1:]
    K = np.diag(w**2) + np.diag(off, 1) + np.diag(off, -1)

    def hess(y):
        out = np.eye(2 * m)
        out[:m, :m] = K
        return out

    return HamiltonianSystem(
        m=m, H=lambda y: 0.5 * y[m:] @ y[m:] + 0.5 * y[:m] @ K @ y[:m],
        grad=lambda y: np.concatenate([y[..., :m] @ K, y[..., m:]], axis=-1), hess=hess,
        y0=np.concatenate([1.0 / w, np.zeros(m)]), label="linear-chain", stacked_grad=True), K


def test_banded_splitting_contracts_at_the_predicted_rate(monkeypatch, splittings):
    # the band sweep (one LU of the whole sweep matrix) runs the same
    # iteration: on a linear tridiagonal chain each normal mode of frequency
    # w_j contracts by Z(i h w_j)^mu, so the increments shrink by the largest
    # rho(Z(i h w_j))^mu. Frequencies a decade apart leave one mode dominant.
    # Increments are measured in the energy norm, sqrt(D_q K D_q + D_p D_p)
    # over the stages, which weighs q and p of each mode alike; the max-norm
    # of a stiff mode sees only its momenta, whose ratios swing with the
    # phase of the complex dominant eigenvalue of Z
    m = 8
    sysm, K = _linear_chain(m)
    w = np.sqrt(np.linalg.eigvalsh(K))
    norms = []
    iterate = nlsolve._iterate

    def recording(p, opts, step, cap):
        def recorded(x):
            x, delta = step(x)
            norms.append(np.sqrt(np.sum((delta[:, :m] @ K) * delta[:, :m])
                                 + np.sum(delta[:, m:] ** 2)))
            return x, delta
        return iterate(p, opts, recorded, cap)

    monkeypatch.setattr(nlsolve, "_iterate", recording)
    checked = set()
    for s in (2, 3, 6):
        tab, data = build_tableau(s + 2, s), splittings[s]
        for h in (0.3, 1.0, 3.0, 10.0, 30.0):
            assert isinstance(nlsolve.sweep_factor(sysm.hess(sysm.y0), h, data),
                              nlsolve._BandSweep)
            rho = max(spectral_radius(iteration_matrix(1j * h * wj, data)) for wj in w)
            for mu in (1, 2, 3):
                norms.clear()
                res = nlsolve.splitting_solve(StageProblem(tab, sysm, sysm.y0, h), data,
                                              SolveOptions(mu=mu))
                assert res.converged and res.outer_iterations == len(norms)
                if len(norms) < 8:
                    continue
                ratios = np.array(norms[1:]) / np.array(norms[:-1])
                observed = np.median(ratios[len(ratios) // 2:])
                checked.add((s, mu))
                assert observed == pytest.approx(rho**mu, rel=0.15), (s, mu, h)
    # every (s, mu) but (2, 3), whose rate 0.13^3 reaches the floor in 5 iterations
    assert checked == {(s, mu) for s in (2, 3, 6) for mu in (1, 2, 3)} - {(2, 3)}
