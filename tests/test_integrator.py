import dataclasses
import warnings

import numpy as np
import pytest

from hbvm.convergence import amplification_report
from hbvm.hamiltonian import (
    HamiltonianSystem,
    charged_particle,
    fpu_modified,
    harmonic_oscillator,
    separable_hessian,
)
from hbvm.integrator import (
    DIVERGENCE_THRESHOLD,
    RunConfig,
    RunStats,
    _march,
    composition6_stormer_verlet,
    integrate,
)
from hbvm.nlsolve import SolveOptions
from hbvm.polybasis import gauss_rule, xi
from hbvm.splitting import build_splitting
from hbvm.tableau import build_Xhat, build_tableau, det_Xs


def _harmonic_exact(omega):
    return lambda t: np.array([np.cos(omega * t), -omega * np.sin(omega * t)])


def order_errors(system, k, s, h_list, t_end, reference):
    """Global error at the end of a splitting run (mu = 10, endpoints only) for
    each h in h_list; under halving the ratios approach 2^(2s). reference maps
    t to the exact state; a run that overshoots t_end is compared where it ends."""
    errors = []
    for h in h_list:
        cfg = RunConfig(system=system, k=k, s=s, h=h, t_end=t_end,
                        options=SolveOptions(solver="splitting", mu=10), store_every=0)
        traj, stats = integrate(cfg)
        assert stats.all_converged, f"the splitting failed at h = {h}"
        errors.append(float(np.linalg.norm(traj.states[-1] - reference(traj.times[-1]))))
    return errors


def test_run_config_validation():
    sysm = harmonic_oscillator()
    with pytest.raises(ValueError):
        RunConfig(system=sysm, k=2, s=2, h=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        RunConfig(system=sysm, k=1, s=2, h=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        RunConfig(system=sysm, k=2, s=0, h=0.1, t_end=1.0)


_harmonic = harmonic_oscillator()


def _comp6(h=0.1, t_end=1.0, store_every=1):
    return composition6_stormer_verlet(_harmonic, h, t_end, store_every=store_every)


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda: RunConfig(_harmonic, 2, 2, np.nan, 1.0), "h = nan", id="run-h-nan"),
    pytest.param(lambda: RunConfig(_harmonic, 2, 2, np.inf, 1.0), "h = inf", id="run-h-inf"),
    pytest.param(lambda: RunConfig(_harmonic, 2, 2, 0.1, np.nan), "t_end = nan",
                 id="run-t_end-nan"),
    pytest.param(lambda: RunConfig(_harmonic, 2, 2, 0.1, np.inf), "t_end = inf",
                 id="run-t_end-inf"),
    pytest.param(lambda: RunConfig(_harmonic, 2, 2, 0.1, 1.0, store_every=-1),
                 "store_every = -1", id="run-store_every-negative"),
    pytest.param(lambda: RunConfig(_harmonic, 2, 2, 1e-310, 1e300),
                 r"^require a finite step count t_end / h, got h = 1e-310, t_end = 1e\+300$",
                 id="run-step-count-overflows"),
    pytest.param(lambda: SolveOptions(tol=np.nan), "tol = nan", id="options-tol-nan"),
    pytest.param(lambda: SolveOptions(tol=np.inf), "tol = inf", id="options-tol-inf"),
    pytest.param(lambda: SolveOptions(mu=0), "^require mu >= 1, got mu = 0$", id="options-mu-0"),
    pytest.param(lambda: SolveOptions(mu=-1), "^require mu >= 1, got mu = -1$",
                 id="options-mu-negative"),
    pytest.param(lambda: SolveOptions(max_outer=0), "^require max_outer >= 1, got max_outer = 0$",
                 id="options-max_outer-0"),
    pytest.param(lambda: _comp6(h=np.nan), "h = nan", id="composition6-h-nan"),
    pytest.param(lambda: _comp6(h=np.inf), "h = inf", id="composition6-h-inf"),
    pytest.param(lambda: _comp6(t_end=np.nan), "t_end = nan", id="composition6-t_end-nan"),
    pytest.param(lambda: _comp6(t_end=np.inf), "t_end = inf", id="composition6-t_end-inf"),
    pytest.param(lambda: _comp6(store_every=-1), "store_every = -1",
                 id="composition6-store_every-negative"),
    pytest.param(lambda: _comp6(h=np.float64(1e-310), t_end=np.float64(1e300)),
                 r"^require a finite step count t_end / h, got h = 1e-310, t_end = 1e\+300$",
                 id="composition6-step-count-overflows"),
    pytest.param(lambda: harmonic_oscillator(np.nan), "omega = nan", id="harmonic-omega-nan"),
    pytest.param(lambda: harmonic_oscillator(np.inf), "omega = inf", id="harmonic-omega-inf"),
    pytest.param(lambda: RunConfig(_harmonic, 60, 2, 0.1, 1.0),
                 "^require 1 <= k <= 50, got k = 60$", id="run-k-above-max-nodes"),
    pytest.param(lambda: RunConfig(_harmonic, 8, 7, 0.1, 1.0),
                 "^the splitting requires 1 <= s <= 6, got s = 7$", id="run-splitting-s-7"),
    pytest.param(lambda: RunConfig(_harmonic, 1, 2, 0.1, 1.0),
                 "^require k >= s >= 1, got k = 1, s = 2$", id="run-k-below-s"),
    pytest.param(lambda: RunConfig(_harmonic, 2, 0, 0.1, 1.0),
                 "^require k >= s >= 1, got k = 2, s = 0$", id="run-s-0"),
    pytest.param(lambda: dataclasses.replace(_harmonic, m=0, y0=np.zeros(0)),
                 "^require m >= 1, got m = 0$", id="system-m-0"),
    pytest.param(lambda: xi(0), "^require i >= 1, got i = 0$", id="xi-i-0"),
    pytest.param(lambda: build_Xhat(0), "^require s >= 1, got s = 0$", id="Xhat-s-0"),
    pytest.param(lambda: det_Xs(0), "^require s >= 1, got s = 0$", id="det_Xs-s-0"),
    pytest.param(lambda: amplification_report(build_splitting(2), (0, 1)),
                 "^require mu >= 1, got mu = 0$", id="report-first-mu-0"),
    pytest.param(lambda: SolveOptions(solver="nope"),
                 "^unknown solver 'nope'; expected one of fixed_point, simplified_newton, "
                 "splitting$", id="options-solver-unknown"),
])
def test_nonfinite_and_negative_run_parameters_are_named(make, message):
    # NaN passes every `x <= 0` test and inf overflows the step count, so
    # both are rejected up front, with the parameter in the message
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda: SolveOptions(mu=2.5), "^require an integer mu, got mu = 2.5$",
                 id="options-mu"),
    pytest.param(lambda: SolveOptions(max_outer=2.5),
                 "^require an integer max_outer, got max_outer = 2.5$", id="options-max_outer"),
    pytest.param(lambda: RunConfig(_harmonic, 4.0, 2, 0.1, 1.0),
                 "^require an integer k, got k = 4.0$", id="run-k"),
    pytest.param(lambda: RunConfig(_harmonic, 4, 2.0, 0.1, 1.0),
                 "^require an integer s, got s = 2.0$", id="run-s"),
    pytest.param(lambda: RunConfig(_harmonic, True, 1, 0.1, 1.0),
                 "^require an integer k, got k = True$", id="run-k-bool"),
    pytest.param(lambda: SolveOptions(mu=True), "^require an integer mu, got mu = True$",
                 id="options-mu-bool"),
    pytest.param(lambda: RunConfig(_harmonic, 4, 2, 0.1, 1.0, store_every=1.5),
                 "^require an integer store_every, got store_every = 1.5$",
                 id="run-store_every"),
    pytest.param(lambda: _comp6(store_every=1.5), "got store_every = 1.5$",
                 id="composition6-store_every"),
    pytest.param(lambda: gauss_rule(4.0), "^require an integer k, got k = 4.0$", id="gauss-k"),
    pytest.param(lambda: build_tableau(4.0, 2), "^require an integer k, got k = 4.0$",
                 id="tableau-k"),
    pytest.param(lambda: build_tableau(4, 2.0), "^require an integer s, got s = 2.0$",
                 id="tableau-s"),
    pytest.param(lambda: build_splitting(2.0), "^require an integer s, got s = 2.0$",
                 id="splitting-s"),
    pytest.param(lambda: build_Xhat(2.5), "^require an integer s, got s = 2.5$", id="Xhat-s"),
    pytest.param(lambda: det_Xs(3.0), "^require an integer s, got s = 3.0$", id="det_Xs-s"),
    pytest.param(lambda: build_splitting(2.5), "^require an integer s, got s = 2.5$",
                 id="splitting-s-fractional"),
    pytest.param(lambda: amplification_report(build_splitting(2), (1.5,)),
                 "^require an integer mu, got mu = 1.5$", id="report-mu"),
    pytest.param(lambda: dataclasses.replace(_harmonic, m=1.5, y0=np.zeros(3)),
                 "^require an integer m, got m = 1.5$", id="system-m"),
    pytest.param(lambda: dataclasses.replace(_harmonic, m=True),
                 "^require an integer m, got m = True$", id="system-m-bool"),
    pytest.param(lambda: RunConfig(_harmonic, 4, 2, 0.1, 1.0, store_every=True),
                 "^require an integer store_every, got store_every = True$",
                 id="run-store_every-bool"),
    pytest.param(lambda: _comp6(store_every=True),
                 "^require an integer store_every, got store_every = True$",
                 id="composition6-store_every-bool"),
    pytest.param(lambda: xi(1.5), "^require an integer i, got i = 1.5$", id="xi-i"),
])
def test_non_integral_counts_are_rejected_by_name(make, message):
    # a float count passed the range checks and then failed mid-run (range,
    # np.zeros, an integer power) or stored a wrong grid
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("factory,dim,n", [(harmonic_oscillator, 2, 3), (fpu_modified, 28, 27)])
@pytest.mark.parametrize("run", [
    lambda sysm: integrate(RunConfig(sysm, 2, 1, 0.1, 0.2)),
    lambda sysm: composition6_stormer_verlet(sysm, 0.1, 0.2),
], ids=["integrate", "composition6"])
def test_a_y0_not_of_length_2m_is_rejected_by_name(factory, dim, n, run):
    # HamiltonianSystem checks y0 when it is made; unchecked, a run failed in H
    # on an unpacking, at step 1 on the dimension, or in a substep on a broadcast
    message = rf"^require y0 of shape \(2m,\) = \({dim},\), got \({n},\)$"
    with pytest.raises(ValueError, match=message):
        run(dataclasses.replace(factory(), y0=np.zeros(n)))


def test_numpy_integer_counts_are_accepted():
    i = np.int64
    cfg = RunConfig(_harmonic, i(4), i(2), 0.1, 0.3, SolveOptions(mu=i(2), max_outer=i(50)),
                    store_every=i(2))
    traj, stats = integrate(cfg)
    assert stats.all_converged and stats.steps == 3
    assert np.allclose(traj.times, [0.0, 0.2, 0.3])


@pytest.mark.parametrize("solver", ["fixed_point", "simplified_newton"])
def test_solvers_without_the_splitting_accept_s_7(solver):
    # only the splitting needs abscissae, which are tabulated up to s = 6
    cfg = RunConfig(_harmonic, 8, 7, 0.1, 0.2, SolveOptions(solver=solver))
    assert cfg.splitting is None and integrate(cfg)[1].all_converged


@pytest.mark.parametrize("solver", ["fixed_point", "simplified_newton", "splitting"])
@pytest.mark.parametrize("factory,k,s,h", [(harmonic_oscillator, 4, 2, 0.1),
                                           (fpu_modified, 6, 3, 0.01)])
def test_integrate_builds_nothing(monkeypatch, factory, k, s, h, solver):
    # the config builds the tableau and the splitting data once; every run of
    # it, the first included, reuses them
    import hbvm.integrator

    cfg = RunConfig(factory(), k, s, h, 5 * h, SolveOptions(solver=solver))
    traj, stats = integrate(cfg)

    def refuse(*args):
        raise AssertionError("integrate built coefficients")

    monkeypatch.setattr(hbvm.integrator, "build_tableau", refuse)
    monkeypatch.setattr(hbvm.integrator, "build_splitting", refuse)
    for _ in range(2):
        again, again_stats = integrate(cfg)
        assert again.states[-1].tobytes() == traj.states[-1].tobytes()
        assert dataclasses.asdict(again_stats) == dataclasses.asdict(stats)


def test_singular_step_matrix_ends_the_step_before_it_iterates():
    # H = (p^2 - q^2) / 2, HBVM(2,1), the splitting at h = 2: c = h d_1 = 1,
    # so S = 1 + c^2 V'' = 0; the step fails as data, without a warning
    saddle = HamiltonianSystem(m=1, H=lambda y: 0.5 * (y[1] ** 2 - y[0] ** 2),
                               grad=lambda y: np.array([-y[0], y[1]]),
                               hess=lambda y: np.diag([-1.0, 1.0]),
                               y0=np.array([1.0, 0.0]), label="saddle")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, stats = integrate(RunConfig(saddle, 2, 1, 2.0, 2.0))
    assert (stats.steps, stats.total_outer_iterations, stats.factorizations) == (0, 0, 1)
    assert not stats.all_converged and stats.failed_at == 0.0
    assert np.array_equal(traj.states, [saddle.y0])


def test_step_count_and_grid():
    cfg = RunConfig(system=harmonic_oscillator(), k=2, s=2, h=0.1, t_end=1.0)
    traj, stats = integrate(cfg)
    assert stats.steps == 10
    assert traj.times == pytest.approx(np.arange(11) * 0.1)
    assert traj.states.shape == (11, 2)


def test_store_every_zero_keeps_endpoints():
    cfg = RunConfig(system=harmonic_oscillator(), k=2, s=2, h=0.1, t_end=1.0,
                    store_every=0)
    traj, _ = integrate(cfg)
    assert len(traj.times) == 2
    assert traj.times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("h,t_end,steps", [
    (0.001, 32.005, 32005),  # t_end / h rounds above 32005
    (0.01, 256.16, 25616),
    (1.0, 1e-13, 1),  # t_end / h below an absolute 1e-12 slack
])
def test_step_count_is_ceil_of_t_end_over_h(h, t_end, steps):
    traj, stats = _march(_harmonic, h, t_end, 0, lambda y, stats: y, RunStats())
    assert stats.steps == steps
    assert traj.times.tolist() == [0.0, steps * h]


_STORING_RUNS = {
    "integrate": lambda system, h, store_every, opts: integrate(
        RunConfig(system, 2, 2, h, 1.0, options=opts, store_every=store_every)),
    "composition6": lambda system, h, store_every, opts: composition6_stormer_verlet(
        system, h, 1.0, store_every),
}


@pytest.mark.parametrize("method", sorted(_STORING_RUNS))
@pytest.mark.parametrize("system,store_every,opts,times", [
    (_harmonic, 5, SolveOptions(), [0.0, 0.5, 1.0]),
    (_harmonic, 3, SolveOptions(), [0.0, 0.3, 0.6, 0.9, 1.0]),
    (_harmonic, 1000, SolveOptions(), [0.0, 1.0]),
    # fails on its first step, by non-convergence or by divergence
    (harmonic_oscillator(100.0), 0, SolveOptions(solver="fixed_point", max_outer=1), [0.0]),
], ids=["5", "3", "1000", "zero-step"])
def test_store_every_strides(method, system, store_every, opts, times):
    # y0, every store_every-th state and, once, the state the run ended at
    run = _STORING_RUNS[method]
    traj, _ = run(system, 0.1, store_every, opts)
    assert traj.times == pytest.approx(times)
    assert len(traj.states) == len(times)
    assert np.array_equal(traj.states[-1], run(system, 0.1, 1, opts)[0].states[-1])


@pytest.mark.parametrize("solver", ["fixed_point", "simplified_newton", "splitting"])
def test_harmonic_accuracy_all_solvers(solver):
    cfg = RunConfig(system=harmonic_oscillator(), k=4, s=2, h=0.05, t_end=5.0,
                    options=SolveOptions(solver=solver), store_every=0)
    traj, stats = integrate(cfg)
    assert stats.all_converged
    exact = _harmonic_exact(1.0)(traj.times[-1])
    assert np.linalg.norm(traj.states[-1] - exact) < 1e-7  # order 4 at h=0.05


def test_energy_drift_tracked_in_stats():
    cfg = RunConfig(system=charged_particle(), k=6, s=2, h=0.1, t_end=10.0,
                    options=SolveOptions(solver="splitting", mu=2))
    _, stats = integrate(cfg)
    assert stats.all_converged
    assert stats.max_hamiltonian_error < 1e-8


@pytest.mark.parametrize("mu", [2, 4])
def test_splitting_integrates_the_stiff_chain_to_t_400(mu):
    # acceptance 7's configuration over a long horizon: rounding holds the
    # increments above tol on some steps, and the stall at the floor ends them
    # converged (with a stop at tol alone the run ended at t = 170.1 for
    # mu = 2 and t = 26.1 for mu = 4); simplified Newton runs all 4000 steps
    sysm = fpu_modified()
    cfg = RunConfig(system=sysm, k=6, s=3, h=0.1, t_end=400.0,
                    options=SolveOptions(solver="splitting", mu=mu), store_every=0)
    _, stats = integrate(cfg)
    assert (stats.steps, stats.all_converged) == (4000, True), stats.failed_at
    assert stats.max_hamiltonian_error <= 1e-12 * abs(sysm.H(sysm.y0))


@pytest.mark.parametrize("h", [0.1, 0.01, 1e-3])
def test_fixed_point_on_the_stiff_chain_fails_at_the_first_step(h):
    # h |lambda| >> 1: the iterates diverge, and the stall window must not
    # accept one of them as converged
    cfg = RunConfig(system=fpu_modified(), k=6, s=3, h=h, t_end=1.0,
                    options=SolveOptions(solver="fixed_point"), store_every=0)
    _, stats = integrate(cfg)
    assert (stats.steps, stats.all_converged, stats.failed_at) == (0, False, 0.0)


def test_nonconvergence_truncates_and_records_time():
    cfg = RunConfig(system=fpu_modified(), k=4, s=2, h=5e-4, t_end=1.0,
                    options=SolveOptions(solver="fixed_point", max_outer=50))
    traj, stats = integrate(cfg)
    assert not stats.all_converged
    assert stats.failed_at is not None and stats.failed_at < 1.0
    assert traj.times[-1] <= stats.failed_at + 5e-4 + 1e-12


def _nan_gradient_below(q_min):
    """Harmonic oscillator whose gradient is NaN once q drops below q_min."""
    base = harmonic_oscillator()

    def grad(y):
        g = base.grad(y)
        return g if y[0] >= q_min else np.full_like(g, np.nan)

    return dataclasses.replace(base, grad=grad, label="nan-gradient")


@pytest.mark.parametrize("solver", ["fixed_point", "simplified_newton", "splitting"])
def test_nonfinite_gradient_ends_run_as_a_result(solver):
    # q = cos t crosses 0.5 at t = pi/3: the step from t = 1.0 has NaN stages
    cfg = RunConfig(system=_nan_gradient_below(0.5), k=4, s=2, h=0.1, t_end=3.0,
                    options=SolveOptions(solver=solver))
    traj, stats = integrate(cfg)
    assert not stats.all_converged
    assert stats.failed_at == pytest.approx(0.1 * stats.steps)
    assert 0.5 < stats.failed_at <= 1.0 + 1e-12
    assert np.all(np.isfinite(traj.states))


def test_newton_like_counts_factorizations():
    # the splitting evaluates the Hessian twice per step and factors once
    cfg = RunConfig(system=charged_particle(), k=4, s=2, h=0.1, t_end=1.0,
                    options=SolveOptions(solver="splitting"))
    _, stats = integrate(cfg)
    assert stats.factorizations == stats.steps == 10
    assert stats.hessian_evaluations == 2 * stats.steps
    assert stats.total_inner_iterations == 2 * stats.total_outer_iterations


@pytest.mark.parametrize("solver,hess,factors",
                         [("simplified_newton", 1, 2), ("fixed_point", 0, 0)])
def test_counters_sum_what_each_step_did(solver, hess, factors):
    # simplified Newton at s = 3: one real and one complex block per step
    cfg = RunConfig(system=charged_particle(), k=6, s=3, h=0.1, t_end=0.5,
                    options=SolveOptions(solver=solver))
    _, stats = integrate(cfg)
    assert stats.steps == 5
    assert stats.hessian_evaluations == hess * stats.steps
    assert stats.factorizations == factors * stats.steps


def _counting(system, stacked):
    """The system with stacked_grad set as given and its grad and hess calls
    counted in the returned dict."""
    calls = {"grad": 0, "hess": 0}

    def grad(y):
        calls["grad"] += 1
        return system.grad(y)

    def hess(y):
        calls["hess"] += 1
        return system.hess(y)

    return dataclasses.replace(system, grad=grad, hess=hess, stacked_grad=stacked), calls


@pytest.mark.parametrize("solver,hess_per_step", [("splitting", 2), ("simplified_newton", 1)])
@pytest.mark.parametrize("factory,h", [(fpu_modified, 0.01), (charged_particle, 0.1)])
def test_nonfinite_hessian_ends_run_as_a_result(monkeypatch, factory, h, solver, hess_per_step):
    # one NaN Hessian entry from the third step on: V'' of the separable fpu
    # factor (tridiagonal, band storage), the dense factor of the charged
    # particle; the run ends at 2h without an exception or a warning, and the
    # counters are the real calls
    import hbvm.nlsolve

    base = factory()
    sysm, calls = _counting(base, base.stacked_grad)
    counted_hess = sysm.hess

    def hess(y):
        M = counted_hess(y).copy()
        if calls["hess"] > 2 * hess_per_step:
            M[0, 0] = np.nan
        return M

    factors = []

    def lu_factor(a, *args, **kwargs):
        factors.append((a.shape, args))
        return real_lu_factor(a, *args, **kwargs)

    real_lu_factor = hbvm.nlsolve.lu_factor
    monkeypatch.setattr(hbvm.nlsolve, "lu_factor", lu_factor)
    cfg = RunConfig(system=dataclasses.replace(sysm, hess=hess), k=4, s=2, h=h,
                    t_end=10 * h, options=SolveOptions(solver=solver))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, stats = integrate(cfg)
    assert not stats.all_converged and not stats.diverged
    assert stats.steps == 2 and stats.failed_at == 2 * h
    assert np.array_equal(traj.times, [0.0, h, 2 * h]) and np.all(np.isfinite(traj.states))
    assert stats.hessian_evaluations == calls["hess"] == 3 * hess_per_step
    assert stats.gradient_evaluations == calls["grad"] > 0
    assert stats.factorizations == len(factors) > 0
    storage = {fpu_modified: ((4, 14), ((1, 1),)), charged_particle: ((6, 6), ())}
    assert factors == [storage[factory]] * len(factors)


@pytest.mark.parametrize("solver", ["fixed_point", "simplified_newton", "splitting"])
def test_gradient_and_hessian_counters_match_real_calls(solver):
    # one grad call per residual on a stacked system, k on a per-row one
    k = 6
    grads = {}
    for stacked in (True, False):
        sysm, calls = _counting(charged_particle(), stacked)
        cfg = RunConfig(system=sysm, k=k, s=2, h=0.1, t_end=0.5,
                        options=SolveOptions(solver=solver))
        _, stats = integrate(cfg)
        assert stats.steps == 5
        assert stats.gradient_evaluations == calls["grad"] > 0
        assert stats.hessian_evaluations == calls["hess"]
        grads[stacked] = calls["grad"]
    assert grads[False] == k * grads[True]


@pytest.mark.parametrize("k,s,h0,lo,hi", [
    (2, 1, 0.08, 3.2, 4.8),    # order 2: ratio ~ 4 under halving
    (4, 2, 0.16, 12.8, 19.2),  # order 4: ratio ~ 16
])
def test_convergence_order(k, s, h0, lo, hi):
    sysm = harmonic_oscillator(1.0)
    errs = order_errors(sysm, k, s, [h0, h0 / 2, h0 / 4], 2.0, _harmonic_exact(1.0))
    for e1, e2 in zip(errs, errs[1:]):
        assert lo < e1 / e2 < hi


# ---------------------------------------------------------------------------
# explicit order-6 composition baseline

def test_composition6_order():
    sysm = harmonic_oscillator(1.0)
    errs = []
    for h in (0.4, 0.2):
        traj, stats = composition6_stormer_verlet(sysm, h, 4.0, store_every=0)
        assert not stats.diverged
        errs.append(np.linalg.norm(traj.states[-1] - _harmonic_exact(1.0)(traj.times[-1])))
    assert 40.0 < errs[0] / errs[1] < 100.0  # ~2^6


def test_composition6_evaluation_count():
    _, stats = composition6_stormer_verlet(harmonic_oscillator(), 0.1, 1.0)
    assert stats.steps == 10
    assert stats.gradient_evaluations == 18 * 10


def test_composition6_linear_stability_window():
    # stable below h*omega ~ 1.59, diverges above
    stable = composition6_stormer_verlet(harmonic_oscillator(100.0), 0.015, 10.0,
                                         store_every=0)[1]
    assert not stable.diverged
    blown = composition6_stormer_verlet(harmonic_oscillator(100.0), 0.017, 10.0,
                                        store_every=0)[1]
    assert blown.diverged
    assert blown.failed_at is not None


def test_composition6_divergence_emits_no_warning():
    # at h = 5e-4 the chain blows up to a huge but finite state, whose norm
    # overflows; that is recorded as divergence, not warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, stats = composition6_stormer_verlet(fpu_modified(), 5e-4, 10.0, store_every=0)
    assert stats.diverged


@pytest.mark.parametrize("system,h", [(harmonic_oscillator(100.0), 0.017),
                                      (fpu_modified(), 5e-4)])
def test_composition6_divergence_keeps_last_finite_state(system, h):
    # endpoints only: the stored end is the state at failed_at, the same one
    # a run storing every step ends with, not the blown-up one
    traj, stats = composition6_stormer_verlet(system, h, 10.0, store_every=0)
    full, _ = composition6_stormer_verlet(system, h, 10.0, store_every=1)
    assert stats.diverged and not stats.all_converged
    assert traj.times[-1] == stats.failed_at == stats.steps * h == full.times[-1]
    assert np.array_equal(traj.states[-1], full.states[-1])
    assert np.all(np.isfinite(traj.states[-1]))
    assert np.linalg.norm(traj.states[-1]) <= DIVERGENCE_THRESHOLD


@pytest.mark.parametrize("h,t_end", [(0.0, 1.0), (-0.1, 1.0), (0.1, -1.0), (0.1, 0.0)])
def test_composition6_rejects_nonpositive_h_and_t_end(h, t_end):
    with pytest.raises(ValueError, match="require h > 0 and t_end > 0"):
        composition6_stormer_verlet(harmonic_oscillator(), h, t_end)


def test_composition6_counters_match_real_calls():
    # 18 force evaluations per step and one Hessian for the separability test
    sysm, calls = _counting(fpu_modified(), True)
    _, stats = composition6_stormer_verlet(sysm, 1e-4, 1e-3)
    assert stats.steps == 10
    assert stats.gradient_evaluations == calls["grad"] == 180
    assert stats.hessian_evaluations == calls["hess"] == 1


@pytest.mark.parametrize("i,j,value", [(0, 14, 1e-300), (14, 0, 1e-300),
                                       (15, 15, np.nextafter(1.0, 2.0))])
def test_composition6_separability_is_the_step_factor_predicate(i, j, value):
    # the entries that send _step_factors down the dense path (see
    # test_nlsolve) fail the shared predicate, so the composition rejects them
    base = fpu_modified()

    def hess(y):
        M = base.hess(y)
        M[i, j] = value
        return M

    sysm = dataclasses.replace(base, hess=hess)
    assert separable_hessian(base.hess(base.y0))
    assert not separable_hessian(sysm.hess(sysm.y0))
    with pytest.raises(ValueError, match="separable"):
        composition6_stormer_verlet(sysm, 1e-4, 1e-3)


def test_composition6_rejects_nonseparable_hamiltonian():
    # the magnetic-field problem couples momenta to positions
    with pytest.raises(ValueError):
        composition6_stormer_verlet(charged_particle(), 0.01, 1.0)


def test_composition6_fpu_short_run_conserves_energy():
    sysm = fpu_modified()
    _, stats = composition6_stormer_verlet(sysm, 1e-5, 0.01, store_every=0)
    assert not stats.diverged
    assert stats.max_hamiltonian_error / abs(sysm.H(sysm.y0)) < 2e-7
