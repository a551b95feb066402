import dataclasses
import warnings

import numpy as np
import pytest

from hbvm.hamiltonian import (
    charged_particle,
    fpu_modified,
    harmonic_oscillator,
    separable_hessian,
)
from hbvm.integrator import (
    DIVERGENCE_THRESHOLD,
    RunConfig,
    Trajectory,
    composition6_stormer_verlet,
    integrate,
    order_study,
    solution_error,
)
from hbvm.nlsolve import SolveOptions


def _harmonic_exact(omega):
    return lambda t: np.array([np.cos(omega * t), -omega * np.sin(omega * t)])


def test_run_config_validation():
    sysm = harmonic_oscillator()
    with pytest.raises(ValueError):
        RunConfig(system=sysm, k=2, s=2, h=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        RunConfig(system=sysm, k=1, s=2, h=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        RunConfig(system=sysm, k=2, s=0, h=0.1, t_end=1.0)


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


def test_store_every_strides():
    cfg = RunConfig(system=harmonic_oscillator(), k=2, s=2, h=0.1, t_end=1.0,
                    store_every=5)
    traj, _ = integrate(cfg)
    assert traj.times == pytest.approx([0.0, 0.5, 1.0])


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


def test_solution_error_aligned_grids():
    t = np.linspace(0.0, 1.0, 11)
    ref = Trajectory(t, np.zeros((11, 2)))
    traj = Trajectory(t[::5], np.full((3, 2), 1e-3))
    err = solution_error(traj, ref)
    assert err == pytest.approx(np.sqrt(2.0) * 1e-3)  # reference is 0, scale is 1


def test_solution_error_rejects_misaligned_grids():
    ref = Trajectory(np.linspace(0, 1, 8), np.zeros((8, 2)))
    traj = Trajectory(np.linspace(0, 1, 4), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        solution_error(traj, ref)  # 7 steps not a multiple of 3


@pytest.mark.parametrize("k,s,h0,lo,hi", [
    (2, 1, 0.08, 3.2, 4.8),    # order 2: ratio ~ 4 under halving
    (4, 2, 0.16, 12.8, 19.2),  # order 4: ratio ~ 16
])
def test_convergence_order(k, s, h0, lo, hi):
    sysm = harmonic_oscillator(1.0)
    res = order_study(sysm, k, s, [h0, h0 / 2, h0 / 4], 2.0, _harmonic_exact(1.0))
    for (_, e1), (_, e2) in zip(res, res[1:]):
        assert lo < e1 / e2 < hi


def test_order_study_raises_on_failure():
    with pytest.raises(RuntimeError):
        order_study(fpu_modified(), 2, 2, [5e-4], 0.1, lambda t: np.zeros(28),
                    options=SolveOptions(solver="fixed_point", max_outer=20))


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
