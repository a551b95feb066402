"""The explicit order-6 composition baseline of demo 04 and acceptance 9,
demos/composition6.py."""
import dataclasses
import warnings

import numpy as np
import pytest
import composition6
from composition6 import DIVERGENCE_THRESHOLD, composition6_stormer_verlet

from hbvm.hamiltonian import charged_particle, fpu_modified, harmonic_oscillator, separable_hessian
from tests.test_integrator import _counting, _harmonic_exact


def test_composition6_order():
    sysm = harmonic_oscillator(1.0)
    errs = []
    for h in (0.4, 0.2):
        run = composition6_stormer_verlet(sysm, h, 4.0)
        assert not run.diverged
        errs.append(np.linalg.norm(run.y - _harmonic_exact(1.0)(run.steps * h)))
    assert 40.0 < errs[0] / errs[1] < 100.0  # ~2^6


def test_composition6_evaluation_count():
    run = composition6_stormer_verlet(harmonic_oscillator(), 0.1, 1.0)
    assert run.steps == 10
    assert run.gradient_evaluations == 18 * 10


@pytest.mark.parametrize("h,t_end,steps", [
    (0.001, 32.005, 32005),  # t_end / h rounds above 32005
    (0.01, 256.16, 25616),
    (1.0, 1e-13, 1),  # t_end / h below an absolute 1e-12 slack
])
def test_composition6_step_count_is_ceil_of_t_end_over_h(monkeypatch, h, t_end, steps):
    # the rows of integrate's step-count test; one Verlet substep per step
    # keeps the long rows short, the count does not depend on the substeps
    monkeypatch.setattr(composition6, "_COMPOSITION6", np.ones(1))
    run = composition6_stormer_verlet(harmonic_oscillator(), h, t_end)
    assert (run.steps, run.gradient_evaluations, run.diverged) == (steps, 2 * steps, False)


@pytest.mark.parametrize("system,h,t_end", [(harmonic_oscillator(1.0), 0.1, 10.0),
                                            (fpu_modified(), 1e-4, 0.01)])
def test_composition6_is_time_reversible(system, h, t_end):
    # a symmetric composition of a symmetric map: running on from the end with
    # the momenta reversed retraces the run back to y0, up to round-off
    m = system.m
    flip = np.concatenate([np.ones(m), -np.ones(m)])
    forward = composition6_stormer_verlet(system, h, t_end)
    back = composition6_stormer_verlet(dataclasses.replace(system, y0=flip * forward.y), h, t_end)
    assert back.steps == forward.steps
    assert np.allclose(flip * back.y, system.y0, rtol=0.0, atol=1e-11)


def test_composition6_counters_match_real_calls():
    # 18 force evaluations per step and one Hessian for the separability test
    sysm, calls = _counting(fpu_modified(), True)
    run = composition6_stormer_verlet(sysm, 1e-4, 1e-3)
    assert run.steps == 10
    assert run.gradient_evaluations == calls["grad"] == 18 * 10
    assert calls["hess"] == 1


def test_composition6_linear_stability_window():
    # stable below h*omega ~ 1.59, diverges above
    assert not composition6_stormer_verlet(harmonic_oscillator(100.0), 0.015, 10.0).diverged
    blown = composition6_stormer_verlet(harmonic_oscillator(100.0), 0.017, 10.0)
    assert blown.diverged and blown.steps < 10.0 / 0.017


def test_composition6_divergence_emits_no_warning():
    # at h = 5e-4 the chain blows up to a huge but finite state, whose norm
    # overflows; that is recorded as divergence, not warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = composition6_stormer_verlet(fpu_modified(), 5e-4, 10.0)
    assert run.diverged


@pytest.mark.parametrize("system,h", [(harmonic_oscillator(100.0), 0.017),
                                      (fpu_modified(), 5e-4)])
def test_composition6_divergence_keeps_last_finite_state(system, h):
    # the run ends at the state before the step that blew up: the state a run
    # of exactly that many steps ends with, not the blown-up one
    run = composition6_stormer_verlet(system, h, 10.0)
    shorter = composition6_stormer_verlet(system, h, run.steps * h)
    assert run.diverged and not shorter.diverged and shorter.steps == run.steps
    assert np.array_equal(run.y, shorter.y)
    assert np.all(np.isfinite(run.y)) and np.linalg.norm(run.y) <= DIVERGENCE_THRESHOLD


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
    with pytest.raises(ValueError, match="separable"):
        composition6_stormer_verlet(charged_particle(), 0.01, 1.0)


def test_composition6_fpu_short_run_conserves_energy():
    sysm = fpu_modified()
    run = composition6_stormer_verlet(sysm, 1e-5, 0.01)
    assert not run.diverged
    assert run.max_hamiltonian_error / abs(sysm.H(sysm.y0)) < 2e-7
