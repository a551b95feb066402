import dataclasses

import numpy as np
import pytest

from hbvm.hamiltonian import (
    HamiltonianSystem,
    apply_J,
    charged_particle,
    fpu_modified,
    harmonic_oscillator,
)
from hbvm.integrator import RunConfig, integrate
from hbvm.nlsolve import (
    SolveOptions,
    StageProblem,
    _newton_correction,
    _newton_factors,
    factor_step_matrix,
    fixed_point_solve,
    lu_solve as getrs_solve,
    residual_F,
    simplified_newton_solve,
    solve,
    splitting_solve,
    stages_from_gamma,
)
from hbvm.splitting import build_splitting
from hbvm.tableau import build_tableau, leading_Xs

from scipy.linalg import lu_factor, lu_solve


def _problem(system, k, s, h, y0=None):
    tab = build_tableau(k, s)
    y = system.y0 if y0 is None else y0
    return StageProblem(tab, system, np.asarray(y, dtype=float), h)


def linear_stage_oracle(p):
    """Closed-form stage coefficients for a quadratic Hamiltonian.

    With grad H(y) = Q y the residual is linear in gamma:
        gamma = M (J Q) (1 y0^T + h W gamma),  W = P_{s+1} Xhat, M = P_s^T Omega,
    solved densely via vec().
    """
    t = p.tableau
    W = t.Ps1 @ t.Xhat
    M = t.Ps.T * t.rule.weights
    Q = p.system.hess(p.y0_step)
    n = p.system.dim
    JQ = np.vstack([Q[n // 2:], -Q[:n // 2]])
    # vec over rows: gamma (s, n) -> x (s*n,)
    s = t.s
    A = np.eye(s * n) - p.h * np.kron(M @ W, JQ)
    rhs = np.kron(M @ np.ones(t.k), JQ @ p.y0_step)
    return np.linalg.solve(A, rhs).reshape(s, n)


@pytest.mark.parametrize("make,k,s,h", [(charged_particle, 6, 2, 0.1), (fpu_modified, 6, 3, 0.05)])
def test_residual_with_stacked_grad_matches_per_row_fallback(make, k, s, h):
    stacked = make()
    row_grad = stacked.grad

    def grad(y):
        assert y.ndim == 1, "fallback must call grad one stage at a time"
        return row_grad(y)

    rows = dataclasses.replace(stacked, grad=grad, stacked_grad=False)
    rng = np.random.default_rng(11)
    for _ in range(5):
        gamma = rng.standard_normal((s, stacked.dim))
        F_stacked = residual_F(_problem(stacked, k, s, h), gamma)
        F_rows = residual_F(_problem(rows, k, s, h), gamma)
        assert np.array_equal(F_stacked, F_rows)


def test_stage_maps_are_cached_on_the_tableau():
    t = build_tableau(6, 3)
    assert np.array_equal(t.W, t.Ps1 @ t.Xhat)
    assert np.array_equal(t.M, t.Ps.T * t.rule.weights)
    assert np.array_equal(t.A, t.Ps1 @ t.Xhat @ t.Ps.T @ t.Omega)


def test_lu_solve_matches_scipy_and_passes_nonfinite_through():
    sysm = fpu_modified()
    fac = factor_step_matrix(0.1, 0.3, sysm.hess(sysm.y0))
    b = np.random.default_rng(5).standard_normal(28)
    assert np.array_equal(getrs_solve(fac, b), lu_solve(fac, b))
    b[3] = np.nan
    assert not np.all(np.isfinite(getrs_solve(fac, b)))


def test_complex_lu_solve_matches_scipy_and_passes_nonfinite_through():
    rng = np.random.default_rng(6)
    A = np.eye(10) - (0.1 + 0.3j) * rng.standard_normal((10, 10))
    fac = lu_factor(A)
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert np.array_equal(getrs_solve(fac, b), lu_solve(fac, b))
    b[3] = np.nan
    assert not np.all(np.isfinite(getrs_solve(fac, b)))


@pytest.mark.parametrize("s", range(1, 7))
def test_cached_eigendecomposition_reproduces_Xs(s):
    e = build_tableau(s, s).eig
    assert len(e.lam) == (s + 1) // 2
    assert np.array_equal(e.real, e.lam.imag == 0)
    assert np.all(e.lam[~e.real].imag > 0)
    # X_s = sum_j lam_j V_j Vinv_j, the dropped partners adding the conjugates
    terms = e.lam[:, None, None] * e.V.T[:, :, None] * e.Vinv[:, None, :]
    X = terms[e.real].sum(axis=0).real + 2.0 * terms[~e.real].sum(axis=0).real
    assert np.max(np.abs(X - leading_Xs(s))) < 1e-14
    assert np.max(np.abs(e.Vinv @ e.V - np.eye(len(e.lam)))) < 1e-13


@pytest.mark.parametrize("s", range(1, 7))
@pytest.mark.parametrize("m", range(1, 6))
def test_block_diagonal_correction_matches_kron_solve(s, m):
    rng = np.random.default_rng([s, m])
    e = build_tableau(s, s).eig
    n = 2 * m
    for h in (0.1, 1.0):
        B = rng.standard_normal((n, n))
        F = rng.standard_normal((s, n))
        dense = np.linalg.solve(np.eye(s * n) - h * np.kron(leading_Xs(s), B),
                                -F.ravel()).reshape(s, n)
        delta = _newton_correction(e, _newton_factors(e, h, B), F)
        assert np.max(np.abs(delta - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("s", range(1, 7))
def test_newton_factors_ceil_half_s_blocks_per_step(s):
    p = _problem(charged_particle(), 2 * s, s, 0.05)
    res = simplified_newton_solve(p, SolveOptions())
    assert res.converged
    assert res.factorizations == (s + 1) // 2
    assert res.hessian_evaluations == 1


def test_stage_problem_validation():
    sysm = harmonic_oscillator()
    tab = build_tableau(2, 2)
    with pytest.raises(ValueError):
        StageProblem(tab, sysm, sysm.y0, -0.1)
    with pytest.raises(ValueError):
        StageProblem(tab, sysm, np.zeros(5), 0.1)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(mu=0)
    with pytest.raises(ValueError):
        SolveOptions(max_outer=0)


def test_stages_are_affine_in_gamma():
    p = _problem(harmonic_oscillator(), 4, 2, 0.05)
    g = np.arange(4.0).reshape(2, 2)
    Y = stages_from_gamma(p, g)
    W = p.tableau.Ps1 @ p.tableau.Xhat
    assert Y == pytest.approx(p.y0_step + p.h * (W @ g))


def test_residual_vanishes_at_linear_oracle():
    p = _problem(harmonic_oscillator(2.0), 3, 2, 0.1)
    g = linear_stage_oracle(p)
    assert np.max(np.abs(residual_F(p, g))) < 1e-14


@pytest.mark.parametrize("solver", ["fixed_point", "simplified_newton", "splitting"])
def test_solvers_reproduce_linear_oracle(solver):
    p = _problem(harmonic_oscillator(2.0), 4, 2, 0.1)
    res = solve(p, SolveOptions(solver=solver))
    assert res.converged
    assert np.max(np.abs(res.gamma - linear_stage_oracle(p))) < 1e-12


def test_newton_converges_in_one_iteration_on_linear_problem():
    p = _problem(harmonic_oscillator(), 2, 2, 0.1)
    res = simplified_newton_solve(p, SolveOptions())
    assert res.converged
    assert res.outer_iterations <= 2  # exact after 1; 2nd confirms the stop test


def test_three_solvers_agree_on_charged_particle():
    sysm = charged_particle()
    p = _problem(sysm, 6, 2, 0.1)
    data = build_splitting(2)
    fp = fixed_point_solve(p, SolveOptions())
    nw = simplified_newton_solve(p, SolveOptions())
    sp = splitting_solve(p, data, SolveOptions(mu=2))
    assert fp.converged and nw.converged and sp.converged
    assert np.max(np.abs(fp.gamma - nw.gamma)) < 1e-12
    assert np.max(np.abs(sp.gamma - nw.gamma)) < 1e-12


def test_splitting_tracks_newton_on_fpu():
    sysm = fpu_modified()
    p = _problem(sysm, 6, 3, 0.05)
    nw = simplified_newton_solve(p, SolveOptions())
    sp = splitting_solve(p, build_splitting(3), SolveOptions(mu=50, max_outer=200))
    assert nw.converged and sp.converged
    assert np.max(np.abs(sp.gamma - nw.gamma)) < 1e-10 * (1.0 + np.max(np.abs(nw.gamma)))


def test_fixed_point_fails_on_stiff_problem_without_exception():
    sysm = fpu_modified()
    p = _problem(sysm, 4, 2, 5e-4)
    res = fixed_point_solve(p, SolveOptions(max_outer=100))
    assert not res.converged
    assert not np.isfinite(res.residual_norm) or res.residual_norm > 1.0


def test_splitting_handles_stiff_step_where_fixed_point_cannot():
    sysm = fpu_modified()
    p = _problem(sysm, 4, 2, 5e-4)
    res = splitting_solve(p, build_splitting(2), SolveOptions(mu=2))
    assert res.converged


def test_splitting_inner_count_is_mu_per_outer():
    p = _problem(charged_particle(), 4, 2, 0.1)
    res = splitting_solve(p, build_splitting(2), SolveOptions(mu=3))
    assert res.inner_iterations_total == 3 * res.outer_iterations


@pytest.mark.parametrize("solver,max_outer,cap", [("fixed_point", 1, 10),
                                                  ("simplified_newton", 2, 2),
                                                  ("splitting", 2, 2)])
def test_every_solver_stops_at_its_cap_with_a_finite_increment(solver, max_outer, cap):
    # two Newton-type iterations cannot converge on the stiff chain, and ten
    # fixed point iterations grow but stay finite
    p = _problem(fpu_modified(), 6, 3, 0.01)
    res = solve(p, SolveOptions(solver=solver, max_outer=max_outer, mu=3))
    assert not res.converged
    assert res.outer_iterations == cap
    assert res.residual_evaluations == res.outer_iterations
    assert res.inner_iterations_total == (3 * cap if solver == "splitting" else 0)
    assert np.isfinite(res.residual_norm)


def test_splitting_rejects_mismatched_data():
    p = _problem(harmonic_oscillator(), 4, 2, 0.1)
    with pytest.raises(ValueError):
        splitting_solve(p, build_splitting(3), SolveOptions())


def test_solver_dispatch_rejects_unknown_name():
    p = _problem(harmonic_oscillator(), 2, 1, 0.1)
    with pytest.raises(ValueError):
        solve(p, SolveOptions(solver="bogus"))


def test_factor_step_matrix_solves_shifted_system():
    sysm = charged_particle()
    h, d = 0.1, 0.28867513459481288
    hess0 = sysm.hess(sysm.y0)
    fac = factor_step_matrix(h, d, hess0)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(6)
    x = lu_solve(fac, b)
    JH = np.vstack([hess0[3:], -hess0[:3]])
    assert (np.eye(6) - h * d * JH) @ x == pytest.approx(b, abs=1e-12)


def test_one_step_conserves_quartic_energy_exactly():
    # H is polynomial of degree 4; k = 2s silent stages conserve it to rounding
    sysm = fpu_modified()
    h = 0.05
    p = _problem(sysm, 6, 3, h)
    res = solve(p, SolveOptions(solver="splitting", mu=10))
    assert res.converged
    y1 = p.y0_step + h * res.gamma[0]
    H0 = sysm.H(sysm.y0)
    assert abs(sysm.H(y1) - H0) / abs(H0) < 1e-13


def test_tol_controls_iteration_count():
    p = _problem(charged_particle(), 4, 2, 0.1)
    loose = fixed_point_solve(p, SolveOptions(tol=1e-4))
    tight = fixed_point_solve(p, SolveOptions(tol=1e-13))
    assert loose.converged and tight.converged
    assert tight.outer_iterations > loose.outer_iterations


def test_gamma0_advances_state_toward_exact_flow():
    # one HBVM(2,1) step of the harmonic oscillator is the implicit midpoint
    # rule up to quadrature; error must be O(h^3)
    sysm = harmonic_oscillator(1.0)
    h = 1e-2
    p = _problem(sysm, 2, 1, h)
    res = solve(p, SolveOptions(solver="simplified_newton"))
    y1 = p.y0_step + h * res.gamma[0]
    exact = np.array([np.cos(h), -np.sin(h)])
    assert np.linalg.norm(y1 - exact) < 5.0 * h**3


def _fpu_type_chain(n, rng):
    """n stiff spring pairs (frequencies in [10, 15)) coupled by quartic soft
    springs, fixed ends, m = 2n: a quartic H with a dense 2m x 2m Hessian."""
    m = 2 * n
    w2 = (10.0 + 5.0 * rng.random(n)) ** 2
    D = np.zeros((m + 1, m))  # rows: soft-spring elongations q_{i+1} - q_i
    D[np.arange(m), np.arange(m)] = 1.0
    D[np.arange(1, m + 1), np.arange(m)] -= 1.0
    soft = np.arange(0, m + 1, 2)
    S = D[soft]          # soft springs between the pairs and at the walls
    K = D[1:-1:2]        # stiff springs inside the pairs

    def H(y):
        q, p = y[:m], y[m:]
        return 0.5 * p @ p + 0.5 * np.sum(w2 * (K @ q) ** 2) + np.sum((S @ q) ** 4)

    def grad(y):
        q = y[:m]
        return np.concatenate([K.T @ (w2 * (K @ q)) + S.T @ (4.0 * (S @ q) ** 3), y[m:]])

    def hess(y):
        q = y[:m]
        out = np.eye(2 * m)
        out[:m, :m] = K.T @ (w2[:, None] * K) + S.T @ (12.0 * (S @ q)[:, None] ** 2 * S)
        return out

    q0 = np.arange(m) / (m - 1.0) + 0.05 * rng.standard_normal(m)
    return HamiltonianSystem(m=m, H=H, grad=grad, hess=hess,
                             y0=np.concatenate([q0, np.zeros(m)]), label=f"chain-m{m}")


def test_splitting_and_newton_agree_on_a_large_chain():
    sysm = _fpu_type_chain(32, np.random.default_rng(2013))
    finals = {}
    for solver in ("splitting", "simplified_newton"):
        traj, st = integrate(RunConfig(system=sysm, k=6, s=3, h=0.1, t_end=0.4,
                                       options=SolveOptions(solver=solver), store_every=0))
        assert st.all_converged and st.steps == 4
        assert st.max_hamiltonian_error <= 1e-10 * abs(sysm.H(sysm.y0))
        finals[solver] = traj.states[-1]
    nw = finals["simplified_newton"]
    assert np.max(np.abs(finals["splitting"] - nw)) <= 1e-10 * (1.0 + np.max(np.abs(nw)))
