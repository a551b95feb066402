import dataclasses
import importlib.machinery
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbvm.hamiltonian import (
    HamiltonianSystem,
    apply_J,
    charged_particle,
    fpu_modified,
    harmonic_oscillator,
)
from hbvm.integrator import RunConfig, integrate
from hbvm.nlsolve import (
    FLOOR_WINDOW,
    SolveOptions,
    StageProblem,
    _BandSweep,
    _inner_iteration,
    _iterate,
    _newton_correction,
    fixed_point_solve,
    lu_factor as factor_lu,
    lu_solve as solve_lu,
    residual_F,
    simplified_newton_solve,
    solve,
    splitting_solve,
    stages_from_gamma,
    step_factors,
    sweep_factor,
)
from hbvm.polybasis import legendre_basis
from hbvm.splitting import build_splitting
from hbvm.tableau import build_Xhat, build_tableau

from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgbtrf, dgbtrs, zgbtrf, zgbtrs

import hbvm.lu

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    W = legendre_basis(t.c, t.s + 1) @ t.Xhat
    M = legendre_basis(t.c, t.s).T * t.b
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
    Ps, Ps1 = legendre_basis(t.c, 3), legendre_basis(t.c, 4)
    assert np.array_equal(t.W, Ps1 @ t.Xhat)
    assert np.array_equal(t.M, Ps.T * t.b)
    assert np.array_equal(t.A, Ps1 @ t.Xhat @ Ps.T @ np.diag(t.b))
    # A scales the columns of W P_s^T by the weights: the product with
    # diag(b) in every value and sign bit
    for k in range(1, 21):
        for s in range(1, k + 1):
            t = build_tableau(k, s)
            ref = t.W @ legendre_basis(t.c, s).T @ np.diag(t.b)
            assert np.array_equal(t.A.view(np.uint64), ref.view(np.uint64)), (k, s)


def _band_of(A, kl, ku):
    """A in LAPACK band storage: row kl + ku + i - j holds A[i, j], the first
    kl rows zero (gbtrf's workspace)."""
    m = len(A)
    ab = np.zeros((2 * kl + ku + 1, m), dtype=A.dtype)
    for i in range(m):
        for j in range(max(0, i - kl), min(m, i + ku + 1)):
            ab[kl + ku + i - j, j] = A[i, j]
    return ab


def test_lu_solve_matches_scipy_and_passes_nonfinite_through():
    # the separable fpu factor is the gbtrf band LU of S = I + c^2 V''
    # (tridiagonal, m = 14); lu_solve on it is LAPACK's gbtrs bit for bit and
    # solves S, a dense factor's lu_solve is scipy's, and a NaN in b comes
    # out of the solves
    sysm = fpu_modified()
    c = 0.1 * 0.3
    hess0 = sysm.hess(sysm.y0)
    fac = step_factors(hess0, [c])[0]
    S = np.eye(14) + c * (c * hess0[:14, :14])
    ref_lu, ref_piv, info = dgbtrf(_band_of(S, 1, 1), 1, 1)
    assert info == 0 and fac.lu.lu.shape == (4, 14)
    assert np.array_equal(fac.lu.lu, ref_lu) and np.array_equal(fac.lu.piv, ref_piv)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(14)
    x = solve_lu(fac.lu, b)
    assert np.array_equal(x, dgbtrs(ref_lu, 1, 1, b, ref_piv)[0])
    assert _backward_error(S, x, b) <= 1e-15
    dense = factor_lu(S)
    assert np.array_equal(solve_lu(dense, b), lu_solve(lu_factor(S), b))
    b[3] = np.nan
    assert not np.all(np.isfinite(solve_lu(fac.lu, b)))
    assert not np.all(np.isfinite(solve_lu(dense, b)))
    b = rng.standard_normal(28)
    b[3] = np.nan
    assert not np.all(np.isfinite(fac.solve(b)))


def test_complex_lu_solve_matches_scipy_and_passes_nonfinite_through():
    rng = np.random.default_rng(6)
    A = np.eye(10) - (0.1 + 0.3j) * rng.standard_normal((10, 10))
    fac = factor_lu(A)
    assert np.array_equal(fac.lu, lu_factor(A)[0]) and np.array_equal(fac.piv, lu_factor(A)[1])
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert np.array_equal(solve_lu(fac, b), lu_solve(lu_factor(A), b))
    b[3] = np.nan
    assert not np.all(np.isfinite(solve_lu(fac, b)))


def test_singular_factor_raises_in_both_storages():
    # where scipy's lu_factor only warns and its factors then give a
    # non-finite solve; step_factors turns the error into no factors
    S = np.diag([1.0, 0.0, 2.0, 3.0, 4.0])
    for fac in (lambda: factor_lu(S), lambda: factor_lu(_band_of(S, 1, 1), (1, 1))):
        with pytest.raises(np.linalg.LinAlgError, match="Diagonal number 2 is exactly zero"):
            fac()


def test_complex_band_factor_and_solve_are_scipys_zgbtrf_and_zgbtrs():
    # the other three storages are compared with scipy above
    rng = np.random.default_rng(7)
    m, kl, ku = 12, 2, 1
    A = np.eye(m) - (0.3 + 0.2j) * rng.standard_normal((m, m))
    A = np.triu(np.tril(A, ku), -kl)
    ab = _band_of(A, kl, ku)
    ref_lu, ref_piv, info = zgbtrf(ab, kl, ku)
    fac = factor_lu(ab, (kl, ku))
    assert info == 0 and np.array_equal(fac.lu, ref_lu) and np.array_equal(fac.piv, ref_piv)
    assert np.any(fac.piv != np.arange(m))  # the band LU did pivot
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    x = solve_lu(fac, b)
    assert np.array_equal(x, zgbtrs(ref_lu, kl, ku, b, ref_piv)[0])
    assert _backward_error(A, x, b) <= 1e-15


def test_missing_lapack_extension_is_an_import_error_that_names_it(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    with pytest.raises(ImportError, match="scipy/linalg/_flapack"):
        hbvm.lu._load_flapack()


def test_hbvm_runs_every_solver_without_importing_scipy_linalg():
    # hbvm.lu loads scipy's LAPACK extension from its file: neither the
    # import, nor every solver on a band (fpu) and a dense (charged particle)
    # problem, real and complex factors alike, nor the analysis imports the
    # scipy.linalg package
    code = "\n".join([
        "import contextlib, io, sys",
        "sys.path.insert(0, sys.argv[1])",
        "import hbvm",
        "print('scipy.linalg' in sys.modules)",
        "import hbvm.nlsolve",
        "from hbvm.cli import main",
        "kinds, factor = set(), hbvm.nlsolve.lu_factor",
        "def lu_factor(a, band=None):",
        "    kinds.add(('dense' if band is None else 'band') + '-' + a.dtype.name)",
        "    return factor(a, band)",
        "hbvm.nlsolve.lu_factor = lu_factor",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for problem in ('fpu', 'charged-particle'):",
        "        for solver in ('fixed-point', 'simplified-newton', 'splitting'):",
        "            assert main(['integrate', '--problem', problem, '-k', '6', '-s', '3',",
        "                         '--h', '0.05', '--t-end', '0.2', '--solver', solver]) == 0",
        "    assert main(['analyze']) == 0",
        "print(','.join(sorted(kinds)))",
        "print('scipy.linalg' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "band-complex128,band-float64,dense-complex128,dense-float64",
                           "False"]


_TRAJECTORIES = "\n".join([
    "import sys",
    "sys.path.insert(0, sys.argv[1])",
    "if sys.argv[2] == 'before':",
    "    import scipy.linalg",
    "import numpy as np",
    "from hbvm.hamiltonian import charged_particle, fpu_modified",
    "from hbvm.integrator import RunConfig, integrate",
    "from hbvm.nlsolve import SolveOptions",
    "out = {}",
    "def run(tag):",
    "    for make in (fpu_modified, charged_particle):",
    "        for solver in ('fixed_point', 'simplified_newton', 'splitting'):",
    "            cfg = RunConfig(make(), 6, 3, 0.05, 0.3, SolveOptions(solver=solver))",
    "            out[f'{tag}-{make.__name__}-{solver}'] = integrate(cfg)[0].states",
    "run('first')",
    "if sys.argv[2] == 'after':",
    "    import scipy.linalg",
    "run('second')",
    "assert 'scipy.linalg' in sys.modules",
    "np.savez(sys.argv[3], **out)",
])


def test_same_bits_whether_scipy_linalg_is_imported_before_or_after_hbvm(tmp_path):
    # both copies of the extension module run the same LAPACK code; importing
    # scipy.linalg after hbvm, even between two runs, changes no bit
    runs = {}
    for order in ("before", "after"):
        path = tmp_path / f"{order}.npz"
        subprocess.run([sys.executable, "-c", _TRAJECTORIES, SRC, order, str(path)],
                       check=True)
        runs[order] = dict(np.load(path))
    before, after = runs["before"], runs["after"]
    assert len(before) == 12 and before.keys() == after.keys()
    for key in before:
        assert np.array_equal(before[key], after[key]), key
        assert np.array_equal(before[key], before[key.replace("first", "second")]), key


@pytest.mark.parametrize("s", range(1, 7))
def test_cached_eigendecomposition_reproduces_Xs(s):
    e = build_tableau(s, s).eig
    assert len(e.lam) == (s + 1) // 2
    assert np.array_equal(e.real, e.lam.imag == 0)
    assert np.all(e.lam[~e.real].imag > 0)
    # X_s = sum_j lam_j V_j Vinv_j, the dropped partners adding the conjugates
    terms = e.lam[:, None, None] * e.V.T[:, :, None] * e.Vinv[:, None, :]
    X = terms[e.real].sum(axis=0).real + 2.0 * terms[~e.real].sum(axis=0).real
    assert np.max(np.abs(X - build_Xhat(s)[:s])) < 1e-14
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
        dense = np.linalg.solve(np.eye(s * n) - h * np.kron(build_Xhat(s)[:s], B),
                                -F.ravel()).reshape(s, n)
        hess0 = -apply_J(B.T).T  # J hess0 = B exactly: J only moves and negates
        delta = _newton_correction(e, step_factors(hess0, h * e.lam), F)
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
    for h in (0.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="require a finite nonzero h, got h = "):
            StageProblem(tab, sysm, sysm.y0, h)
    assert StageProblem(tab, sysm, sysm.y0, -0.1).h == -0.1  # the methods are symmetric
    with pytest.raises(ValueError):
        StageProblem(tab, sysm, np.zeros(5), 0.1)
    # a (2m, 1) column has length 2m, but its stages broadcast to a wrong step
    with pytest.raises(ValueError, match=r"^require y0_step of shape \(2m,\) = \(2,\), "
                                         r"got \(2, 1\)$"):
        StageProblem(tab, sysm, np.array([[1.0], [0.0]]), 0.1)


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
    W = legendre_basis(p.tableau.c, 3) @ p.tableau.Xhat
    assert Y == pytest.approx(p.y0_step + p.h * (W @ g))


def test_residual_vanishes_at_linear_oracle():
    p = _problem(harmonic_oscillator(2.0), 3, 2, 0.1)
    g = linear_stage_oracle(p)
    assert np.max(np.abs(residual_F(p, g))) < 1e-14


@pytest.mark.parametrize("solver", ["fixed_point", "simplified_newton", "splitting"])
def test_solvers_reproduce_linear_oracle(solver):
    p = _problem(harmonic_oscillator(2.0), 4, 2, 0.1)
    res = solve(p, SolveOptions(solver=solver), data=build_splitting(2))
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


@pytest.mark.parametrize("make,k,s,h", [(charged_particle, 4, 2, 0.1), (fpu_modified, 6, 3, 0.05)])
@pytest.mark.parametrize("mu", [1, 2, 3])
def test_first_outer_step_is_mu_dense_inner_sweeps_from_zero(make, k, s, h, mu):
    # from gammahat = 0: eta = -Phat F(0), D_0 = 0 and
    # [I - h L (x) B] D_{nu+1} = h L(U - I) (x) B D_nu + eta, solved densely
    p = _problem(make(), k, s, h)
    data = build_splitting(s)
    B = apply_J(p.system.hess(p.y0_step).T).T
    n = p.system.dim
    eta = -(data.Phat @ residual_F(p, np.zeros((s, n)))).ravel()
    A = np.eye(s * n) - h * np.kron(data.L, B)
    R = h * np.kron(data.L @ (data.U - np.eye(s)), B)
    D = np.zeros(s * n)
    for _ in range(mu):
        D = np.linalg.solve(A, R @ D + eta)
    res = splitting_solve(p, data, SolveOptions(mu=mu, max_outer=1))
    ref = np.linalg.solve(data.Phat, D.reshape(s, n))
    # h ||B|| is about 5e6 on the stiff chain: both solves lose digits to it
    assert np.max(np.abs(res.gamma - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("solver,max_outer,cap", [("fixed_point", 1, 10),
                                                  ("simplified_newton", 2, 2),
                                                  ("splitting", 2, 2)])
def test_every_solver_stops_at_its_cap_with_a_finite_increment(solver, max_outer, cap):
    # two Newton-type iterations cannot converge on the stiff chain, and ten
    # fixed point iterations grow but stay finite
    p = _problem(fpu_modified(), 6, 3, 0.01)
    res = solve(p, SolveOptions(solver=solver, max_outer=max_outer, mu=3),
                data=build_splitting(3))
    assert not res.converged
    assert res.outer_iterations == cap
    assert res.residual_evaluations == res.outer_iterations
    assert res.inner_iterations_total == (3 * cap if solver == "splitting" else 0)
    assert np.isfinite(res.residual_norm)


@pytest.mark.parametrize("increment,converged,iterations", [
    pytest.param(lambda it: FLOOR_WINDOW / 2, True, 2, id="stall-inside-window"),
    pytest.param(lambda it: 2 * FLOOR_WINDOW, False, 20, id="stall-outside-window"),
    pytest.param(lambda it: 2 * FLOOR_WINDOW * 1.5 ** it, False, 20, id="divergence"),
    pytest.param(lambda it: 0.9 * FLOOR_WINDOW / 2 ** it, True, 10, id="contraction"),
])
def test_outer_iteration_stops_at_a_stall_only_inside_the_floor_window(
        increment, converged, iterations):
    # x stays 0, so the floor is tol: the increment is increment(it) tol at
    # iteration it; a stall or a growth ends the step converged only within
    # FLOOR_WINDOW of the floor, and a contraction inside the window runs on
    # to the floor itself (0.9 W / 2^it <= 1 first at it = 10 for W = 1e3)
    p = _problem(harmonic_oscillator(), 4, 2, 0.1)
    opts = SolveOptions(max_outer=20)
    calls = []

    def step(x):
        calls.append(None)
        return x, np.full(x.shape, increment(len(calls)) * opts.tol)

    res = _iterate(p, opts, step, opts.max_outer)
    assert (res.converged, res.outer_iterations) == (converged, iterations)


def test_splitting_rejects_mismatched_data():
    p = _problem(harmonic_oscillator(), 4, 2, 0.1)
    with pytest.raises(ValueError):
        splitting_solve(p, build_splitting(3), SolveOptions())


def test_splitting_without_data_raises():
    # solve builds no SplittingData per step: the caller supplies it
    p = _problem(harmonic_oscillator(), 4, 2, 0.1)
    with pytest.raises(ValueError, match="no splitting data, tableau has s=2"):
        solve(p, SolveOptions(solver="splitting"))
    with pytest.raises(ValueError, match="no splitting data"):
        splitting_solve(p, None, SolveOptions())


def test_solver_dispatch_rejects_unknown_name():
    p = _problem(harmonic_oscillator(), 2, 1, 0.1)
    with pytest.raises(ValueError):
        solve(p, SolveOptions(solver="bogus"))


def test_step_factor_solves_shifted_system():
    sysm = charged_particle()
    h, d = 0.1, 0.28867513459481288
    hess0 = sysm.hess(sysm.y0)
    fac = step_factors(hess0, [h * d])[0]
    rng = np.random.default_rng(7)
    b = rng.standard_normal(6)
    x = fac.solve(b)
    JH = np.vstack([hess0[3:], -hess0[:3]])
    assert (np.eye(6) - h * d * JH) @ x == pytest.approx(b, abs=1e-12)
    b[2] = np.nan
    assert not np.all(np.isfinite(fac.solve(b)))


@pytest.mark.parametrize("system", [fpu_modified(), charged_particle()])
def test_step_factor_of_a_complex_shift_with_zero_imaginary_part_is_real(system):
    # Newton's real eigenvalues come as complex lam with lam.imag == 0; their
    # factor is the real one, bit for bit, and solves with dgetrs
    hess0 = system.hess(system.y0)
    (real,), (cplx,) = step_factors(hess0, [0.05]), step_factors(hess0, [0.05 + 0j])
    assert not np.iscomplexobj(cplx.lu[0])
    assert np.array_equal(real.lu[0], cplx.lu[0]) and np.array_equal(real.lu[1], cplx.lu[1])
    assert np.iscomplexobj(step_factors(hess0, [0.05 + 0.01j])[0].lu[0])


@pytest.mark.parametrize("system", [fpu_modified(), charged_particle()])
def test_step_factors_of_a_nonfinite_hessian_are_empty(monkeypatch, system):
    import hbvm.nlsolve

    monkeypatch.setattr(hbvm.nlsolve, "lu_factor", None)  # must not be called
    hess0 = system.hess(system.y0)
    for value in (np.nan, np.inf):
        bad = hess0.copy()
        bad[0, 0] = value
        assert step_factors(bad, [0.05, 0.05 + 0.01j]) == []


def test_step_factors_with_a_singular_shift_are_empty(monkeypatch):
    # c = 1 makes I - c B exactly singular for a separable hess0 (S = 1 + c^2
    # V'' = 0) and a dense one (B = J hess0 = diag(1, -1)); the shift after it
    # is still factored, so the step counts both LUs, and neither is returned
    import hbvm.nlsolve

    made, real_lu_factor = [], hbvm.nlsolve.lu_factor
    monkeypatch.setattr(hbvm.nlsolve, "lu_factor",
                        lambda a, *args: made.append(a) or real_lu_factor(a, *args))
    for hess0 in (np.diag([-1.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        assert step_factors(hess0, [1.0, 0.5]) == []
    assert len(made) == 4


def _hess_at_y0(system):
    return system.hess(system.y0)


def _perturbed(hess, i, j, value):
    out = hess.copy()
    out[i, j] = value
    return out


@pytest.fixture
def factored(monkeypatch):
    """(shape, band) of every call of the module-level lu_factor of nlsolve,
    which the benchmark tracer counts."""
    import hbvm.nlsolve

    calls = []

    def counting(a, *args, **kwargs):
        calls.append((a.shape, args))
        return factor_lu(a, *args, **kwargs)

    monkeypatch.setattr(hbvm.nlsolve, "lu_factor", counting)
    return calls


def _ring(hess):
    # the fpu chain with its end masses coupled: V'' is no longer banded
    out = hess.copy()
    out[0, 13] = out[13, 0] = -1.0
    return out


@pytest.mark.parametrize("hess0,size", [
    (_ring(_hess_at_y0(fpu_modified())), 14),
    (_hess_at_y0(harmonic_oscillator(2.0)), 1),
    (_hess_at_y0(charged_particle()), 6),
    # one fpu entry off [0 | I] in the momentum rows or columns: dense
    (_perturbed(_hess_at_y0(fpu_modified()), 0, 14, 1e-300), 28),
    (_perturbed(_hess_at_y0(fpu_modified()), 14, 0, 1e-300), 28),
    (_perturbed(_hess_at_y0(fpu_modified()), 15, 15, np.nextafter(1.0, 2.0)), 28),
])
def test_step_factor_is_m_by_m_exactly_for_unit_mass_separable_hessians(factored, hess0, size):
    # a V'' too wide for band storage gets a dense m x m LU (a banded one gets
    # band storage: test_step_factor_storage_follows_the_band)
    step_factors(hess0, [0.1 * 0.3])
    e = build_tableau(6, 3).eig
    step_factors(hess0, 0.1 * e.lam)
    assert factored == [((size, size), ())] * (1 + len(e.lam))


def _banded_psd_hess(m, kl, h, stiffness, rng):
    # V'' random symmetric with kl nonzero diagonals on each side, made
    # positive definite by a dominant diagonal, scaled as in _separable_hess
    A = np.triu(np.tril(rng.standard_normal((m, m)), kl), -kl)
    V = A + A.T
    V += np.diag(np.abs(V).sum(axis=1) + rng.random(m))
    V *= 4.0 * stiffness / (h * h * np.linalg.norm(V, 2))
    hess0 = np.eye(2 * m)
    hess0[:m, :m] = V
    return hess0


@pytest.mark.parametrize("m,kl,rows", [
    (14, 1, 4),       # the fpu chain's width
    (8, 2, 7),        # 2 kl + ku + 1 = 7 < 8: band storage
    (7, 2, None),     # 7 rows would save nothing: dense 7 x 7
    (6, 0, 1),        # diagonal V''
    (1, 0, None),     # a 1 x 1 V'' stays dense
    (40, 13, None),   # 40 rows for m = 40: dense
])
def test_step_factor_storage_follows_the_band(factored, m, kl, rows):
    # band storage (2 kl + ku + 1 rows, gbtrf) exactly when it has fewer rows
    # than m; every shift of the step, real or complex, gets the same form
    hess0 = _banded_psd_hess(m, kl, 0.1, 1.0, np.random.default_rng([m, kl]))
    e = build_tableau(6, 3).eig
    step_factors(hess0, [0.1 * 0.3, *(0.1 * e.lam)])
    expected = ((m, m), ()) if rows is None else ((rows, m), ((kl, kl),))
    assert factored == [expected] * (1 + len(e.lam))


@pytest.mark.parametrize("h", [0.1, 1.0])
def test_dense_step_factor_is_scipys_lu_of_the_step_matrix(h):
    hess0 = _hess_at_y0(charged_particle())
    B = apply_J(hess0.T).T
    e = build_tableau(6, 3).eig
    cs = [h * 0.3] + [h * (lam.real if real else lam) for lam, real in zip(e.lam, e.real)]
    facs = step_factors(hess0, [h * 0.3, *(h * e.lam)])
    for c, fac in zip(cs, facs):
        (lu, piv, _), (ref_lu, ref_piv) = fac.lu, lu_factor(np.eye(6) - c * B)
        assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
        b = np.random.default_rng(3).standard_normal(6)
        assert np.array_equal(fac.solve(b), lu_solve((ref_lu, ref_piv), b))


def _separable_hess(m, h, stiffness, rng):
    # V'' random PSD with ||V''|| = 4 stiffness / h^2, so that c^2 ||V''||
    # reaches stiffness for |c| = h/2 (d_1 = lam_1 = 1/2)
    A = rng.standard_normal((m, m))
    Vqq = A @ A.T
    Vqq *= 4.0 * stiffness / (h * h * np.linalg.norm(Vqq, 2))
    hess0 = np.eye(2 * m)
    hess0[:m, :m] = Vqq
    return hess0


def _backward_error(A, x, b):
    return np.linalg.norm(A @ x - b, np.inf) / (
        np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf))


@pytest.mark.parametrize("m", [1, 3, 14, 64])
@pytest.mark.parametrize("h", [0.1, 1.0])
@pytest.mark.parametrize("stiffness", [1e-3, 1.0, 1e6, 1e12])
def test_structured_step_factor_is_backward_stable(m, h, stiffness):
    # real c = h d_s and complex c = h lam_j, |c| <= h/2: the m x m factor of
    # S = I + c^2 V'' solves I - c B with backward error at rounding level
    rng = np.random.default_rng([m, int(h * 10), int(np.log10(stiffness)) + 3])
    hess0 = _separable_hess(m, h, stiffness, rng)
    B = apply_J(hess0.T).T
    for s in (1, 2, 3, 6):
        e = build_tableau(s, s).eig
        facs = step_factors(hess0, [h * build_splitting(s).d, *(h * e.lam)])
        cs = [h * build_splitting(s).d] + [h * (lam.real if real else lam)
                                           for lam, real in zip(e.lam, e.real)]
        for c, fac in zip(cs, facs):
            assert fac.lu[0].shape == (m, m)
            assert np.iscomplexobj(fac.lu[0]) == np.iscomplexobj(c)
            b = rng.standard_normal(2 * m)
            if np.iscomplexobj(c):
                b = b + 1j * rng.standard_normal(2 * m)
            assert _backward_error(np.eye(2 * m) - c * B, fac.solve(b), b) <= 1e-13


@pytest.mark.parametrize("m", [1, 3, 14, 64])
@pytest.mark.parametrize("h", [0.1, 1.0])
@pytest.mark.parametrize("stiffness", [1e-3, 1.0, 1e6, 1e12])
def test_separable_sweep_is_backward_stable(m, h, stiffness):
    # one sweep solves [I - h L (x) B] D = R for the splitting's L; its B D
    # is D B^T to rounding
    rng = np.random.default_rng([m, int(h * 10), int(np.log10(stiffness)) + 3, 1])
    hess0 = _separable_hess(m, h, stiffness, rng)
    B = apply_J(hess0.T).T
    for s in range(1, 7):
        data = build_splitting(s)
        fac = step_factors(hess0, [h * data.d])[0]
        R = rng.standard_normal((s, 2 * m))
        hL = h * data.L
        D, BD = fac.sweep(hL, hL @ hL, R)
        A = np.eye(s * 2 * m) - h * np.kron(data.L, B)
        assert _backward_error(A, D.ravel(), R.ravel()) <= 1e-13
        assert np.max(np.abs(BD - D @ B.T)) <= 1e-14 * np.linalg.norm(B, np.inf) * np.max(np.abs(D))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(m=st.integers(1, 40), kl=st.integers(0, 3), h=st.sampled_from([0.1, 1.0]),
       stiffness=st.sampled_from([1e-3, 1.0, 1e6, 1e12]), s=st.sampled_from([1, 2, 3, 6]),
       seed=st.integers(0, 2**32 - 1))
def test_band_step_factor_solves_and_sweeps_are_backward_stable(m, kl, h, stiffness, s, seed):
    # the gbtrf factor of a banded S = I + c^2 V'' solves I - c B for real
    # c = h d_s and complex c = h lam_j, and one sweep solves
    # [I - h L (x) B] D = R, with backward error at rounding level
    rng = np.random.default_rng(seed)
    hess0 = _banded_psd_hess(m, kl, h, stiffness, rng)
    B = apply_J(hess0.T).T
    data, e = build_splitting(s), build_tableau(s, s).eig
    banded = 3 * kl + 1 < m
    facs = step_factors(hess0, [h * data.d, *(h * e.lam)])
    cs = [h * data.d] + [h * (lam.real if real else lam) for lam, real in zip(e.lam, e.real)]
    for c, fac in zip(cs, facs):
        assert fac.lu.lu.shape == ((3 * kl + 1, m) if banded else (m, m))
        b = rng.standard_normal(2 * m)
        if np.iscomplexobj(c):
            b = b + 1j * rng.standard_normal(2 * m)
        assert _backward_error(np.eye(2 * m) - c * B, fac.solve(b), b) <= 1e-13
    # the splitting's factor: the band LU of the whole sweep matrix when V''
    # is banded, else the m x m factor above and a per-stage sweep
    sweep = sweep_factor(hess0, h, data)
    assert sweep.lu.lu.shape == (_sweep_storage(m, s, kl, kl)[0] if banded else (m, m))
    R = rng.standard_normal((s, 2 * m))
    D, BD = sweep.sweep(R)
    A = np.eye(s * 2 * m) - h * np.kron(data.L, B)
    assert _backward_error(A, D.ravel(), R.ravel()) <= 1e-13
    assert np.max(np.abs(BD - D @ B.T)) <= 1e-14 * np.linalg.norm(B, np.inf) * np.max(np.abs(D))
    assert np.array_equal(_inner_iteration(sweep, data.T, h, 1)(R), D)


def _sweep_storage(m, s, kl, ku):
    """(shape, (KL, KU)) of the LAPACK band storage of I - h L (x) B, 2ms
    unknowns ordered node by node, for a V'' of bandwidths kl, ku."""
    KL, KU = 2 * s * kl + 2 * s - 1, max(s, 2 * s * ku - s)
    return (2 * KL + KU + 1, 2 * m * s), (KL, KU)


@pytest.mark.parametrize("h", [0.01, 0.1, 0.5])
def test_band_sweep_is_as_accurate_forward_as_a_dense_solve(h):
    # one sweep of the stiff chain (fpu_modified, s = 3; cond 4e11 at
    # h = 0.01) against a 40-digit LU solve of the float matrix
    # I - h kron(L, B) that np.linalg.solve gets: over 16 random right-hand
    # sides the band sweep's median relative error is at most 3x the dense
    # solve's. The band sweep forms its entries as h (L_ij V''_ab), rounded as
    # that matrix is; entries formed as (h L_ij) V''_ab, 1 ulp off in places,
    # raised the median error at h = 0.01 from 8e-15 to 5e-14
    mp = mpmath.mp
    hess0 = _hess_at_y0(fpu_modified())
    B = apply_J(hess0.T).T
    data = build_splitting(3)
    sweep = sweep_factor(hess0, h, data)
    assert isinstance(sweep, _BandSweep)
    A = np.eye(84) - h * np.kron(data.L, B)
    rhs = np.random.default_rng([3, int(100 * h)]).standard_normal((16, 3, 28))
    with mpmath.workdps(40):
        lu, piv = mp.LU_decomp(mpmath.matrix(A.tolist()))
        exact = [np.array(mp.U_solve(lu, mp.L_solve(lu, mpmath.matrix(r.ravel().tolist()), piv)),
                          dtype=float).ravel() for r in rhs]

    def median_error(solve):
        return np.median([np.max(np.abs(solve(r).ravel() - x)) / np.max(np.abs(x))
                          for r, x in zip(rhs, exact)])

    band = median_error(lambda r: sweep.sweep(r)[0])
    assert band <= 3.0 * median_error(lambda r: np.linalg.solve(A, r.ravel()))


def _reference_dense_sweep(fac, B, hL, rhs):
    """Reference inner sweep over a bare dense LU factor and a dense B: D and
    the rows B D_i of every stage."""
    D, BD = np.empty_like(rhs), np.empty_like(rhs)
    for i in range(len(rhs)):
        D[i] = solve_lu(fac, rhs[i] + hL[i, :i] @ BD[:i])
        BD[i] = B @ D[i]
    return D, BD


@pytest.mark.parametrize("s", range(1, 7))
@pytest.mark.parametrize("mu", [1, 2, 3])
def test_dense_sweeps_are_the_bare_factor_sweeps_bit_for_bit(s, mu):
    sysm = charged_particle()
    hess0 = sysm.hess(sysm.y0)
    B = apply_J(hess0.T).T
    h, data = 0.1, build_splitting(s)
    hL, T = h * data.L, data.L @ (data.U - np.eye(s))
    fac = step_factors(hess0, [h * data.d])[0]
    ref_fac = factor_lu(np.eye(6) - h * data.d * B)
    eta = np.random.default_rng([s, mu]).standard_normal((s, 6))
    D, BD = _reference_dense_sweep(ref_fac, B, hL, eta)
    got = fac.sweep(hL, hL @ hL, eta)
    assert np.array_equal(got[0], D) and np.array_equal(got[1], BD)
    for _ in range(mu - 1):
        D, BD = _reference_dense_sweep(ref_fac, B, hL, h * (T @ BD) + eta)
    assert np.array_equal(_inner_iteration(sweep_factor(hess0, h, data), T, h, mu)(eta), D)


def _random_hess(m, seed):
    # symmetric, with no [0 | I] momentum block: the dense 2m x 2m factor
    A = np.random.default_rng(seed).standard_normal((2 * m, 2 * m))
    return A + A.T


def _random_separable_hess(m, seed):
    # a dense V'' (too wide for band storage): the dense m x m factor of S
    A = np.random.default_rng(seed).standard_normal((m, m))
    hess0 = np.eye(2 * m)
    hess0[:m, :m] = A @ A.T
    return hess0


@pytest.mark.parametrize("hess0,h,lu_shape", [
    pytest.param(_hess_at_y0(charged_particle()), 0.1, (6, 6), id="charged-particle"),
    pytest.param(_random_hess(4, 1), 0.1, (8, 8), id="random-dense"),
    # a forward comparison of two floating-point solves is only as sharp as
    # the conditioning allows: on this chain cond(I - h kron(L, B)) is 4e11
    # at h = 0.01 (the two differ by up to 2.3e-12 there) and 5e10 at
    # h = 1e-3, still stiff (h ||B|| = 1e5); backward stability at the
    # paper's steps is test_band_step_factor_solves_and_sweeps_are_backward_stable's;
    # its factor is the band LU of the whole sweep matrix (lu_shape None)
    pytest.param(_hess_at_y0(fpu_modified()), 1e-3, None, id="fpu-band"),
    pytest.param(_hess_at_y0(harmonic_oscillator(2.0)), 0.1, (1, 1), id="harmonic-m1"),
    pytest.param(_random_separable_hess(5, 2), 0.1, (5, 5), id="random-separable"),
])
@pytest.mark.parametrize("s", range(1, 7))
@pytest.mark.parametrize("mu", [1, 2, 3])
def test_inner_iteration_is_the_splitting_iteration_it_solves(hess0, h, lu_shape, s, mu):
    # the splitting's inner iteration in vec form, from D = 0:
    # D <- solve(I - h kron(L, B), h kron(T, B) vec D + vec eta)
    B = apply_J(hess0.T).T
    n = len(B)
    data = build_splitting(s)
    fac = sweep_factor(hess0, h, data)
    assert fac.lu.lu.shape == (lu_shape or _sweep_storage(n // 2, s, 1, 1)[0])
    A = np.eye(s * n) - h * np.kron(data.L, B)
    R = h * np.kron(data.T, B)
    eta = np.random.default_rng([s, mu]).standard_normal((s, n))
    D = np.zeros(s * n)
    for _ in range(mu):
        D = np.linalg.solve(A, R @ D + eta.ravel())
    got = _inner_iteration(fac, data.T, h, mu)(eta)
    assert np.max(np.abs(got.ravel() - D)) <= 1e-12 * np.max(np.abs(D))


@pytest.mark.parametrize("s", [1, 2, 3, 6])
def test_separable_path_factors_and_solves_m_by_m_once_per_block(monkeypatch, factored, s):
    # the benchmark tracer counts calls of the module-level lu_factor and
    # lu_solve. The splitting makes one factor per step, the band LU of its
    # whole sweep matrix for the tridiagonal chain, and one solve per sweep;
    # Newton makes one m x m factor of S per block (4 x m in band storage)
    # and one call per block solve
    import hbvm.nlsolve

    m = 8
    solved = []

    def counting_solve(fac, b):
        solved.append(fac.lu.shape)
        return solve_lu(fac, b)

    monkeypatch.setattr(hbvm.nlsolve, "lu_solve", counting_solve)
    p = _problem(_fpu_type_chain(m // 2, np.random.default_rng(s)), 2 * s, s, 0.1)
    mu = 3
    split = splitting_solve(p, build_splitting(s), SolveOptions(mu=mu))
    assert split.converged
    sweep_lu, band = _sweep_storage(m, s, 1, 1)
    assert factored == [(sweep_lu, (band,))]
    # mu sweeps of one solve each per outer step, and one Phat solve per
    # outer step plus one for the result
    assert solved.count(sweep_lu) == mu * split.outer_iterations
    assert solved.count((s, s)) == split.outer_iterations + 1
    assert len(solved) == (mu + 1) * split.outer_iterations + 1

    factored.clear()
    solved.clear()
    newton = simplified_newton_solve(p, SolveOptions())
    assert newton.converged
    blocks = (s + 1) // 2
    assert factored == [((4, m), ((1, 1),))] * blocks
    assert solved == [(4, m)] * (blocks * newton.outer_iterations)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_structured_factor_keeps_factorization_counts(s):
    p = _problem(fpu_modified(), 2 * s, s, 0.05)
    split = splitting_solve(p, build_splitting(s), SolveOptions(mu=10))
    newton = simplified_newton_solve(p, SolveOptions())
    assert split.converged and newton.converged
    assert split.factorizations == 1
    assert newton.factorizations == (s + 1) // 2
    assert np.max(np.abs(split.gamma - newton.gamma)) <= 1e-10 * (1.0 + np.max(np.abs(newton.gamma)))


def test_one_step_conserves_quartic_energy_exactly():
    # H is polynomial of degree 4; k = 2s silent stages conserve it to rounding
    sysm = fpu_modified()
    h = 0.05
    p = _problem(sysm, 6, 3, h)
    res = solve(p, SolveOptions(solver="splitting", mu=10), data=build_splitting(3))
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


def _seeded_chain():
    return _fpu_type_chain(32, np.random.default_rng(2013))


def test_splitting_and_newton_agree_on_a_large_chain():
    sysm = _seeded_chain()
    finals = {}
    for solver in ("splitting", "simplified_newton"):
        traj, st = integrate(RunConfig(system=sysm, k=6, s=3, h=0.1, t_end=0.4,
                                       options=SolveOptions(solver=solver), store_every=0))
        assert st.all_converged and st.steps == 4
        assert st.max_hamiltonian_error <= 1e-10 * abs(sysm.H(sysm.y0))
        finals[solver] = traj.states[-1]
    nw = finals["simplified_newton"]
    assert np.max(np.abs(finals["splitting"] - nw)) <= 1e-10 * (1.0 + np.max(np.abs(nw)))


@pytest.mark.parametrize("make,s,t_end,solver,outer,inner", [
    pytest.param(charged_particle, 2, 1.0, "splitting", 40, 80, id="charged-particle"),
    pytest.param(fpu_modified, 3, 1.0, "splitting", 62, 124, id="fpu"),
    pytest.param(_seeded_chain, 3, 0.4, "splitting", 39, 78, id="chain-m64-splitting"),
    pytest.param(_seeded_chain, 3, 0.4, "simplified_newton", 20, 0, id="chain-m64-newton"),
])
def test_work_counts_are_pinned(make, s, t_end, solver, outer, inner):
    # HBVM(6, s), h = 0.1: the (outer, inner) totals are exact; a change meant
    # to keep the numerics must keep them, and one that moves them updates them
    _, st = integrate(RunConfig(system=make(), k=6, s=s, h=0.1, t_end=t_end,
                                options=SolveOptions(solver=solver), store_every=0))
    assert st.all_converged
    assert (st.total_outer_iterations, st.total_inner_iterations) == (outer, inner)
