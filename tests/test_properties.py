"""Property tests on random polynomial Hamiltonians.

HBVM(k, s) conserves a polynomial H of degree <= 2k/s to rounding.
H = |p|^2/2 + q^T K q/2 + sum_j (s_j^T q)^4/4 is a separable quartic, so
HBVM(6,3) conserves it, and the splitting and simplified Newton solve the same
stage equations. Each example draws m and a seed; the seed fixes K (positive
definite) and the quartic directions s_j. The non-separable
H = y^T K y/2 + sum_j (a_j^T y)^nu/nu, with a_j mixing q and p, takes the
dense step factor, for several (k, s) and nu = floor(2k/s).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hbvm.hamiltonian import HamiltonianSystem, separable_hessian
from hbvm.integrator import RunConfig, integrate
from hbvm.nlsolve import SolveOptions, StageProblem, simplified_newton_solve, splitting_solve
from hbvm.splitting import build_splitting
from hbvm.tableau import build_tableau

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=50)
EXAMPLES = given(m=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))


def random_quartic(m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    K = A @ A.T / m + np.eye(m)
    S = rng.standard_normal((m + 1, m)) / np.sqrt(m)

    def H(y):
        q, p = y[:m], y[m:]
        return 0.5 * p @ p + 0.5 * q @ K @ q + 0.25 * np.sum((S @ q) ** 4)

    def grad(y):
        q = y[:m]
        return np.concatenate([K @ q + S.T @ (S @ q) ** 3, y[m:]])

    def hess(y):
        out = np.eye(2 * m)
        out[:m, :m] = K + S.T @ (3.0 * (S @ y[:m])[:, None] ** 2 * S)
        return out

    return HamiltonianSystem(m=m, H=H, grad=grad, hess=hess,
                             y0=0.5 * rng.standard_normal(2 * m), label=f"quartic-m{m}")


@PROPERTY
@EXAMPLES
def test_hbvm63_conserves_random_quartic_energy(m, seed):
    sysm = random_quartic(m, seed)
    _, stats = integrate(RunConfig(system=sysm, k=6, s=3, h=0.1, t_end=0.5,
                                   options=SolveOptions(solver="splitting"), store_every=0))
    assert stats.all_converged and stats.steps == 5
    assert stats.max_hamiltonian_error <= 1e-10 * abs(sysm.H(sysm.y0))


@PROPERTY
@EXAMPLES
def test_one_splitting_step_agrees_with_one_newton_step(m, seed):
    sysm = random_quartic(m, seed)
    h = 0.1
    p = StageProblem(build_tableau(6, 3), sysm, sysm.y0, h)
    sp = splitting_solve(p, build_splitting(3), SolveOptions())
    nw = simplified_newton_solve(p, SolveOptions())
    assert sp.converged and nw.converged
    y_sp, y_nw = sysm.y0 + h * sp.gamma[0], sysm.y0 + h * nw.gamma[0]
    assert np.max(np.abs(y_sp - y_nw)) <= 1e-10 * (1.0 + np.max(np.abs(y_nw)))


def random_nonseparable(m, nu, seed):
    rng = np.random.default_rng(seed)
    n = 2 * m
    A = rng.standard_normal((n, n))
    K = A @ A.T / n + np.eye(n)
    a = rng.standard_normal((n, n)) / np.sqrt(n)

    def H(y):
        return 0.5 * y @ K @ y + np.sum((a @ y) ** nu) / nu

    def grad(y):
        return K @ y + a.T @ (a @ y) ** (nu - 1)

    def hess(y):
        return K + a.T @ ((nu - 1) * (a @ y)[:, None] ** (nu - 2) * a)

    return HamiltonianSystem(m=m, H=H, grad=grad, hess=hess,
                             y0=0.5 * rng.standard_normal(n), label=f"poly{nu}-m{m}")


@PROPERTY
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       ks=st.sampled_from([(2, 1), (3, 1), (4, 2), (6, 2), (5, 3), (8, 4)]))
def test_hbvm_conserves_random_nonseparable_polynomial_energy(m, seed, ks):
    k, s = ks
    nu = 2 * k // s
    sysm = random_nonseparable(m, nu, seed)
    assert not separable_hessian(sysm.hess(sysm.y0))
    _, stats = integrate(RunConfig(system=sysm, k=k, s=s, h=0.05, t_end=0.25,
                                   options=SolveOptions(solver="splitting"), store_every=0))
    assert stats.all_converged and stats.steps == 5
    assert stats.max_hamiltonian_error <= 1e-10 * abs(sysm.H(sysm.y0))
