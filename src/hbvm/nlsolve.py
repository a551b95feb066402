"""Per-step stage equations F(gamma) = 0 and the three solution strategies.

The unknown is the block vector gamma = (gamma_0, ..., gamma_{s-1}) of
coefficients of the degree-s stage polynomial, stored as an (s, 2m) array.
The stages are Y = y0 + h (P_{s+1} Xhat) gamma and the residual is

    F(gamma) = gamma - (P_s^T Omega) [J grad H(Y_i)]_i.

All three solvers run one outer iteration, _iterate: from zero, apply a
step until the increment is small, the iterate stops being finite, or the
cap is spent. A solver supplies only its step:
  * fixed_point_solve      -- gamma <- (P_s^T Omega) [J grad H(Y_i)]_i, plain
    functional iteration (nonstiff only), with a 10x larger cap
  * simplified_newton_solve -- gamma <- gamma + Delta with the exact
    correction of the frozen matrix I - h X_s (x) B, B = J hess H(y0),
    block-diagonalised through the eigenvectors of X_s: one real 2m x 2m LU
    of I - h lam B per real eigenvalue lam (one for odd s, none for even s)
    and one complex one per conjugate pair, ceil(s/2) in all; serves as the
    convergence oracle for the splitting
  * splitting_solve        -- in the transformed unknowns gammahat = Phat
    gamma, mu inner sweeps per step, each a block forward substitution
    against a single factored 2m x 2m matrix I - h d_s J hess H(y0).

The hot path makes one call per stack where it can: the residual evaluates
all k stage gradients in one grad call when the system declares
stacked_grad (else one call per stage), the stage maps W = P_{s+1} Xhat and
M = P_s^T Omega and the eigendecomposition of X_s come precomputed with the
tableau, Phat comes factored with the splitting data, and an inner sweep
forms each B Dnew_j once and solves through LAPACK getrs directly. A
non-finite gradient or correction is not an error: it ends the step with
converged=False. Every SolveResult counts the Hessian evaluations and the
factorizations its step made.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs, zgetrs

from .hamiltonian import HamiltonianSystem, apply_J
from .splitting import SplittingData
from .tableau import HbvmTableau

__all__ = [
    "StageProblem",
    "SolveOptions",
    "SolveResult",
    "stages_from_gamma",
    "residual_F",
    "fixed_point_solve",
    "simplified_newton_solve",
    "factor_step_matrix",
    "splitting_solve",
]


@dataclass(frozen=True)
class StageProblem:
    tableau: HbvmTableau
    system: HamiltonianSystem
    y0_step: np.ndarray
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"stepsize must be positive, got {self.h}")
        if len(self.y0_step) != self.system.dim:
            raise ValueError("state dimension mismatch")


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-13
    max_outer: int = 100
    mu: int = 2
    solver: str = "splitting"  # fixed_point | simplified_newton | splitting

    def __post_init__(self):
        if self.tol <= 0 or self.mu < 1 or self.max_outer < 1:
            raise ValueError("require tol > 0, mu >= 1 and max_outer >= 1")


@dataclass
class SolveResult:
    gamma: np.ndarray
    outer_iterations: int
    inner_iterations_total: int
    converged: bool
    residual_norm: float
    residual_evaluations: int = 0
    hessian_evaluations: int = 0
    factorizations: int = 0


def lu_solve(fac, b):
    """x with A x = b, given fac = lu_factor(A).

    The LAPACK getrs call of scipy.linalg.lu_solve without its finiteness and
    shape checks: the same bits at a fraction of the overhead, and a
    non-finite b gives a non-finite x instead of an exception. A complex
    factor is solved by zgetrs, a real one by dgetrs.
    """
    getrs = zgetrs if np.iscomplexobj(fac[0]) else dgetrs
    x, info = getrs(fac[0], fac[1], b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def stages_from_gamma(p, gamma):
    """Stage values Y_i = y0 + h sum_j (P_{s+1} Xhat)_{ij} gamma_j, (k, 2m)."""
    return p.y0_step + p.h * (p.tableau.W @ gamma)


def _gamma_image(p, gamma):
    """(P_s^T Omega) [J grad H(Y_i)]_i: the fixed-point map of gamma."""
    Y = stages_from_gamma(p, gamma)
    grad = p.system.grad
    G = grad(Y) if p.system.stacked_grad else np.array([grad(y) for y in Y])
    return p.tableau.M @ apply_J(G)


def residual_F(p, gamma):
    """F(gamma) = gamma - (P_s^T Omega) J grad H(stages(gamma))."""
    return gamma - _gamma_image(p, gamma)


def _stop(delta, gamma, tol):
    return np.max(np.abs(delta)) <= tol * (1.0 + np.max(np.abs(gamma)))


def _iterate(p, opts, step, cap, out=lambda x: x):
    """The outer iteration all three solvers share.

    From x = 0 (an (s, 2m) array), x, delta = step(x) runs until delta is
    small relative to x, x stops being finite, or cap iterations are spent;
    out maps the final x to gamma. Divergence shows up as overflow before the
    finiteness check trips; it is data (a *** table entry), not an
    arithmetic error, and ends the step with converged=False.
    """
    x = np.zeros((p.tableau.s, p.system.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cap + 1):
            x, delta = step(x)
            if not np.all(np.isfinite(x)):
                return SolveResult(out(x), it, 0, False, np.inf, it)
            if _stop(delta, x, opts.tol):
                return SolveResult(out(x), it, 0, True, float(np.max(np.abs(delta))), it)
        return SolveResult(out(x), cap, 0, False, float(np.max(np.abs(delta))), cap)


def fixed_point_solve(p, opts=SolveOptions()):
    """Functional iteration gamma <- map(gamma) from gamma = 0.

    Gets a 10x larger iteration cap than the Newton-type solvers;
    non-convergence is reported via converged=False, not an exception.
    """
    def step(gamma):
        new = _gamma_image(p, gamma)
        return new, new - gamma

    return _iterate(p, opts, step, 10 * opts.max_outer)


def simplified_newton_solve(p, opts=SolveOptions()):
    """Full simplified Newton: [I - h X_s (x) B] Delta = -F, B = J hess H(y0).

    With X_s = V diag(lam) V^{-1} the system splits into
    (I - h lam_j B) z_j = -(V^{-1} F)_j and Delta = sum_j V_j z_j^T; only one
    eigenvalue of each conjugate pair is solved for (see XsEigen).
    """
    eig = p.tableau.eig
    facs = _newton_factors(eig, p.h, apply_J(p.system.hess(p.y0_step).T).T)

    def step(gamma):
        delta = _newton_correction(eig, facs, residual_F(p, gamma))
        return gamma + delta, delta

    res = _iterate(p, opts, step, opts.max_outer)
    res.hessian_evaluations, res.factorizations = 1, len(facs)
    return res


def _newton_factors(eig, h, B):
    """LU factors of I - h lam_j B for the kept eigenvalues; real for real lam."""
    eye = np.eye(B.shape[0])
    return [lu_factor(eye - (h * (lam.real if real else lam)) * B)
            for lam, real in zip(eig.lam, eig.real)]


def _newton_correction(eig, facs, F):
    """Delta with Delta - h X_s Delta B^T = -F, from the factored blocks."""
    R = eig.Vinv @ F
    delta = np.zeros(F.shape)
    for v, r, real, fac in zip(eig.V.T, R, eig.real, facs):
        if real:
            delta += np.outer(v.real, lu_solve(fac, -r.real))
        else:
            delta += 2.0 * np.outer(v, lu_solve(fac, -r)).real
    return delta


def factor_step_matrix(h, d, hess0):
    """Reusable LU factorization of I - h d J hess0 (2m x 2m, row pivoting)."""
    n = hess0.shape[0]
    return lu_factor(np.eye(n) - h * d * apply_J(hess0.T).T)


def splitting_solve(p, data, opts=SolveOptions()):
    """Inner-outer triangular-splitting iteration in gammahat = Phat gamma.

    Each outer step evaluates eta = -Phat F(Phat^{-1} gammahat), then runs mu
    inner sweeps; an inner sweep solves [I - h L (x) B] Dnew = h L(U-I) (x) B D
    + eta by block forward substitution, every diagonal block sharing the one
    factored matrix I - h d_s B with B = J hess H(y0). The new step value is
    y1 = y0 + h gamma_0.
    """
    s, h = p.tableau.s, p.h
    if data.s != s:
        raise ValueError(f"splitting data is for s={data.s}, tableau has s={s}")
    B = apply_J(p.system.hess(p.y0_step).T).T
    fac = factor_step_matrix(h, data.d, p.system.hess(p.y0_step))
    L, Phat, Phat_lu = data.L, data.Phat, data.Phat_lu
    T = L @ (data.U - np.eye(s))

    def step(ghat):
        eta = -(Phat @ residual_F(p, lu_solve(Phat_lu, ghat)))
        D = np.zeros_like(ghat)
        for _ in range(opts.mu):
            D = _inner_sweep(fac, B, L, h * ((T @ D) @ B.T) + eta, h)
        return ghat + D, D

    res = _iterate(p, opts, step, opts.max_outer, lambda ghat: lu_solve(Phat_lu, ghat))
    res.inner_iterations_total = opts.mu * res.outer_iterations
    res.hessian_evaluations, res.factorizations = 2, 1
    return res


def _inner_sweep(fac, B, L, rhs, h):
    """Block forward substitution for Dnew in [I - h L (x) B] Dnew = rhs,
    each diagonal block solved with fac; every B Dnew_j is formed once."""
    s = len(rhs)
    Dnew = np.empty_like(rhs)
    BD = []
    for i in range(s):
        Dnew[i] = lu_solve(fac, rhs[i] + h * sum(L[i, j] * BD[j] for j in range(i)))
        if i < s - 1:
            BD.append(B @ Dnew[i])
    return Dnew


def solve(p, opts=SolveOptions(), data=None):
    """Dispatch on opts.solver; builds SplittingData on demand."""
    from .splitting import build_splitting

    if opts.solver == "fixed_point":
        return fixed_point_solve(p, opts)
    if opts.solver == "simplified_newton":
        return simplified_newton_solve(p, opts)
    if opts.solver == "splitting":
        if data is None:
            data = build_splitting(p.tableau.s)
        return splitting_solve(p, data, opts)
    raise ValueError(f"unknown solver {opts.solver!r}")
