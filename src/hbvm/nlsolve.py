"""Per-step stage equations F(gamma) = 0 and the three solution strategies.

The unknown is the block vector gamma = (gamma_0, ..., gamma_{s-1}) of
coefficients of the degree-s stage polynomial, stored as an (s, 2m) array.
The stages are Y = y0 + h (P_{s+1} Xhat) gamma and the residual is

    F(gamma) = gamma - (P_s^T Omega) [J grad H(Y_i)]_i.

All three solvers run one outer iteration, _iterate: from zero, apply a
step until the increment is small, the iterate stops being finite, or the
cap is spent, and return the last iterate. A solver supplies only its step:
  * fixed_point_solve      -- gamma <- (P_s^T Omega) [J grad H(Y_i)]_i, plain
    functional iteration (nonstiff only), with a 10x larger cap
  * simplified_newton_solve -- gamma <- gamma + Delta with the exact
    correction of the frozen matrix I - h X_s (x) B, B = J hess H(y0),
    block-diagonalised through the eigenvectors of X_s: one real factor of
    I - h lam B per real eigenvalue lam (one for odd s, none for even s)
    and one complex one per conjugate pair, ceil(s/2) in all; serves as the
    convergence oracle for the splitting
  * splitting_solve        -- in the transformed unknowns gammahat = Phat
    gamma, mu inner sweeps per step (_inner_iteration), each a block
    forward substitution against a single factored matrix
    I - h d_s J hess H(y0); the final gammahat is mapped to gamma once.

solve dispatches on SolveOptions.solver. The splitting needs the
SplittingData of the tableau's s from its caller: integrate builds it once
per run, and solve builds nothing per step.

Both factored matrices have the form I - c B, B = J hess H(y0), and
step_factors(hess0, cs) is the one constructor of their factors, real when
c has no imaginary part. A step factor's whole protocol is solve(b) =
(I - c B)^{-1} b and sweep(hL, L2, rhs) -> (D, B D): one block forward
substitution for [I - h L (x) B] D = rhs (hL = h L, L2 = hL hL) that also
returns the rows B D_i the next sweep needs; _inner_iteration is the one
loop of mu sweeps. When the Hessian's momentum rows are exactly [0 | I]
(H = |p|^2/2 + V(q), unit mass), I - c B = [[I, -c I], [c V'', I]]: the
factor is one LU of the m x m matrix S = I + c^2 V'', a solve is one S solve
and one V'' matvec, and a sweep eliminates the momenta of all s stages at
once, one S solve and one V'' matvec per stage; no 2m x 2m matrix is formed.
S has the band of V'': when LAPACK band storage (2 kl + ku + 1 rows for the
bandwidths kl, ku of V'') has fewer rows than m, S is built in band storage
and factored by gbtrf, O(m) for a fixed band, else by a dense m x m getrf.
Any other Hessian is factored densely, 2m x 2m with row pivoting.

The hot path makes one call per stack where it can: the residual evaluates
all k stage gradients in one grad call when the system declares
stacked_grad (else one call per stage), the stage maps W = P_{s+1} Xhat and
M = P_s^T Omega and the eigendecomposition of X_s come precomputed with the
tableau, Phat comes factored with the splitting data, and every block solve
calls LAPACK getrs or gbtrs directly, the routine picked once per factor.
lu_factor and lu_solve (from hbvm.lu) are the one factor and the one solve
entry point; the step factors call them through this module's names. A
non-finite gradient, correction or Hessian, or a singular step matrix, is not
an error: it ends the step with converged=False. Every SolveResult counts
the gradient and Hessian evaluations and the factorizations its step made.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .hamiltonian import HamiltonianSystem, apply_J, separable_hessian
from .lu import lu_factor, lu_solve
from .polybasis import require_integer
from .tableau import HbvmTableau

__all__ = [
    "StageProblem",
    "SolveOptions",
    "SolveResult",
    "stages_from_gamma",
    "residual_F",
    "fixed_point_solve",
    "simplified_newton_solve",
    "step_factors",
    "splitting_solve",
]

_SOLVERS = ("fixed_point", "simplified_newton", "splitting")

# _iterate's stall window (the rule of Hairer, McLachlan and Razakarivony, BIT 48,
# 2008); without it, fixed point on the stiff chain accepts a diverging iterate
FLOOR_WINDOW = 1e3


@dataclass(frozen=True)
class StageProblem:
    tableau: HbvmTableau
    system: HamiltonianSystem
    y0_step: np.ndarray
    h: float

    def __post_init__(self):
        # the methods are symmetric: a step of -h is as valid as one of h
        if not 0 < abs(self.h) < np.inf:
            raise ValueError(f"require a finite nonzero h, got h = {self.h}")
        if np.shape(self.y0_step) != (self.system.dim,):
            raise ValueError(f"require y0_step of shape (2m,) = ({self.system.dim},), "
                             f"got {np.shape(self.y0_step)}")


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-13
    max_outer: int = 100
    mu: int = 2
    solver: str = "splitting"  # one of _SOLVERS

    def __post_init__(self):
        if self.solver not in _SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; "
                             f"expected one of {', '.join(_SOLVERS)}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"require a finite tol > 0, got tol = {self.tol}")
        for name in ("mu", "max_outer"):
            require_integer(name, getattr(self, name), lo=1)


@dataclass
class SolveResult:
    """Outcome and work counts of one step's stage solve.

    residual_norm is the max-norm of the last increment (of gamma, or of
    gammahat for the splitting), not the norm of F(gamma); it is inf when the
    iterate stopped being finite. gradient_evaluations counts grad calls: one
    per residual for a stacked_grad system, else k.
    """
    gamma: np.ndarray
    outer_iterations: int
    inner_iterations_total: int
    converged: bool
    residual_norm: float
    residual_evaluations: int = 0
    gradient_evaluations: int = 0
    hessian_evaluations: int = 0
    factorizations: int = 0


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


def _iterate(p, opts, step, cap):
    """The outer iteration all three solvers share.

    From x = 0 (an (s, 2m) array), x, delta = step(x) runs until
    max|delta| <= tol (1 + max|x|), or is not below the previous max|delta|
    and within FLOOR_WINDOW of that floor; max|x| (NaN or inf if any entry is)
    stops being finite; or cap iterations are spent. The SolveResult holds the
    final x as its gamma (the splitting maps it from gammahat afterwards).
    Divergence shows up as overflow before the finiteness check trips; it is
    data (a *** table entry), not an arithmetic error, and ends the step with
    converged=False. With cap 0 (no step factors: a non-finite Hessian or a
    singular step matrix) the step fails before iterating.
    """
    grads_per_residual = 1 if p.system.stacked_grad else p.tableau.k

    def result(x, it, converged, norm):
        return SolveResult(x, it, 0, converged, norm, it,
                           gradient_evaluations=grads_per_residual * it)

    x, norm = np.zeros((p.tableau.s, p.system.dim)), np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cap + 1):
            x, delta = step(x)
            scale = np.abs(x).max()
            if not np.isfinite(scale):
                return result(x, it, False, np.inf)
            prev, norm = norm, float(np.abs(delta).max())
            floor = opts.tol * (1.0 + scale)
            if norm <= floor or prev <= norm <= FLOOR_WINDOW * floor:
                return result(x, it, True, norm)
        return result(x, cap, False, norm)


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
    hess0 = p.system.hess(p.y0_step)
    facs = step_factors(hess0, p.h * eig.lam)

    def step(gamma):
        delta = _newton_correction(eig, facs, residual_F(p, gamma))
        return gamma + delta, delta

    res = _iterate(p, opts, step, opts.max_outer if facs else 0)
    res.hessian_evaluations = 1
    res.factorizations = len(eig.lam) if facs or np.all(np.isfinite(hess0)) else 0
    return res


def _newton_correction(eig, facs, F):
    """Delta with Delta - h X_s Delta B^T = -F, from the factored blocks."""
    R = eig.Vinv @ F
    delta = np.zeros(F.shape)
    for v, r, real, fac in zip(eig.V.T, R, eig.real, facs):
        if real:
            delta += np.outer(v.real, fac.solve(-r.real))
        else:
            delta += 2.0 * np.outer(v, fac.solve(-r)).real
    return delta


def step_factors(hess0, cs):
    """A step factor of I - c B, B = J hess0, for each shift c, or none at all
    when hess0 is not finite (no LU is made) or some I - c B is singular
    (every LU is still made): an object whose solve(b) returns (I - c B)^{-1} b
    and whose sweep(hL, L2, rhs) -> (D, B D) solves [I - h L (x) B] D = rhs
    for hL = h L and L2 = hL hL, with c = h d_s; _inner_iteration runs the
    splitting's mu sweeps over it. A c with no imaginary part is factored in
    real arithmetic, any other in complex.

    If separable_hessian(hess0) (its momentum rows and columns are exactly
    [0 | I]), I - c B = [[I, -c I], [c V'', I]] with V'' = hess0[:m, :m], and
    eliminating x_p leaves S = I + c^2 V'', which has the band of V''
    (_SeparableStep); no 2m matrix is formed. With kl and ku the bandwidths
    of the nonzero entries of V'', S is built and factored in LAPACK band
    storage (gbtrf) when that storage, 2 kl + ku + 1 rows, has fewer rows
    than m; otherwise it gets one dense m x m LU. Any other hess0 gets the
    dense 2m x 2m lu_factor(I - c B) (_DenseStep).
    """
    if not np.all(np.isfinite(hess0)):
        return []
    cs = [c.real if c.imag == 0 else c for c in cs]
    if separable_hessian(hess0):
        m = hess0.shape[0] // 2
        V = hess0[:m, :m]
        kl, ku = _bandwidths(V)
        make = partial(_SeparableStep, V, band=(kl, ku) if 2 * kl + ku + 1 < m else None)
    else:
        make = partial(_DenseStep, apply_J(hess0.T).T)
    facs = []
    for c in cs:
        try:
            facs.append(make(c))
        except np.linalg.LinAlgError:
            facs.append(None)
    return [] if None in facs else facs


def _bandwidths(V):
    """(kl, ku): how far the nonzero entries of V reach below and above its
    diagonal."""
    i, j = np.nonzero(V)
    d = j - i
    return -int(d.min(initial=0)), int(d.max(initial=0))


class _DenseStep:
    """lu_factor(I - c B), 2m x 2m with row pivoting, and B for products."""

    def __init__(self, B, c):
        self.B = B
        self.lu = lu_factor(np.eye(len(B)) - c * B)

    def solve(self, b):
        return lu_solve(self.lu, b)

    def sweep(self, hL, L2, rhs):
        """D with [I - h L (x) B] D = rhs, given hL = h L, by block forward
        substitution, each diagonal block solved with this factor, and the
        rows B D_i, each formed once (L2 is not needed here)."""
        D, BD = np.empty_like(rhs), np.empty_like(rhs)
        for i in range(len(rhs)):
            D[i] = lu_solve(self.lu, rhs[i] + hL[i, :i] @ BD[:i])
            BD[i] = self.B @ D[i]
        return D, BD


class _SeparableStep:
    """I - c B = [[I, -c I], [c V'', I]] through one LU of S = I + c^2 V'':
    in band storage for band = (kl, ku), else dense m x m. B x = (x_p, -V'' x_q)
    is never formed as a matrix.

    c V'' is kept, so a complex c does not upcast the real V'' on every
    solve. The momentum block I is the pivot that eliminates x_p, without a
    row search; the solves and sweeps stay backward stable at rounding level
    for c^2 ||V''|| up to 1e12 (test_nlsolve checks 1e-13).
    """

    def __init__(self, V, c, band):
        self.V, self.c, self.cV = V, c, c * V
        if band is None:
            self.lu = lu_factor(np.eye(len(V)) + c * self.cV)
        else:
            self.lu = lu_factor(_band_storage(c, self.cV, *band), band)

    def solve(self, b):
        """x_q = S^{-1} (b_q + c b_p), x_p = b_p - c V'' x_q."""
        m = len(self.V)
        xq = lu_solve(self.lu, b[:m] + self.c * b[m:])
        return np.concatenate([xq, b[m:] - self.cV @ xq])

    def sweep(self, hL, L2, rhs):
        """D = [Q | P] with [I - h L (x) B] D = rhs, given hL = h L and
        L2 = hL hL, and the rows B D_i as B D = [P | -Q V''] (V'' symmetric).

        The momentum rows P = R_p - h L (Q V'') are eliminated for all stages
        at once, leaving Q + h^2 L^2 (Q V'') = R_q + h L R_p; its diagonal
        blocks are S (L_ii = d_s, c = h d_s), so forward substitution makes
        one lu_solve and one V'' matvec per stage.
        """
        m = len(self.V)
        Q = rhs[:, :m] + hL @ rhs[:, m:]
        QV = np.empty_like(Q)
        for i in range(len(rhs)):
            Q[i] = lu_solve(self.lu, Q[i] - L2[i, :i] @ QV[:i])
            QV[i] = self.V @ Q[i]
        P = rhs[:, m:] - hL @ QV
        return np.concatenate([Q, P], axis=1), np.concatenate([P, -QV], axis=1)


def _band_storage(c, cV, kl, ku):
    """S = I + c cV in LAPACK band storage for the bandwidths kl, ku:
    diagonal d of S in row kl + ku - d, the first kl rows left zero for
    gbtrf. Only the band of cV is read."""
    m = len(cV)
    ab = np.zeros((2 * kl + ku + 1, m), dtype=cV.dtype)
    for d in range(-kl, ku + 1):
        ab[kl + ku - d, max(d, 0):m + min(d, 0)] = c * cV.diagonal(d)
    ab[kl + ku] += 1.0
    return ab


def _inner_iteration(fac, L, T, h, mu):
    """The splitting's inner iteration of one step, eta -> D: mu sweeps of
    fac from D = 0 of [I - h L (x) B] D' = h T (x) B D + eta. h L and
    (h L)^2 are formed once per step, and each sweep returns the B D that the
    next right-hand side needs."""
    hL = h * L
    L2 = hL @ hL

    def run(eta):
        D, BD = fac.sweep(hL, L2, eta)
        for _ in range(mu - 1):
            D, BD = fac.sweep(hL, L2, h * (T @ BD) + eta)
        return D
    return run


def splitting_solve(p, data, opts=SolveOptions()):
    """Inner-outer triangular-splitting iteration in gammahat = Phat gamma.

    Each outer step evaluates eta = Phat F(Phat^{-1} gammahat), runs the mu
    inner sweeps of _inner_iteration, T = data.T = L (U - I), against the one
    factored matrix I - h d_s B, B = J hess H(y0), and subtracts their D from
    gammahat. The sweeps are linear and sign-symmetric in eta, so this has the
    bits of adding the D of -eta. The new step value is y1 = y0 + h gamma_0.
    """
    s, h = p.tableau.s, p.h
    if data is None or data.s != s:
        have = "no splitting data" if data is None else f"splitting data is for s={data.s}"
        raise ValueError(f"{have}, tableau has s={s}")
    # the factor needs one Hessian; this second, unused evaluation stays while
    # the benchmark self-test (perfbench/test_perfbench.py) pins two per step,
    # and goes together with that pin (ROADMAP item 1)
    p.system.hess(p.y0_step)
    hess0 = p.system.hess(p.y0_step)
    facs = step_factors(hess0, [h * data.d])
    inner = _inner_iteration(facs[0], data.L, data.T, h, opts.mu) if facs else None
    Phat, Phat_lu = data.Phat, data.Phat_lu

    def step(ghat):
        D = inner(Phat @ residual_F(p, lu_solve(Phat_lu, ghat)))
        return ghat - D, D

    res = _iterate(p, opts, step, opts.max_outer if facs else 0)
    res.gamma = lu_solve(Phat_lu, res.gamma)
    res.inner_iterations_total = opts.mu * res.outer_iterations
    res.hessian_evaluations = 2
    res.factorizations = 1 if facs or np.all(np.isfinite(hess0)) else 0
    return res


def solve(p, opts=SolveOptions(), data=None):
    """Dispatch on opts.solver. The splitting takes its SplittingData from the
    caller (integrate builds it once per run); without it, it raises."""
    if opts.solver == "fixed_point":
        return fixed_point_solve(p, opts)
    if opts.solver == "simplified_newton":
        return simplified_newton_solve(p, opts)
    return splitting_solve(p, data, opts)
