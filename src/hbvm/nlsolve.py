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
    gamma, mu inner sweeps per step (_inner_iteration), each a solve of the
    block lower-triangular system [I - h L (x) B] D = rhs against one factor
    made per step (sweep_factor); the final gammahat is mapped to gamma once.

solve dispatches on SolveOptions.solver. The splitting needs the
SplittingData of the tableau's s from its caller: integrate builds it once
per run, and solve builds nothing per step.

Every factored matrix is made from B = J hess H(y0), one per shift for
Newton and one per step for the splitting; the Hessian's entries alone pick
its form, read in one structure pass (_step_form): the mask hess0 != 0 gives
both separability and the band of V''. step_factors(hess0, cs) factors
I - c B for each shift c, real when c has no imaginary part; a step factor
offers solve(b) = (I - c B)^{-1} b and sweep(hL, L2, rhs) -> (D, B D), the
block forward substitution of [I - h L (x) B] D = rhs (hL = h L,
L2 = hL hL, c = h d_s) that also returns the rows B D_i the next sweep
needs. When the Hessian's momentum rows are exactly [0 | I]
(H = |p|^2/2 + V(q), unit mass), I - c B = [[I, -c I], [c V'', I]]: the
factor is one LU of the m x m matrix S = I + c^2 V'', a solve is one S solve
and one V'' product, and a sweep eliminates the momenta of all s stages at
once, one S solve and one V'' product per stage; no 2m x 2m matrix is
formed. S has the band of V'': when LAPACK band storage (2 kl + ku + 1 rows
for the bandwidths kl, ku of V'') has fewer rows than m, V'' and c V'' are
kept in the m x (kl + ku + 1) layout of each node's neighbours (_Band), S is
built from it in band storage and factored by gbtrf, and each V'' product is
one band product (_band_product): O(m) for a fixed band, and no m x m array.
Otherwise S is a dense m x m getrf. Any other Hessian is factored densely,
2m x 2m with row pivoting.

sweep_factor(hess0, h, data) makes the splitting's one factor of a step, an
object with solve(rhs) -> D and sweep(rhs) -> (D, B D) for
[I - h L (x) B] D = rhs; _inner_iteration is the one loop of mu sweeps over
it. On a separable Hessian whose V'' passes that band test, the factor is
one pivoted band LU of the whole 2ms x 2ms sweep matrix (_BandSweep),
unknowns ordered node by node, and a sweep is one gbtrs: O(m) per factor and
per sweep. On every other Hessian (m = 1, a wide V'', a
non-separable B) it is step_factors' factor of the diagonal block
I - h d_s B with its per-stage sweep.
Simplified Newton never uses the sweep factor.

The hot path makes one call per stack where it can: the residual evaluates
all k stage gradients in one grad call when the system declares
stacked_grad (else one call per stage), the stage maps W = P_{s+1} Xhat and
M = P_s^T Omega and the eigendecomposition of X_s come precomputed with the
tableau, Phat comes factored with the splitting data, and every block solve
calls LAPACK getrs or gbtrs directly, the routine picked once per factor.
lu_factor and lu_solve (from hbvm.lu) are the one factor and the one solve
entry point; the step and sweep factors call them through this module's
names. A non-finite gradient, correction or Hessian, or a singular step
matrix, is not an error: it ends the step with converged=False. Every
SolveResult counts the gradient and Hessian evaluations and the
factorizations its step made.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

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
    "sweep_factor",
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
    for hL = h L and L2 = hL hL, with c = h d_s, by block forward substitution,
    one solve per stage. A c with no imaginary part is factored in real
    arithmetic, any other in complex. Simplified Newton uses the solves; the
    splitting uses the sweep of one such factor wherever sweep_factor does not
    factor its whole sweep matrix.

    _step_form reads hess0 once. If separable_hessian(hess0) (its momentum
    rows and columns are exactly [0 | I]), I - c B = [[I, -c I], [c V'', I]]
    with V'' = hess0[:m, :m], and eliminating x_p leaves S = I + c^2 V'', which
    has the band of V'' (_SeparableStep); no 2m matrix is formed. For a banded
    V'' (a _Band), S is built in LAPACK band storage from c V'' kept in the
    band's neighbour layout and factored by gbtrf, and a solve is one gbtrs
    and one band product: no m x m array either. A wide V'' gets one dense
    m x m LU of S. Any other hess0 gets the dense 2m x 2m
    lu_factor(I - c B) (_DenseStep).
    """
    form = _step_form(hess0)
    if form is None:
        return []
    cs = [c.real if c.imag == 0 else c for c in cs]
    return _factors(hess0, cs, *form)


class _Band(NamedTuple):
    """A banded V'' in the layout of each node's neighbours."""
    kl: int                 # bandwidths below and above the diagonal
    ku: int
    near: np.ndarray        # (m, kl + ku + 1): b = a - kl, ..., a + ku, clipped to [0, m)
    inside: np.ndarray      # where b is not clipped
    Vb: np.ndarray          # V''[a, b] where inside, else 0


def _step_form(hess0):
    """(V'', band) from one structure pass over hess0, or None when hess0 is
    not finite: V'' = hess0[:m, :m] and band its _Band when LAPACK band
    storage, 2 kl + ku + 1 rows, has fewer rows than m, else None, for a
    separable_hessian(hess0); (None, None) for any other hess0.

    The one mask hess0 != 0 (NaN and inf count as nonzero) decides
    separability and gives the bandwidths kl, ku of V''. On a banded V'' it
    proves every entry outside the band to be exactly 0 or 1, so only the
    gathered band is checked for finiteness, O(m); any other hess0 is checked
    whole."""
    nz = hess0 != 0
    V = None
    if separable_hessian(hess0, nz):
        m = len(hess0) // 2
        V = hess0[:m, :m]
        kl, ku = _bandwidths(nz[:m, :m])
        if 2 * kl + ku + 1 < m:
            node, near, inside = _neighbours(m, kl, ku)
            Vb = np.where(inside, V[node, near], 0.0)
            return (V, _Band(kl, ku, near, inside, Vb)) if np.isfinite(Vb).all() else None
    return (V, None) if np.isfinite(hess0).all() else None


def _factors(hess0, cs, V, band):
    """The step factors of step_factors, given _step_form(hess0)."""
    if V is None:
        make = partial(_DenseStep, apply_J(hess0.T).T)
    else:
        make = partial(_SeparableStep, V, band=band)
    facs = []
    for c in cs:
        try:
            facs.append(make(c))
        except np.linalg.LinAlgError:
            facs.append(None)
    return [] if None in facs else facs


def _bandwidths(nonzero):
    """(kl, ku): how far the True entries of the square mask nonzero reach
    below and above its diagonal."""
    i, j = np.divmod(np.flatnonzero(nonzero), len(nonzero))
    d = j - i
    return -int(d.min(initial=0)), int(d.max(initial=0))


@lru_cache(maxsize=32)
def _neighbours(m, kl, ku):
    """(node, near, inside) for m nodes and the bandwidths kl, ku: the (m, 1)
    column of nodes a, and near and inside of their _Band."""
    node = np.arange(m)[:, None]
    near = node + np.arange(-kl, ku + 1)
    inside = (near >= 0) & (near < m)
    near = np.clip(near, 0, m - 1)
    for arr in (node, near, inside):
        arr.flags.writeable = False
    return node, near, inside


def _band_product(Vb, near, x):
    """V'' x, or the rows V'' x_i of a stack, for the V'' whose band Vb holds
    in the neighbour layout near (see _Band); only the first m entries of a
    row are read. Each node's sum runs over its band in order, O(m)."""
    if x.ndim == 1:
        return np.einsum("mw,mw->m", x[near], Vb)
    return np.einsum("smw,mw->sm", x[:, near], Vb)


class _DenseStep:
    """lu_factor(I - c B), 2m x 2m with row pivoting, and B for products."""

    def __init__(self, B, c):
        self.B = B
        self.lu = lu_factor(np.eye(len(B)) - c * B)

    def solve(self, b):
        return lu_solve(self.lu, b)

    def sweep(self, hL, L2, rhs, products=True):
        """D with [I - h L (x) B] D = rhs, given hL = h L, by block forward
        substitution, each diagonal block solved with this factor, and the
        rows B D_i, each formed once (L2 is not needed here). With
        products=False only D is returned, and the last row B D_{s-1}, which
        no later stage reads, is not formed."""
        D, BD = np.empty_like(rhs), np.empty_like(rhs)
        for i in range(len(rhs)):
            D[i] = lu_solve(self.lu, rhs[i] + hL[i, :i] @ BD[:i])
            if products or i + 1 < len(rhs):
                BD[i] = self.B @ D[i]
        return (D, BD) if products else D


class _SeparableStep:
    """I - c B = [[I, -c I], [c V'', I]] through one LU of S = I + c^2 V'':
    for a _Band of V'', in band storage with V'' and c V'' kept in the band's
    neighbour layout; else dense m x m. B x = (x_p, -V'' x_q) is never formed
    as a matrix.

    c V'' is kept, so a complex c does not upcast the real V'' on every
    solve. The momentum block I is the pivot that eliminates x_p, without a
    row search; the solves and sweeps stay backward stable at rounding level
    for c^2 ||V''|| up to 1e12 (test_nlsolve checks 1e-13).
    """

    def __init__(self, V, c, band):
        self.c, self.band = c, band
        if band is None:
            self.V, self.cV = V, c * V
            self.lu = lu_factor(np.eye(len(V)) + c * self.cV)
        else:
            self.V, self.cV = band.Vb, c * band.Vb
            self.lu = lu_factor(_band_storage(c, self.cV, band), band[:2])

    def _times(self, A, x):
        """A x for A = self.V or self.cV: a matvec, or a band product."""
        return A @ x if self.band is None else _band_product(A, self.band.near, x)

    def solve(self, b):
        """x_q = S^{-1} (b_q + c b_p), x_p = b_p - c V'' x_q."""
        m = len(self.V)
        xq = lu_solve(self.lu, b[:m] + self.c * b[m:])
        return np.concatenate([xq, b[m:] - self._times(self.cV, xq)])

    def sweep(self, hL, L2, rhs, products=True):
        """D = [Q | P] with [I - h L (x) B] D = rhs, given hL = h L and
        L2 = hL hL, and the rows B D_i as B D = [P | -Q V''] (V'' symmetric);
        with products=False only D.

        The momentum rows P = R_p - h L (Q V'') are eliminated for all stages
        at once, leaving Q + h^2 L^2 (Q V'') = R_q + h L R_p; its diagonal
        blocks are S (L_ii = d_s, c = h d_s), so forward substitution makes
        one lu_solve and one V'' product per stage.
        """
        m = len(self.V)
        Q = rhs[:, :m] + hL @ rhs[:, m:]
        QV = np.empty_like(Q)
        for i in range(len(rhs)):
            Q[i] = lu_solve(self.lu, Q[i] - L2[i, :i] @ QV[:i])
            QV[i] = self._times(self.V, Q[i])
        P = rhs[:, m:] - hL @ QV
        D = np.concatenate([Q, P], axis=1)
        return (D, np.concatenate([P, -QV], axis=1)) if products else D


def _band_storage(c, cVb, band):
    """S = I + c cV'' in LAPACK band storage, from cVb = c V'' in the
    neighbour layout of band: diagonal d of S in row kl + ku - d, the first kl
    rows left zero for gbtrf."""
    kl, ku = band[:2]
    m = len(cVb)
    ab = np.zeros((2 * kl + ku + 1, m), dtype=cVb.dtype)
    for w, d in enumerate(range(-kl, ku + 1)):
        ab[kl + ku - d, max(d, 0):m + min(d, 0)] = c * cVb[max(-d, 0):m - max(d, 0), w]
    ab[kl + ku] += 1.0
    return ab


def sweep_factor(hess0, h, data):
    """The splitting's one factor of a step, for SplittingData data: an
    object whose solve(rhs) returns D with [I - h L (x) B] D = rhs,
    B = J hess0, and whose sweep(rhs) -> (D, B D) also returns the rows
    B D_i, or None when hess0 is not finite (no LU is made) or the matrix is
    singular.

    When _step_form finds hess0 separable with a banded V'', the whole
    2ms x 2ms block lower-triangular sweep matrix is one pivoted band LU
    (_BandSweep), O(m) for a fixed band, and a sweep is one gbtrs. Otherwise
    the factor is step_factors' factor of its diagonal block I - h d_s B and
    a sweep is its block forward substitution, one solve per stage
    (_StageSweep). Either way a step makes one factorization.
    """
    form = _step_form(hess0)
    if form is None:
        return None
    V, band = form
    if band is not None:
        try:
            return _BandSweep(band, h, data.L)
        except np.linalg.LinAlgError:
            return None
    facs = _factors(hess0, [h * data.d], V, band)
    return _StageSweep(facs[0], h * data.L) if facs else None


class _StageSweep:
    """The sweep of a step factor of I - h d_s B, block forward substitution
    over the stages, with hL = h L and (h L)^2 formed once per step; solve
    skips the products only sweep returns."""

    def __init__(self, fac, hL):
        self.fac, self.lu = fac, fac.lu
        self.hL, self.L2 = hL, hL @ hL

    def sweep(self, rhs):
        return self.fac.sweep(self.hL, self.L2, rhs)

    def solve(self, rhs):
        return self.fac.sweep(self.hL, self.L2, rhs, products=False)


class _BandSweep:
    """[I - h L (x) B] for B = [[0, I], [-V'', 0]] with a banded V'', as one
    LU with partial pivoting (gbtrf) of the whole sweep matrix; a sweep is
    one gbtrs.

    The unknowns are ordered node by node, (q, p) of stage i at node a at
    a 2s + v s + i for v = 0, 1, which gives the matrix the band of
    _sweep_layout. The momenta are not eliminated first: the unreduced system
    keeps the pivoted solve as accurate forward as a dense one. The rows
    B D_i = (p_i, -V'' q_i) take one band product with the _Band of V''.
    """

    def __init__(self, band, h, L):
        s, m = len(L), len(band.Vb)
        lay = _sweep_layout(m, s, *band[:2])
        self.band = band
        # -1 for h L_ij p_j(a) in the q rows, V''_ab for h L_ij q_j(b) in the p rows
        coef = np.concatenate((np.full(m, -1.0), band.Vb[band.inside]))
        KL, KU = lay.band
        ab = np.zeros((2 * KL + KU + 1, 2 * m * s))
        ab[KL + KU] = 1.0
        # h (L_ij V''_ab): the entries of I - h kron(L, B), rounded alike
        ab.reshape(-1)[lay.flat] = h * np.multiply.outer(coef, L[lay.i, lay.j]).ravel()
        self.lu = lu_factor(ab, lay.band)

    def solve(self, rhs):
        s, n = rhs.shape
        m = n // 2
        x = lu_solve(self.lu, rhs.reshape(s, 2, m).transpose(2, 1, 0).ravel())
        return x.reshape(m, 2, s).transpose(2, 1, 0).reshape(s, n)

    def sweep(self, rhs):
        D, band = self.solve(rhs), self.band
        VQ = _band_product(band.Vb, band.near, D)
        return D, np.concatenate([D[:, len(band.Vb):], -VQ], axis=1)


class _SweepLayout(NamedTuple):
    band: tuple             # (KL, KU) of the sweep matrix
    flat: np.ndarray        # flat positions in band storage of the q rows' entries,
                            # then the p rows', each times the entries of L
    i: np.ndarray           # (i, j), j <= i: the entries of L, row by row
    j: np.ndarray


@lru_cache(maxsize=32)
def _sweep_layout(m, s, kl, ku):
    """Where the entries of I - h L (x) B go in LAPACK band storage, for m
    nodes, s stages and the bandwidths kl, ku of V''. Row (a, q, i) holds
    q_i(a) - h sum_j L_ij p_j(a), row (a, p, i) holds
    p_i(a) + h sum_j L_ij sum_b V''_ab q_j(b), b in _neighbours; with the
    unknowns at a 2s + v s + i, the bandwidths are KL = 2s kl + 2s - 1 and
    KU = max(s, 2s ku - s)."""
    KL, KU = 2 * s * kl + 2 * s - 1, max(s, 2 * s * ku - s)
    n = 2 * m * s
    i, j = np.tril_indices(s)
    node, near, inside = _neighbours(m, kl, ku)
    a, b = np.broadcast_to(node, near.shape)[inside], near[inside]
    rows = np.concatenate([(2 * s * node + i).ravel(), (2 * s * a[:, None] + s + i).ravel()])
    cols = np.concatenate([(2 * s * node + s + j).ravel(), (2 * s * b[:, None] + j).ravel()])
    lay = _SweepLayout((KL, KU), (KL + KU + rows - cols) * n + cols, i, j)
    for arr in lay[1:]:
        arr.flags.writeable = False
    return lay


def _inner_iteration(fac, T, h, mu):
    """The splitting's inner iteration of one step, eta -> D: mu sweeps of
    the sweep factor fac from D = 0 of [I - h L (x) B] D' = h T (x) B D + eta.
    Each sweep but the last returns the B D that the next right-hand side
    needs; the last needs only D (fac.solve)."""
    def run(eta):
        rhs = eta
        for _ in range(mu - 1):
            _, BD = fac.sweep(rhs)
            rhs = h * (T @ BD) + eta
        return fac.solve(rhs)
    return run


def splitting_solve(p, data, opts=SolveOptions()):
    """Inner-outer triangular-splitting iteration in gammahat = Phat gamma.

    Each outer step evaluates eta = Phat F(Phat^{-1} gammahat), runs the mu
    inner sweeps of _inner_iteration, T = data.T = L (U - I), over the step's
    one sweep factor (sweep_factor, from B = J hess H(y0)), and subtracts
    their D from gammahat. The sweeps are linear and sign-symmetric in eta,
    so this has the bits of adding the D of -eta. The new step value is
    y1 = y0 + h gamma_0.
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
    fac = sweep_factor(hess0, h, data)
    inner = _inner_iteration(fac, data.T, h, opts.mu) if fac else None
    Phat, Phat_lu = data.Phat, data.Phat_lu

    def step(ghat):
        D = inner(Phat @ residual_F(p, lu_solve(Phat_lu, ghat)))
        return ghat - D, D

    res = _iterate(p, opts, step, opts.max_outer if fac else 0)
    res.gamma = lu_solve(Phat_lu, res.gamma)
    res.inner_iterations_total = opts.mu * res.outer_iterations
    res.hessian_evaluations = 2
    res.factorizations = 1 if fac or np.all(np.isfinite(hess0)) else 0
    return res


def solve(p, opts=SolveOptions(), data=None):
    """Dispatch on opts.solver. The splitting takes its SplittingData from the
    caller (integrate builds it once per run); without it, it raises."""
    if opts.solver == "fixed_point":
        return fixed_point_solve(p, opts)
    if opts.solver == "simplified_newton":
        return simplified_newton_solve(p, opts)
    return splitting_solve(p, data, opts)
