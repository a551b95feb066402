"""Hamiltonian system abstraction and the benchmark problems.

State layout is (all positions, all momenta), so the canonical symplectic
structure is J = [[0, I], [-I, 0]] and the flow is y' = J grad H(y). J is
never materialized as a matrix; see apply_J.

Gradients and Hessians are hand-derived; the test suite validates them
against central finite differences of H (resp. of the gradient).

A system may declare stacked_grad=True: its grad then also accepts a (k, 2m)
stack of states and returns the (k, 2m) stack of their gradients, row by
row, so the solvers evaluate all k stages in one call. The flag is optional;
without it the solvers call grad once per stage.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polybasis import require_integer

__all__ = [
    "HamiltonianSystem",
    "apply_J",
    "separable_hessian",
    "charged_particle",
    "fpu_modified",
    "harmonic_oscillator",
]


@dataclass(frozen=True)
class HamiltonianSystem:
    """A canonical Hamiltonian system of dimension 2m (m positions, m momenta).

    stacked_grad declares that grad maps a (k, 2m) stack of states row by
    row, bit for bit as k separate calls would.
    """

    m: int
    H: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    y0: np.ndarray
    label: str
    stacked_grad: bool = False

    def __post_init__(self):
        require_integer("m", self.m, lo=1)
        if np.shape(self.y0) != (self.dim,):
            raise ValueError(f"require y0 of shape (2m,) = ({self.dim},), got {np.shape(self.y0)}")

    @property
    def dim(self):
        return 2 * self.m


def apply_J(v):
    """J v = (v_{m+1..2m}, -v_{1..m}) for the canonical J; a (k, 2m) stack
    is mapped row by row, so the matrix product J M is apply_J(M.T).T."""
    m = v.shape[-1] // 2
    return np.concatenate([v[..., m:], -v[..., :m]], axis=-1)


def separable_hessian(hess, nonzero=None):
    """True when the momentum rows and columns of hess are exactly [0 | I],
    as for H = |p|^2/2 + V(q) (unit mass); no tolerance. The momentum rows
    are [0 | I] when the diagonal of I is all 1.0 and the rows hold no other
    nonzero entry: no identity is formed.

    nonzero is the mask hess != 0 (NaN and inf count as nonzero), made here
    unless the caller passes the one it has; hess itself is then read only
    on the momentum diagonal."""
    m = hess.shape[0] // 2
    nz = hess != 0 if nonzero is None else nonzero
    return bool((hess[m:, m:].diagonal() == 1.0).all()
                and np.count_nonzero(nz[m:]) == m and not nz[:m, m:].any())


# ---------------------------------------------------------------------------
# charged particle in a magnetic field with Biot-Savart potential

def charged_particle():
    """Motion of a charged particle in a magnetic field, 2m = 6, at the
    paper's constants: unit mass, charge -1 and field 1.

    H(x, y, z, x', y', z') = 1/2 * [(x' + x/rho^2)^2 + (y' + y/rho^2)^2
        + (z' - log rho)^2],
    rho = sqrt(x^2 + y^2). Positions (x, y, z) first, then the momenta
    (x', y', z'). The potential is singular on the z-axis; states with
    rho < 1e-8 are rejected (the benchmark trajectory stays near rho = 10, so
    this only flags programming errors). grad also maps a (k, 6) stack of
    states row by row.
    """

    def _uvw(state):
        x, y, px, py, pz = (state[..., i] for i in (0, 1, 3, 4, 5))
        r2 = x * x + y * y
        if np.any(r2 < 1e-16):
            raise ValueError("charged particle state on the z-axis: rho ~ 0")
        return x, y, r2, px + x / r2, py + y / r2, pz - 0.5 * np.log(r2)

    def _slopes(x, y, r2):
        # ax, ay = d(x/r2)/dx, d(x/r2)/dy; those of y/r2 are ay, -ax.
        # C pow per element, as for a single state: on arrays, ** 2 squares,
        # which can differ from pow in the last bit
        r4 = np.float_power(r2, 2)
        return (y * y - x * x) / r4, -2.0 * x * y / r4

    def H(state):
        _, _, _, u, v, w = _uvw(state)
        return (u * u + v * v + w * w) / 2.0

    def grad(state):
        x, y, r2, u, v, w = _uvw(state)
        ax, ay = _slopes(x, y, r2)
        g = np.empty(np.shape(state))
        g[..., 0] = (u * ax + v * ay) - w * x / r2
        g[..., 1] = (u * ay - v * ax) - w * y / r2
        g[..., 2] = 0.0
        g[..., 3], g[..., 4], g[..., 5] = u, v, w
        return g

    def hess(state):
        x, y, r2, u, v, w = _uvw(state)
        ax, ay = _slopes(x, y, r2)
        r6 = r2**3
        # axx, axy = d(ax)/dx, d(ax)/dy; those of y/r2 are d2/dxdy = -axx, d2/dy2 = -axy
        axx = 2.0 * x * (x * x - 3.0 * y * y) / r6
        axy = 2.0 * y * (3.0 * x * x - y * y) / r6
        # first derivatives of w wrt (x, y); those of (u, v) are the slopes.
        # u_x u_y + v_x v_y = ax ay - ay ax is 0.0, kept for the sign of a zero Hxy
        wx, wy = -x / r2, -y / r2
        Hxx = ax * ax + ay * ay + wx * wx + u * axx + v * axy - w * ax
        Hxy = ax * ay - ay * ax + wx * wy + u * axy - v * axx - w * ay
        Hyy = ay * ay + ax * ax + wy * wy - u * axx - v * axy + w * ax
        M = np.zeros((6, 6))
        M[0, 0], M[0, 1], M[1, 0], M[1, 1] = Hxx, Hxy, Hxy, Hyy
        M[0, 3], M[0, 4], M[0, 5] = ax, ay, wx
        M[1, 3], M[1, 4], M[1, 5] = ay, -ax, wy
        M[3:, :2] = M[:2, 3:].T
        M[3, 3] = M[4, 4] = M[5, 5] = 1.0
        return M

    y0 = np.array([0.5, 10.0, 0.0, -0.1, -0.3, 0.0])
    return HamiltonianSystem(m=3, H=H, grad=grad, hess=hess, y0=y0,
                             label="charged-particle", stacked_grad=True)


# ---------------------------------------------------------------------------
# modified Fermi-Pasta-Ulam chain: 7 stiff-spring pairs, dimension 28

def fpu_modified():
    """Stiff oscillatory FPU variant: n = 7 spring pairs, q, p in R^14.

    H(p, q) = 1/2 sum p_{2i-1}^2 + p_{2i}^2
            + 1/4 sum w_i^2 (q_{2i} - q_{2i-1})^2
            + sum_{i=0..n} (q_{2i+1} - q_{2i})^4,  q_0 = q_{2n+1} = 0,
    with w_1..w_3 = w_5..w_7 = 10 and w_4 = 1e4. Start: p = 0,
    q_i = (i-1)/(2n-1). H is a quartic polynomial, so HBVM(2s,s) conserves
    it exactly. grad also maps a (k, 28) stack of states row by row.

    H, grad and hess are sums over two elongations, slices of q: the stiff
    q_{2i} - q_{2i-1} (q[..., 1::2] - q[..., 0::2]) and the soft
    q_{2i+1} - q_{2i}, i = 0..n, whose ends meet the walls q_0 = q_{2n+1} = 0.
    A negated term that can be zero is written 0.0 - a, never -a or b - a,
    so that no entry is -0.0 where the reference kernels in the tests give 0.0.
    """
    n = 7
    dim_q = 2 * n
    w = np.full(n, 10.0)
    w[3] = 1.0e4
    w2 = w * w
    hw2 = 0.5 * w2

    def _soft(q):
        # (q_1, q_3, ..., q_{2n-1}, q_{2n+1}) - (q_0, q_2, ..., q_{2n})
        d = np.empty(q.shape[:-1] + (n + 1,))
        d[..., :n] = q[..., 0::2]
        d[..., n] = 0.0
        d[..., 1:] -= q[..., 1::2]
        return d

    def H(state):
        q, p = state[:dim_q], state[dim_q:]
        quad = 0.25 * (w2 * (q[1::2] - q[0::2]) ** 2).sum()
        quart = (_soft(q) ** 4).sum()
        return 0.5 * p @ p + quad + quart

    def grad(state):
        q = state[..., :dim_q]
        springs = hw2 * (q[..., 1::2] - q[..., 0::2])
        cubes = 4.0 * _soft(q) ** 3
        g = np.empty(np.shape(state))
        g[..., 0:dim_q:2] = (0.0 - springs) + cubes[..., :n]
        g[..., 1:dim_q:2] = (0.0 - cubes[..., 1:]) + springs
        g[..., dim_q:] = state[..., dim_q:]
        return g

    def hess(state):
        curv = 12.0 * _soft(state[:dim_q]) ** 2
        M = np.zeros((2 * dim_q, 2 * dim_q))
        # views of the main, upper and lower diagonals of M
        diag, upper, lower = (M.reshape(-1)[k::2 * dim_q + 1] for k in (0, 1, 2 * dim_q))
        diag[0:dim_q:2] = hw2 + curv[:n]
        diag[1:dim_q:2] = hw2 + curv[1:]
        diag[dim_q:] = 1.0
        upper[0:dim_q:2] = lower[0:dim_q:2] = -hw2
        upper[1:dim_q - 1:2] = lower[1:dim_q - 1:2] = 0.0 - curv[1:n]
        return M

    q0 = (np.arange(1, dim_q + 1) - 1.0) / (dim_q - 1.0)
    y0 = np.concatenate([q0, np.zeros(dim_q)])
    return HamiltonianSystem(m=dim_q, H=H, grad=grad, hess=hess, y0=y0,
                             label="fpu", stacked_grad=True)


def harmonic_oscillator(omega=1.0):
    """Quadratic test fixture: H = 1/2 (p^2 + omega^2 q^2), y0 = (1, 0).

    Exact flow from y0: y(t) = (cos(omega t), -omega sin(omega t)).
    """
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be positive and finite, got omega = {omega}")
    w2 = omega * omega

    def H(state):
        q, p = state
        return 0.5 * (p * p + w2 * q * q)

    def grad(state):
        q, p = state
        return np.array([w2 * q, p])

    def hess(state):
        return np.diag([w2, 1.0])

    return HamiltonianSystem(m=1, H=H, grad=grad, hess=hess,
                             y0=np.array([1.0, 0.0]), label="harmonic")
