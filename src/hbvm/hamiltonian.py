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

__all__ = [
    "HamiltonianSystem",
    "apply_J",
    "separable_hessian",
    "vector_field",
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

    @property
    def dim(self):
        return 2 * self.m


def apply_J(v):
    """J v = (v_{m+1..2m}, -v_{1..m}) for the canonical J; a (k, 2m) stack
    is mapped row by row, so the matrix product J M is apply_J(M.T).T."""
    m = v.shape[-1] // 2
    return np.concatenate([v[..., m:], -v[..., :m]], axis=-1)


def separable_hessian(hess):
    """True when the momentum rows and columns of hess are exactly [0 | I],
    as for H = |p|^2/2 + V(q) (unit mass); no tolerance."""
    m = hess.shape[0] // 2
    return not np.any(hess[m:, :m]) and not np.any(hess[:m, m:]) \
        and np.array_equal(hess[m:, m:], np.eye(m))


def vector_field(sys, y):
    """y' = J grad H(y), without materializing J."""
    return apply_J(sys.grad(np.asarray(y, dtype=float)))


# ---------------------------------------------------------------------------
# charged particle in a magnetic field with Biot-Savart potential

def charged_particle(mass=1.0, charge=-1.0, b0=1.0):
    """Motion of a charged particle in a magnetic field, 2m = 6.

    H(x, y, z, x', y', z') = 1/(2 mass) * [(x' - a x/rho^2)^2
        + (y' - a y/rho^2)^2 + (z' + a log rho)^2],
    rho = sqrt(x^2 + y^2), a = charge * b0. Positions (x, y, z) first, then
    the momenta (x', y', z'). The potential is singular on the z-axis; states
    with rho < 1e-8 are rejected (the benchmark trajectory stays near
    rho = 10, so this only flags programming errors). grad also maps a
    (k, 6) stack of states row by row.
    """
    a = charge * b0

    def _uvw(state):
        x, y, px, py, pz = (state[..., i] for i in (0, 1, 3, 4, 5))
        r2 = x * x + y * y
        if np.any(r2 < 1e-16):
            raise ValueError("charged particle state on the z-axis: rho ~ 0")
        u = px - a * x / r2
        v = py - a * y / r2
        w = pz + 0.5 * a * np.log(r2)
        return x, y, r2, u, v, w

    def H(state):
        _, _, _, u, v, w = _uvw(state)
        return (u * u + v * v + w * w) / (2.0 * mass)

    def grad(state):
        x, y, r2, u, v, w = _uvw(state)
        # C pow per element, as for a single state: on arrays, ** 2 squares,
        # which can differ from pow in the last bit
        r4 = np.float_power(r2, 2)
        ax = (y * y - x * x) / r4  # d(x/r2)/dx
        ay = -2.0 * x * y / r4     # d(x/r2)/dy
        bx = ay                    # d(y/r2)/dx
        by = -ax                   # d(y/r2)/dy
        g = np.empty(np.shape(state))
        g[..., 0] = (-a * (u * ax + v * bx) + a * w * x / r2) / mass
        g[..., 1] = (-a * (u * ay + v * by) + a * w * y / r2) / mass
        g[..., 2] = 0.0
        g[..., 3] = u / mass
        g[..., 4] = v / mass
        g[..., 5] = w / mass
        return g

    def hess(state):
        x, y, r2, u, v, w = _uvw(state)
        ax = (y * y - x * x) / r2**2
        ay = -2.0 * x * y / r2**2
        bx, by = ay, -ax
        axx = 2.0 * x * (x * x - 3.0 * y * y) / r2**3
        axy = 2.0 * y * (3.0 * x * x - y * y) / r2**3
        ayy = -axx
        byy = 2.0 * y * (y * y - 3.0 * x * x) / r2**3
        bxy = 2.0 * x * (3.0 * y * y - x * x) / r2**3
        bxx = -byy
        # first derivatives of (u, v, w) wrt (x, y)
        ux, uy = -a * ax, -a * ay
        vx, vy = -a * bx, -a * by
        wx, wy = a * x / r2, a * y / r2
        Hxx = ux * ux + vx * vx + wx * wx + u * (-a * axx) + v * (-a * bxx) + w * (a * ax)
        Hxy = ux * uy + vx * vy + wx * wy + u * (-a * axy) + v * (-a * bxy) + w * (a * ay)
        Hyy = uy * uy + vy * vy + wy * wy + u * (-a * ayy) + v * (-a * byy) + w * (-a * ax)
        M = np.zeros((6, 6))
        M[0, 0], M[0, 1], M[1, 0], M[1, 1] = Hxx, Hxy, Hxy, Hyy
        M[0, 3], M[0, 4], M[0, 5] = ux, vx, wx
        M[1, 3], M[1, 4], M[1, 5] = uy, vy, wy
        M[3:, :2] = M[:2, 3:].T
        M[3, 3] = M[4, 4] = M[5, 5] = 1.0
        return M / mass

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
    """
    n = 7
    dim_q = 2 * n
    w = np.full(n, 10.0)
    w[3] = 1.0e4
    w2 = w * w
    odd = np.arange(0, dim_q, 2)   # indices of q_{2i-1} (0-based)
    even = np.arange(1, dim_q, 2)  # indices of q_{2i}

    def _split(state):
        return state[..., :dim_q], state[..., dim_q:]

    def _ext(q):
        # q with the q_0 = q_{2n+1} = 0 boundary values attached
        zero = np.zeros(q.shape[:-1] + (1,))
        return np.concatenate([zero, q, zero], axis=-1)

    def H(state):
        q, p = _split(state)
        quad = 0.25 * np.sum(w2 * (q[even] - q[odd]) ** 2)
        qe = _ext(q)
        quart = np.sum((qe[1::2] - qe[0::2]) ** 4)  # (q_{2i+1} - q_{2i})^4, i = 0..n
        return 0.5 * p @ p + quad + quart

    def grad(state):
        q, p = _split(state)
        g_q = np.zeros(q.shape)
        springs = 0.5 * w2 * (q[..., even] - q[..., odd])
        g_q[..., odd] -= springs
        g_q[..., even] += springs
        qe = _ext(q)
        cubes = 4.0 * (qe[..., 1::2] - qe[..., 0::2]) ** 3  # i = 0..n
        # term i couples q_{2i+1} (+) and q_{2i} (-); boundary entries drop
        g_quart = np.zeros(qe.shape)
        g_quart[..., 1::2] += cubes
        g_quart[..., 0::2] -= cubes
        g_q += g_quart[..., 1:-1]
        return np.concatenate([g_q, p], axis=-1)

    def hess(state):
        q, _ = _split(state)
        Hq = np.zeros((dim_q, dim_q))
        for i in range(n):
            o, e = odd[i], even[i]
            Hq[o, o] += 0.5 * w2[i]
            Hq[e, e] += 0.5 * w2[i]
            Hq[o, e] -= 0.5 * w2[i]
            Hq[e, o] -= 0.5 * w2[i]
        qe = _ext(q)
        curv = 12.0 * (qe[1::2] - qe[0::2]) ** 2  # i = 0..n
        for i in range(n + 1):
            lo, hi = 2 * i, 2 * i + 1  # extended indices of q_{2i}, q_{2i+1}
            for r in (lo, hi):
                for ccol in (lo, hi):
                    if 1 <= r <= dim_q and 1 <= ccol <= dim_q:
                        sign = 1.0 if r == ccol else -1.0
                        Hq[r - 1, ccol - 1] += sign * curv[i]
        M = np.zeros((2 * dim_q, 2 * dim_q))
        M[:dim_q, :dim_q] = Hq
        M[dim_q:, dim_q:] = np.eye(dim_q)
        return M

    q0 = (np.arange(1, dim_q + 1) - 1.0) / (dim_q - 1.0)
    y0 = np.concatenate([q0, np.zeros(dim_q)])
    return HamiltonianSystem(m=dim_q, H=H, grad=grad, hess=hess, y0=y0,
                             label="fpu", stacked_grad=True)


def harmonic_oscillator(omega=1.0):
    """Quadratic test fixture: H = 1/2 (p^2 + omega^2 q^2), y0 = (1, 0).

    Exact flow from y0: y(t) = (cos(omega t), -omega sin(omega t)).
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
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
