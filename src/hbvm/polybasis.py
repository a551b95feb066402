"""Shifted, orthonormal Legendre polynomials on [0,1] and Gauss quadrature.

The basis used throughout the package is the orthonormal family {P_j} with
deg P_j = j and int_0^1 P_i P_j dx = delta_ij, i.e. P_j(x) = sqrt(2j+1) *
L_j(2x-1) in terms of the standard Legendre polynomials L_j on [-1,1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "legendre_eval", "legendre_basis", "legendre_integral", "gauss_rule",
           "xi"]

MAX_NODES = 50


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian nodes/weights on [0,1]. Nodes are the k roots of P_k."""

    k: int
    nodes: np.ndarray
    weights: np.ndarray


def xi(i):
    """Coupling coefficient xi_i = 1 / (2 sqrt(4 i^2 - 1)), i >= 1."""
    if i < 1:
        raise ValueError(f"xi requires i >= 1, got {i}")
    return 1.0 / (2.0 * np.sqrt(4.0 * i * i - 1.0))


def _legendre_recurrence(n, t):
    """Standard Legendre L_n(t) and L_{n-1}(t) on [-1,1], elementwise in t,
    by the three-term recurrence (L_{-1} = 0)."""
    t = np.asarray(t, dtype=float)
    p, pm1 = np.ones_like(t), np.zeros_like(t)
    for j in range(n):
        p, pm1 = ((2 * j + 1) * t * p - j * pm1) / (j + 1), p
    return p, pm1


def _std_legendre_pair(n, t):
    """L_n(t) and L_n'(t) at interior points |t| < 1: the derivative formula
    (1 - t^2) L_n' = n (L_{n-1} - t L_n) divides by zero at t = +-1, so it
    serves the Gauss nodes only."""
    p, pm1 = _legendre_recurrence(n, t)
    return p, n * (pm1 - t * p) / (1.0 - t * t)


def legendre_eval(j, x):
    """Evaluate the orthonormal shifted Legendre polynomial P_j at x.

    Works elementwise for array x. Uses the three-term recurrence of the
    standard family followed by the sqrt(2j+1) normalization.
    """
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    p, _ = _legendre_recurrence(j, 2.0 * np.asarray(x, dtype=float) - 1.0)
    out = np.sqrt(2.0 * j + 1.0) * p
    return out if out.ndim else float(out)


def legendre_basis(x, r):
    """The len(x) x r matrix of P_j(x_i), j = 0..r-1 (P_s, P_{s+1}, Phat)."""
    return np.column_stack([legendre_eval(j, x) for j in range(r)])


def legendre_integral(j, c):
    """Integral of P_j over [0, c].

    Uses the exact identities
        int_0^c P_0 = 1/2 P_0(c) + xi_1 P_1(c)   (= c)
        int_0^c P_j = xi_{j+1} P_{j+1}(c) - xi_j P_{j-1}(c),   j >= 1,
    which are the relations generating the tableau matrix Xhat.
    """
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    if j == 0:
        return 0.5 * legendre_eval(0, c) + xi(1) * legendre_eval(1, c)
    return xi(j + 1) * legendre_eval(j + 1, c) - xi(j) * legendre_eval(j - 1, c)


def gauss_rule(k):
    """The k-point Gauss-Legendre rule on [0,1].

    Nodes are found by Newton iteration on the standard Legendre polynomial,
    seeded with Chebyshev nodes; weights come from the derivative formula
    b_i = 1 / ((1 - t_i^2) L_k'(t_i)^2) on the mapped interval.
    """
    if not 1 <= k <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {k}")
    i = np.arange(1, k + 1)
    t = np.cos(np.pi * (4 * i - 1) / (4 * k + 2))
    for _ in range(100):
        p, dp = _std_legendre_pair(k, t)
        dt = p / dp
        t = t - dt
        if np.max(np.abs(dt)) < 1e-15:
            break
    else:
        raise RuntimeError(f"Newton iteration for Gauss nodes failed, k={k}")
    p, dp = _std_legendre_pair(k, t)
    w = 1.0 / ((1.0 - t * t) * dp * dp)
    order = np.argsort(t)
    t, w = t[order], w[order]
    c = (1.0 + t) / 2.0
    # enforce the exact symmetry of the rule to kill residual Newton noise
    c = 0.5 * (c + (1.0 - c[::-1]))
    w = 0.5 * (w + w[::-1])
    return QuadratureRule(k=k, nodes=c, weights=w)
