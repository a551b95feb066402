"""Shifted, orthonormal Legendre polynomials on [0,1] and Gauss quadrature.

The basis used throughout the package is the orthonormal family {P_j} with
deg P_j = j and int_0^1 P_i P_j dx = delta_ij, i.e. P_j(x) = sqrt(2j+1) *
L_j(2x-1) in terms of the standard Legendre polynomials L_j on [-1,1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "legendre_basis", "gauss_rule", "xi"]

MAX_NODES = 50


def require_integer(name, value):
    """ValueError naming the parameter unless value is an int or a numpy integer."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"require an integer {name}, got {name} = {value!r}")


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian nodes/weights on [0,1]. Nodes are the k roots of P_k."""

    nodes: np.ndarray
    weights: np.ndarray


def xi(i):
    """Coupling coefficient xi_i = 1 / (2 sqrt(4 i^2 - 1)), i >= 1."""
    if i < 1:
        raise ValueError(f"xi requires i >= 1, got {i}")
    return 1.0 / (2.0 * np.sqrt(4.0 * i * i - 1.0))


def _legendre(n, t):
    """The standard Legendre L_0(t), ..., L_n(t) on [-1,1] at the float array
    t, by one pass of the three-term recurrence: L[..., j] = L_j(t). The extra
    last column is L_{-1} = 0, which L[..., j - 1] reads at j = 0."""
    L = np.zeros(t.shape + (n + 2,))
    L[..., 0] = 1.0
    for j in range(n):
        L[..., j + 1] = ((2 * j + 1) * t * L[..., j] - j * L[..., j - 1]) / (j + 1)
    return L[..., :n + 1]


def _std_legendre_pair(n, t):
    """L_n(t) and L_n'(t) at interior points |t| < 1, for n >= 1: the
    derivative formula (1 - t^2) L_n' = n (L_{n-1} - t L_n) divides by zero at
    t = +-1, so it serves the Gauss nodes only."""
    L = _legendre(n, t)
    return L[..., n], n * (L[..., n - 1] - t * L[..., n]) / (1.0 - t * t)


def legendre_basis(x, r):
    """The len(x) x r matrix of P_j(x_i), j = 0..r-1 (P_s, P_{s+1}, Phat):
    column j is sqrt(2j+1) L_j(2x-1)."""
    L = _legendre(r - 1, 2.0 * np.asarray(x, dtype=float) - 1.0)
    return np.sqrt(2.0 * np.arange(r) + 1.0) * L


def gauss_rule(k):
    """The k-point Gauss-Legendre rule on [0,1].

    Nodes are found by Newton iteration on the standard Legendre polynomial,
    seeded with Chebyshev nodes; weights come from the derivative formula
    b_i = 1 / ((1 - t_i^2) L_k'(t_i)^2) on the mapped interval.
    """
    require_integer("k", k)
    if not 1 <= k <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {k}")
    t = np.cos(np.pi * (4 * np.arange(1, k + 1) - 1) / (4 * k + 2))
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
    return QuadratureRule(nodes=c, weights=w)
