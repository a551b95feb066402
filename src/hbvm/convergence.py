"""Linear convergence analysis of the splitting iteration.

For the scalar test equation y' = lambda y with q = h*lambda, the inner
iteration contracts the error by Z(q) = q (I - q L)^{-1} T, T = L (U - I)
(SplittingData.T). The quantities of interest are the spectral radius rho(q)
along the imaginary axis (maximum amplification factor rho*), the nonstiff
factor rho~ = rho(T) governing q -> 0, the stiff limit rho_inf = rho(U-I) = 0
(U - I is nilpotent), and averaged factors measuring the contraction after a
finite number mu of iterations, in the infinity norm.

amplification_report computes all of them from one batched scan of the
axis: iteration_matrix takes an array of q and returns the (N, s, s) stack
of Z(q), spectral_radius and the averaged norm reduce over the last axes,
and the grid is evaluated in fixed blocks of _BLOCK points, each block once
for every mu, and for rho only where the norms leave room for its maximum.
Every value is bit for bit the one a scalar q gives.

The golden-section refinement of each maximum is in-house (_golden_max), step
for step the golden method of scipy's minimize_scalar, so the analysis runs on
numpy alone: importing scipy's optimization package would cost about 20 MB of
resident memory and 0.3 s.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polybasis import require_integer

__all__ = [
    "AmplificationReport",
    "iteration_matrix",
    "spectral_radius",
    "amplification_report",
]

# imaginary-axis scan: below 1e-3 the linear regime rho ~ rho~ * x applies,
# above 1e4 Z is within o(1e-4) of its q -> inf limit for the shipped d_s
_GRID = np.logspace(-3.0, 4.0, 2000)
# grid points per batched evaluation: bounds the (N, s, s) temporaries
_BLOCK = 250
# the placeholder of a pruned grid point's rho, below any spectral radius, and
# the relative slack of the pruning test: the bounds hold in exact arithmetic,
# and the slack covers the rounding of both sides
_PRUNED = -1.0
_ROUNDING = 1e-9
# golden-ratio conjugate (sqrt(5) - 1) / 2, to the 8 digits scipy's golden method uses
_GOLDEN = 0.61803399


@dataclass(frozen=True)
class AmplificationReport:
    s: int
    rho_star: float
    x_star: float
    rho_tilde: float
    rho_inf: float
    averaged: list = field(default_factory=list)  # (mu, rho*_mu, rho~_mu, rho_inf_mu)


def iteration_matrix(q, data):
    """Z(q) = q (I - q L)^{-1} T, T = L (U - I); for an array of N values of
    q, the (N, s, s) stack of Z."""
    q = np.asarray(q)[..., None, None]
    M = np.eye(data.s) - q * data.L
    return q * np.linalg.solve(M, data.T)


def spectral_radius(M):
    """Largest eigenvalue modulus of a square matrix; for an (N, s, s) stack,
    the array of N radii."""
    r = np.max(np.abs(np.linalg.eigvals(M)), axis=-1)
    return float(r) if r.ndim == 0 else r


def _golden_max(f, lo, mid, hi, xtol):
    """(max, argmax) of f by golden section on a bracket lo < mid < hi with
    f(mid) above f(lo) and f(hi), to relative tolerance xtol in x.

    Step for step scipy's minimize_scalar(-f, method="golden"), so x
    and f(x) are bit for bit its res.x and -res.fun; unlike scipy it does not
    re-evaluate the three bracket points to check them."""
    c = 1.0 - _GOLDEN
    x0, x3 = lo, hi
    if abs(hi - mid) > abs(mid - lo):
        x1, x2 = mid, mid + c * (hi - mid)
    else:
        x1, x2 = mid - c * (mid - lo), mid
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1, x2 = x1, x2, _GOLDEN * x2 + c * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLDEN * x1 + c * x0
            f2, f1 = f1, f(x1)
    return (f1, x1) if f1 > f2 else (f2, x2)


def _maximize_on_axis(vals, f):
    """max over x in _GRID, given vals = f at each gridpoint, refined by
    golden-section search of f (a float to a float) around the best
    gridpoint to relative tolerance 1e-10. Returns (max, argmax)."""
    i = int(np.argmax(vals))
    if i == 0 or i == len(_GRID) - 1 or vals[i] <= max(vals[i - 1], vals[i + 1]):
        return float(vals[i]), float(_GRID[i])
    fmax, xmax = _golden_max(f, _GRID[i - 1], _GRID[i], _GRID[i + 1], 1e-10)
    if fmax >= vals[i]:
        return float(fmax), float(xmax)
    return float(vals[i]), float(_GRID[i])


def _averaged_norm(M, mu):
    """||M^mu||_inf^(1/mu); for an (N, s, s) stack, the array of N values.

    float_power calls C pow per element, as ** does on a float; ** on an
    array may round differently."""
    r = np.max(np.sum(np.abs(np.linalg.matrix_power(M, mu)), axis=-1), axis=-1)
    r = np.float_power(r, 1.0 / mu)
    return float(r) if r.ndim == 0 else r


def amplification_report(data, mus=(1, 2, 3)):
    """Full amplification analysis for one splitting: rho* = max_x rho(Z(ix))
    and its argmax, rho~ = rho(T), rho_inf = rho(U - I), and for each mu the
    averaged factors (mu, rho*_mu, rho~_mu, rho_inf_mu), rho*_mu =
    sup_x ||Z(ix)^mu||^(1/mu), etc.

    Conjugate symmetry rho(ix) = rho(-ix) halves the scan to x >= 0. Each
    block of _GRID is evaluated once and reduced at once to every mu's
    averaged norm (and to ||Z|| when 1 is not among mus); only those values
    are kept, not the Z stacks. Each of these norms bounds rho(Z) from above,
    so rho(Z) is computed only at the points whose smallest bound reaches the
    largest rho found so far, that of the block's point of largest bound
    first: the maximum and its neighbours are among them. Every other point
    gets _PRUNED, below any radius, which _maximize_on_axis never picks.
    """
    for mu in mus:
        require_integer("mu", mu, lo=1)
    bounding = mus if 1 in mus else (*mus, 1)
    best, rho, norms = _PRUNED, [], []
    for i in range(0, len(_GRID), _BLOCK):
        Z = iteration_matrix(1j * _GRID[i:i + _BLOCK], data)
        block = [_averaged_norm(Z, mu) for mu in bounding]
        bound = np.min(block, axis=0)
        r = np.full(len(Z), _PRUNED)
        j = int(np.argmax(bound))
        r[j] = spectral_radius(Z[j])
        keep = bound >= (1.0 - _ROUNDING) * max(best, r[j])
        keep[j] = False
        if keep.any():
            r[keep] = spectral_radius(Z[keep])
        best = max(best, r.max())
        rho.append(r)
        norms.append(block[:len(mus)])
    vals = [np.concatenate(rho)] + [np.concatenate(col) for col in zip(*norms)]

    star, xstar = _maximize_on_axis(
        vals[0], lambda x: spectral_radius(iteration_matrix(1j * x, data)))
    stiff = data.U - np.eye(data.s)
    averaged = []
    for mu, v in zip(mus, vals[1:]):
        star_mu, _ = _maximize_on_axis(
            v, lambda x: _averaged_norm(iteration_matrix(1j * x, data), mu))
        averaged.append((mu, star_mu, _averaged_norm(data.T, mu), _averaged_norm(stiff, mu)))
    return AmplificationReport(data.s, star, xstar, spectral_radius(data.T),
                               spectral_radius(stiff), averaged)
