"""Constant-stepsize time stepping with per-run statistics.

Also provides the explicit baseline: an order-6 symmetric composition of the
Stoermer-Verlet map (9 substeps, 18 force evaluations per step) for separable
Hamiltonians H = T(p) + V(q) with T = 1/2 |p|^2.

Both integrators run one step loop, _march, which owns the step count, the
energy error, the stored states and the failure time. Each supplies only
advance(y, stats): it makes one step from y, adds the work that step did to
stats and returns the new state, or None when the step failed (a stage solve
that did not converge, a diverged composition step); the run then ends at y.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import HamiltonianSystem, separable_hessian
from .nlsolve import SolveOptions, StageProblem, solve
from .polybasis import MAX_NODES, require_integer
from .splitting import MAX_S, build_splitting
from .tableau import build_tableau

__all__ = [
    "RunConfig",
    "RunStats",
    "Trajectory",
    "integrate",
    "composition6_stormer_verlet",
]

DIVERGENCE_THRESHOLD = 1e10


def _check_run(h, t_end, store_every):
    """ValueError naming the first bad parameter of a run: h and t_end must
    be finite and positive (NaN fails both tests), store_every an integer >= 0."""
    for name, value in (("h", h), ("t_end", t_end)):
        if not 0 < value < np.inf:
            raise ValueError(f"require h > 0 and t_end > 0, both finite; got {name} = {value}")
    if not isinstance(store_every, (int, np.integer)) or store_every < 0:
        raise ValueError(f"require an integer store_every >= 0, got store_every = {store_every!r}")


@dataclass(frozen=True)
class RunConfig:
    system: HamiltonianSystem
    k: int
    s: int
    h: float
    t_end: float
    options: SolveOptions = field(default_factory=SolveOptions)
    store_every: int = 1  # 0: keep only the endpoints

    def __post_init__(self):
        _check_run(self.h, self.t_end, self.store_every)
        require_integer("k", self.k)
        require_integer("s", self.s)
        if self.k < self.s or self.s < 1:
            raise ValueError("require k >= s >= 1")
        if self.k > MAX_NODES:
            raise ValueError(f"require k <= {MAX_NODES}, got k = {self.k}")
        if self.options.solver == "splitting" and self.s > MAX_S:
            raise ValueError(f"the splitting requires s <= {MAX_S}, got s = {self.s}")


@dataclass
class RunStats:
    steps: int = 0
    total_outer_iterations: int = 0
    total_inner_iterations: int = 0
    gradient_evaluations: int = 0
    hessian_evaluations: int = 0
    factorizations: int = 0
    max_hamiltonian_error: float = 0.0
    all_converged: bool = True
    diverged: bool = False
    failed_at: float | None = None


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), 2m)


def integrate(cfg):
    """Advance ceil(t_end / h) steps of HBVM(k,s) with the configured solver.

    On solver non-convergence the run is truncated, all_converged is set to
    False and the failure time is recorded; this mirrors the way benchmark
    tables report '***' entries.
    """
    sysm, h, opts = cfg.system, cfg.h, cfg.options
    tab = build_tableau(cfg.k, cfg.s)
    data = build_splitting(cfg.s) if opts.solver == "splitting" else None
    comp = np.zeros(sysm.dim)  # Kahan compensation for the state update

    def advance(y, stats):
        nonlocal comp
        res = solve(StageProblem(tab, sysm, y, h), opts, data=data)
        stats.total_outer_iterations += res.outer_iterations
        stats.total_inner_iterations += res.inner_iterations_total
        stats.gradient_evaluations += res.gradient_evaluations
        stats.hessian_evaluations += res.hessian_evaluations
        stats.factorizations += res.factorizations
        if not res.converged:
            return None
        # compensated update: y += h*gamma_0 accumulates over many steps
        incr = h * res.gamma[0] - comp
        y_new = y + incr
        comp = (y_new - y) - incr
        return y_new

    return _march(sysm, h, cfg.t_end, cfg.store_every, advance, RunStats())


def _march(system, h, t_end, store_every, advance, stats):
    """ceil(t_end / h) calls of advance from y0 (the contract is in the module
    docstring); the trajectory holds y0, every store_every-th state (0: none)
    and always, once, the state the run ended at."""
    q = t_end / h  # relative slack: a quotient rounded up from N still makes N steps
    n_steps = int(np.ceil(q - 4 * np.finfo(float).eps * q))
    y = np.array(system.y0, dtype=float)
    H0 = system.H(y)
    times, states = [0.0], [y.copy()]
    for n in range(1, n_steps + 1):
        y_new = advance(y, stats)
        if y_new is None:
            stats.all_converged = False
            stats.failed_at = (n - 1) * h
            break
        y = y_new
        stats.steps += 1
        stats.max_hamiltonian_error = max(stats.max_hamiltonian_error,
                                          abs(system.H(y) - H0))
        if store_every and n % store_every == 0:
            times.append(n * h)
            states.append(y.copy())
    if times[-1] != stats.steps * h:
        times.append(stats.steps * h)
        states.append(y.copy())
    return Trajectory(np.array(times), np.array(states)), stats


def _triple_jump_6():
    """9-stage order-6 symmetric composition by the triple-jump construction:
    order 2 -> 4 with (a, b, a), a = 1/(2 - 2^(1/3)), b = 1 - 2a, then
    4 -> 6 with (c, d, c), c = 1/(2 - 2^(1/5)), d = 1 - 2c."""
    a = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    b = 1.0 - 2.0 * a
    c = 1.0 / (2.0 - 2.0 ** (1.0 / 5.0))
    d = 1.0 - 2.0 * c
    return np.array([c * a, c * b, c * a, d * a, d * b, d * a, c * a, c * b, c * a])


_COMPOSITION6 = _triple_jump_6()


def composition6_stormer_verlet(system, h, t_end, store_every=1):
    """Order-6 explicit composition of Stoermer-Verlet for separable H.

    Requires H = 1/2 |p|^2 + V(q): the Hessian at y0 (one counted hess call)
    must pass hamiltonian.separable_hessian, the predicate that also picks the
    m x m step-matrix factor. Each of the 9 substeps is one velocity-Verlet
    step, 2 force evaluations each, 18 per step. Divergence (state norm above
    1e10) marks the run and ends it at the last finite state.
    """
    return composition6_run(system, h, t_end, store_every)()


def composition6_run(system, h, t_end, store_every):
    """composition6_stormer_verlet's checks, made now, and its run() -> (traj, stats)."""
    _check_run(h, t_end, store_every)
    m = system.m
    if not separable_hessian(system.hess(np.asarray(system.y0, dtype=float))):
        raise ValueError("composition method requires a separable Hamiltonian "
                         "H = |p|^2/2 + V(q)")

    def force(q):
        # dV/dq = grad H wrt q; independent of p for separable H
        return system.grad(np.concatenate([q, np.zeros(m)]))[:m]

    def advance(y, stats):
        q, p = y[:m], y[m:]
        # blowup overflows, in a substep or in the norm of a huge finite
        # state; it is recorded as divergence, not raised as an arithmetic error
        with np.errstate(over="ignore", invalid="ignore"):
            for g in _COMPOSITION6:
                hg = g * h
                p = p - 0.5 * hg * force(q)
                q = q + hg * p
                p = p - 0.5 * hg * force(q)
                stats.gradient_evaluations += 2
            y = np.concatenate([q, p])
            if not np.all(np.isfinite(y)) or np.linalg.norm(y) > DIVERGENCE_THRESHOLD:
                stats.diverged = True
                return None
        return y

    return lambda: _march(system, h, t_end, store_every, advance,
                          RunStats(hessian_evaluations=1))
