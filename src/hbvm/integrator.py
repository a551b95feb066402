"""Constant-stepsize HBVM(k,s) time stepping with per-run statistics: one
stage solve per step, the work counts of every solve summed, the energy error
tracked at every step and the states stored at a fixed stride.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import HamiltonianSystem
from .nlsolve import SolveOptions, StageProblem, solve
from .polybasis import require_integer
from .splitting import SplittingData, build_splitting
from .tableau import HbvmTableau, build_tableau

__all__ = [
    "RunConfig",
    "RunStats",
    "Trajectory",
    "integrate",
]


@dataclass(frozen=True)
class RunConfig:
    """One HBVM(k,s) run. The builders check k and s: the config builds the
    tableau, and the splitting data for the splitting solver, once, and every
    integrate(cfg) reuses them; dataclasses.replace builds them anew."""
    system: HamiltonianSystem
    k: int
    s: int
    h: float
    t_end: float
    options: SolveOptions = field(default_factory=SolveOptions)
    store_every: int = 1  # 0: keep only the endpoints
    tableau: HbvmTableau = field(init=False, repr=False, compare=False)
    splitting: SplittingData | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # ValueError naming the first bad parameter: h, t_end and t_end / h must
        # be finite, h and t_end positive (NaN fails), store_every an integer >= 0
        h, t_end = self.h, self.t_end
        for name, value in (("h", h), ("t_end", t_end)):
            if not 0 < value < np.inf:
                raise ValueError(f"require h > 0 and t_end > 0, both finite; "
                                 f"got {name} = {value}")
        with np.errstate(over="ignore"):  # a numpy scalar quotient warns as it overflows
            if not t_end / h < np.inf:
                raise ValueError(f"require a finite step count t_end / h, "
                                 f"got h = {h}, t_end = {t_end}")
        require_integer("store_every", self.store_every, lo=0)
        object.__setattr__(self, "tableau", build_tableau(self.k, self.s))
        object.__setattr__(self, "splitting", build_splitting(self.s)
                           if self.options.solver == "splitting" else None)


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
    failed_at: float | None = None


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), 2m)


def integrate(cfg):
    """Advance ceil(t_end / h) steps of HBVM(k,s) with the configured solver,
    from the tableau and splitting data the config built; nothing is built here.

    The trajectory holds y0, every store_every-th state (0: none) and always,
    once, the state the run ended at. On solver non-convergence the run is
    truncated, all_converged is set to False and the failure time is recorded;
    this mirrors the way benchmark tables report '***' entries.
    """
    sysm, h, opts, tab, data = cfg.system, cfg.h, cfg.options, cfg.tableau, cfg.splitting
    q = cfg.t_end / h  # relative slack: a quotient rounded up from N still makes N steps
    n_steps = int(np.ceil(q - 4 * np.finfo(float).eps * q))
    y = np.array(sysm.y0, dtype=float)
    H0 = sysm.H(y)
    comp = np.zeros(sysm.dim)  # Kahan compensation for the state update
    stats = RunStats()
    times, states = [0.0], [y.copy()]
    for n in range(1, n_steps + 1):
        res = solve(StageProblem(tab, sysm, y, h), opts, data=data)
        stats.total_outer_iterations += res.outer_iterations
        stats.total_inner_iterations += res.inner_iterations_total
        stats.gradient_evaluations += res.gradient_evaluations
        stats.hessian_evaluations += res.hessian_evaluations
        stats.factorizations += res.factorizations
        if not res.converged:
            stats.all_converged = False
            stats.failed_at = (n - 1) * h
            break
        # compensated update: y += h*gamma_0 accumulates over many steps
        incr = h * res.gamma[0] - comp
        y_new = y + incr
        comp = (y_new - y) - incr
        y = y_new
        stats.steps += 1
        stats.max_hamiltonian_error = max(stats.max_hamiltonian_error, abs(sysm.H(y) - H0))
        if cfg.store_every and n % cfg.store_every == 0:
            times.append(n * h)
            states.append(y.copy())
    if times[-1] != stats.steps * h:
        times.append(stats.steps * h)
        states.append(y.copy())
    return Trajectory(np.array(times), np.array(states)), stats
