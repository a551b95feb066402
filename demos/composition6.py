"""The explicit baseline of demo 04 and acceptance tests 9 and 9b: an order-6
symmetric composition of the Stoermer-Verlet map (9 substeps, 18 force
evaluations per step) for separable Hamiltonians H = 1/2 |p|^2 + V(q).

It is not an HBVM and not part of hbvm; it shows where an explicit method of
high order stops being stable on the stiff chain. Import it with demos/ on
sys.path, as `python3 demos/04_stiff_chain.py` and tests/conftest.py have it.
"""
from dataclasses import dataclass

import numpy as np

from hbvm.hamiltonian import separable_hessian

DIVERGENCE_THRESHOLD = 1e10  # a state norm above this ends the run as diverged


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


@dataclass
class CompositionRun:
    y: np.ndarray  # the state after `steps` steps: the last finite one if diverged
    steps: int = 0
    gradient_evaluations: int = 0
    max_hamiltonian_error: float = 0.0
    diverged: bool = False


def composition6_stormer_verlet(system, h, t_end):
    """ceil(t_end / h) steps of the composition from y0, as integrate counts them.

    Requires H = 1/2 |p|^2 + V(q): the Hessian at y0 must pass
    hbvm.hamiltonian.separable_hessian, the predicate that also picks the
    m x m step-matrix factor. Each of the 9 substeps is one velocity-Verlet
    step, 2 force evaluations each. A step whose state is not finite or has
    norm above DIVERGENCE_THRESHOLD marks the run diverged and ends it at the
    state before that step.
    """
    m = system.m
    y = np.array(system.y0, dtype=float)
    if not separable_hessian(system.hess(y)):
        raise ValueError("composition method requires a separable Hamiltonian "
                         "H = |p|^2/2 + V(q)")

    def force(q):
        # dV/dq = grad H wrt q; independent of p for separable H
        return system.grad(np.concatenate([q, np.zeros(m)]))[:m]

    n = t_end / h  # relative slack: a quotient rounded up from N still makes N steps
    H0 = system.H(y)
    run = CompositionRun(y)
    for _ in range(int(np.ceil(n - 4 * np.finfo(float).eps * n))):
        q, p = run.y[:m], run.y[m:]
        run.gradient_evaluations += 2 * len(_COMPOSITION6)
        # blowup overflows, in a substep or in the norm of a huge finite
        # state; it is recorded as divergence, not raised as an arithmetic error
        with np.errstate(over="ignore", invalid="ignore"):
            for g in _COMPOSITION6:
                hg = g * h
                p = p - 0.5 * hg * force(q)
                q = q + hg * p
                p = p - 0.5 * hg * force(q)
            y = np.concatenate([q, p])
            if not np.all(np.isfinite(y)) or np.linalg.norm(y) > DIVERGENCE_THRESHOLD:
                run.diverged = True
                break
        run.y = y
        run.steps += 1
        run.max_hamiltonian_error = max(run.max_hamiltonian_error, abs(system.H(y) - H0))
    return run
