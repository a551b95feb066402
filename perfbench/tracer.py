"""Spans timed from outside the program.

The tracer replaces the public entry points of each ``hbvm`` module, as the
callers inside the package see them, with wrappers that count calls and time
them. A span's self time is its duration minus the time of the spans it
encloses, so the self times of all spans add up to the time spent in the
outermost spans. Nothing under ``src/`` is changed: the wrappers are installed
for a traced pass and removed after it, so an untraced pass runs the original
functions.
"""
from __future__ import annotations

import dataclasses
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import hbvm.cli
import hbvm.convergence
import hbvm.integrator
import hbvm.nlsolve
import hbvm.splitting
import hbvm.tableau

# (module, attribute, span name). Where one function is bound in several
# modules, every binding gets its own wrapper around the original, so a call
# through any of them is one span, never two nested ones.
PATCHES = (
    (hbvm.integrator, "solve", "nlsolve.solve"),
    (hbvm.nlsolve, "solve", "nlsolve.solve"),
    (hbvm.nlsolve, "residual_F", "nlsolve.residual_F"),
    # fixed_point_solve calls the stage map directly, not residual_F, so the
    # map is wrapped too; residual_F calls it as well.
    (hbvm.nlsolve, "_gamma_image", "nlsolve.stage_map"),
    (hbvm.nlsolve, "lu_factor", "nlsolve.lu_factor"),
    (hbvm.nlsolve, "lu_solve", "nlsolve.lu_solve"),
    (hbvm.integrator, "build_tableau", "tableau.build"),
    (hbvm.cli, "build_tableau", "tableau.build"),
    (hbvm.integrator, "build_splitting", "splitting.build"),
    (hbvm.splitting, "build_splitting", "splitting.build"),
    (hbvm.cli, "build_splitting", "splitting.build"),
    (hbvm.tableau, "gauss_rule", "polybasis.gauss_rule"),
    (hbvm.convergence, "iteration_matrix", "convergence.iteration_matrix"),
    (hbvm.convergence, "spectral_radius", "convergence.spectral_radius"),
)

# spans whose individual durations are kept, for percentiles
SAMPLED = ("nlsolve.solve",)


class Tracer:
    """Per-span call counts, total and child time, kept in memory."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, child_s
        self.samples = defaultdict(list)                  # span -> durations
        self.factor_flops = 0.0                           # computed: sum 2/3 N^3
        self.root_s = 0.0                                 # time in outermost spans
        self._stack = []

    def wrap(self, name, fn):
        st = self.stats[name]
        stack = self._stack
        samples = self.samples[name] if name in SAMPLED else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[0] += 1
                st[1] += dt
                st[2] += stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
                if samples is not None:
                    samples.append(dt)
        return traced

    def wrap_factor(self, fn):
        timed = self.wrap("nlsolve.lu_factor", fn)

        def factor(a, *args, **kwargs):
            self.factor_flops += 2.0 / 3.0 * a.shape[0] ** 3
            return timed(a, *args, **kwargs)
        return factor

    def wrap_system(self, system):
        """The same HamiltonianSystem with H, grad and hess traced."""
        return dataclasses.replace(
            system,
            H=self.wrap("hamiltonian.H", system.H),
            grad=self.wrap("hamiltonian.grad", system.grad),
            hess=self.wrap("hamiltonian.hess", system.hess),
        )

    @contextmanager
    def installed(self):
        """Replace the module bindings in PATCHES for the duration."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for (mod, attr, name), (_, _, orig) in zip(PATCHES, saved):
                wrapped = (self.wrap_factor(orig) if attr == "lu_factor"
                           else self.wrap(name, orig))
                setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def self_time(self, name):
        if name not in self.stats:
            return 0.0
        _, total, child = self.stats[name]
        return total - child

    def snapshot(self):
        """(calls, total_s) of every span, the computed factor flops and the
        number of step samples, so that the work of one case is the
        difference of two snapshots."""
        spans = {name: (st[0], st[1]) for name, st in self.stats.items()}
        return spans, self.factor_flops, len(self.samples["nlsolve.solve"])
