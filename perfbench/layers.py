"""Counters and layer timers installed around zomirror's call sites.

Nothing here edits the package.  Wrappers replace the module attributes that
the solver loop looks up at call time (``zomirror.rng.stream``,
``zomirror.solvers.minibatch_gradient`` and so on) and the callable hooks of
a built ``Problem`` (through ``dataclasses.replace``).

Two levels exist.  Counting is always on: every oracle call bumps a
per-thread counter and every solver run is timed and kept with its trace,
because the end-to-end metrics and the correctness checks need both.  Tracing
is switched on for single rounds of a ``--trace 1`` run: each traced call
opens a span on a per-thread stack, and a layer's self time is its span minus
the spans nested inside it, so no interval is counted in two layers.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

clock = time.perf_counter

# Prox calls (1-based, counted over the whole process) whose inputs are kept
# for the golden-section cross-check: the start point and two later iterates.
PROX_SAMPLE_AT = (1, 100, 190)


@dataclass
class SolverRun:
    """One solver run as the benchmark saw it."""

    tag: str
    problem: object
    cfg: object
    trace: object
    seconds: float
    oracle_calls: int


class _ThreadState(threading.local):
    def __init__(self, tables: list) -> None:
        self.calls = 0
        self.stack: list[float] = []
        self.table: dict[str, list] = {}
        tables.append(self.table)


class Recorder:
    """Owns every wrapper of one benchmark process and what they record."""

    def __init__(self) -> None:
        self._tables: list[dict] = []
        self._state = _ThreadState(self._tables)
        self._patches: list[tuple[object, str, object]] = []
        self._prox_seen = itertools.count(1)
        self.tracing = False
        self.runs: list[SolverRun] = []
        self.prox_samples: list[tuple] = []

    # -- counting (always on) -------------------------------------------------

    def timed_runner(self, tag: str, runner):
        """Wrap a ``runner(problem, cfg) -> Trace`` to keep time, calls and trace."""
        state = self._state
        traced_runner = self._span("solvers.run", runner)

        def run(problem, cfg):
            inner = traced_runner if self.tracing else runner
            before = state.calls
            start = clock()
            trace = inner(problem, cfg)
            seconds = clock() - start
            self.runs.append(SolverRun(tag, problem, cfg, trace, seconds, state.calls - before))
            return trace

        return run

    def instrument(self, problem):
        """The problem with its oracle counted and, when tracing, its hooks timed."""
        state = self._state
        oracle = problem.oracle
        if self.tracing:
            oracle = self._span("problems.oracle", oracle)

        def counted_oracle(x, xi):
            state.calls += 1
            return oracle(x, xi)

        hooks = {"oracle": counted_oracle}
        if self.tracing:
            for name in ("mean_loss", "exact_gradient"):
                hook = getattr(problem, name)
                if hook is not None:
                    hooks[name] = self._span("problems.eval", hook)
        return dataclasses.replace(problem, **hooks)

    # -- tracing (single rounds) ----------------------------------------------

    def _span(self, layer: str, fn):
        state = self._state

        def spanned(*args, **kwargs):
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = state.table.get(layer)
                if row is None:
                    row = state.table[layer] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - nested

        return spanned

    def _sampled_prox(self, prox):
        def sampled(geo, x_t, g, eta, reg, feasible_set):
            result = prox(geo, x_t, g, eta, reg, feasible_set)
            if next(self._prox_seen) in PROX_SAMPLE_AT:
                self.prox_samples.append(
                    (np.array(x_t), np.array(g), float(eta), reg, feasible_set, np.array(result))
                )
            return result

        return sampled

    def start_tracing(self, with_cli: bool) -> None:
        """Patch the module-level call sites; undone by :meth:`stop_tracing`."""
        import zomirror.rng
        import zomirror.solvers

        sites = [
            (zomirror.rng, "stream", "rng.stream"),
            (zomirror.solvers, "minibatch_gradient", "sampling.minibatch"),
            (zomirror.solvers, "paired_storm_estimates", "sampling.paired"),
            (zomirror.solvers, "gradient_map", "core.gradient_map"),
        ]
        if with_cli:
            import zomirror.cli

            # The CLI's output path: text formatting and the atomic file write.
            for name in ("_trace_csv_text", "_mean_curve_text", "_atomic_write"):
                sites.append((zomirror.cli, name, "cli.io"))
        for owner, name, layer in sites:
            self._patch(owner, name, self._span(layer, getattr(owner, name)))
        prox = zomirror.solvers.prox_composite
        self._patch(zomirror.solvers, "prox_composite", self._span("mirror.prox", self._sampled_prox(prox)))
        self.tracing = True

    def stop_tracing(self) -> None:
        self.tracing = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def take_spans(self) -> dict[str, tuple[int, float, float]]:
        """Per layer (calls, inclusive seconds, self seconds) since the last take."""
        merged: dict[str, list] = {}
        for table in list(self._tables):
            for layer, (calls, total, own) in list(table.items()):
                row = merged.setdefault(layer, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
            table.clear()
        return {layer: tuple(row) for layer, row in merged.items()}
