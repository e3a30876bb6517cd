"""In-memory span tracing of planarmimic's layers, installed from outside.

``Tracer.install`` replaces each public layer function with a wrapper at the
place its caller looks it up (for example ``planarmimic.trainer.ppo_update``),
so the program's own files stay untouched. Every call records a span
``[name, start, end, parent]``; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT = range(4)


def layer_targets(pm) -> list:
    """(owner, attribute, span name) for every wrapped call site.

    ``pm`` is a namespace holding the planarmimic modules. A function that is
    looked up in more than one module is wrapped in each of them.
    """
    t = pm.trainer
    return [
        (pm.sim.PlanarEnv, "step", "sim.step"),
        (pm.sim.PlanarEnv, "reset_rows", "sim.reset_rows"),
        (pm.ppo.RolloutCollector, "collect", "ppo.collect"),
        (t, "ppo_update", "ppo.update"),
        (t, "discriminator_loss", "disc.loss"),
        (t, "raw_score", "disc.score"),
        (pm.ppo, "raw_score", "disc.score"),
        (pm.nets.MlpNet, "forward", "nets.forward"),
        (pm.nets.MlpNet, "backward", "nets.backward"),
        (pm.nets.MlpNet, "input_gradient_norm_grads", "nets.gp"),
        (t, "optimizer_step", "nets.opt_step"),
        (pm.ppo, "optimizer_step", "nets.opt_step"),
        (t, "sample_reference_windows", "core.sample_ref"),
        (pm.core.BatchWindowBuffer, "push", "core.window_push"),
        (pm.dtw, "dtw_distance", "dtw.pair"),
        (t, "rollout_observations", "trainer.rollout"),
        (t.Trainer, "train_iteration", "trainer.iter"),
        (t.Trainer, "save_checkpoint", "trainer.checkpoint_save"),
        (t.Trainer, "from_checkpoint", "trainer.checkpoint_load"),
        (pm.core, "load_reference_dataset", "core.load_refs"),
        (t, "load_reference_dataset", "core.load_refs"),
    ]


class Tracer:
    """Records nested spans from wrapped calls. Single-threaded: the parent of
    a span is the innermost span open when it starts."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._undo = []

    @contextmanager
    def span(self, name):
        """Open a span around a block; yields the span's index."""
        index = len(self.spans)
        span = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(index)
        self.spans.append(span)
        try:
            yield index
        finally:
            span[END] = perf_counter()
            self._open.pop()

    def install(self, targets) -> None:
        for owner, attr, name in targets:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def span_cost_s(self, calls: int = 20000, repeats: int = 7) -> float:
        """Median extra wall time of one wrapped call over a bare call,
        measured on a no-op; the spans it records are dropped again."""
        def noop():
            return None

        wrapped = self._wrap(noop, "calibration")
        costs = []
        for _ in range(repeats):
            mark = len(self.spans)
            t = perf_counter()
            for _ in range(calls):
                wrapped()
            traced = perf_counter() - t
            del self.spans[mark:]
            t = perf_counter()
            for _ in range(calls):
                noop()
            costs.append((traced - (perf_counter() - t)) / calls)
        return statistics.median(costs)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def subtree(spans, root: int) -> range:
    """Indices of the spans opened inside span ``root`` (spans are appended
    in start order, so a subtree is contiguous)."""
    end = root + 1
    stop = spans[root][END]
    while end < len(spans) and spans[end][START] < stop:
        end += 1
    return range(root + 1, end)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_table(spans, indices, own) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so nesting is not counted twice) and self seconds."""
    table = {}
    for i in indices:
        name, start, end, parent = spans[i]
        row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i]
        p = parent
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            row["incl_s"] += end - start
    return table


def median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0
