"""In-memory span recorder for the traced benchmark run.

A ``Tracer`` replaces module attributes with wrappers that record one span
(name, start, end, parent) per call, so each function is timed at the name
its calling module looks it up by; the program's own code is unchanged.
Spans are kept in flat typed arrays (about 24 bytes each, which matters on
the two-lobe workload with over a million spans), written out with ``save``
when the run ends, and reduced to self times by ``self_times``.

The solver loop is cut into sweeps through ``solve``'s ``observer`` hook:
an ``admm.sweep`` span runs from one observer call to the next, so sweep 1
(which has no preceding observer call) is not a sweep span and its calls
stay children of the ``admm.solve`` span.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

SWEEP = "admm.sweep"


def span_name(fn) -> str:
    """Span name of a package function: its defining module and its name."""
    return f"{fn.__module__.removeprefix('beamsparse.')}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, now: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(now)
        self.end.append(now)
        self._stack.append(index)
        return index

    def _close(self, index: int, now: int):
        self.end[index] = now
        self._stack.pop()

    def _wrap(self, fn):
        name_id = self._id(span_name(fn))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = self._open(name_id, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, clock())

        return traced

    def _wrap_solve(self, solve):
        solve_id, sweep_id = self._id("admm.solve"), self._id(SWEEP)
        clock = time.perf_counter_ns

        def traced(steering, d, params, init=None, observer=None):
            index = self._open(solve_id, clock())
            sweep = [None]

            def on_sweep(state):
                now = clock()
                if sweep[0] is not None:
                    self._close(sweep[0], now)
                sweep[0] = self._open(sweep_id, now)
                if observer is not None:
                    observer(state)

            try:
                return solve(steering, d, params, init=init, observer=on_sweep)
            finally:
                now = clock()
                last = sweep[0]
                if last is not None:
                    self._close(last, now)
                    if last == len(self.start) - 1:
                        # opened by the final observer call: the loop exit, not a sweep
                        for column in (self.name, self.parent, self.start, self.end):
                            column.pop()
                self._close(index, now)

        return traced

    def patch(self, module, attr: str):
        """Replace ``module.attr`` with a traced wrapper until ``restore``.

        ``solve`` gets the wrapper that passes an observer and cuts sweep spans.
        """
        original = getattr(module, attr)
        wrapper = self._wrap_solve(original) if attr == "solve" else self._wrap(original)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path: Path):
        """Write every span to an ``.npz`` file; ``names`` maps name ids to names."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray], sweep_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-span self time (duration minus direct children) and enclosing sweep.

    Returns ``(self_ns, sweep_of)``; ``sweep_of[i]`` is the index of the
    sweep span that contains span i, or -1.
    """
    dur = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - children
    sweep_of = np.full(dur.size, -1, dtype=np.int64)
    is_sweep = spans["name"] == sweep_id
    sweep_of[is_sweep] = np.flatnonzero(is_sweep)
    while True:
        inherit = (sweep_of < 0) & has_parent
        inherit[inherit] &= sweep_of[parent[inherit]] >= 0
        if not inherit.any():
            return self_ns, sweep_of
        sweep_of[inherit] = sweep_of[parent[inherit]]
