"""Spans around bellkit's public calls, recorded from outside the package.

`Tracer.install` replaces each traced function, in every bellkit module that
binds it, by a wrapper that records one span per call: name, start, end,
parent span and operation id.  Spans are kept in flat integer arrays and
written out once, at the end of the run.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute) -> span name.  The span name's prefix is its layer.
TRACED = {
    ("cli", "main"): "cli.main",
    ("circuit", "parse"): "circuit.parse",
    ("circuit", "validate"): "circuit.validate",
    ("circuit", "format_program"): "circuit.format_program",
    ("engine", "run"): "engine.run",
    ("engine", "run_shot"): "engine.run_shot",
    ("engine", "derive_rng"): "engine.derive_rng",
    ("engine", "measure_value"): "engine.measure_value",
    ("engine", "measure_relative"): "engine.measure_relative",
    ("engine", "outcome_key"): "engine.outcome_key",
    ("core", "apply2"): "core.apply2",
    ("core", "projector"): "core.projector",
    ("core", "lift_a"): "core.lift",
    ("core", "lift_b"): "core.lift",
    ("bell", "bell_state"): "bell.bell_state",
    ("bell", "classify"): "bell.classify",
    ("bell", "separability_defect"): "bell.separability_defect",
    ("checks", "run_all"): "checks.run_all",
}

# Operation id of the spans of the library replay (run.library_replay) that
# follows the timed batch; the batch's own spans have ids >= 0.
REPLAY_OP = -2

# An engine.run call with workers > 1 gets its own name: its span measures
# the pool, and its shots run in other processes.
PARALLEL_RUN = "engine.run_parallel"


def _run_shots(program, shots=None, seed=None, *, keep_results=False, workers=1) -> int:
    return program.shots if shots is None else shots


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")  # shots of an engine.run span, else 0
        self.current_op = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        parallel_id = self.name_id(PARALLEL_RUN) if name == "engine.run" else None
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            span = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            if parallel_id is None:
                self.size.append(0)
            else:
                if kwargs.get("workers", 1) > 1:
                    self.name[span] = parallel_id
                self.size.append(_run_shots(*args, **kwargs))
            stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Wrap every traced function wherever a bellkit module binds it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "bellkit" or key.startswith("bellkit.")]
        patched = []
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[f"bellkit.{module}"], attr)
            wrapper = self.wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        patched.append((m, key, original))
        checks = sys.modules["bellkit.checks"]
        groups = checks.GROUPS
        checks.GROUPS = tuple(self.wrap(g, "checks." + g.__name__.removeprefix("check_")) for g in groups)
        try:
            yield self
        finally:
            checks.GROUPS = groups
            for m, key, original in reversed(patched):
                setattr(m, key, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Durations and self times of recorded spans, by name."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.op = a["op"]
        self.size = a["size"]
        self.duration = (a["end"] - a["start"]).astype(np.float64)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.name))
        self.self_time = self.duration - child_time

    def ids(self, *names: str) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, *names: str, replay: bool = False) -> np.ndarray:
        """Spans of these names, in the timed batch or else in the replay."""
        part = self.op == REPLAY_OP if replay else self.op >= 0
        return part & np.isin(self.name, self.ids(*names))

    def median_us(self, *names: str, replay: bool = False) -> float:
        d = self.duration[self.mask(*names, replay=replay)]
        return float(np.median(d)) / 1e3 if d.size else float("nan")

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def layer_self_s(self) -> dict:
        """Self time per layer (the span-name prefix), over the timed batch."""
        totals: dict[str, float] = {}
        for name in self.names:
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + float(self.self_time[self.mask(name)].sum()) / 1e9
        return totals
