"""Benchmark-side spans around the public entry points of each solver layer.

Nothing is added inside ``src/``: :class:`SpanRecorder` swaps the module
attributes the layers call through for timing wrappers, keeps one span
stack per op (``op_id``, ``name``, ``start``, ``end``, ``parent``), holds
the spans in memory, and writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (module, attribute, span name).  Each module attribute is the name the
#: calling layer resolves at call time, so patching it intercepts the call.
WRAPPED = (
    ("repro.viecut.viecut", "viecut", "viecut"),
    ("repro.viecut.viecut", "cluster_labels", "viecut.lp"),
    ("repro.viecut.viecut", "padberg_rinaldi_marks", "viecut.pr"),
    # VieCut switches to the PR1/PR2-only pass on graphs too large for PR3/4
    ("repro.viecut.padberg_rinaldi", "pr12_marks", "viecut.pr"),
    ("repro.core.noi", "capforest", "capforest"),
    ("repro.core.noi", "contract_by_union_find", "contract"),
    ("repro.core.mincut", "parallel_capforest", "parcut.capforest"),
    ("repro.core.mincut", "parallel_contract_by_labels", "parcut.contract"),
)


class SpanRecorder:
    """In-memory span store with a per-op stack.

    Single-threaded by design: the traced workloads call the solver from
    one thread, so one stack suffices.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._op_id: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        self._op_id = op_id
        self._stack = []
        self._open(name, {})

    def end_op(self) -> dict:
        root = self._close()
        self._op_id = None
        return root

    def _open(self, name: str, attrs: dict) -> dict:
        span = {
            "op_id": self._op_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self) -> dict:
        span = self._stack.pop()
        span["end"] = time.perf_counter()
        return span

    # -- wrappers -----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            graph = args[0] if args else None
            span = self._open(span_name, {"n_in": getattr(graph, "n", None)})
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            _annotate(span, out)
            return out

        return traced


def _annotate(span: dict, out) -> None:
    """Counters read off the wrapped call's return value."""
    name = span["name"]
    if name == "capforest":
        span["pq_pops"] = out.pq_stats.pops
        span["pq_updates"] = out.pq_stats.updates
        span["edges_scanned"] = out.edges_scanned
    elif name == "contract":
        span["n_out"] = out[0].n


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}
