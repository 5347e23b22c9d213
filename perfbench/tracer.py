"""Span recorder for the traced run, installed from outside the program.

:func:`install` replaces functions of the program's layers with
wrappers that record a span (name, start, end, parent) around each call
*into* a layer. A call made from inside a span of the same name is not
a layer entry and passes straight through, so a wavelet tree calling
its own bit vectors records one ``succinct`` span, not dozens.

Each closed span adds its duration to its parent's child time, so self
time (duration minus the time covered by child spans) is exact for
every call. The raw span log is kept in memory up to
:data:`SPAN_LOG_LIMIT` spans and written out when the run ends; the
per-name totals cover every span. The ``repro.query.model`` dunders are
called tens of millions of times in a run, so they are timed as leaves:
their time and calls are summed (and charged to the enclosing span as
child time) without a log entry each.

The current span is held in a :class:`contextvars.ContextVar`, so spans
nest correctly per thread and per asyncio task. After a ``fork`` the
child stops recording: pool workers inherit the wrappers but not the
job of reporting them.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

#: Most spans kept in the in-memory log (about 28 bytes each).
SPAN_LOG_LIMIT = 500_000


class Tracer:
    """Per-process span totals plus a bounded span log."""

    def __init__(self) -> None:
        self.enabled = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.log_name = array("i")
        self.log_parent = array("q")
        self.log_start = array("d")
        self.log_end = array("d")
        self.spans_seen = 0
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._originals: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> tuple[list, contextvars.Token]:
        parent = self.current.get()
        frame = [self.spans_seen, name, time.perf_counter(), 0.0, parent]
        self.spans_seen += 1
        return frame, self.current.set(frame)

    def _close(self, frame: list, token: contextvars.Token) -> float:
        end = time.perf_counter()
        self.current.reset(token)
        span_id, name, start, child, parent = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.busy_s[name] += duration
        self.calls[name] += 1
        if parent is not None:
            parent[3] += duration
        if len(self.log_start) < SPAN_LOG_LIMIT:
            self.log_name.append(self.name_id(name))
            self.log_parent.append(-1 if parent is None else parent[0])
            self.log_start.append(start)
            self.log_end.append(end)
        return duration

    def _entering(self, name: str) -> bool:
        if not self.enabled:
            return False
        parent = self.current.get()
        return parent is None or parent[1] != name

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Callable | None = None,
        on_return: Callable | None = None,
    ) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``on_call(args)`` runs before the call; ``on_return(result,
        duration, args)`` after it. Both run only for recorded spans.
        """
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self._entering(name):
                    return await fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args)
                frame, token = self._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    duration = self._close(frame, token)
                if on_return is not None:
                    on_return(result, duration, args)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._entering(name):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            frame, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(frame, token)
            if on_return is not None:
                on_return(result, duration, args)
            return result

        return wrapper

    def wrap_leaf(self, fn: Callable, name: str) -> Callable:
        """Timing without a log entry, for very hot calls with no
        children."""
        clock = time.perf_counter
        current = self.current
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def leaf(*args: Any) -> Any:
            if not self.enabled:
                return fn(*args)
            start = clock()
            result = fn(*args)
            duration = clock() - start
            self_s[name] += duration
            calls[name] += 1
            parent = current.get()
            if parent is not None:
                parent[3] += duration
            return result

        return leaf

    # -- installation -----------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Totals as plain JSON data."""
        return {
            "self_s": dict(self.self_s),
            "busy_s": dict(self.busy_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans_seen": self.spans_seen,
            "spans_logged": len(self.log_start),
        }

    def write(self, path: str, extra: dict[str, Any] | None = None) -> None:
        """Write the totals and the span log (JSON, one file)."""
        document = self.snapshot()
        document["extra"] = extra or {}
        document["span_names"] = self.names
        document["spans"] = {
            "name": self.log_name.tolist(),
            "parent": self.log_parent.tolist(),
            "start": self.log_start.tolist(),
            "end": self.log_end.tolist(),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)


def _resolve(path: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:attr"`` -> (owner, attr)."""
    module_name, _, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


# Each entry: (span name, targets). Targets are "module:Class.method"
# or "module:function"; a function imported by name into another module
# is listed under every module that calls it.
_SUCCINCT_WT = "repro.succinct.wavelet_tree:WaveletTree."
_SUCCINCT_BV = "repro.succinct.bitvector:BitVector."
_SUCCINCT_CC = "repro.succinct.arrays:CumulativeCounts."
_RING_INDEX = "repro.ring.index:RingIndex."
_RING_STATE = "repro.ring.pattern:RingPatternState."
_KNN = "repro.knn.succinct:KnnRing."
_RELATION_METHODS = ("leap", "bind", "unbind", "estimate")

ENGINE_LAYERS: list[tuple[str, list[str]]] = [
    ("engines.build", ["repro.engines.database:GraphDatabase.__init__"]),
    ("engines", [
        "repro.engines.auto:AutoEngine.evaluate",
        "repro.engines.ring_knn:_RingEngineBase.evaluate",
        "repro.engines.ring_knn:_RingEngineBase.compile",
    ]),
    ("ltj", [
        "repro.ltj.engine:LTJEngine.__init__",
        "repro.ltj.engine:LTJEngine.evaluate",
        "repro.ltj.engine:LTJEngine.first_level",
    ]),
    ("ltj.ordering", [
        "repro.ltj.ordering:MinCandidatesOrdering.choose",
        "repro.ltj.ordering:ConstraintAwareOrdering.choose",
    ]),
    ("ltj.triple_relation", [
        f"repro.ltj.triple_relation:RingTripleRelation.{m}"
        for m in _RELATION_METHODS
    ]),
    ("ltj.knn_relation", [
        f"repro.ltj.knn_relation:KnnClauseRelation.{m}"
        for m in _RELATION_METHODS
    ]),
    ("ring", [
        _RING_INDEX + m for m in (
            "block_range", "pair_range", "triple_count", "contains",
            "leap_unbound", "leap_stored", "leap_ahead", "block_count",
            "distinct_in_range",
        )
    ] + [_RING_STATE + m for m in ("bind", "unbind", "leap", "probe")]),
    ("knn", [
        _KNN + m for m in (
            "index_of", "forward_range", "backward_range", "contains",
            "neighbors_of", "reverse_neighbors_of", "leap_forward",
            "leap_backward", "next_member", "next_reverse_nonempty",
            "forward_count", "backward_count",
        )
    ]),
    ("succinct", [
        _SUCCINCT_WT + m for m in (
            "access", "rank", "rank_range", "select", "select_next",
            "range_next_value", "range_count", "quantile",
            "count_distinct", "total_count",
        )
    ] + [
        _SUCCINCT_BV + m for m in (
            "access", "rank1", "rank0", "select1", "select0", "next_one",
            "rank1_range", "_select1_u", "_select0_u",
        )
    ] + [
        _SUCCINCT_CC + m for m in (
            "before", "count", "range_of", "block_of", "next_nonempty",
        )
    ]),
]

MODEL_LEAVES = [
    f"repro.query.model:{cls}.{dunder}"
    for cls in ("Var", "TriplePattern", "SimClause")
    for dunder in ("__hash__", "__eq__")
]


def install(tracer: Tracer, layers: list[tuple[str, list[str]]],
            hooks: dict[str, tuple] | None = None) -> None:
    """Wrap every target of ``layers`` (and the model dunders).

    ``hooks`` maps a target to ``(on_call, on_return)`` callbacks.
    """
    hooks = hooks or {}
    for name, targets in layers:
        for target in targets:
            owner, attr = _resolve(target)
            on_call, on_return = hooks.get(target, (None, None))
            tracer.patch(
                owner,
                attr,
                tracer.wrap(getattr(owner, attr), name, on_call, on_return),
            )
    for target in MODEL_LEAVES:
        owner, attr = _resolve(target)
        tracer.patch(
            owner, attr, tracer.wrap_leaf(getattr(owner, attr), "query.model")
        )
