"""Span recording installed from outside the program.

A :class:`Tracer` wraps public entry points of the ``repro`` package. Each
call made while the tracer records becomes one span: its name, the span
that was open on the same thread when it started (its parent), its start
and end on ``time.perf_counter``, and a unit count (frames, batch items)
taken from the call's arguments. Spans stay in memory; the aggregation
helpers below turn them into per-layer busy time, self time and counts.

Wrappers are installed where callers look the name up: a module-level
function is replaced in every loaded ``repro`` module that holds the same
object under that name (``emit_sweep`` is called through both
``repro.radar.stages`` and ``repro.radar.radar``), and a method is
replaced on its class.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

Units = Callable[[tuple[Any, ...], dict[str, Any]], int]


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a span that had no open span on its thread
    name: str
    start: float
    end: float
    units: int


class Tracer:
    """Records spans from wrapped calls while :attr:`recording` is true."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, func: Callable[..., Any],
             units: Units | None = None) -> Callable[..., Any]:
        """``func`` wrapped so that each recorded call appends a span."""
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return func(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent_id = stack[-1] if stack else 0
            count = units(args, kwargs) if units is not None else 1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent_id, name, start, end,
                                  count))

        return traced

    def install(self, name: str, target: str, units: Units | None = None
                ) -> None:
        """Wrap ``target`` (``"module:function"`` or ``"module:Class.method"``).

        Raises if the target cannot be found, so a renamed entry point
        fails loudly.
        """
        module_name, _, attr_path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr_path:
            class_name, method = attr_path.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(name, raw.__func__, units))
            else:
                wrapped = self.wrap(name, raw, units)
            setattr(cls, method, wrapped)
            return
        original = getattr(module, attr_path)
        wrapped = self.wrap(name, original, units)
        for loaded_name, loaded in list(sys.modules.items()):
            if not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            if getattr(loaded, attr_path, None) is original:
                setattr(loaded, attr_path, wrapped)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Measured cost of one recorded span.

    Times a wrapped no-op against the bare no-op, best of ``repeats``;
    the difference per call is what tracing adds to every wrapped call.
    """
    probe = Tracer()
    probe.recording = True

    def noop() -> None:
        pass

    def best(func: Callable[[], None]) -> float:
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(calls):
                func()
            timings.append(time.perf_counter() - started)
        return min(timings)

    return max(best(probe.wrap("probe", noop)) - best(noop), 0.0) / calls


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


class LayerTotals(NamedTuple):
    calls: int    # every span of the name
    units: int    # units of the outermost spans of the name
    busy_s: float  # duration of the outermost spans of the name
    self_s: float  # duration minus the time covered by child spans


def layer_totals(spans: Iterable[Span]) -> dict[str, LayerTotals]:
    """Per-name totals; a span nested in one of its own name counts once."""
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent_id:
            child_time[span.parent_id] = (child_time.get(span.parent_id, 0.0)
                                          + span.end - span.start)

    def nested_in_own_name(span: Span) -> bool:
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = by_id.get(parent.parent_id)
        return False

    totals: dict[str, list[float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0, 0.0, 0.0])
        duration = span.end - span.start
        entry[0] += 1
        entry[3] += duration - child_time.get(span.span_id, 0.0)
        if not nested_in_own_name(span):
            entry[1] += span.units
            entry[2] += duration
    return {name: LayerTotals(int(c), int(u), b, s)
            for name, (c, u, b, s) in totals.items()}


def covered_seconds(spans: Iterable[Span], start: float, end: float) -> float:
    """Wall time in ``[start, end]`` during which any top-level span was open."""
    intervals = sorted((max(span.start, start), min(span.end, end))
                       for span in spans if span.parent_id == 0)
    covered = 0.0
    current_start = current_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if current_end is None or lo > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = lo, hi
        else:
            current_end = max(current_end, hi)
    if current_end is not None:
        covered += current_end - current_start
    return covered
