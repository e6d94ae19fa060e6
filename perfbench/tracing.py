"""Span tracer for the traced benchmark run, and the per-layer figures
derived from its spans.

A span is ``[id, parent_id, name, start_s, end_s, attrs]``.  Spans are kept
in memory and handed back when the run ends.  The layer of a span is the
part of its name before the first dot; the benchmark's own ``workload`` and
``job`` spans make up the ``bench`` layer.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]

    @contextmanager
    def span(self, name: str, **attrs):
        record = [len(self.spans), self._stack[-1], name, time.perf_counter(),
                  None, attrs]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()


def instrument(tracer: Tracer, modules, targets: dict) -> None:
    """Wrap each function in ``targets`` wherever one of ``modules`` binds it.

    ``targets`` maps a function to ``describe(*args, **kwargs) -> (name,
    attrs)``.  Module attributes and dict values (such as a table of
    suites) that are the function itself are replaced by a wrapper that
    records one span per call, so calls made inside the program are traced
    as well as calls made by the benchmark.
    """
    wrappers = []
    for func, describe in targets.items():
        @functools.wraps(func)
        def wrapper(*args, _func=func, _describe=describe, **kwargs):
            name, attrs = _describe(*args, **kwargs)
            with tracer.span(name, **attrs):
                return _func(*args, **kwargs)
        wrappers.append((func, wrapper))

    def swap(value):
        for func, wrapper in wrappers:
            if value is func:
                return wrapper
        return value

    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, dict):
                for key, item in value.items():
                    value[key] = swap(item)
            elif callable(value):
                setattr(module, attr, swap(value))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "bench"


def self_times(spans) -> list[float]:
    covered = defaultdict(float)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[sid] for sid, _, _, start, end, _ in spans]


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, and the same split
    by the span's ``dim`` or ``modes`` attribute, plus summed ``steps``."""
    out: dict = {}
    for (sid, _, name, start, end, attrs), own in zip(spans, self_times(spans)):
        for key in (name, *(f"{name}@{k}{attrs[k]}" for k in ("dim", "modes")
                            if k in attrs)):
            entry = out.setdefault(key, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "steps": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            entry["steps"] += attrs.get("steps", 0)
    return out


def layer_busy(spans) -> dict:
    """Self seconds per layer; their sum equals the root spans' duration."""
    busy = defaultdict(float)
    for (_, _, name, *_), own in zip(spans, self_times(spans)):
        busy[layer_of(name)] += own
    return dict(busy)
