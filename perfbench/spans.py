"""The benchmark's own spans and summary statistics.

Spans are recorded here, in the benchmark process, around calls into the
program's public functions; nothing inside the program is instrumented by
this module.  A span's self time is its duration minus the part of its
interval that its children cover, so for every span the children's covered
time plus its ``other`` (self) time equals its duration.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import threading
import time
from typing import Optional


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Return (value, percentile, samples) of the highest percentile that has
    at least ten samples beyond it; with fewer than eleven samples, the maximum
    (percentile 100)."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0, count
    index = count - 11
    return ordered[index], round(100.0 * (index + 1) / count, 1), count


class Tracer:
    """Collects spans in memory; writes them out when the run ends.

    A disabled tracer records nothing and costs one attribute test per span.
    Each thread keeps its own stack of open spans; a span opened in a new
    thread names its parent explicitly.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.trace_id = os.urandom(8).hex()
        self.spans: list[dict] = []
        self._origin = time.perf_counter()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[dict]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[dict] = None, **attributes):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = {
            "name": name,
            "trace_id": self.trace_id,
            "span_id": os.urandom(8).hex(),
            "parent_id": parent["span_id"] if parent else None,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "attributes": attributes,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            stack.pop()
            self.spans.append(record)

    def self_times(self) -> dict[str, float]:
        """Return span_id -> self time; checks children + other == duration."""
        children: dict[Optional[str], list[dict]] = {}
        for record in self.spans:
            children.setdefault(record["parent_id"], []).append(record)
        result = {}
        for record in self.spans:
            duration = record["end"] - record["start"]
            covered = _covered(record, children.get(record["span_id"], []))
            other = duration - covered
            if other < -1e-9 or abs(covered + other - duration) > 1e-9:
                raise AssertionError(f"span {record['name']} breaks children + other = duration")
            result[record["span_id"]] = other
        return result

    def layer_table(self) -> dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        selfs = self.self_times()
        table: dict[str, float] = {}
        for record in self.spans:
            layer = record["name"].split(".", 1)[0]
            table[layer] = table.get(layer, 0.0) + selfs[record["span_id"]]
        return table

    def write(self, path: str, extra: dict) -> None:
        selfs = self.self_times()
        document = {
            "trace_id": self.trace_id,
            "spans": [dict(record, self=selfs[record["span_id"]]) for record in self.spans],
            **extra,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, default=str)


def _covered(parent: dict, kids: list[dict]) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    intervals = sorted(
        (max(kid["start"], parent["start"]), min(kid["end"], parent["end"])) for kid in kids
    )
    covered = 0.0
    cursor = parent["start"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered
