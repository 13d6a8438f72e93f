"""In-memory spans for the traced run.

The untraced run passes :func:`no_span` instead, so it records nothing.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from typing import Iterator

_NULL = contextlib.nullcontext()


def no_span(name: str, **attrs: object) -> contextlib.nullcontext:
    return _NULL


class Tracer:
    """Spans with name, start, end, parent, op id and pass index.

    Times are ``perf_counter_ns`` values.  Spans stay in memory in
    ``spans`` until the run writes them out at its end.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = ""
        self.pass_index = -1

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "pass": self.pass_index,
            "start": time.perf_counter_ns(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def per_pass_seconds(self, name: str, **match: object) -> list[float]:
        """Summed duration of the spans called ``name`` in each pass, in seconds."""
        totals: dict[int, float] = defaultdict(float)
        passes = {s["pass"] for s in self.spans}
        for s in self.spans:
            if s["name"] == name and all(s.get(k) == v for k, v in match.items()):
                totals[s["pass"]] += (s["end"] - s["start"]) / 1e9
        return [totals[p] for p in sorted(passes)]

    def median_ms(self, name: str, **match: object) -> float:
        return statistics.median(self.per_pass_seconds(name, **match)) * 1e3
