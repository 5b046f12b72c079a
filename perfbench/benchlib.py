"""Spans, self times and summary statistics for the ordergame benchmark.

Pure Python: the runner uses it without importing numpy or the package.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from fractions import Fraction

#: Metric names: a letter or digit, then at most 63 of ``[A-Za-z0-9_.-]``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Slack of every float correctness check; fixed, never a solver tolerance.
SLACK = 1e-6

#: Candidate tail percentiles, as strings so that the rule stays exact.
TAIL_LADDER = ("90", "99", "99.9", "99.99")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def tail_percentile(n_samples: int, ladder=TAIL_LADDER) -> str | None:
    """Highest percentile of ``ladder`` with at least ten samples beyond it.

    ``None`` when even the lowest candidate has fewer than ten samples
    beyond it; the median is then the only percentile worth reporting.
    """
    best = None
    for p in ladder:
        if n_samples * (100 - Fraction(p)) / 100 >= 10:
            best = p
    return best


def percentile(values, p: str) -> float:
    """The ``p``-th percentile with linear interpolation (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * Fraction(p) / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * float(pos - lo)


class Tracer:
    """Records spans in memory; nothing is written until the pass ends.

    A span is ``{"id", "parent", "name", "start", "end"}`` with times in
    seconds from ``time.perf_counter``.  The parent is the span open when
    it started.  When disabled, :meth:`span` records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Self time summed over the spans that share a name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out
