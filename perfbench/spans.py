"""Span recorder and the arithmetic the benchmark applies to spans.

A span is ``(id, parent, name, tag, start, end)``: ``parent`` is the id
of the span that was open in the same process when this one started
(``-1`` at top level), ``tag`` an optional label such as ``c64`` for a
64-core simulation.  Times come from :func:`time.perf_counter`, which is
``CLOCK_MONOTONIC`` on Linux and therefore comparable across the pool
workers a campaign forks.

Spans stay in memory and are written as one JSON document per flush to
``<out_dir>/<pid>-<seq>.json``; the parent process flushes once at exit,
forked pool workers after every task they finish (a pool worker may be
torn down without running exit handlers).
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "METRIC_NAME",
    "PERCENTILE_LADDER",
    "Recorder",
    "Span",
    "check_metric_name",
    "coverage",
    "layer_totals",
    "load_spans",
    "percentile",
    "self_times",
    "tail_percentile",
]

#: (id, parent, name, tag, start, end)
Span = Tuple[int, int, str, Optional[str], float, float]

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Candidate tail percentiles, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class Recorder:
    """In-memory span and counter buffer for one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked worker starts empty: the parent's spans are the
        # parent's to write, and the parent's open spans are not open here.
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.next_id = 0
        self.seq = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        tag: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call (``tag(*args)`` labels it)."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.next_id
            rec.next_id = sid + 1
            stack = rec.stack
            parent = stack[-1] if stack else -1
            label = tag(*args, **kwargs) if tag is not None else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.spans.append((sid, parent, name, label, t0, t1))

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls without timing them."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = rec.counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def record(self, name: str, t0: float, t1: float) -> None:
        """A top-level span measured by the caller (e.g. an import)."""
        sid = self.next_id
        self.next_id = sid + 1
        self.spans.append((sid, -1, name, None, t0, t1))

    def flush(self) -> None:
        """Write and drop everything recorded since the last flush."""
        if not self.spans and not self.counts:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.pid}-{self.seq}.json"
        self.seq += 1
        doc = {
            "pid": self.pid,
            "main": self.pid == self.root_pid,
            "spans": self.spans,
            "counts": self.counts,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)
        self.spans = []
        self.counts = {}


def load_spans(out_dir: Path) -> Tuple[Dict[int, List[Span]], Dict[str, int], int]:
    """Spans grouped by pid, summed counters and the main process's pid."""
    by_pid: Dict[int, List[Span]] = {}
    counts: Dict[str, int] = {}
    main_pid = -1
    for path in sorted(Path(out_dir).glob("*.json")):
        doc = json.loads(path.read_text())
        pid = int(doc["pid"])
        if doc["main"]:
            main_pid = pid
        by_pid.setdefault(pid, []).extend(
            (int(s[0]), int(s[1]), s[2], s[3], float(s[4]), float(s[5]))
            for s in doc["spans"]
        )
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + int(n)
    return by_pid, counts, main_pid


def coverage(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus what its children cover.

    Only the part of a child that lies inside its parent is subtracted,
    so a child that starts before or ends after its parent (clock skew,
    a span recorded by the caller) never drives self time negative.
    """
    by_id = {s[0]: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _name, _tag, t0, t1 in spans:
        if parent in by_id:
            p = by_id[parent]
            lo, hi = max(t0, p[4]), min(t1, p[5])
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return {
        sid: (t1 - t0) - coverage(children.get(sid, ()))
        for sid, _parent, _name, _tag, t0, t1 in spans
    }


def layer_totals(
    spans: Sequence[Span], layer_of: Callable[[str], str]
) -> Dict[str, Tuple[int, float, float]]:
    """Per layer: (calls, time, self time) over one process's spans.

    ``calls`` and ``time`` count only a layer's outermost spans — a span
    nested (at any depth) inside another span of the same layer is part
    of that call, not a second one.  ``self time`` sums every span's
    self time, so the self times of all layers add up to the coverage of
    the top-level spans.
    """
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    out: Dict[str, List[float]] = {}
    for sid, parent, name, _tag, t0, t1 in spans:
        layer = layer_of(name)
        acc = out.setdefault(layer, [0, 0.0, 0.0])
        acc[2] += own[sid]
        p = parent
        nested = False
        while p in by_id:
            if layer_of(by_id[p][2]) == layer:
                nested = True
                break
            p = by_id[p][1]
        if not nested:
            acc[0] += 1
            acc[1] += t1 - t0
    return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}


def percentile(values: Sequence[float], p: float) -> float:
    """``p``-th percentile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n_samples: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        # round(): 100 - 99.9 is a hair below 0.1 in binary floating point
        if round(n_samples * (100.0 - p) / 100.0, 6) >= 10.0:
            best = p
    return best


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name) or len(name) > 64:
        raise ValueError(f"bad metric name {name!r}")
    return name
