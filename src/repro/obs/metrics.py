"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the single home for every runtime counter in the pipeline;
the older ad-hoc surfaces (``ArtifactStore.stats()``, the ``VMBatch``
attributes, ``worker_cache_events()``) are façades over it.  Design constraints, in order:

1. **cheap enough to leave on** — an increment is one dict ``get`` + add on
   a plain ``dict``; no locks (CPython dict ops are atomic enough for the
   single-threaded worker processes this pipeline runs), no allocation on
   the hot path beyond the first touch of a name;
2. **per-instance views with global accumulation** — a component that needs
   resettable local counters (the store, a batch) owns a child registry
   whose increments also propagate to its parent, so ``reset()`` on the
   child never erases the process-wide totals that get flushed to
   telemetry;
3. **mergeable snapshots** — ``snapshot()`` is plain JSON-able data and
   ``merge_snapshots`` sums counters / keeps last gauges / adds histogram
   buckets, so per-worker flushes combine deterministically.

Histograms use fixed log-spaced bucket bounds so two processes always
agree on bucket edges; quantiles are estimated from the cumulative bucket
counts (upper-bound rule) with exact ``min``/``max``/``sum``/``count``
kept alongside.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

# Default histogram bucket upper bounds (seconds-flavoured log scale, but
# dimensionless: callers observe whatever unit they like as long as they
# are consistent per metric name).  The final implicit bucket is +inf.
DEFAULT_BOUNDS: Sequence[float] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max."""

    __slots__ = ("bounds", "buckets", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)   # last = overflow
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.bounds)
        while lo < hi:                                # bisect over bounds
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.buckets[lo] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> float:
        """Bucket-estimated quantile (upper-bound rule); exact at the tails."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target and n:
                if i >= len(self.bounds):             # overflow bucket
                    return float(self.maximum or 0.0)
                return float(self.bounds[i])
        return float(self.maximum or 0.0)

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": list(self.buckets),
            "bounds": list(self.bounds),
        }


class MetricsRegistry:
    """A namespace of counters, gauges and histograms.

    ``parent`` chains increments upward: a child registry is a resettable
    local view whose traffic still lands in the process-global registry
    (and therefore in the per-run telemetry flush).
    """

    def __init__(self, parent: Optional["MetricsRegistry"] = None) -> None:
        self.parent = parent
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- write side -------------------------------------------------------
    def counter(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if self.parent is not None:
            self.parent.counter(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value
        if self.parent is not None:
            self.parent.gauge(name, value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        hist.observe(value)
        if self.parent is not None:
            self.parent.observe(name, value, bounds)

    # -- read side --------------------------------------------------------
    def get(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def prefixed(self, prefix: str) -> Dict[str, float]:
        """Counters under ``prefix.`` with the prefix stripped."""
        cut = len(prefix) + 1
        return {name[cut:]: value for name, value in self.counters.items()
                if name.startswith(prefix + ".")}

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: hist.summary()
                           for name, hist in self.histograms.items()},
        }

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero this registry (never the parent: global totals survive)."""
        if prefix is None:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            return
        for table in (self.counters, self.gauges, self.histograms):
            for name in [k for k in table if k.startswith(prefix)]:
                del table[name]


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-process snapshots: counters/histograms sum, gauges last."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(snap.get("gauges", {}))
        for name, summ in snap.get("histograms", {}).items():
            prev = histograms.get(name)
            if prev is None or prev.get("bounds") != summ.get("bounds"):
                histograms[name] = dict(summ)
                continue
            prev["count"] += summ["count"]
            prev["sum"] += summ["sum"]
            prev["min"] = min(prev["min"], summ["min"]) if prev["count"] else 0.0
            prev["max"] = max(prev["max"], summ["max"])
            prev["buckets"] = [a + b for a, b in
                               zip(prev["buckets"], summ["buckets"])]
    # re-derive quantiles for summed histograms from the merged buckets
    for summ in histograms.values():
        total = summ["count"]
        if not total:
            continue
        bounds = summ["bounds"]
        for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            target = q * total
            seen = 0
            est = summ["max"]
            for i, n in enumerate(summ["buckets"]):
                seen += n
                if seen >= target and n:
                    est = bounds[i] if i < len(bounds) else summ["max"]
                    break
            summ[key] = float(est)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


#: The process-global registry every instrumented component reports into.
REGISTRY = MetricsRegistry()


def _reset_after_fork() -> None:
    # a forked worker inherits the coordinator's registry state; without
    # this guard each worker's snapshot would re-export (and the merge
    # re-sum) counts the coordinator already owns
    REGISTRY.reset()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def counter(name: str, value: float = 1) -> None:
    REGISTRY.counter(name, value)


def gauge(name: str, value: float) -> None:
    REGISTRY.gauge(name, value)


def observe(name: str, value: float) -> None:
    REGISTRY.observe(name, value)


@contextmanager
def counted(prefix: str) -> Iterator[Counter]:
    """Yield a :class:`~collections.Counter` that holds, once the block
    exits, how much each ``<prefix>.*`` counter of :data:`REGISTRY` grew
    inside it (names without the prefix)."""
    before = REGISTRY.prefixed(prefix)
    grown: Counter = Counter()
    yield grown
    for name, value in REGISTRY.prefixed(prefix).items():
        grown[name] = value - before.get(name, 0)
