"""Process-wide counters.

The registry is the single home for every runtime counter in the pipeline,
the per-layer time totals of :mod:`.layers` included; the older ad-hoc
surfaces (``ArtifactStore.stats()``, the ``VMBatch`` attributes) are
façades over it.  An increment is one dict
``get`` + add on a plain ``dict``, with no locks (CPython dict ops are
atomic enough for the single-threaded processes this pipeline runs), so the
counters are always on.

A component that needs resettable local counters (the store, a batch) owns
a child registry whose increments also propagate to its parent, so
``reset()`` on the child never erases the process-wide totals.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, Optional


class MetricsRegistry:
    """A namespace of counters.

    ``parent`` chains increments upward: a child registry is a resettable
    local view whose traffic still lands in the process-global registry.
    """

    def __init__(self, parent: Optional["MetricsRegistry"] = None) -> None:
        self.parent = parent
        self.counters: Dict[str, float] = {}

    def counter(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if self.parent is not None:
            self.parent.counter(name, value)

    def get(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def prefixed(self, prefix: str) -> Dict[str, float]:
        """Counters under ``prefix.`` with the prefix stripped."""
        cut = len(prefix) + 1
        return {name[cut:]: value for name, value in self.counters.items()
                if name.startswith(prefix + ".")}

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero this registry (never the parent: global totals survive)."""
        if prefix is None:
            self.counters.clear()
            return
        for name in [k for k in self.counters if k.startswith(prefix)]:
            del self.counters[name]


#: The process-global registry every instrumented component reports into.
REGISTRY = MetricsRegistry()


if hasattr(os, "register_at_fork"):
    # a forked worker counts only its own work: what the parent counted
    # before the fork is the parent's
    os.register_at_fork(after_in_child=REGISTRY.reset)


def counter(name: str, value: float = 1) -> None:
    REGISTRY.counter(name, value)


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
