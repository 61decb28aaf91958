"""Per-layer time accounting: always on, in every process.

:func:`layer` marks a pipeline entry point as part of a named layer
(``workloads.build``, ``core.obfuscate``, ``opt.optimize``,
``backend.lower``, ``vm.run``, ``diffing.<tool>.diff``,
``diffing.features``, ``store.read`` ...).  Each call charges its *self*
time — its duration minus that of the layer calls made inside it, so nested
layers are never counted twice — and one call to two counters of
:data:`~repro.obs.metrics.REGISTRY`: ``self_s.<layer>`` and
``calls.<layer>``.  A call costs about a microsecond and a pass of a few
seconds makes a few thousand (``tests/test_obs.py`` holds the 2% budget).

Pool workers are forked and start from zero: the registry and the call
stack are cleared in the child.  A pool task returns, with its result,
the counters its worker recorded since its previous result
(:func:`hand_back`; a failed task's counters die with its worker, which
the failed run kills), and the parent adds them to :data:`WORKERS`
(:func:`absorb`) — a book of its own, so the parent's registry keeps this
process's counts only.

:func:`measure` reads both books around any block: per-layer self time and
calls, every other counter, and the share of the block's time the layers
cover.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple, Union

from .metrics import REGISTRY, MetricsRegistry

#: Pseudo-layer of a worker's task time outside every other layer.
TASK = "evaluation.task"
#: Pseudo-layer of the parent's time in the pool loop, waiting on workers.
WAIT = "evaluation.wait"

#: Child seconds of each layer call in progress, innermost last.
_stack: List[float] = []

#: The counters this process's pool workers handed back.
WORKERS = MetricsRegistry()

#: This process's counters as of its last :func:`hand_back`.
_handed: Dict[str, float] = {}


def _counter_names(name: str) -> Tuple[str, str]:
    return "self_s." + name, "calls." + name


def layer(name: Union[str, Callable[[tuple], str]]) -> Callable:
    """Decorator: charge each call's self time, and one call, to ``name``.

    ``name`` is a layer name, or a function of the call's positional
    arguments that returns one (``BinaryDiffer.diff`` names its tool).
    """
    def decorate(fn: Callable) -> Callable:
        fixed = _counter_names(name) if isinstance(name, str) else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                seconds, calls = fixed or _counter_names(name(args))
                counters = REGISTRY.counters
                counters[seconds] = (counters.get(seconds, 0.0) + elapsed
                                     - _stack.pop())
                counters[calls] = counters.get(calls, 0) + 1
                if _stack:
                    _stack[-1] += elapsed
        return wrapper
    return decorate


def hand_back() -> Dict[str, float]:
    """The counters this process recorded since its previous hand-back."""
    delta = {}
    for name, value in REGISTRY.counters.items():
        grown = value - _handed.get(name, 0)
        if grown:
            delta[name] = grown
    _handed.clear()
    _handed.update(REGISTRY.counters)
    return delta


def absorb(counters: Dict[str, float]) -> None:
    """Add the counters a pool worker handed back to :data:`WORKERS`."""
    for name, value in counters.items():
        WORKERS.counter(name, value)


def _after_fork_in_child() -> None:
    _stack.clear()
    _handed.clear()
    WORKERS.reset()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


@dataclass
class Measurement:
    """What :func:`measure` read: this process's and its workers' totals."""

    #: Wall time of the measured block.
    wall_s: float = 0.0
    #: Layer -> self seconds, and layer -> calls.
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, float] = field(default_factory=dict)
    #: Every other counter.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Task time the pool workers handed back (all their layers).
    worker_s: float = 0.0
    #: Share of the time to attribute that some layer other than
    #: :data:`TASK` and :data:`WAIT` covers.
    coverage: float = 0.0


def _grown(counters: Dict[str, float],
           before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0)
            for name, value in counters.items()
            if value != before.get(name, 0)}


@contextmanager
def measure() -> Iterator[Measurement]:
    """Yield a :class:`Measurement` that holds, once the block exits, the
    block's totals in this process and in the pool workers it ran.

    The time to attribute is the block's wall time outside its pool waits
    plus the larger of the waits and the task time the workers handed back,
    so a pool whose workers hand back nothing leaves its wait unattributed;
    ``coverage`` is the attributed share.
    """
    result = Measurement()
    own_before = dict(REGISTRY.counters)
    workers_before = dict(WORKERS.counters)
    start = time.perf_counter()
    try:
        yield result
    finally:
        result.wall_s = time.perf_counter() - start
        own = _grown(REGISTRY.counters, own_before)
        workers = _grown(WORKERS.counters, workers_before)
        for part in (own, workers):
            for name, value in part.items():
                kind, _, layer_name = name.partition(".")
                if kind == "self_s":
                    book, key = result.self_s, layer_name
                elif kind == "calls":
                    book, key = result.calls, layer_name
                else:
                    book, key = result.counters, name
                book[key] = book.get(key, 0) + value
        result.worker_s = sum(value for name, value in workers.items()
                              if name.startswith("self_s."))
        wait = own.get("self_s." + WAIT, 0.0)
        total = result.wall_s - wait + max(wait, result.worker_s)
        attributed = sum(seconds for name, seconds in result.self_s.items()
                         if name not in (TASK, WAIT))
        result.coverage = attributed / total if total > 0 else 0.0
