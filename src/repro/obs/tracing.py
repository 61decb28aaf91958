"""Span tracing: nested, attributed, ring-buffered, no-op when disabled.

Enabled by ``REPRO_TRACE``: unset, empty, ``0``, ``off``, ``false`` or
``no`` mean off; ``1``, ``on``, ``true`` or ``yes`` mean on (case and
surrounding spaces ignored); any other value raises :class:`ValueError`.
The disabled path is the one that must stay off the flame graph: ``span()``
checks one module-level flag and returns a shared no-op singleton — no
allocation, no clock read, no buffer append.  That keeps the pipeline's
instrumentation cheap enough to leave compiled in everywhere (the ≤2%
disabled-overhead budget of the telemetry PR).

Enabled, every finished span lands in a bounded per-process ring buffer
(:data:`BUFFER_RECORDS`) as a plain dict:

``{"type": "span", "name", "cat", "ts", "dur", "pid", "tid", "id",
   "parent", "seq", "args"}``

with microsecond epoch timestamps (``time.time_ns() // 1000`` — the unit
Chrome trace-event JSON wants) and a process-local ``seq`` so merged
multi-process traces order deterministically on ``(ts, pid, seq)``.
Instant events use ``type: "event"`` and no ``dur``.  The buffer is
drained by :func:`repro.obs.collect.flush` at task boundaries.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

#: Span records each process buffers between flushes; older ones drop.
BUFFER_RECORDS = 200_000


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_TRACE", "")
    value = raw.strip().lower()
    if value in ("", "0", "off", "false", "no"):
        return False
    if value in ("1", "on", "true", "yes"):
        return True
    raise ValueError(f"REPRO_TRACE must be on (1/on/true/yes) or off "
                     f"(0/off/false/no), got {raw!r}")


_enabled = _env_enabled()
_buffer: deque = deque(maxlen=BUFFER_RECORDS)
_seq = 0
_local = threading.local()


def active() -> bool:
    """Is tracing on?  The one flag every instrumentation site checks."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Force tracing on/off (tests and benches; env wins at import only)."""
    global _enabled
    _enabled = bool(flag)


def refresh() -> None:
    """Re-read ``REPRO_TRACE`` (spawned workers call this implicitly by
    importing fresh; long-lived processes call it after mutating the
    environment)."""
    global _enabled
    _enabled = _env_enabled()


def _now_us() -> int:
    return time.time_ns() // 1000


def _stack() -> List["Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _next_seq() -> int:
    global _seq
    _seq += 1
    return _seq


class Span:
    """One timed region.  Context manager; ``set()`` adds attributes."""

    __slots__ = ("name", "cat", "attrs", "ts", "span_id", "parent_id")

    def __init__(self, name: str, cat: Optional[str],
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.ts = 0
        self.span_id = 0
        self.parent_id: Optional[int] = None

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        self.parent_id = stack[-1].span_id if stack else None
        if self.cat is None and stack:
            self.cat = stack[-1].cat          # inherit the phase
        self.span_id = _next_seq()
        stack.append(self)
        self.ts = _now_us()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        end = _now_us()
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        _buffer.append({
            "type": "span", "name": self.name, "cat": self.cat or "other",
            "ts": self.ts, "dur": max(0, end - self.ts),
            "pid": os.getpid(), "tid": threading.get_ident() & 0xFFFF,
            "id": self.span_id, "parent": self.parent_id,
            "seq": _next_seq(), "args": self.attrs,
        })


class _NoopSpan:
    """Shared do-nothing span handed out whenever tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


def span(name: str, cat: Optional[str] = None, **attrs: Any):
    """Open a span (``with span("diff.shard", cat="diff", tool=...)``).

    When tracing is disabled this returns the shared no-op singleton —
    the flag check is the entire cost.
    """
    if not _enabled:
        return NOOP_SPAN
    return Span(name, cat, attrs)


def event(name: str, cat: Optional[str] = None, **attrs: Any) -> None:
    """Record an instant event (retry, timeout, quarantine, respawn...)."""
    if not _enabled:
        return
    stack = _stack()
    _buffer.append({
        "type": "event", "name": name,
        "cat": cat or (stack[-1].cat if stack else None) or "other",
        "ts": _now_us(), "pid": os.getpid(),
        "tid": threading.get_ident() & 0xFFFF,
        "parent": stack[-1].span_id if stack else None,
        "seq": _next_seq(), "args": attrs,
    })


def traced(name: Optional[str] = None, cat: Optional[str] = None) -> Callable:
    """Decorator form of :func:`span` for whole-function regions."""
    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return fn(*args, **kwargs)
            with Span(label, cat, {}):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def drain() -> List[Dict[str, Any]]:
    """Return and clear the buffered records (flush-time)."""
    records = list(_buffer)
    _buffer.clear()
    return records


def _reset_after_fork() -> None:
    # a forked worker inherits the coordinator's span buffer; those records
    # belong to (and will be flushed by) the parent — re-flushing them from
    # the child would duplicate them in the merged trace
    _buffer.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def pending() -> int:
    return len(_buffer)
