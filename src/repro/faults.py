"""Seeded, deterministic fault injection (``REPRO_FAULTS``).

The fault-tolerance layer — the supervised executor's retries and pool
respawn, the store's corrupt-object quarantine, checkpoint/resume — is only
trustworthy if it can be exercised under *reproducible* chaos.  This module
injects four kinds of fault at well-defined points:

* ``worker_crash`` — the worker process hard-exits (``os._exit``) at task
  entry, breaking the whole process pool exactly like a segfaulting or
  OOM-killed worker would;
* ``task_hang`` — the worker sleeps at task entry (default far longer than
  any sane ``REPRO_TASK_TIMEOUT``), exercising hung-worker kill + retry;
* ``task_error`` — the task raises :class:`FaultInjected` at entry,
  exercising the bounded-retry path without killing the worker;
* ``store_corrupt`` — the bytes of a store object are damaged as they are
  written (:meth:`FaultInjector.corrupt_payload`), exercising the store's
  read-path corruption detection, quarantine and rebuild.

The spec grammar (``REPRO_FAULTS``) is ``;``-separated rules::

    worker_crash:p=0.2,seed=7;store_corrupt:p=0.1,seed=7;task_hang:p=0.05

Each rule names a fault kind and gives ``p`` (firing probability), an
optional ``seed`` (default 0) and, for ``task_hang``, ``seconds`` (default
300).  **Decisions are not random draws**: whether a fault fires at a given
site is a pure function of ``(kind, seed, token, attempt)`` hashed through
SHA-256 and compared against ``p`` — the same spec over the same task matrix
injects the same faults no matter how processes are scheduled, which is what
makes every chaos test re-runnable.

Worker faults (``worker_crash``/``task_hang``/``task_error``) are applied
only by the supervised executor's *worker-side* task wrapper — an
in-process (``jobs=1``) run never injects, even with ``REPRO_FAULTS``
exported.  ``store_corrupt`` applies wherever a store
writes objects, but fires at most **once per object per process**
(:attr:`FaultInjector._fired`), so the rebuild that follows a quarantined
read persists a clean copy instead of corrupting forever.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from .obs import metrics as obs_metrics

#: The recognised fault kinds, in spec order.
FAULT_KINDS = ("worker_crash", "task_hang", "task_error", "store_corrupt")

#: Exit status of an injected worker crash (distinguishable in pool logs
#: from a Python-level failure, which would raise instead of exiting).
CRASH_EXIT_CODE = 113

#: Default sleep of an injected hang — far beyond any sane task timeout, so
#: an unconfigured supervisor visibly stalls instead of silently passing.
DEFAULT_HANG_SECONDS = 300.0


class FaultInjected(RuntimeError):
    """An injected task failure (the ``task_error`` fault kind)."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule of a ``REPRO_FAULTS`` spec."""

    kind: str
    probability: float
    seed: int = 0
    seconds: float = DEFAULT_HANG_SECONDS

    def fires(self, token: str, attempt: int = 0) -> bool:
        """Deterministic firing decision for one injection site.

        A pure function of the rule and ``(token, attempt)``: the first 8
        bytes of ``sha256(kind:seed:token:attempt)`` interpreted as a
        fraction of 2**64 and compared against ``p``.  Retries pass a fresh
        ``attempt`` and re-roll — a crashing task does not crash forever.
        """
        if self.probability <= 0.0:
            return False
        if self.probability >= 1.0:
            return True
        text = f"{self.kind}:{self.seed}:{token}:{attempt}"
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.probability


def parse_faults(spec: str) -> Dict[str, FaultRule]:
    """Parse a ``REPRO_FAULTS`` spec into rules keyed by fault kind.

    Raises :class:`ValueError` on anything malformed — an operator typo must
    surface at startup, not silently disable the chaos they asked for.
    """
    rules: Dict[str, FaultRule] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, params = part.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"REPRO_FAULTS: unknown fault kind {kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})")
        if kind in rules:
            raise ValueError(f"REPRO_FAULTS: duplicate rule for {kind!r}")
        probability: Optional[float] = None
        seed = 0
        seconds = DEFAULT_HANG_SECONDS
        for item in params.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(
                    f"REPRO_FAULTS: malformed parameter {item!r} in {part!r}")
            name = name.strip()
            raw = raw.strip()
            try:
                if name == "p":
                    probability = float(raw)
                elif name == "seed":
                    seed = int(raw)
                elif name == "seconds":
                    seconds = float(raw)
                else:
                    raise ValueError(
                        f"REPRO_FAULTS: unknown parameter {name!r} in {part!r}")
            except ValueError as error:
                if "REPRO_FAULTS" in str(error):
                    raise
                raise ValueError(
                    f"REPRO_FAULTS: invalid value {raw!r} for {name!r} "
                    f"in {part!r}")
        if probability is None:
            raise ValueError(f"REPRO_FAULTS: rule {part!r} is missing p=")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"REPRO_FAULTS: p must be within [0, 1], got {probability}")
        if seconds <= 0:
            raise ValueError(
                f"REPRO_FAULTS: seconds must be positive, got {seconds}")
        rules[kind] = FaultRule(kind=kind, probability=probability,
                                seed=seed, seconds=seconds)
    return rules


class FaultInjector:
    """Applies a parsed fault plan at the pipeline's injection points.

    One instance per process (see :func:`active_injector`); the ``fired``
    counters let tests and chaos harnesses assert that the plan actually
    exercised something instead of vacuously passing.
    """

    def __init__(self, rules: Dict[str, FaultRule]):
        self.rules = dict(rules)
        self.fired: Dict[str, int] = {kind: 0 for kind in self.rules}
        #: (kind, token) pairs that already fired in this process — used by
        #: fire-once faults (``store_corrupt``) so self-healing converges.
        self._fired: Set[Tuple[str, str]] = set()

    def _decide(self, kind: str, token: str, attempt: int) -> bool:
        rule = self.rules.get(kind)
        if rule is None or not rule.fires(token, attempt):
            return False
        self.fired[kind] += 1
        # a worker's count reaches its parent with the worker's next task
        # result; a worker_crash count dies with the process, but the
        # parent's executor.pool_respawns still marks it
        obs_metrics.counter(f"faults.injected.{kind}")
        return True

    # -- worker-side faults (applied by the supervised executor wrapper) ----------

    def maybe_crash(self, token: str, attempt: int = 0) -> None:
        """Hard-exit the process, like a segfault or the OOM killer would."""
        if self._decide("worker_crash", token, attempt):
            os._exit(CRASH_EXIT_CODE)

    def maybe_hang(self, token: str, attempt: int = 0) -> None:
        """Stall the task long enough to trip any configured timeout."""
        if self._decide("task_hang", token, attempt):
            time.sleep(self.rules["task_hang"].seconds)

    def maybe_error(self, token: str, attempt: int = 0) -> None:
        """Raise a retryable task failure."""
        if self._decide("task_error", token, attempt):
            raise FaultInjected(
                f"injected task_error at {token!r} (attempt {attempt})")

    # -- store-side faults --------------------------------------------------------

    def corrupt_payload(self, token: str, data: bytes) -> bytes:
        """Damage an object's bytes on their way to disk — at most once per
        ``token`` per process, so the post-quarantine rebuild writes clean."""
        if ("store_corrupt", token) in self._fired:
            return data
        if not self._decide("store_corrupt", token, 0):
            return data
        self._fired.add(("store_corrupt", token))
        # truncate and append garbage: fails unpickling without tripping any
        # short-read special case
        return data[:max(1, len(data) // 2)] + b"\xde\xad\xbe\xef"


_INJECTOR: Optional[FaultInjector] = None
_INJECTOR_SPEC: Optional[str] = None


def active_injector(environ=os.environ) -> Optional[FaultInjector]:
    """The process-wide injector for the current ``REPRO_FAULTS`` spec.

    ``None`` when no spec is set — the common case, and the reason every
    injection point guards with one cheap env read.  The injector is rebuilt
    whenever the spec string changes (tests monkeypatch it per scenario);
    its fire-once state intentionally resets with it.
    """
    global _INJECTOR, _INJECTOR_SPEC
    spec = environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        _INJECTOR = None
        _INJECTOR_SPEC = None
        return None
    if _INJECTOR is None or _INJECTOR_SPEC != spec:
        _INJECTOR = FaultInjector(parse_faults(spec))
        _INJECTOR_SPEC = spec
    return _INJECTOR


def reset_injector() -> None:
    """Drop the cached injector (tests use this to isolate scenarios)."""
    global _INJECTOR, _INJECTOR_SPEC
    _INJECTOR = None
    _INJECTOR_SPEC = None
