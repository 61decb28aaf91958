"""Content-addressed artifact store shared by every experiment process.

The evaluation pipeline's stored artifacts — the reduced rows of each
figure unit — are pure functions of their configuration: workload
synthesis is profile-seeded, every obfuscator advertises a seeded
``cache_key()``, and the optimizer is deterministic.  :class:`ArtifactStore`
exploits that purity to compute each unit once per *machine* rather than
once per run:

* keys are frozen value tuples (:mod:`repro.store.keys`), hashed into a
  stable content address (:func:`store_digest`) under a *kind* namespace
  (``"shard"``, the one kind a run writes);
* the on-disk tree (``objects/<generation>/<kind>/<aa>/<digest>.pkl``) is
  written with a single-writer atomic protocol — temp file + ``os.replace``
  — so any number of concurrent processes can attach to one tree: a
  reader never sees a half-written object, racing writers of one
  deterministic artifact simply last-write an identical file, and a writer
  never clobbers an object that already exists (first-writer-kept at the
  API level);
* a process reads and writes only its own *generation*, the fingerprint of
  the code it runs (:func:`~repro.store.keys.code_fingerprint`): a tree
  written by other code attaches and rebuilds, never serves a stale
  object, and ``scripts/gc_store.py`` deletes the generations of other
  code.

The store is that tree and nothing else: it requires a root
(:class:`~repro.store.backend.LocalBackend` is its byte layer), holds no
object in memory, and every lookup reads the tree.  The evaluation drivers
attach ``REPRO_STORE_DIR`` in one place, the checkpoint layer
(:func:`~repro.evaluation.checkpoint.run_checkpointed`), which opens one
store per run and reads each unit's key once, before any write.  Built
variants are never stored (:mod:`repro.core.variant_cache`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from typing import Callable, Dict, List, Optional, TypeVar

from ..obs import layer
from ..obs import metrics as obs_metrics
from .backend import OBJECTS_DIR, LocalBackend
from .keys import code_fingerprint

T = TypeVar("T")

#: The one artifact kind a run stores: the results of completed figure
#: units (the checkpoint layer revives a unit from its ``shard`` object
#: instead of executing it again).
KIND_SHARD = "shard"

#: The concrete exception classes a damaged object file can raise on read:
#: I/O failures, torn/truncated pickles, and pickles whose bytes name
#: classes or fields that do not exist.  Anything outside this tuple is a
#: bug and propagates.
CORRUPT_READ_ERRORS = (OSError, pickle.UnpicklingError, EOFError,
                       ValueError, TypeError, AttributeError, ImportError,
                       IndexError, KeyError)


def canonical_key(key: object) -> str:
    """A stable textual form of a frozen cache key.

    Keys are built by :func:`~repro.store.keys._freeze`, so they only
    contain ``None``, booleans, numbers, strings, bytes and nested tuples —
    all of which ``repr`` deterministically across processes and sessions.
    Anything else is rejected: an identity-hashed component would silently
    never match again after a round trip.
    """
    if key is None or isinstance(key, (bool, int, float, str, bytes)):
        return repr(key)
    if isinstance(key, tuple):
        return "(" + ",".join(canonical_key(item) for item in key) + ")"
    raise TypeError(
        f"store keys must be frozen value tuples, got {type(key).__name__}")


def store_digest(kind: str, key: object) -> str:
    """The content address of ``key`` inside the ``kind`` namespace."""
    text = f"{kind}\n{canonical_key(key)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_store_tree(root: str) -> bool:
    """Does ``root`` look like an :class:`ArtifactStore` tree?"""
    return os.path.isdir(os.path.join(root, OBJECTS_DIR))


def store_dir_from_env(environ=os.environ) -> Optional[str]:
    """The shared store directory (``REPRO_STORE_DIR``), if any."""
    return environ.get("REPRO_STORE_DIR") or None


def store_from_env(environ=os.environ) -> Optional["ArtifactStore"]:
    """The store ``REPRO_STORE_DIR`` names, or ``None`` for storeless runs.

    Raises ``OSError`` on an unusable directory — callers that must degrade
    (the checkpoint layer) catch it.
    """
    root = store_dir_from_env(environ)
    return ArtifactStore.attach(root) if root else None


class ArtifactStore:
    """Content-addressed, multi-process-safe store over one on-disk tree.

    Any number of processes may attach to the same ``root``.  Every lookup
    reads the tree, and every build is persisted before it is returned, so
    other processes observe it on their next lookup.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        #: The store's counters live in a per-instance metrics registry
        #: chained to the process-global one: ``stats()`` and the counter
        #: properties read the instance view (resettable, one per store
        #: object — the shape the tests assert), while every increment also
        #: lands in :data:`repro.obs.metrics.REGISTRY` for telemetry.
        self.metrics = obs_metrics.MetricsRegistry(parent=obs_metrics.REGISTRY)
        self._backend = LocalBackend(self.root, code_fingerprint())
        os.makedirs(self._backend.objects, exist_ok=True)

    @classmethod
    def attach(cls, root: str) -> "ArtifactStore":
        """Attach to (creating if needed) this code's generation of the
        store tree at ``root``; raises ``OSError`` on an unusable path."""
        return cls(root)

    @property
    def persistent(self) -> bool:
        """Does this store outlive the process?  Always: a store is its
        tree.  Kept because the paper benchmark's tracer reads it."""
        return True

    # -- paths -------------------------------------------------------------------

    def object_path(self, kind: str, digest: str) -> str:
        return self._backend.object_path(kind, digest)

    def quarantine_path(self, kind: str, digest: str) -> str:
        return self._backend.quarantine_path(kind, digest)

    # -- the lookup protocol -----------------------------------------------------

    @layer("store.read")
    def get_or_build(self, kind: str, key: object,
                     builder: Callable[[], T]) -> T:
        """The artifact for ``(kind, key)``: read from the tree, else built.

        A freshly built artifact is persisted before it is returned.
        Artifacts are shared between processes, so they must be treated as
        immutable.
        """
        digest = store_digest(kind, key)
        payload = self._read_object(kind, digest, key)
        if payload is not _MISSING:
            self.metrics.counter("store.disk_hits")
            return payload  # type: ignore[return-value]
        self.metrics.counter("store.misses")
        payload = builder()
        self._write_object(kind, digest, key, payload)
        return payload

    @layer("store.read")
    def get(self, kind: str, key: object, default: object = None) -> object:
        """The stored artifact, or ``default`` — never builds."""
        payload = self._read_object(kind, store_digest(kind, key), key)
        if payload is _MISSING:
            return default
        self.metrics.counter("store.disk_hits")
        return payload

    @layer("store.write")
    def put(self, kind: str, key: object, payload: object,
            overwrite: bool = False) -> str:
        """Store ``payload`` under ``(kind, key)``; returns its digest.

        By default first-writer-kept: an object already on disk is left
        untouched (deterministic artifacts make both copies identical
        anyway).  ``overwrite=True`` replaces it atomically —
        last-writer-wins; a reader still only ever sees a complete file.
        """
        digest = store_digest(kind, key)
        self._write_object(kind, digest, key, payload, overwrite=overwrite)
        return digest

    @layer("store.read")
    def contains(self, kind: str, key: object) -> bool:
        return self._backend.contains(kind, store_digest(kind, key))

    def prefetch(self, kind: str, keys: List[object]) -> int:
        """Load nothing ahead and return 0.

        Nothing calls this: reads from the local tree are cheap one at a
        time.  It stays because the paper benchmark's layer tracer wraps
        ``ArtifactStore.prefetch`` by name and fails if it is missing.
        """
        return 0

    def reset_counters(self) -> None:
        """Zero this store's counter view (process-global totals survive)."""
        self.metrics.reset()

    # -- disk layer --------------------------------------------------------------

    @layer("store.read")
    def _read_object(self, kind: str, digest: str, key: object) -> object:
        try:
            data = self._backend.get(kind, digest)
            if data is None:
                return _MISSING
            self.metrics.counter("store.bytes_read", len(data))
            envelope = pickle.loads(data)
        except CORRUPT_READ_ERRORS as error:
            # a damaged object is *evidence*, not just a miss: move it to
            # quarantine/ with the cause, count it, and let the caller
            # rebuild into the now-clean slot (builds are deterministic)
            self._quarantine(kind, digest,
                             f"{type(error).__name__}: {error}",
                             cause=type(error).__name__)
            return _MISSING
        if (not isinstance(envelope, dict)
                or envelope.get("kind") != kind
                or envelope.get("key") != key
                or "payload" not in envelope):
            self._quarantine(kind, digest,
                             "envelope failed kind/key validation",
                             cause="envelope_mismatch")
            return _MISSING
        return envelope["payload"]

    def _quarantine(self, kind: str, digest: str, reason: str,
                    cause: str) -> None:
        """Move a corrupt object aside with a reason record.

        Best-effort: on a read-only tree (or when a racing reader already
        moved the file) the read still degrades to a miss — but the
        ``corrupt_reads`` counter always advances, so silent degradation is
        impossible either way.
        """
        self.metrics.counter(f"store.corrupt_reads.{cause}")
        record = {"kind": kind, "digest": digest, "reason": reason,
                  "cause": cause, "pid": os.getpid(),
                  "quarantined_at": time.time()}
        if self._backend.quarantine(kind, digest, record):
            self.metrics.counter("store.quarantined")

    @layer("store.write")
    def _write_object(self, kind: str, digest: str, key: object,
                      payload: object, overwrite: bool = False) -> None:
        envelope = {"kind": kind, "key": key, "payload": payload}
        try:
            if not overwrite and self._backend.contains(kind, digest):
                return  # first-writer-kept (the backend re-checks under race)
            data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
            written = self._backend.put(kind, digest, data,
                                        overwrite=overwrite)
        except (OSError, pickle.PicklingError, TypeError,
                AttributeError) as error:
            # persistence is an optimisation; never fail the build for an
            # unwritable tree or an unpicklable payload — but never
            # silently either
            self.metrics.counter(
                f"store.put_failures.{type(error).__name__}")
            return
        if not written:
            return  # a racing writer got there first; its copy is kept
        self.metrics.counter("store.puts")
        self.metrics.counter("store.bytes_written", len(data))

    # -- reporting ---------------------------------------------------------------
    # Read-only views over the instance metrics registry.

    @property
    def disk_hits(self) -> int:
        return int(self.metrics.get("store.disk_hits"))

    @property
    def misses(self) -> int:
        return int(self.metrics.get("store.misses"))

    @property
    def puts(self) -> int:
        return int(self.metrics.get("store.puts"))

    @property
    def quarantined(self) -> int:
        return int(self.metrics.get("store.quarantined"))

    @property
    def corrupt_reads(self) -> Dict[str, int]:
        """Corrupt object reads by cause — concrete exception class name
        (``"UnpicklingError"``, ``"EOFError"``, ...) or
        ``"envelope_mismatch"`` for files that unpickle but fail kind / key
        validation."""
        return {cause: int(count) for cause, count
                in self.metrics.prefixed("store.corrupt_reads").items()}

    @property
    def hit_rate(self) -> float:
        total = self.disk_hits + self.misses
        return self.disk_hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "backend": self._backend.describe(),
            # no memory layer: the key stays for the paper benchmark's
            # tracer, which sums it with ``disk_hits``
            "memory_hits": 0,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": round(self.hit_rate, 4),
            "corrupt_reads": dict(self.corrupt_reads),
            "quarantined": self.quarantined,
        }


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()
