"""Content-addressed artifact store shared by every experiment process.

The evaluation pipeline's artifacts — the reduced rows of each figure
unit and built variants (:class:`~repro.toolchain.BuildArtifact`, lowered
:class:`~repro.backend.binary.Binary` included) — are pure functions of
their configuration: workload synthesis is profile-seeded, every
obfuscator advertises a seeded ``cache_key()``, and the optimizer is
deterministic.  :class:`ArtifactStore` exploits that purity to compute each
artifact once per *machine* rather than once per process:

* keys are the frozen tuples of :func:`~repro.core.variant_cache.variant_key`
  (workload profile × obfuscator ``cache_key()`` × ``OptOptions``), hashed
  into a stable content address (:func:`store_digest`) under a *kind*
  namespace (``"variant"``, ``"shard"``);
* an in-process LRU layer serves repeated lookups without touching disk;
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

The tree under ``root`` is the store's one persistent backend
(:class:`~repro.store.backend.LocalBackend`); ``ArtifactStore(root,
max_memory_entries)`` is the whole constructor.  ``root=None`` degrades to
a pure in-memory LRU — exactly the pre-store
:class:`~repro.core.variant_cache.VariantCache` behaviour, which is now a
façade over this class.  The evaluation drivers attach ``REPRO_STORE_DIR``
in one place, the checkpoint layer
(:func:`~repro.evaluation.checkpoint.run_checkpointed`), and store only
``shard`` objects, one per finished figure unit; their variant caches are
in-memory.  A ``variant`` object is written only through a
:class:`~repro.core.variant_cache.VariantCache` given a rooted store
explicitly.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from ..obs import layer
from ..obs import metrics as obs_metrics
from .backend import OBJECTS_DIR, LocalBackend
from .keys import code_fingerprint

T = TypeVar("T")

#: The artifact kinds: built variants (persisted only through an explicitly
#: rooted :class:`~repro.core.variant_cache.VariantCache`) and the results
#: of completed figure units (the checkpoint layer revives a unit from its
#: ``shard`` object instead of executing it again).
KIND_VARIANT = "variant"
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

    Keys are built by :func:`~repro.store.keys._freeze`, so they normally
    only contain ``None``, booleans, numbers, strings, bytes and nested
    tuples — all of which ``repr`` deterministically across processes and
    sessions.  :class:`enum.Enum` members (singletons addressed by module /
    class / member name) are accepted too, so pre-store cache keys that
    embedded an enum keep working through the façade.  Anything else is
    rejected: an identity-hashed component would silently never match again
    after a round trip.
    """
    if key is None or isinstance(key, (bool, int, float, str, bytes)):
        return repr(key)
    if isinstance(key, enum.Enum):
        cls = type(key)
        return f"enum:{cls.__module__}.{cls.__qualname__}.{key.name}"
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


def store_from_env(max_memory_entries: Optional[int] = None,
                   environ=os.environ) -> Optional["ArtifactStore"]:
    """The store ``REPRO_STORE_DIR`` names, or ``None`` for storeless runs.

    Raises ``OSError`` on an unusable directory — callers that must degrade
    (the checkpoint layer) catch it.
    """
    root = store_dir_from_env(environ)
    if root:
        return ArtifactStore.attach(root,
                                    max_memory_entries=max_memory_entries)
    return None


class ArtifactStore:
    """LRU-fronted, content-addressed, multi-process-safe artifact store.

    One instance per process; any number of processes may attach to the same
    ``root``.  All lookups go memory → disk → build; every build is persisted
    before it is returned, so other processes observe it on their next miss.
    """

    def __init__(self, root: Optional[str] = None,
                 max_memory_entries: Optional[int] = None):
        if max_memory_entries is not None and max_memory_entries <= 0:
            raise ValueError("max_memory_entries must be positive or None")
        self.root = os.path.abspath(root) if root else None
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        #: (kind, digest) -> key, kept alongside the LRU for introspection
        self._keys: Dict[Tuple[str, str], object] = {}
        #: The store's counters live in a per-instance metrics registry
        #: chained to the process-global one: ``stats()`` and the counter
        #: properties read the instance view (resettable, one per store
        #: object — the shape the tests assert), while every increment also
        #: lands in :data:`repro.obs.metrics.REGISTRY` for telemetry.
        self.metrics = obs_metrics.MetricsRegistry(parent=obs_metrics.REGISTRY)
        self._backend: Optional[LocalBackend] = None
        if self.root is not None:
            self._backend = LocalBackend(self.root, code_fingerprint())
            os.makedirs(self._backend.objects, exist_ok=True)

    @classmethod
    def attach(cls, root: str,
               max_memory_entries: Optional[int] = None) -> "ArtifactStore":
        """Attach to (creating if needed) this code's generation of the
        store tree at ``root``; raises ``OSError`` on an unusable path."""
        return cls(root=root, max_memory_entries=max_memory_entries)

    @property
    def persistent(self) -> bool:
        """Does this store outlive the process (is it backed by a tree)?"""
        return self._backend is not None

    # -- paths -------------------------------------------------------------------

    def object_path(self, kind: str, digest: str) -> str:
        if self._backend is None:
            raise ValueError("store has no object paths")
        return self._backend.object_path(kind, digest)

    def quarantine_path(self, kind: str, digest: str) -> str:
        if self._backend is None:
            raise ValueError("store has no quarantine")
        return self._backend.quarantine_path(kind, digest)

    # -- the lookup protocol -----------------------------------------------------

    @layer("store.read")
    def get_or_build(self, kind: str, key: object,
                     builder: Callable[[], T]) -> T:
        """The artifact for ``(kind, key)``: memory, then disk, then build.

        A freshly built artifact is persisted (root permitting) before it is
        returned.  Artifacts are shared between callers and processes, so
        they must be treated as immutable.
        """
        digest = store_digest(kind, key)
        slot = (kind, digest)
        try:
            payload = self._memory[slot]
        except KeyError:
            pass
        else:
            self.metrics.counter("store.memory_hits")
            self._memory.move_to_end(slot)
            return payload  # type: ignore[return-value]
        payload = self._read_object(kind, digest, key)
        if payload is not _MISSING:
            self.metrics.counter("store.disk_hits")
            self._remember(slot, key, payload)
            return payload  # type: ignore[return-value]
        self.metrics.counter("store.misses")
        payload = builder()
        self._remember(slot, key, payload)
        self._write_object(kind, digest, key, payload)
        return payload

    @layer("store.read")
    def get(self, kind: str, key: object, default: object = None) -> object:
        """The stored artifact, or ``default`` — never builds."""
        digest = store_digest(kind, key)
        slot = (kind, digest)
        if slot in self._memory:
            self.metrics.counter("store.memory_hits")
            self._memory.move_to_end(slot)
            return self._memory[slot]
        payload = self._read_object(kind, digest, key)
        if payload is _MISSING:
            return default
        self.metrics.counter("store.disk_hits")
        self._remember(slot, key, payload)
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
        self._remember((kind, digest), key, payload)
        self._write_object(kind, digest, key, payload, overwrite=overwrite)
        return digest

    @layer("store.read")
    def contains(self, kind: str, key: object) -> bool:
        digest = store_digest(kind, key)
        if (kind, digest) in self._memory:
            return True
        if self._backend is None:
            return False
        return self._backend.contains(kind, digest)

    def entry_count(self, kind: str) -> int:
        """Distinct artifacts of ``kind`` reachable through this store."""
        digests = {digest for (k, digest) in self._memory if k == kind}
        if self._backend is not None:
            digests.update(digest for _, digest
                           in self._backend.list_refs(kind))
        return len(digests)

    def prefetch(self, kind: str, keys: List[object]) -> int:
        """Load nothing ahead and return 0.

        Nothing calls this: reads from the local tree are cheap one at a
        time.  It stays because the paper benchmark's layer tracer wraps
        ``ArtifactStore.prefetch`` by name and fails if it is missing.
        """
        return 0

    def keys(self, kind: str) -> List[object]:
        """The keys of ``kind`` held in the memory layer, LRU order."""
        return [self._keys[slot] for slot in self._memory if slot[0] == kind]

    # -- memory layer ------------------------------------------------------------

    def _remember(self, slot: Tuple[str, str], key: object,
                  payload: object) -> None:
        self._memory[slot] = payload
        self._memory.move_to_end(slot)
        self._keys[slot] = key
        if (self.max_memory_entries is not None
                and len(self._memory) > self.max_memory_entries):
            evicted = next(iter(self._memory))
            del self._memory[evicted]
            self._keys.pop(evicted, None)

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk objects are untouched)."""
        self._memory.clear()
        self._keys.clear()

    def reset_counters(self) -> None:
        """Zero this store's counter view (process-global totals survive)."""
        self.metrics.reset()

    # -- disk layer --------------------------------------------------------------

    @layer("store.read")
    def _read_object(self, kind: str, digest: str, key: object) -> object:
        if self._backend is None:
            return _MISSING
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
        if self._backend is None:
            return
        record = {"kind": kind, "digest": digest, "reason": reason,
                  "cause": cause, "pid": os.getpid(),
                  "quarantined_at": time.time()}
        if self._backend.quarantine(kind, digest, record):
            self.metrics.counter("store.quarantined")

    @layer("store.write")
    def _write_object(self, kind: str, digest: str, key: object,
                      payload: object, overwrite: bool = False) -> None:
        if self._backend is None:
            return
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
    # The counter attributes of the pre-telemetry store are now read-only
    # views over the instance metrics registry — same names, same semantics,
    # so ``store.misses``-style callers and the ``stats()`` dict shape are
    # unchanged.

    @property
    def memory_hits(self) -> int:
        return int(self.metrics.get("store.memory_hits"))

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
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "backend": (self._backend.describe()
                        if self._backend is not None else "memory"),
            "memory_entries": len(self._memory),
            "memory_hits": self.memory_hits,
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
