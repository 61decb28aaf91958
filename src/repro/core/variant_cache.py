"""Build-variant cache: the façade over the shared artifact store.

The paper's pipeline compiles every workload "under O2 with LTO" once per
obfuscation configuration, and Figures 6, 7 and 8 all iterate the same
(workload, configuration) matrix — the overhead experiments re-build exactly
the variants the diffing-precision experiment builds.  Workload synthesis is
profile-seeded and every obfuscator is seeded too, so a built variant is a
pure function of ``(workload, obfuscation config, optimization options)``:
rebuilding it is wasted work.

:class:`VariantCache` memoises those builds.  Keys are derived with
:func:`variant_key` (now living in :mod:`repro.store.keys`, re-exported here);
obfuscators advertise their configuration through a ``cache_key()`` method
(see :meth:`repro.core.config.KhaosConfig.cache_key`), so two obfuscators
with the same label but different knobs never collide.

Since the artifact-store subsystem landed, ``VariantCache`` is a thin façade
over :class:`repro.store.artifact_store.ArtifactStore`: the default
construction wraps a pure in-memory store (the historical LRU behaviour),
and passing ``store=ArtifactStore.attach(dir)`` makes every lookup fall
through the in-process LRU to a shared on-disk object tree that any number
of concurrent workers use together.  That tree is the only persistent form
of the cache.

Cached artifacts are shared between callers (and, through a rooted store,
between processes), so consumers must treat them as immutable: run the
program, diff the binary, read the provenance — never mutate the IR in
place.  (The evaluation drivers only ever execute and diff.)
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..store.artifact_store import KIND_VARIANT, ArtifactStore
from ..store.keys import config_cache_key, variant_key  # noqa: F401 (re-export)


class VariantCache:
    """Memo of built variants, keyed by :func:`variant_key`.

    A façade over one :class:`~repro.store.artifact_store.ArtifactStore`
    namespace (kind ``"variant"``).  ``max_entries`` bounds the in-process
    LRU layer; ``None`` means unbounded (the evaluation matrices are small:
    at most a few hundred variants).  ``hits``/``misses`` count this
    process's lookups (a hit served from the store's disk layer is still a
    hit — nothing was rebuilt); ``hit_rate`` is the fraction of lookups
    served without building.
    """

    def __init__(self, max_entries: Optional[int] = None,
                 store: Optional[ArtifactStore] = None):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        if store is None:
            store = ArtifactStore(root=None, max_memory_entries=max_entries)
        elif (max_entries is not None
                and store.max_memory_entries != max_entries):
            # the store owns the memory layer; a conflicting façade bound
            # would be silently ignored, so reject it instead
            raise ValueError(
                f"max_entries={max_entries} conflicts with the supplied "
                f"store's max_memory_entries={store.max_memory_entries}; "
                f"bound the store at attach time instead")
        self.max_entries = store.max_memory_entries
        self._store = store
        self.hits = 0
        self.misses = 0

    @property
    def store(self) -> ArtifactStore:
        """The backing artifact store (rooted for shared-on-disk caches)."""
        return self._store

    def __len__(self) -> int:
        return self._store.entry_count(KIND_VARIANT)

    def __contains__(self, key: Tuple) -> bool:
        return self._store.contains(KIND_VARIANT, key)

    def get_or_build(self, key: Tuple, builder: Callable[[], object]):
        """Return the cached artifact for ``key``, building it on first use."""
        built = False

        def tracked_builder():
            nonlocal built
            built = True
            return builder()

        artifact = self._store.get_or_build(KIND_VARIANT, key, tracked_builder)
        if built:
            self.misses += 1
        else:
            self.hits += 1
        return artifact

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {"entries": len(self), "hits": self.hits,
                "misses": self.misses, "hit_rate": round(self.hit_rate, 4)}

    def store_stats(self) -> Dict[str, object]:
        """The backing store's layer-by-layer counters (memory/disk/puts)."""
        return self._store.stats()

    def clear(self) -> None:
        """Reset counters and drop the in-process layer.

        Shared on-disk objects are deliberately left alone: they belong to
        every attached process, not to this façade.
        """
        self._store.clear_memory()
        self._store.reset_counters()
        self.hits = 0
        self.misses = 0
