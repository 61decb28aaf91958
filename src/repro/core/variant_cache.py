"""Build-variant memo: the explicit, in-process way to share built variants.

The paper's pipeline compiles every workload "under O2 with LTO" once per
obfuscation configuration, and Figures 6, 7 and 8 all iterate the same
(workload, configuration) matrix — the overhead experiments build exactly
the variants the diffing-precision experiment builds.  Workload synthesis is
profile-seeded and every obfuscator is seeded too, so a built variant is a
pure function of ``(workload, obfuscation config, optimization options)``:
rebuilding it is wasted work.

:class:`VariantCache` memoises those builds for a caller that asks for it.
Keys are derived with :func:`variant_key` (now living in
:mod:`repro.store.keys`, re-exported here); obfuscators advertise their
configuration through a ``cache_key()`` method (see
:meth:`repro.core.config.KhaosConfig.cache_key`), so two obfuscators with
the same label but different knobs never collide.

A built variant lives in one of two places: in the figure unit that built
it, which drops it once the unit no longer needs it, or in a memo its
caller passed explicitly as ``cache=`` (an in-process run only).  No
variant is ever stored on disk: a store-backed run persists each finished
unit's rows, which is all a rerun reads back.

Memoised artifacts are shared between callers, so consumers must treat
them as immutable: run the program, diff the binary, read the provenance —
never mutate the IR in place.  (The evaluation drivers only ever execute and
diff.)  The same holds for the synthesized program a unit builds all its
variants from: the builders only read it (:mod:`repro.toolchain`), so a
variant built from that shared source equals one built from a fresh
synthesis, and the two share one key.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..store.keys import config_cache_key, variant_key  # noqa: F401 (re-export)


class VariantCache:
    """In-process memo of built variants, keyed by :func:`variant_key`.

    Unbounded: it holds every variant it built until it is cleared or
    dropped.  ``hits``/``misses`` count lookups; ``hit_rate`` is the
    fraction served without building.
    """

    def __init__(self):
        self._built: Dict[Tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._built)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._built

    def get_or_build(self, key: Tuple, builder: Callable[[], object]):
        """Return the memoised artifact for ``key``, building it on first
        use."""
        try:
            artifact = self._built[key]
        except KeyError:
            artifact = self._built[key] = builder()
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

    def clear(self) -> None:
        """Drop every variant and reset the counters."""
        self._built.clear()
        self.hits = 0
        self.misses = 0
