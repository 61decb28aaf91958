"""Per-binary feature index: extract once, diff many times.

The evaluation matrices diff the same binaries repeatedly — the baseline
binary of each program is diffed once per (obfuscation label × tool), so the
seed implementation re-extracted its token streams, embeddings and CFG
features dozens of times.  :class:`FeatureIndex` computes each feature family
once per :class:`~repro.backend.binary.Binary` and memoises it:

* shared primitives (token streams, bag-of-token block embeddings, numeric
  block/function features, CFG-propagated vectors, call-graph edges) live in
  named accessors so several tools reuse one extraction — Asm2Vec and
  DeepBinDiff, for example, share the per-block bag embeddings;
* tool-specific derived features (final per-function embeddings, keyed by the
  tool's configuration) go through :meth:`FeatureIndex.memo`.

Indexes are memoised per binary *object* via :func:`feature_index`: the cache
is keyed on ``id(binary)`` and validated by a weak reference, so a recycled
id can never serve stale features, and dropping the binary drops its index.
Builds are deterministic, which is what makes the features pure functions of
the binary; the pre-index extraction paths are kept in each tool as the
differential reference (``BinaryDiffer.use_index = False``) and are asserted
bit-identical by ``tests/test_feature_index.py``.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Set, Tuple, TypeVar

from ..backend.binary import Binary, BinaryFunction
from .features import (NormalizedVector, block_numeric_features, embed_block,
                       function_numeric_features, propagate_over_cfg)

T = TypeVar("T")


class FeatureIndex:
    """Lazily-computed, memoised diffing features of one binary.

    The binary is held through a weak reference: the module-level cache keeps
    indexes alive, so a strong reference here would pin every indexed binary
    in memory forever.  Dropping the binary evicts its cache entry (see
    :func:`feature_index`), which frees the index and its features with it.
    """

    __slots__ = ("_binary_ref", "_memo")

    def __init__(self, binary: Binary):
        self._binary_ref = weakref.ref(binary)
        self._memo: Dict[object, object] = {}

    @property
    def binary(self) -> Binary:
        binary = self._binary_ref()
        if binary is None:  # pragma: no cover - caller always holds the binary
            raise ReferenceError("the indexed binary has been collected")
        return binary

    # -- generic memoisation -------------------------------------------------------

    def memo(self, key: object, builder: Callable[[], T]) -> T:
        """Return the cached value for ``key``, building it on first use.

        Tools key their derived feature maps on their configuration (e.g.
        ``("asm2vec", walks, walk_length, dim)``) so two differently-tuned
        instances of the same tool never share final embeddings.
        """
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            value = builder()
            self._memo[key] = value
            return value

    # -- shared primitives ---------------------------------------------------------

    def block_bag_embeddings(self, function: BinaryFunction,
                             dim: int) -> Dict[str, List[float]]:
        """Bag-of-token embedding of every block (shared Asm2Vec/DeepBinDiff)."""
        def build() -> Dict[str, List[float]]:
            return {block.label: embed_block(block, dim)
                    for block in function.blocks}
        return self.memo(("block_bags", function.name, dim), build)

    def numeric_block_features(
            self, function: BinaryFunction) -> Dict[str, List[float]]:
        """VulSeeker-style numeric features of every block, keyed by label."""
        def build() -> Dict[str, List[float]]:
            return {block.label: block_numeric_features(block)
                    for block in function.blocks}
        return self.memo(("block_numeric", function.name), build)

    def propagated_numeric_features(self, function: BinaryFunction,
                                    iterations: int) -> Dict[str, List[float]]:
        """Numeric block features after CFG propagation (VulSeeker)."""
        def build() -> Dict[str, List[float]]:
            raw = self.numeric_block_features(function)
            if not raw:
                return {}
            return propagate_over_cfg(function, raw, iterations=iterations)
        return self.memo(("propagated_numeric", function.name, iterations), build)

    def structural_features(self) -> Dict[str, List[float]]:
        """BinDiff's function-level statistics for every function."""
        def build() -> Dict[str, List[float]]:
            return {f.name: function_numeric_features(f)
                    for f in self.binary.functions}
        return self.memo("structural", build)

    def callees(self) -> Dict[str, Set[str]]:
        """Call-graph successors of every function (BinDiff's neighbourhood)."""
        def build() -> Dict[str, Set[str]]:
            return {f.name: self.binary.callees_of(f.name)
                    for f in self.binary.functions}
        return self.memo("callees", build)

    # -- payload export / adoption (artifact-store persistence) --------------------

    def export_payload(self) -> Dict[object, object]:
        """A picklable snapshot of every memoised feature of this index.

        Feature values are plain containers of floats/strings (or
        :class:`NormalizedVector`, which pickles exactly), and memo keys are
        value tuples, so the snapshot round-trips through
        :class:`~repro.store.artifact_store.ArtifactStore` unchanged.  The
        snapshot shares the feature objects with the live index — treat it
        as immutable, like every stored artifact.
        """
        return dict(self._memo)

    def adopt_payload(self, payload: Dict[object, object]) -> int:
        """Warm-start this index from an exported snapshot.

        Features are pure functions of the binary, so adopting a snapshot
        keyed to the *same build configuration* can never change a result —
        it only skips re-extraction.  Entries already computed locally are
        kept (they are identical by construction); returns the number of
        entries actually adopted.
        """
        adopted = 0
        for key, value in payload.items():
            if key not in self._memo:
                self._memo[key] = value
                adopted += 1
        return adopted

    def function_embeddings(self, key: object,
                            embed: Callable[[BinaryFunction], List[float]]
                            ) -> Dict[str, NormalizedVector]:
        """Memoised, pre-normalized per-function embedding map.

        ``embed`` produces the raw embedding of one function; the map is the
        common final shape of the vector-based tools (Asm2Vec, SAFE,
        VulSeeker), normalized once so ranking is pure dot products.
        """
        def build() -> Dict[str, NormalizedVector]:
            return {f.name: NormalizedVector(embed(f))
                    for f in self.binary.functions}
        return self.memo(key, build)


# -- per-binary memoisation ---------------------------------------------------------

#: id(binary) -> (weakref to the binary, its index).  The weak reference both
#: validates the id (recycled ids of collected binaries can never alias) and
#: evicts the entry when the binary is garbage-collected.
_INDEX_CACHE: Dict[int, Tuple[weakref.ref, FeatureIndex]] = {}


def feature_index(binary: Binary) -> FeatureIndex:
    """The memoised :class:`FeatureIndex` of ``binary`` (one per object)."""
    key = id(binary)
    entry = _INDEX_CACHE.get(key)
    if entry is not None and entry[0]() is binary:
        return entry[1]
    index = FeatureIndex(binary)
    ref = weakref.ref(binary, lambda _ref, _key=key: _INDEX_CACHE.pop(_key, None))
    _INDEX_CACHE[key] = (ref, index)
    return index


def clear_index_cache() -> None:
    """Drop every memoised index (benchmarks use this to time cold runs)."""
    _INDEX_CACHE.clear()


def index_cache_size() -> int:
    return len(_INDEX_CACHE)
