"""A DeepBinDiff-style differ.

DeepBinDiff (Duan et al., NDSS 2020) works at *basic-block* granularity: it
embeds every block with token features plus program-wide context from an
inter-procedural CFG (which couples the control-flow and call graphs) and then
matches blocks across the two binaries.  Its feature vectors therefore encode
both the CFG and the call graph — Table 1 lists it as the only block-level
tool and one of the two call-graph-aware tools — and the paper notes it needs
a lot of memory, which is why only programs under 40k lines are used with it.

Function-level accuracy is derived with the paper's relaxed rule: a block
match is counted for a function pairing if the two blocks' owning functions
are paired, so the result surface here is block-vote-based function ranking.

The per-binary block embedding map (raw bag embeddings — shared with Asm2Vec
— propagated over the CFG, mixed with callee entry blocks, then normalized)
is memoised on each binary's :class:`~repro.diffing.index.FeatureIndex`;
without an index it is rebuilt per diff — the legacy reference path.  The
block-vote scan selects each source block's top candidates with a bounded
heap instead of sorting every (source, target) score list.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ..backend.binary import Binary
from .base import BinaryDiffer, DiffResult, ToolInfo
from .features import (EMBEDDING_DIM, NormalizedVector, add_scaled,
                       embed_block, propagate_over_cfg, vector_similarity)
from .index import FeatureIndex


class DeepBinDiff(BinaryDiffer):
    info = ToolInfo(name="DeepBinDiff", granularity="basic block",
                    symbol_relying=False, time_consuming=True,
                    memory_consuming=True, callgraph_lacking=False)

    #: DeepBinDiff matches *basic blocks*; a function's candidate ranking
    #: emerges from cross-granularity block votes rather than from a
    #: per-function-pair similarity, so its partials cover whole binary
    #: pairs (the only non-pairwise-decomposable tool).
    shard_granularity = "binary"

    def __init__(self, dim: int = EMBEDDING_DIM, max_block_candidates: int = 3,
                 vote_sharpness: int = 3):
        self.dim = dim
        self.max_block_candidates = max_block_candidates
        self.vote_sharpness = vote_sharpness

    def cache_key(self) -> tuple:
        return ("deepbindiff", self.dim, self.max_block_candidates,
                self.vote_sharpness)

    # -- embeddings -----------------------------------------------------------------

    def _build_block_embeddings(
            self, binary: Binary, index: Optional[FeatureIndex]
            ) -> Dict[Tuple[str, str], NormalizedVector]:
        """Embed every block with token + CFG + call-graph context."""
        entry_vectors: Dict[str, List[float]] = {}
        per_function: Dict[str, Dict[str, List[float]]] = {}

        for function in binary.functions:
            if index is not None:
                raw = index.block_bag_embeddings(function, self.dim)
            else:
                raw = {block.label: embed_block(block, self.dim)
                       for block in function.blocks}
            propagated = propagate_over_cfg(function, raw, iterations=2) if raw else {}
            per_function[function.name] = propagated
            if function.blocks:
                entry_vectors[function.name] = propagated[function.blocks[0].label]

        # call-graph context: a block containing a direct call mixes in the
        # callee's entry-block embedding (the inter-procedural CFG edge)
        result: Dict[Tuple[str, str], NormalizedVector] = {}
        for function in binary.functions:
            vectors = per_function[function.name]
            for block in function.blocks:
                vector = list(vectors.get(block.label, [0.0] * self.dim))
                for inst in block.instructions:
                    if inst.call_target and inst.call_target in entry_vectors:
                        add_scaled(vector, entry_vectors[inst.call_target], 0.5)
                result[(function.name, block.label)] = NormalizedVector(vector)
        return result

    def _block_embeddings(
            self, binary: Binary, index: Optional[FeatureIndex]
            ) -> Dict[Tuple[str, str], NormalizedVector]:
        if index is not None:
            return index.memo(("deepbindiff", self.dim),
                              lambda: self._build_block_embeddings(binary, index))
        return self._build_block_embeddings(binary, None)

    # -- diffing --------------------------------------------------------------------

    def _diff(self, original: Binary, obfuscated: Binary,
              original_index: Optional[FeatureIndex],
              obfuscated_index: Optional[FeatureIndex]) -> DiffResult:
        original_blocks = self._block_embeddings(original, original_index)
        obfuscated_blocks = self._block_embeddings(obfuscated, obfuscated_index)

        # per original function, let its blocks vote for obfuscated functions
        votes: Dict[str, Dict[str, float]] = {f.name: {} for f in original.functions}
        obfuscated_items = list(obfuscated_blocks.items())
        score_key = itemgetter(0)
        for (source_function, _source_label), source_vector in original_blocks.items():
            # nlargest(key=score) == sorted(key=score, reverse=True)[:k]: both
            # stable, so ties keep obfuscated_items order like the former
            # full sort on -score did
            best = heapq.nlargest(
                self.max_block_candidates,
                ((vector_similarity(source_vector, target_vector), target_function)
                 for (target_function, _target_label), target_vector
                 in obfuscated_items),
                key=score_key)
            for score, target_function in best:
                bucket = votes[source_function]
                # sharpen the vote so a block's best match dominates, which is
                # what DeepBinDiff's explicit block matching achieves
                bucket[target_function] = (bucket.get(target_function, 0.0)
                                           + score ** self.vote_sharpness)

        matches: Dict[str, List[Tuple[str, float]]] = {}
        for function in original.functions:
            bucket = votes.get(function.name, {})
            total = sum(bucket.values()) or 1.0
            ranked = sorted(((name, score / total) for name, score in bucket.items()),
                            key=lambda pair: (-pair[1], pair[0]))
            matches[function.name] = ranked[:50]

        score = self.whole_binary_score(matches, original, obfuscated)
        return DiffResult(tool=self.name, original=original.name,
                          obfuscated=obfuscated.name, matches=matches,
                          similarity_score=score)
