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

The per-binary block table (raw bag embeddings — shared with Asm2Vec —
propagated over the CFG, mixed with callee entry blocks, normalized, then
split for the vote below) is memoised on each binary's
:class:`~repro.diffing.index.FeatureIndex`; without an index it is rebuilt
per diff — the legacy reference path.

Every source block votes for the owners of its top ``max_block_candidates``
target blocks by cosine.  The vote is exact-pruned.  A pair's dot product
over the first :data:`PREFIX_LENGTH` components plus ``‖s_rest‖·‖t_rest‖``
bounds its whole dot (Cauchy–Schwarz).  Targets are finished in descending
bound by continuing the prefix dot over the rest — the same left-to-right
additions as :func:`~repro.diffing.features.vector_similarity`, so every
finished score is that float — until the next bound falls below the k-th
best finished dot minus :data:`SLACK`.  No unfinished target can then reach
or tie the top k, so picking it among the finished targets in target order
gives the all-pairs vote's choice, ties included; ``tests/oracles.py`` keeps
the all-pairs vote as the reference.  ``deepbindiff.pairs`` and
``deepbindiff.pairs_finished`` count the pairs per diff.
"""

from __future__ import annotations

import heapq
import math
from array import array
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Dict, List, Optional, Tuple

from ..backend.binary import Binary
from ..obs import metrics as obs_metrics
from .base import BinaryDiffer, DiffResult, ToolInfo
from .features import (EMBEDDING_DIM, NormalizedVector, embed_block,
                       propagate_over_cfg, weighted_sum)
from .index import FeatureIndex

#: Components of a normalised block vector that bound a pair before the rest
#: of its dot product is computed.
PREFIX_LENGTH = EMBEDDING_DIM // 2

#: A target is left unfinished only when its bound is below the k-th best
#: finished dot by more than this.  Rounding moves a dot of unit vectors by
#: about 1e-14; the margin also keeps the non-injective ``(dot + 1) / 2`` of
#: an unfinished target from tying the k-th best score.
SLACK = 1e-9

_SCORE = itemgetter(0)


class BlockTable:
    """One binary's normalised block vectors, split for the pruned vote.

    Parallel lists in block order: the owning function, the norm before
    normalising, the first :data:`PREFIX_LENGTH` components, the rest, and
    the rest's Euclidean norm.  The halves are the only copy of a block's
    floats.  A zero-norm block keeps its raw components, but each of them
    squares to 0.0, so each is below 1.6e-162: its finished dot against a
    unit source rounds ``(dot + 1) / 2`` to :func:`vector_similarity`'s 0.5.
    """

    __slots__ = ("functions", "norms", "prefixes", "rests", "rest_norms")

    def __init__(self, blocks: Dict[Tuple[str, str], NormalizedVector]):
        self.functions: List[str] = []
        self.norms: List[float] = []
        self.prefixes: List[array] = []
        self.rests: List[array] = []
        self.rest_norms: List[float] = []
        for (function, _label), vector in blocks.items():
            values = vector.values
            rest = values[PREFIX_LENGTH:]
            self.functions.append(function)
            self.norms.append(vector.norm)
            self.prefixes.append(values[:PREFIX_LENGTH])
            self.rests.append(rest)
            self.rest_norms.append(math.sqrt(sum(map(mul, rest, rest))))

    def __len__(self) -> int:
        return len(self.functions)


def top_blocks(k: int, prefix: Tuple[float, ...], rest: Tuple[float, ...],
               rest_norm: float, targets: BlockTable
               ) -> Tuple[List[Tuple[float, str]], int]:
    """The k best ``(score, target function)`` of one non-zero source block.

    Returns them in ``heapq.nlargest`` order over every target in table
    order, and how many targets were finished.
    """
    if k <= 0:
        return [], 0
    prefix_dots = list(map(sum, map(map, repeat(mul), repeat(prefix),
                                    targets.prefixes)))
    bounds = list(map(add, prefix_dots,
                      map(mul, repeat(rest_norm), targets.rest_norms)))
    rests = targets.rests
    dots: Dict[int, float] = {}
    kth: List[float] = []   # min-heap of the k best finished dots
    for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if len(kth) == k and bounds[i] < kth[0] - SLACK:
            break
        dot = dots[i] = sum(map(mul, rest, rests[i]), prefix_dots[i])
        if len(kth) < k:
            heapq.heappush(kth, dot)
        elif dot > kth[0]:
            heapq.heapreplace(kth, dot)
    functions = targets.functions
    # sorted(reverse=True) is stable, so [:k] is heapq.nlargest(k, key=...)
    return sorted([((dots[i] + 1.0) / 2.0, functions[i]) for i in sorted(dots)],
                  key=_SCORE, reverse=True)[:k], len(dots)


def block_votes(sources: BlockTable, targets: BlockTable, k: int,
                sharpness: int) -> Dict[str, Dict[str, float]]:
    """Every source block's votes: source function -> target function -> sum
    of ``score ** sharpness`` over the block's top-k targets."""
    votes: Dict[str, Dict[str, float]] = {}
    finished = 0
    for s in range(len(sources)):
        if sources.norms[s] == 0.0:
            # vector_similarity of a zero vector: 1.0 against another, else 0.5
            best = heapq.nlargest(
                k, ((1.0 if norm == 0.0 else 0.5, function)
                    for norm, function in zip(targets.norms, targets.functions)),
                key=_SCORE)
            finished += len(targets)
        else:
            best, count = top_blocks(k, tuple(sources.prefixes[s]),
                                     tuple(sources.rests[s]),
                                     sources.rest_norms[s], targets)
            finished += count
        bucket = votes.setdefault(sources.functions[s], {})
        for score, target_function in best:
            # sharpen the vote so a block's best match dominates, which is
            # what DeepBinDiff's explicit block matching achieves
            bucket[target_function] = (bucket.get(target_function, 0.0)
                                       + score ** sharpness)
    obs_metrics.counter("deepbindiff.pairs", len(sources) * len(targets))
    obs_metrics.counter("deepbindiff.pairs_finished", finished)
    return votes


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

    def block_embeddings(self, binary: Binary, index: Optional[FeatureIndex]
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
                callees = [entry_vectors[inst.call_target]
                           for inst in block.instructions
                           if inst.call_target and inst.call_target in entry_vectors]
                vector = weighted_sum(callees, [0.5] * len(callees),
                                      start=vectors.get(block.label, [0.0] * self.dim))
                result[(function.name, block.label)] = NormalizedVector(vector)
        return result

    def _block_table(self, binary: Binary,
                     index: Optional[FeatureIndex]) -> BlockTable:
        if index is not None:
            return index.memo(("deepbindiff", self.dim),
                              lambda: BlockTable(self.block_embeddings(binary, index)))
        return BlockTable(self.block_embeddings(binary, None))

    # -- diffing --------------------------------------------------------------------

    def _diff(self, original: Binary, obfuscated: Binary,
              original_index: Optional[FeatureIndex],
              obfuscated_index: Optional[FeatureIndex]) -> DiffResult:
        votes = block_votes(self._block_table(original, original_index),
                            self._block_table(obfuscated, obfuscated_index),
                            self.max_block_candidates, self.vote_sharpness)
        return self.rank_votes(votes, original, obfuscated)

    def rank_votes(self, votes: Dict[str, Dict[str, float]], original: Binary,
                   obfuscated: Binary) -> DiffResult:
        """Each function's candidates by its share of its blocks' votes."""
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
