"""A SAFE-style differ.

SAFE (Massarelli et al., DIMVA 2019) embeds the *linear* instruction sequence
of a function with a self-attentive recurrent network.  The re-implementation
keeps the sequence view: instruction tokens are embedded (hashed projections),
combined with their local bigram context, and weighted by a smooth positional
attention profile that emphasises the middle of the function over the
prologue/epilogue boilerplate.  No CFG, call-graph or symbol information is
used (Table 1).

An instruction's combined vector (token bag + 0.5 × bigram) comes from a
process-wide table keyed by its shape and the previous opcode, and the
attention-weighted sum runs column by column inside ``sum()``
(:func:`~repro.diffing.features.weighted_sum`), bit-identical to adding one
instruction at a time.  Per-function embeddings are pre-normalized and
memoised on each binary's :class:`~repro.diffing.index.FeatureIndex`;
without an index every embedding is re-extracted per diff — the legacy
reference path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..backend.binary import Binary, BinaryFunction
from .base import MATCH_CHANNEL, BinaryDiffer, ToolInfo
from .features import (EMBEDDING_DIM, NormalizedVector, cached_token_vector,
                       instruction_bag, instruction_shape, vector_similarity,
                       weighted_sum)
from .index import FeatureIndex

#: (instruction shape, previous opcode, dim) -> the instruction's combined
#: vector.  The attention weight scales whole instructions, so an
#: instruction's content depends only on this key and is combined once per
#: process for every binary.
_COMBINED_CACHE: Dict[Tuple, Tuple[float, ...]] = {}


def _combined_vector(inst, previous_opcode: str,
                     dim: int) -> Tuple[float, ...]:
    """``instruction_bag(inst) + 0.5 × bigram(previous_opcode, opcode)``."""
    key = (instruction_shape(inst), previous_opcode, dim)
    vector = _COMBINED_CACHE.get(key)
    if vector is None:
        bigram = cached_token_vector(f"{previous_opcode}->{inst.opcode}", dim)
        vector = tuple(b + 0.5 * g
                       for b, g in zip(instruction_bag(inst, dim), bigram))
        _COMBINED_CACHE[key] = vector
    return vector


class Safe(BinaryDiffer):
    info = ToolInfo(name="Safe", granularity="function",
                    symbol_relying=False, time_consuming=False,
                    memory_consuming=False, callgraph_lacking=True)

    def __init__(self, dim: int = EMBEDDING_DIM, max_instructions: int = 250):
        self.dim = dim
        self.max_instructions = max_instructions

    def _attention_weight(self, position: int, length: int) -> float:
        if length <= 1:
            return 1.0
        # a raised-cosine profile: prologue/epilogue get lower weight
        phase = position / (length - 1)
        return 0.5 + 0.5 * math.sin(math.pi * phase)

    def _instruction_vectors(self, function: BinaryFunction
                             ) -> List[Tuple[float, ...]]:
        """One combined vector per instruction: token bag + 0.5 × bigram.

        Only the first ``max_instructions`` are embedded — like the
        original sequence-truncating implementation.
        """
        vectors = []
        previous_opcode = "<s>"
        for inst in function.instructions()[:self.max_instructions]:
            vectors.append(_combined_vector(inst, previous_opcode, self.dim))
            previous_opcode = inst.opcode
        return vectors

    def _function_embedding(self, function: BinaryFunction) -> List[float]:
        """The attention-weighted sum of the instruction vectors."""
        vectors = self._instruction_vectors(function)
        if not vectors:
            return [0.0] * self.dim
        length = len(vectors)
        return weighted_sum(vectors, [self._attention_weight(position, length)
                                      for position in range(length)])

    def _embeddings(self, binary: Binary,
                    index: Optional[FeatureIndex]) -> Dict[str, NormalizedVector]:
        if index is not None:
            return index.function_embeddings(
                ("safe", self.dim, self.max_instructions),
                self._function_embedding)
        return {f.name: NormalizedVector(self._function_embedding(f))
                for f in binary.functions}

    def cache_key(self) -> tuple:
        return ("safe", self.dim, self.max_instructions)

    def _pair_scorers(self, original: Binary, obfuscated: Binary,
                      original_index: Optional[FeatureIndex],
                      obfuscated_index: Optional[FeatureIndex]):
        original_embeddings = self._embeddings(original, original_index)
        obfuscated_embeddings = self._embeddings(obfuscated, obfuscated_index)

        def similarity(a: BinaryFunction, b: BinaryFunction) -> float:
            return vector_similarity(original_embeddings[a.name],
                                     obfuscated_embeddings[b.name])

        return {MATCH_CHANNEL: similarity}
