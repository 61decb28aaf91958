"""An Asm2Vec-style differ.

Asm2Vec (Ding et al., S&P 2019) learns a PV-DM representation of a function
from token sequences sampled by random walks over its CFG; clone search ranks
repository functions by cosine similarity of the embeddings.  The
re-implementation keeps the two ingredients that matter for this evaluation —
token-level lexical features (opcodes + operand shapes) gathered along CFG
walks, aggregated into a per-function vector — while replacing the trained
projection with deterministic hashed token vectors.  The tool uses neither
symbols nor the call graph (Table 1).

Per-function embeddings are pre-normalized and memoised on each binary's
:class:`~repro.diffing.index.FeatureIndex` (the per-block bag embeddings are
shared with DeepBinDiff); without an index every embedding is re-extracted
per diff — the legacy reference path.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..backend.binary import Binary, BinaryFunction
from ..utils import stable_hash
from .base import MATCH_CHANNEL, BinaryDiffer, ToolInfo
from .features import (EMBEDDING_DIM, NormalizedVector, embed_block,
                       vector_similarity, weighted_sum)
from .index import FeatureIndex


class Asm2Vec(BinaryDiffer):
    info = ToolInfo(name="Asm2Vec", granularity="function",
                    symbol_relying=False, time_consuming=False,
                    memory_consuming=False, callgraph_lacking=True)

    def __init__(self, walks: int = 4, walk_length: int = 8, dim: int = EMBEDDING_DIM):
        self.walks = walks
        self.walk_length = walk_length
        self.dim = dim

    def _random_walk_labels(self, function: BinaryFunction,
                            rng: random.Random) -> List[str]:
        blocks = function.block_map()
        if not function.blocks:
            return []
        labels: List[str] = []
        current = function.blocks[0].label
        for _ in range(self.walk_length):
            block = blocks.get(current)
            if block is None:
                break
            labels.append(block.label)
            if not block.successors:
                break
            current = rng.choice(block.successors)
        return labels

    def _function_embedding(self, function: BinaryFunction,
                            index: Optional[FeatureIndex]) -> List[float]:
        if index is not None:
            bags = index.block_bag_embeddings(function, self.dim)
        else:
            bags = {block.label: embed_block(block, self.dim)
                    for block in function.blocks}
        rng = random.Random(stable_hash("asm2vec", function.name,
                                        function.instruction_count))
        # lexical term: every block contributes once
        vectors = [bags[block.label] for block in function.blocks]
        lexical = len(vectors)
        # random-walk term: emphasises tokens on frequently-walked paths
        # (accumulated from the per-block bags rather than re-embedding the
        # walked token stream — the walked blocks' tokens all land at 0.5)
        for _ in range(self.walks):
            vectors.extend(bags[label]
                           for label in self._random_walk_labels(function, rng))
        if not vectors:
            return [0.0] * self.dim
        return weighted_sum(vectors, [1.0] * lexical
                            + [0.5] * (len(vectors) - lexical))

    def _embeddings(self, binary: Binary,
                    index: Optional[FeatureIndex]) -> Dict[str, NormalizedVector]:
        if index is not None:
            return index.function_embeddings(
                ("asm2vec", self.walks, self.walk_length, self.dim),
                lambda f: self._function_embedding(f, index))
        return {f.name: NormalizedVector(self._function_embedding(f, None))
                for f in binary.functions}

    def cache_key(self) -> tuple:
        return ("asm2vec", self.walks, self.walk_length, self.dim)

    def _pair_scorers(self, original: Binary, obfuscated: Binary,
                      original_index: Optional[FeatureIndex],
                      obfuscated_index: Optional[FeatureIndex]):
        original_embeddings = self._embeddings(original, original_index)
        obfuscated_embeddings = self._embeddings(obfuscated, obfuscated_index)

        def similarity(a: BinaryFunction, b: BinaryFunction) -> float:
            return vector_similarity(original_embeddings[a.name],
                                     obfuscated_embeddings[b.name])

        return {MATCH_CHANNEL: similarity}
