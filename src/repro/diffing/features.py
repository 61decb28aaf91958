"""Feature extraction shared by the binary-diffing re-implementations.

The five tools of the paper differ mainly in *which* features they extract
(Table 1): function-level statistics and names (BinDiff), per-block numeric
semantic features propagated over the CFG (VulSeeker), token embeddings over
random-walk/linear instruction sequences (Asm2Vec, SAFE) and per-block
embeddings with program-wide context (DeepBinDiff).  This module provides the
shared building blocks: token streams, hashed embedding vectors (deterministic
random projections — no training required), per-block numeric features and
neighbourhood aggregation over the CFG.
"""

from __future__ import annotations

import math
from array import array
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..backend.binary import Binary, BinaryFunction
from ..backend.isa import MachineBlock, MachineInstruction, instruction_category
from ..utils import stable_hash

EMBEDDING_DIM = 64


# -- token streams -----------------------------------------------------------------------


def operand_shape(operand: str) -> str:
    """Normalise an operand to its shape (register / immediate / memory / label)."""
    if operand.startswith("$"):
        return "imm"
    if operand.startswith("["):
        return "mem"
    if operand.startswith("xmm"):
        return "freg"
    return "reg"


def instruction_tokens(inst: MachineInstruction) -> List[str]:
    """Tokens for one instruction.

    The semantic tools (Asm2Vec, SAFE, DeepBinDiff) are known to be robust
    against local instruction substitution — an ``add`` rewritten as two
    ``sub``s still embeds close to the original.  To model that robustness the
    token stream is dominated by the instruction *category* and operand
    shapes; the raw opcode contributes a single lower-signal token.
    """
    category = instruction_category(inst.opcode)
    tokens = [category, f"op.{inst.opcode}"]
    tokens.extend(f"{category}.{operand_shape(op)}" for op in inst.operands)
    if inst.call_target is not None:
        tokens.append("call.direct")
    return tokens


def block_tokens(block: MachineBlock) -> List[str]:
    tokens: List[str] = []
    for inst in block.instructions:
        tokens.extend(instruction_tokens(inst))
    return tokens


def function_tokens(function: BinaryFunction) -> List[str]:
    tokens: List[str] = []
    for block in function.blocks:
        tokens.extend(block_tokens(block))
    return tokens


# -- hashed embeddings --------------------------------------------------------------------


def token_vector(token: str, dim: int = EMBEDDING_DIM) -> List[float]:
    """A deterministic pseudo-random unit-ish vector for a token."""
    vector = []
    for i in range(dim):
        h = stable_hash("tok", token, i, bits=16)
        vector.append((h / float(1 << 16)) * 2.0 - 1.0)
    return vector


_TOKEN_CACHE: Dict[Tuple[str, int], List[float]] = {}


def cached_token_vector(token: str, dim: int = EMBEDDING_DIM) -> List[float]:
    key = (token, dim)
    cached = _TOKEN_CACHE.get(key)
    if cached is None:
        cached = token_vector(token, dim)
        _TOKEN_CACHE[key] = cached
    return cached


def embed_tokens(tokens: Sequence[str], dim: int = EMBEDDING_DIM,
                 weights: Optional[Sequence[float]] = None) -> List[float]:
    """Weighted bag-of-tokens embedding.

    Summed column-wise over the transposed token vectors so the per-component
    accumulation runs inside ``sum()`` rather than a Python-level loop; the
    additions happen in the same (token) order, so the result is bit-identical
    to naive accumulation into a zero vector.
    """
    if not tokens:
        return [0.0] * dim
    if weights is None:
        vectors = [cached_token_vector(token, dim) for token in tokens]
    else:
        vectors = [[weight * x for x in cached_token_vector(token, dim)]
                   for weight, token in zip(weights, tokens)]
    return [sum(components) for components in zip(*vectors)]


def add_scaled(target: List[float], source: Sequence[float], scale: float) -> None:
    if len(target) != len(source):
        # zip/map would silently stop at the shorter operand and shrink the
        # target; a dimension mismatch must fail loudly instead
        raise ValueError(f"dimension mismatch: {len(target)} vs {len(source)}")
    if scale == 1.0:
        # t + 1.0 * s == t + s bitwise; map(add, ...) runs at C speed
        target[:] = map(add, target, source)
    else:
        target[:] = [t + scale * s for t, s in zip(target, source)]


def instruction_shape(inst: MachineInstruction) -> Tuple:
    """What :func:`instruction_tokens` depends on: the opcode, the operand
    *shapes* and whether the instruction is a direct call.

    Instructions of one shape share their token embeddings, so the caches
    of those embeddings key on it ("$5" and "$7" share one entry), and a
    handful of distinct shapes cover a whole binary.
    """
    return (inst.opcode, tuple(operand_shape(op) for op in inst.operands),
            inst.call_target is not None)


_INSTRUCTION_BAG_CACHE: Dict[Tuple, Tuple[float, ...]] = {}


def instruction_bag(inst: MachineInstruction,
                    dim: int = EMBEDDING_DIM) -> Tuple[float, ...]:
    """The bag-of-tokens embedding of one instruction, cached by shape.

    Values are immutable tuples, like the token-vector cache above.
    """
    key = (instruction_shape(inst), dim)
    bag = _INSTRUCTION_BAG_CACHE.get(key)
    if bag is None:
        bag = tuple(embed_tokens(instruction_tokens(inst), dim))
        _INSTRUCTION_BAG_CACHE[key] = bag
    return bag


def embed_block(block: MachineBlock, dim: int = EMBEDDING_DIM) -> List[float]:
    """Bag-of-tokens embedding of a block, summed from instruction bags."""
    bags = [instruction_bag(inst, dim) for inst in block.instructions]
    if not bags:
        return [0.0] * dim
    return [sum(components) for components in zip(*bags)]


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0 if norm_a == norm_b else 0.0
    return dot / (norm_a * norm_b)


def normalised_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity squashed into [0, 1]."""
    return (cosine(a, b) + 1.0) / 2.0


class NormalizedVector:
    """An embedding stored pre-normalized, so cosine is a single dot product.

    The norm is computed once at construction and divided out of the stored
    ``array('d')`` components; :func:`vector_similarity` then needs neither
    the two extra passes nor the per-pair ``sqrt`` of :func:`cosine`.  A zero
    vector keeps its (all-zero) components and ``norm == 0.0`` so the
    degenerate cases of :func:`cosine` are preserved exactly.
    """

    __slots__ = ("values", "norm")

    def __init__(self, values: Sequence[float]):
        norm = math.sqrt(sum(x * x for x in values))
        self.norm = norm
        if norm == 0.0:
            self.values = array("d", values)
        else:
            self.values = array("d", [x / norm for x in values])

    def __len__(self) -> int:
        return len(self.values)

    def __reduce__(self):
        # Rebuild from the already-normalized components: the constructor
        # re-derives norm 1.0 (or 0.0), keeping the unpickled copy identical.
        return (_rebuild_normalized, (self.values.tobytes(), self.norm))


def _rebuild_normalized(raw: bytes, norm: float) -> "NormalizedVector":
    vector = NormalizedVector.__new__(NormalizedVector)
    values = array("d")
    values.frombytes(raw)
    vector.values = values
    vector.norm = norm
    return vector


def vector_similarity(a: NormalizedVector, b: NormalizedVector) -> float:
    """:func:`normalised_similarity` over pre-normalized vectors (0..1)."""
    if a.norm == 0.0 or b.norm == 0.0:
        return 1.0 if a.norm == b.norm else 0.5
    return (sum(map(mul, a.values, b.values)) + 1.0) / 2.0


# -- numeric block / function features -------------------------------------------------------

BLOCK_FEATURE_NAMES = (
    "instructions", "arithmetic", "transfer", "call", "move", "stack",
    "compare", "other", "immediates", "memory_refs",
)


def block_numeric_features(block: MachineBlock) -> List[float]:
    counts = {name: 0.0 for name in BLOCK_FEATURE_NAMES}
    counts["instructions"] = float(len(block.instructions))
    for inst in block.instructions:
        category = instruction_category(inst.opcode)
        if category in counts:
            counts[category] += 1.0
        else:
            counts["other"] += 1.0
        counts["immediates"] += sum(1.0 for op in inst.operands
                                    if op.startswith("$"))
        counts["memory_refs"] += sum(1.0 for op in inst.operands
                                     if op.startswith("["))
    return [counts[name] for name in BLOCK_FEATURE_NAMES]


def function_numeric_features(function: BinaryFunction) -> List[float]:
    """BinDiff-style structural statistics of one function."""
    return [
        float(function.block_count),
        float(function.edge_count),
        float(function.call_count),
        float(function.instruction_count),
        float(function.size),
    ]


def structural_similarity_features(fa: Sequence[float],
                                   fb: Sequence[float]) -> float:
    """Structural similarity over already-extracted feature vectors (0..1)."""
    score = 0.0
    for x, y in zip(fa, fb):
        hi = max(x, y)
        score += 1.0 if hi == 0 else min(x, y) / hi
    return score / len(fa)


def structural_similarity(a: BinaryFunction, b: BinaryFunction) -> float:
    """Similarity of two functions from their structural statistics (0..1)."""
    return structural_similarity_features(function_numeric_features(a),
                                          function_numeric_features(b))


# -- graph-context aggregation ----------------------------------------------------------------


def propagate_over_cfg(function: BinaryFunction,
                       block_vectors: Dict[str, List[float]],
                       iterations: int = 2, damping: float = 0.5) -> Dict[str, List[float]]:
    """structure2vec-style neighbour aggregation of per-block vectors."""
    current = {label: list(vector) for label, vector in block_vectors.items()}
    predecessors: Dict[str, List[str]] = {b.label: [] for b in function.blocks}
    for block in function.blocks:
        for successor in block.successors:
            predecessors.setdefault(successor, []).append(block.label)

    for _ in range(iterations):
        updated: Dict[str, List[float]] = {}
        for block in function.blocks:
            base = list(block_vectors[block.label])
            neighbours = list(block.successors) + predecessors.get(block.label, [])
            for neighbour in neighbours:
                if neighbour in current:
                    add_scaled(base, current[neighbour], damping / max(1, len(neighbours)))
            updated[block.label] = base
        current = updated
    return current


def aggregate(vectors: Iterable[Sequence[float]], dim: int) -> List[float]:
    total = [0.0] * dim
    for vector in vectors:
        add_scaled(total, vector, 1.0)
    return total
