"""Re-implementations of the five binary diffing tools used in the evaluation."""

from typing import Dict, List

from .base import (MATCH_CHANNEL, BinaryDiffer, DiffResult, ToolInfo,
                   escape_at_n, escape_ratio, precision_at_1, rank_of_correct)
from .index import (FeatureIndex, clear_index_cache, feature_index,
                    index_cache_size)
from .bindiff import BinDiff
from .vulseeker import VulSeeker
from .asm2vec import Asm2Vec
from .safe import Safe
from .deepbindiff import DeepBinDiff


def all_differs() -> List[BinaryDiffer]:
    """The confrontation targets of the paper, in Table 1 order."""
    return [BinDiff(), VulSeeker(), Asm2Vec(), Safe(), DeepBinDiff()]


def differ_by_name(name: str) -> BinaryDiffer:
    for differ in all_differs():
        if differ.name.lower() == name.lower():
            return differ
    raise KeyError(f"unknown diffing tool {name!r}")


def tool_table() -> List[Dict[str, str]]:
    """Table 1: characteristics of the chosen diffing tools."""
    return [differ.info.as_row() for differ in all_differs()]


__all__ = [
    "MATCH_CHANNEL", "BinaryDiffer", "DiffResult", "ToolInfo",
    "escape_at_n", "escape_ratio", "precision_at_1", "rank_of_correct",
    "FeatureIndex",
    "clear_index_cache", "feature_index", "index_cache_size",
    "BinDiff", "VulSeeker", "Asm2Vec", "Safe", "DeepBinDiff",
    "all_differs", "differ_by_name", "tool_table",
]
