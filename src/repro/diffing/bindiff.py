"""A BinDiff-style differ.

Google BinDiff is the industry-standard graph-matching differ.  The paper
notes that "since BinDiff takes the advantage of function names, its result is
much higher than others" — the binaries compared are un-stripped.  The
re-implementation mirrors that behaviour: exact symbol matches rank first, and
the remaining candidates are ranked by structural similarity of the
function-level statistics BinDiff's initial matching uses (basic blocks,
control-flow edges, calls) plus a call-graph neighbourhood term (BinDiff is
one of the two tools in Table 1 that does use the call graph).

The per-function statistics and call-graph edges come from each binary's
:class:`~repro.diffing.index.FeatureIndex` (extracted once per binary); when
no index is given the tool re-extracts per diff — the legacy reference path.
"""

from __future__ import annotations

from typing import Optional

from ..backend.binary import Binary, BinaryFunction
from .base import MATCH_CHANNEL, BinaryDiffer, ToolInfo
from .features import function_numeric_features, structural_similarity_features
from .index import FeatureIndex


class BinDiff(BinaryDiffer):
    info = ToolInfo(name="BinDiff", granularity="function",
                    symbol_relying=True, time_consuming=False,
                    memory_consuming=False, callgraph_lacking=False)

    def __init__(self, name_weight: float = 0.6, callgraph_weight: float = 0.15):
        self.name_weight = name_weight
        self.callgraph_weight = callgraph_weight

    @staticmethod
    def _features_of(binary: Binary, index: Optional[FeatureIndex]):
        if index is not None:
            return index.structural_features(), index.callees()
        structural = {f.name: function_numeric_features(f)
                      for f in binary.functions}
        return structural, binary.callee_map()

    def cache_key(self) -> tuple:
        return ("bindiff", self.name_weight, self.callgraph_weight)

    def _pair_scorers(self, original: Binary, obfuscated: Binary,
                      original_index: Optional[FeatureIndex],
                      obfuscated_index: Optional[FeatureIndex]):
        original_struct, original_callees = self._features_of(original,
                                                              original_index)
        obfuscated_struct, obfuscated_callees = self._features_of(
            obfuscated, obfuscated_index)

        def callgraph_similarity(a: BinaryFunction, b: BinaryFunction) -> float:
            callees_a = original_callees.get(a.name, set())
            callees_b = obfuscated_callees.get(b.name, set())
            if not callees_a and not callees_b:
                return 1.0
            union = callees_a | callees_b
            if not union:
                return 1.0
            return len(callees_a & callees_b) / len(union)

        def structural_similarity(a: BinaryFunction, b: BinaryFunction) -> float:
            return structural_similarity_features(original_struct[a.name],
                                                  obfuscated_struct[b.name])

        def similarity(a: BinaryFunction, b: BinaryFunction) -> float:
            structural = structural_similarity(a, b)
            graph = callgraph_similarity(a, b)
            score = ((1.0 - self.name_weight - self.callgraph_weight) * structural
                     + self.callgraph_weight * graph)
            if not obfuscated.stripped and a.name == b.name:
                score += self.name_weight
            else:
                # name mismatch: the structural part alone decides
                score += self.name_weight * structural * 0.5
            return min(1.0, score)

        def structural_only(a: BinaryFunction, b: BinaryFunction) -> float:
            return (0.85 * structural_similarity(a, b)
                    + 0.15 * callgraph_similarity(a, b))

        return {MATCH_CHANNEL: similarity, "structural": structural_only}

    def _finalize_score(self, matches, channels, original_functions,
                        obfuscated_functions) -> float:
        # the whole-binary score follows BinDiff's per-pair similarity, which
        # is structural; symbol names only steer the matching itself
        return self.assignment_score(channels["structural"],
                                     original_functions, obfuscated_functions)
