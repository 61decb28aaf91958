"""The common binary-diffing framework: tool interface, matching and metrics.

Every tool produces, for each function of the *original* (un-obfuscated,
un-stripped) binary, a ranked list of candidate functions in the *obfuscated*
binary.  The evaluation then applies the paper's metrics:

* **Precision@1** with the relaxed pairing rule of section 4.2 — a pairing is
  correct if the top-ranked candidate contains code of the original function
  (its remFunc, one of its sepFuncs, or the fusFunc it was merged into),
  which is what :class:`~repro.core.provenance.ProvenanceMap` records;
* **escape@n** (section 4.3) — a vulnerable function *escapes* if no correct
  candidate appears within the top *n* ranked matches;
* a whole-binary **similarity score** in [0, 1] (used for the BinDiff /
  BinTuner comparison of Figure 9).

The evaluation diffs whole binaries (``diff()``); each tool's diffs are a
layer of their own (``diffing.<tool>.diff``, :mod:`repro.obs.layers`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backend.binary import Binary, BinaryFunction
from ..core.provenance import ProvenanceMap
from ..obs import layer
from .index import FeatureIndex, feature_index


RankedCandidates = List[Tuple[str, float]]


@dataclass
class ToolInfo:
    """Table 1 characteristics of a diffing tool."""

    name: str
    granularity: str              # "function" or "basic block"
    symbol_relying: bool
    time_consuming: bool
    memory_consuming: bool
    callgraph_lacking: bool

    def as_row(self) -> Dict[str, str]:
        def yn(flag: bool) -> str:
            return "Y" if flag else "N"
        return {
            "diffing": self.name,
            "granularity": self.granularity,
            "symbol relying": yn(self.symbol_relying),
            "time consuming": yn(self.time_consuming),
            "memory consuming": yn(self.memory_consuming),
            "call-graph lacking": yn(self.callgraph_lacking),
        }


@dataclass
class DiffResult:
    """Outcome of diffing one (original, obfuscated) binary pair."""

    tool: str
    original: str
    obfuscated: str
    matches: Dict[str, RankedCandidates] = field(default_factory=dict)
    similarity_score: float = 0.0

    def top_match(self, function_name: str) -> Optional[str]:
        ranked = self.matches.get(function_name)
        if not ranked:
            return None
        return ranked[0][0]

    def rank_of_correct(self, function_name: str,
                        provenance: ProvenanceMap) -> Optional[int]:
        """1-based rank of the first correct candidate, or None."""
        return rank_of_correct(self.matches.get(function_name, []),
                               function_name, provenance)


def rank_of_correct(ranked: RankedCandidates, function_name: str,
                    provenance: ProvenanceMap) -> Optional[int]:
    """1-based rank of the first correct candidate in one ranked list."""
    for position, (candidate, _score) in enumerate(ranked, start=1):
        if provenance.is_correct_match(function_name, candidate):
            return position
    return None


#: The ranking channel every tool produces: the candidate lists that become
#: ``DiffResult.matches``.  Tools may score extra channels per source
#: function (BinDiff ranks a symbol-free "structural" channel that its
#: whole-binary score is computed from).
MATCH_CHANNEL = "matches"


def _diff_layer(args: tuple) -> str:
    """The layer of one ``diff()`` call: ``diffing.<tool>.diff``."""
    return f"diffing.{args[0].name.lower()}.diff"


class BinaryDiffer:
    """Base class of the five re-implemented diffing tools.

    ``diff()`` resolves the feature source and dispatches to ``_diff``: by
    default each binary's features come from its memoised
    :class:`~repro.diffing.index.FeatureIndex` (extracted once, reused across
    every diff of that binary); ``use_index = False`` re-extracts per call,
    which is the differential reference path.
    """

    info: ToolInfo

    #: False re-extracts every feature per diff (the reference path).
    use_index: bool = True

    #: Every tool scores whole pairs (the paper benchmark's tracer reads
    #: this to count a :meth:`partial_diff` as one diff).
    shard_granularity: str = "binary"

    @property
    def name(self) -> str:
        return self.info.name

    @layer(_diff_layer)
    def diff(self, original: Binary, obfuscated: Binary) -> DiffResult:
        if self.use_index:
            indexes = feature_index(original), feature_index(obfuscated)
        else:
            indexes = None, None
        return self._diff(original, obfuscated, *indexes)

    def _diff(self, original: Binary, obfuscated: Binary,
              original_index: Optional[FeatureIndex],
              obfuscated_index: Optional[FeatureIndex]) -> DiffResult:
        """Default whole-pair diff of the pairwise-decomposable tools.

        Ranks every channel of :meth:`_pair_scorers` for every source
        function and finalizes the whole-binary score.  Tools that score
        below function granularity (DeepBinDiff) override this wholesale.
        """
        scorers = self._pair_scorers(original, obfuscated,
                                     original_index, obfuscated_index)
        matches = self.rank_by_similarity(original, obfuscated,
                                          scorers[MATCH_CHANNEL])
        channels = {name: self.rank_by_similarity(original, obfuscated, fn)
                    for name, fn in scorers.items() if name != MATCH_CHANNEL}
        score = self._finalize_score(matches, channels,
                                     len(original.functions),
                                     len(obfuscated.functions))
        return DiffResult(tool=self.name, original=original.name,
                          obfuscated=obfuscated.name, matches=matches,
                          similarity_score=score)

    def cache_key(self) -> Tuple:
        """Stable, value-based key of this tool's configuration.

        Two instances with the same knobs produce identical keys across
        processes and disk round trips (a fig 8/10 unit's store key holds
        it); differently-tuned instances never collide.  Concrete tools
        override with their explicit knob tuple.
        """
        config = tuple(sorted(
            (name, value) for name, value in vars(self).items()
            if not name.startswith("_")
            and isinstance(value, (str, bytes, int, float, bool, type(None)))))
        return (type(self).__name__.lower(), config)

    def _pair_scorers(self, original: Binary, obfuscated: Binary,
                      original_index: Optional[FeatureIndex],
                      obfuscated_index: Optional[FeatureIndex]
                      ) -> Dict[str, Callable[[BinaryFunction, BinaryFunction], float]]:
        """Per-channel similarity callables over (source, target) pairs.

        Must contain :data:`MATCH_CHANNEL`; extra channels are ranked
        alongside and fed to :meth:`_finalize_score`.  Building the scorers
        is where feature extraction happens (through the indexes when
        given), so one call amortises across every pair of the diff.
        """
        raise NotImplementedError

    def _finalize_score(self, matches: Dict[str, RankedCandidates],
                        channels: Dict[str, Dict[str, RankedCandidates]],
                        original_functions: int,
                        obfuscated_functions: int) -> float:
        """The whole-binary similarity from complete ranking channels: a
        pure function of the rankings plus the function counts."""
        return self.assignment_score(matches, original_functions,
                                     obfuscated_functions)

    def partial_diff(self, original: Binary,
                     obfuscated: Binary) -> DiffResult:
        """The pair's whole :meth:`diff`.

        This and :meth:`merge_partials` remain only because the paper
        benchmark's tracer wraps both names; no evaluation path calls them.
        """
        return self.diff(original, obfuscated)

    def merge_partials(self, partials: Sequence[DiffResult]) -> DiffResult:
        """The one whole-pair result :meth:`partial_diff` returned."""
        (result,) = partials
        return result

    # -- helpers shared by the concrete tools --------------------------------------

    @staticmethod
    def rank_candidates(source: BinaryFunction,
                        targets: Sequence[BinaryFunction],
                        similarity, max_candidates: int = 50
                        ) -> RankedCandidates:
        """One source function's ranked candidate list.

        Top-k selection via a heap instead of a full sort; ``nsmallest`` on
        the ``(-score, name)`` key is documented to equal
        ``sorted(...)[:k]``, so the candidate lists are bit-identical to the
        previous full-sort implementation.
        """
        key = lambda pair: (-pair[1], pair[0])  # noqa: E731
        scored = [(target.name, similarity(source, target))
                  for target in targets]
        return heapq.nsmallest(max_candidates, scored, key=key)

    @staticmethod
    def rank_by_similarity(original: Binary, obfuscated: Binary,
                           similarity, max_candidates: int = 50
                           ) -> Dict[str, RankedCandidates]:
        """Rank every obfuscated function for every original function."""
        targets = obfuscated.functions
        return {source.name: BinaryDiffer.rank_candidates(
                    source, targets, similarity, max_candidates)
                for source in original.functions}

    @staticmethod
    def assignment_score(matches: Dict[str, RankedCandidates],
                         original_functions: int,
                         obfuscated_functions: int) -> float:
        """Greedy one-to-one assignment score, normalised to [0, 1].

        Takes the function counts instead of the binaries, so
        :meth:`_finalize_score` needs only the rankings.
        """
        pairs: List[Tuple[float, str, str]] = []
        for source_name, ranked in matches.items():
            for target_name, score in ranked:
                pairs.append((score, source_name, target_name))
        pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
        used_sources: set = set()
        used_targets: set = set()
        total = 0.0
        for score, source_name, target_name in pairs:
            if source_name in used_sources or target_name in used_targets:
                continue
            used_sources.add(source_name)
            used_targets.add(target_name)
            total += max(0.0, min(1.0, score))
        denominator = max(original_functions, obfuscated_functions, 1)
        return total / denominator

    @staticmethod
    def whole_binary_score(matches: Dict[str, RankedCandidates],
                           original: Binary, obfuscated: Binary) -> float:
        """Greedy one-to-one assignment score against the two binaries."""
        return BinaryDiffer.assignment_score(matches, len(original.functions),
                                             len(obfuscated.functions))


# -- evaluation metrics ---------------------------------------------------------------------


def precision_at_1(result: DiffResult, provenance: ProvenanceMap,
                   function_names: Optional[Sequence[str]] = None) -> float:
    """Fraction of original functions whose top match is correct."""
    names = list(function_names) if function_names is not None \
        else sorted(result.matches)
    if not names:
        return 0.0
    correct = 0
    for name in names:
        top = result.top_match(name)
        if top is not None and provenance.is_correct_match(name, top):
            correct += 1
    return correct / len(names)


def escape_ratio(results: Sequence[Tuple[DiffResult, ProvenanceMap]],
                 vulnerable_functions: Sequence[str], n: int) -> float:
    """Fraction of vulnerable functions not correctly matched within the top n.

    ``results`` pairs each :class:`DiffResult` with the provenance of its
    obfuscated binary.  (An earlier version took a dict keyed on
    ``id(result)`` — fragile once results are garbage-collected or shipped
    across process boundaries, where ids are recycled or rewritten.)
    """
    total = 0
    escaped = 0
    for result, provenance in results:
        for function_name in vulnerable_functions:
            if function_name not in result.matches:
                continue
            total += 1
            rank = result.rank_of_correct(function_name, provenance)
            if rank is None or rank > n:
                escaped += 1
    if total == 0:
        return 0.0
    return escaped / total


def escape_at_n(result: DiffResult, provenance: ProvenanceMap,
                function_name: str, n: int) -> bool:
    """True if ``function_name`` has no correct match within the top ``n``."""
    rank = result.rank_of_correct(function_name, provenance)
    return rank is None or rank > n
