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

Besides the monolithic ``diff()`` entry point, every tool implements a
*partial-result contract* so the evaluation matrices can shard one binary
pair below whole-diff granularity (see :mod:`repro.evaluation.diff_sharding`):
:meth:`BinaryDiffer.shard_units` names the stable per-function shard keys of
a pair, :meth:`BinaryDiffer.partial_diff` scores an arbitrary subset of those
units into a mergeable :class:`PartialDiff`, and
:meth:`BinaryDiffer.merge_partials` deterministically reassembles a
:class:`DiffResult` bit-identical to the serial ``diff()``.  Tools whose
scoring is pairwise-decomposable (one source function's candidate ranking
depends only on per-function features of the two binaries) declare
``shard_granularity = "function"``; tools that match below function
granularity (DeepBinDiff scores *basic blocks*, so a function's ranking
emerges from cross-granularity block votes) fall back to
``shard_granularity = "binary"`` — their only shardable unit is the whole
binary pair.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backend.binary import Binary, BinaryFunction
from ..core.provenance import ProvenanceMap
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
#: whole-binary score is computed from); channels travel inside
#: :class:`PartialDiff` so the merge can finalize the score without
#: re-extracting any feature.
MATCH_CHANNEL = "matches"


@dataclass
class PartialDiff:
    """Mergeable outcome of scoring a subset of one binary pair's functions.

    The unit of the function-granularity diff sharding: ``sources`` names the
    source functions this partial scored (a subset of ``units``, the full
    roster of the pair in rank order), ``matches``/``channels`` hold their
    ranked candidate lists, and the function counts carry the denominators
    the whole-binary score needs — so :meth:`BinaryDiffer.merge_partials`
    can reassemble the exact serial :class:`DiffResult` without ever seeing
    the binaries.  Everything inside is plain strings/floats/ints, so a
    partial pickles across process (and machine) boundaries unchanged.

    Whole-pair partials (the ``shard_granularity == "binary"`` fallback)
    cover every unit at once and carry the final ``similarity_score``
    directly.
    """

    tool: str
    original: str
    obfuscated: str
    units: Tuple[str, ...]
    sources: Tuple[str, ...]
    matches: Dict[str, RankedCandidates]
    channels: Dict[str, Dict[str, RankedCandidates]] = field(default_factory=dict)
    original_functions: int = 0
    obfuscated_functions: int = 0
    similarity_score: Optional[float] = None


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

    #: "function" when :meth:`partial_diff` can score an arbitrary subset of
    #: source functions independently; "binary" when the tool only scores
    #: whole pairs (the sharding fallback).
    shard_granularity: str = "function"

    @property
    def name(self) -> str:
        return self.info.name

    def diff(self, original: Binary, obfuscated: Binary) -> DiffResult:
        return self._diff(original, obfuscated,
                          *self._resolve_indexes(original, obfuscated))

    def _resolve_indexes(self, original: Binary, obfuscated: Binary
                         ) -> Tuple[Optional[FeatureIndex],
                                    Optional[FeatureIndex]]:
        """The feature source ``diff()`` *and* ``partial_diff()`` score from.

        One resolution point keeps the sharded path on exactly the feature
        path of the serial reference.
        """
        if self.use_index:
            return feature_index(original), feature_index(obfuscated)
        return None, None

    def _diff(self, original: Binary, obfuscated: Binary,
              original_index: Optional[FeatureIndex],
              obfuscated_index: Optional[FeatureIndex]) -> DiffResult:
        """Default whole-pair diff of the pairwise-decomposable tools.

        Ranks every channel of :meth:`_pair_scorers` for every source
        function and finalizes the whole-binary score — exactly the merged
        outcome of :meth:`partial_diff` over any partition of the sources,
        which is what makes the function-granularity sharding bit-identical
        by construction.  Tools that score below function granularity
        (DeepBinDiff) override this wholesale.
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

    # -- the partial-result / sharding contract ------------------------------------

    def cache_key(self) -> Tuple:
        """Stable, value-based key of this tool's configuration.

        Two instances with the same knobs produce identical keys across
        processes and disk round trips (the ``diff`` store kind addresses
        partial results under it); differently-tuned instances never
        collide.  Concrete tools override with their explicit knob tuple.
        """
        config = tuple(sorted(
            (name, value) for name, value in vars(self).items()
            if not name.startswith("_")
            and isinstance(value, (str, bytes, int, float, bool, type(None)))))
        return (type(self).__name__.lower(), config)

    def shard_units(self, original: Binary) -> List[str]:
        """The stable per-function shard keys of a pair, in rank order.

        One unit per source (original) function; the order is the order
        ``diff()`` ranks them in, which is what the merge layer reassembles.
        """
        return [f.name for f in original.functions]

    def _pair_scorers(self, original: Binary, obfuscated: Binary,
                      original_index: Optional[FeatureIndex],
                      obfuscated_index: Optional[FeatureIndex]
                      ) -> Dict[str, Callable[[BinaryFunction, BinaryFunction], float]]:
        """Per-channel similarity callables over (source, target) pairs.

        Must contain :data:`MATCH_CHANNEL`; extra channels are ranked
        alongside and fed to :meth:`_finalize_score`.  Building the scorers
        is where feature extraction happens (through the indexes when
        given), so one call amortises across every pair a shard scores.
        """
        raise NotImplementedError

    def _finalize_score(self, matches: Dict[str, RankedCandidates],
                        channels: Dict[str, Dict[str, RankedCandidates]],
                        original_functions: int,
                        obfuscated_functions: int) -> float:
        """The whole-binary similarity from complete ranking channels.

        Runs identically over freshly-ranked channels (``_diff``) and over
        merged partial channels (``merge_partials``) — the score is a pure
        function of the assembled rankings plus the function counts.
        """
        return self.assignment_score(matches, original_functions,
                                     obfuscated_functions)

    def partial_diff(self, original: Binary, obfuscated: Binary,
                     sources: Optional[Sequence[str]] = None) -> PartialDiff:
        """Score ``sources`` (default: every unit) into a mergeable partial.

        Function-granularity tools rank exactly the requested source
        functions against every obfuscated function — the shard's pair set
        — through the same scorers ``diff()`` uses.  Binary-granularity
        tools ignore ``sources`` and wrap a whole ``diff()`` (their partial
        covers every unit and carries the final score).
        """
        units = tuple(self.shard_units(original))
        if self.shard_granularity != "function":
            result = self.diff(original, obfuscated)
            return PartialDiff(
                tool=self.name, original=original.name,
                obfuscated=obfuscated.name, units=units, sources=units,
                matches=result.matches,
                original_functions=len(original.functions),
                obfuscated_functions=len(obfuscated.functions),
                similarity_score=result.similarity_score)
        sources = units if sources is None else tuple(sources)
        unknown = sorted(set(sources) - set(units))
        if unknown:
            raise ValueError(
                f"{self.name}: unknown source functions {unknown}")
        scorers = self._pair_scorers(
            original, obfuscated, *self._resolve_indexes(original, obfuscated))
        by_name = {f.name: f for f in original.functions}
        targets = obfuscated.functions
        matches: Dict[str, RankedCandidates] = {}
        channels: Dict[str, Dict[str, RankedCandidates]] = {
            name: {} for name in scorers if name != MATCH_CHANNEL}
        for source_name in sources:
            source = by_name[source_name]
            matches[source_name] = self.rank_candidates(
                source, targets, scorers[MATCH_CHANNEL])
            for channel_name in channels:
                channels[channel_name][source_name] = self.rank_candidates(
                    source, targets, scorers[channel_name])
        return PartialDiff(
            tool=self.name, original=original.name, obfuscated=obfuscated.name,
            units=units, sources=sources, matches=matches, channels=channels,
            original_functions=len(original.functions),
            obfuscated_functions=len(obfuscated.functions))

    def merge_partials(self, partials: Sequence[PartialDiff]) -> DiffResult:
        """Deterministically reassemble a serial-identical :class:`DiffResult`.

        The partials must cover every unit of the pair exactly once (any
        partition, in any order — the unit roster fixes the assembly).  A
        single whole-pair partial short-circuits with its carried score;
        otherwise the score is finalized from the merged channels, exactly
        as ``diff()`` finalizes it from fresh ones.
        """
        if not partials:
            raise ValueError("merge_partials needs at least one partial")
        first = partials[0]
        identity = (first.tool, first.original, first.obfuscated, first.units)
        for partial in partials[1:]:
            other = (partial.tool, partial.original, partial.obfuscated,
                     partial.units)
            if other != identity:
                raise ValueError(
                    f"cannot merge partials of different pairs: "
                    f"{other!r} vs {identity!r}")
        by_source: Dict[str, PartialDiff] = {}
        for partial in partials:
            for source in partial.sources:
                if source in by_source:
                    raise ValueError(f"unit {source!r} scored by two partials")
                by_source[source] = partial
        missing = [unit for unit in first.units if unit not in by_source]
        if missing:
            raise ValueError(f"partials cover no score for units {missing}")
        matches = {unit: by_source[unit].matches[unit] for unit in first.units}
        if len(partials) == 1 and first.similarity_score is not None:
            return DiffResult(tool=first.tool, original=first.original,
                              obfuscated=first.obfuscated, matches=matches,
                              similarity_score=first.similarity_score)
        channel_names = sorted({name for partial in partials
                                for name in partial.channels})
        channels = {name: {unit: by_source[unit].channels[name][unit]
                           for unit in first.units}
                    for name in channel_names}
        score = self._finalize_score(matches, channels,
                                     first.original_functions,
                                     first.obfuscated_functions)
        return DiffResult(tool=first.tool, original=first.original,
                          obfuscated=first.obfuscated, matches=matches,
                          similarity_score=score)

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
        previous full-sort implementation — and identical no matter which
        shard ranks the source.
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

        Takes the function counts instead of the binaries so the merge
        layer can finalize scores from partial results alone.
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
