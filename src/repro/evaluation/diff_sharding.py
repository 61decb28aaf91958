"""Function-granularity units of the diffing matrices (Figures 8 and 10).

The diffing-side experiments score (program × obfuscation × tool) cells.
Every tool exposes a partial-result contract
(:class:`~repro.diffing.base.PartialDiff`): one source function's candidate
ranking is a pure function of (tool config, baseline variant, obfuscated
variant, source function), so the matrix splits *below* the cell:

* :func:`shard_diff_matrix` cuts each cell into :data:`SHARDS_PER_CELL`
  modular slices over the pair's source functions (slice ``k`` scores units
  ``k, k+N, k+2N, ...`` in roster order) — tools whose scoring is not
  pairwise-decomposable (DeepBinDiff, ``shard_granularity == "binary"``)
  keep one whole-pair unit;
* :func:`_diff_shard` scores one slice.  With a shared
  :class:`~repro.store.artifact_store.ArtifactStore` attached it adopts
  persisted ``FeatureIndex`` payloads (building and persisting them on
  miss) and persists every function's outcome under its stable per-function
  key (kind ``"diff"``, :mod:`repro.store.diff_payloads`), so a fully warm
  slice never unpickles a binary, extracts a feature or scores a pair;
* :func:`diff_cells` runs the slices on the shared engine
  (:func:`~repro.evaluation.checkpoint.run_matrix`) and merges each cell
  through :meth:`~repro.diffing.base.BinaryDiffer.merge_partials`, which is
  bit-identical to the tool's whole-binary ``diff()`` for any partition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.variant_cache import VariantCache, variant_key
from ..diffing import rank_of_correct
from ..diffing.base import BinaryDiffer, DiffResult, PartialDiff
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..opt.pass_manager import OptOptions
from ..store.diff_payloads import (diff_pair_key, load_roster, load_unit,
                                   load_whole, persist_roster, persist_unit,
                                   persist_whole)
from ..store.feature_payloads import persist_features, warm_features
from ..toolchain import obfuscator_for
from ..workloads.suites import WorkloadProgram
from .checkpoint import run_matrix
from .executor import rooted_store, worker_cache
from .overhead import build_variant

#: Modular slices per function-granularity cell.
SHARDS_PER_CELL = 2


#: One unit of parallel diff work: modular slice ``index`` of ``count`` over
#: the source functions of one (workload, label, tool) cell.
DiffShard = Tuple[WorkloadProgram, str, BinaryDiffer, Optional[OptOptions],
                  int, int]


def shard_diff_matrix(workloads: Sequence[WorkloadProgram],
                      labels: Sequence[str],
                      differs: Sequence[BinaryDiffer],
                      options: Optional[OptOptions] = None
                      ) -> List[DiffShard]:
    """Deterministic partition of the diff matrix below cell granularity.

    Cells are emitted workload-major, then label, then tool; each
    function-granularity cell yields :data:`SHARDS_PER_CELL` modular
    slices, each binary-granularity cell one whole-pair unit.  The
    partition depends only on the arguments, so any two schedulers produce
    the same units and hence the same merged rows.
    """
    shards: List[DiffShard] = []
    for workload in workloads:
        for label in labels:
            for differ in differs:
                per_cell = (SHARDS_PER_CELL
                            if differ.shard_granularity == "function" else 1)
                for index in range(per_cell):
                    shards.append((workload, label, differ, options,
                                   index, per_cell))
    return shards


@dataclass
class DiffShardResult:
    """One shard's mergeable outcome, picklable across process boundaries."""

    shard_index: int
    shard_count: int
    partial: PartialDiff
    #: 1-based provenance rank of the correct match per scored unit.
    ranks: Dict[str, Optional[int]]
    units_scored: int = 0
    units_from_store: int = 0
    features_adopted: int = 0
    features_persisted: int = 0
    diff_payloads_persisted: int = 0


def _diff_shard(shard: DiffShard, cache=None) -> DiffShardResult:
    """Score (or adopt) one slice's pair set (the engine's unit function)."""
    workload, label, differ, _options, index, count = shard
    with obs_tracing.span("shard.diff", cat="diff", workload=workload.name,
                          label=label, tool=differ.info.name, slice=index,
                          count=count):
        return _diff_shard_impl(
            shard, cache if cache is not None else worker_cache())


def _diff_shard_impl(shard: DiffShard, cache) -> DiffShardResult:
    workload, label, differ, options, index, count = shard
    store = rooted_store(cache)
    granular = differ.shard_granularity == "function"
    baseline_key = variant_key(workload, "baseline", options)
    label_key = variant_key(workload, obfuscator_for(label), options)
    pair_key = diff_pair_key(differ, baseline_key, label_key) \
        if store is not None else None

    result = DiffShardResult(shard_index=index, shard_count=count,
                             partial=None, ranks={})  # type: ignore[arg-type]
    roster = load_roster(store, pair_key) if store is not None else None
    baseline = variant = None

    def built_pair():
        nonlocal baseline, variant
        if baseline is None:
            baseline = build_variant(workload, "baseline", options, cache)
            variant = build_variant(workload, label, options, cache)
        return baseline, variant

    if roster is None:
        base, var = built_pair()
        roster = {
            "units": tuple(differ.shard_units(base.binary)),
            "original": base.binary.name, "obfuscated": var.binary.name,
            "original_functions": len(base.binary.functions),
            "obfuscated_functions": len(var.binary.functions),
        }
        if store is not None:
            persist_roster(store, pair_key, roster["units"],
                           roster["original"], roster["obfuscated"],
                           roster["original_functions"],
                           roster["obfuscated_functions"])
    units: Tuple[str, ...] = tuple(roster["units"])

    if not granular:
        payload = load_whole(store, pair_key) if store is not None else None
        if payload is not None and set(payload["matches"]) == set(units):
            result.partial = PartialDiff(
                tool=differ.name, original=roster["original"],
                obfuscated=roster["obfuscated"], units=units, sources=units,
                matches=payload["matches"],
                original_functions=roster["original_functions"],
                obfuscated_functions=roster["obfuscated_functions"],
                similarity_score=payload["similarity_score"])
            result.ranks = dict(payload["ranks"])
            result.units_from_store = len(units)
            return result
        base, var = built_pair()
        result.features_adopted = _warm_pair_features(
            store, baseline_key, label_key, base, var)
        partial = differ.partial_diff(base.binary, var.binary)
        result.partial = partial
        result.ranks = {unit: rank_of_correct(partial.matches.get(unit, []),
                                              unit, var.provenance)
                        for unit in units}
        result.units_scored = len(units)
        if store is not None:
            result.features_persisted = _persist_pair_features(
                store, baseline_key, label_key, base, var)
            persist_whole(store, pair_key, partial.matches,
                          partial.similarity_score, result.ranks)
            result.diff_payloads_persisted = 1
        return result

    mine = units[index::count]
    stored: Dict[str, Dict] = {}
    missing: List[str] = []
    for unit in mine:
        payload = load_unit(store, pair_key, unit) if store is not None else None
        if payload is None:
            missing.append(unit)
        else:
            stored[unit] = payload
    fresh: Optional[PartialDiff] = None
    if missing:
        base, var = built_pair()
        result.features_adopted = _warm_pair_features(
            store, baseline_key, label_key, base, var)
        fresh = differ.partial_diff(base.binary, var.binary, tuple(missing))
        if store is not None:
            result.features_persisted = _persist_pair_features(
                store, baseline_key, label_key, base, var)
    matches: Dict[str, list] = {}
    channels: Dict[str, Dict[str, list]] = {}
    for unit in mine:
        if unit in stored:
            payload = stored[unit]
            matches[unit] = payload["ranked"]
            unit_channels = payload["channels"]
            rank = payload["rank"]
        else:
            matches[unit] = fresh.matches[unit]
            unit_channels = {name: ranked[unit]
                            for name, ranked in fresh.channels.items()}
            rank = rank_of_correct(matches[unit], unit,
                                   built_pair()[1].provenance)
            if store is not None:
                persist_unit(store, pair_key, unit, matches[unit],
                             unit_channels, rank)
                result.diff_payloads_persisted += 1
        for name, ranked in unit_channels.items():
            channels.setdefault(name, {})[unit] = ranked
        result.ranks[unit] = rank
    result.units_scored = len(missing)
    result.units_from_store = len(stored)
    result.partial = PartialDiff(
        tool=differ.name, original=roster["original"],
        obfuscated=roster["obfuscated"], units=units, sources=mine,
        matches=matches, channels=channels,
        original_functions=roster["original_functions"],
        obfuscated_functions=roster["obfuscated_functions"])
    return result


def _warm_pair_features(store, baseline_key, label_key, baseline, variant) -> int:
    """Adopt both binaries' persisted ``FeatureIndex`` payloads; count them."""
    if store is None:
        return 0
    return (warm_features(store, baseline_key, baseline.binary)
            + warm_features(store, label_key, variant.binary))


def _persist_pair_features(store, baseline_key, label_key, baseline,
                           variant) -> int:
    """Persist both binaries' feature payloads; count the writes."""
    written = 0
    if persist_features(store, baseline_key, baseline.binary) is not None:
        written += 1
    if persist_features(store, label_key, variant.binary) is not None:
        written += 1
    return written


#: One merged cell: (workload, label, differ, unit roster, DiffResult, ranks).
MergedCell = Tuple[WorkloadProgram, str, BinaryDiffer, Tuple[str, ...],
                   DiffResult, Dict[str, Optional[int]]]


def diff_shard_key(shard: DiffShard) -> Tuple:
    """The value-based checkpoint identity of one diff shard.

    Built from the same ingredients as the per-unit diff payload keys (tool
    config × variant keys × modular slice), so it is stable across
    processes, machines and schedulers — which is what lets an interrupted
    run resume and two overlapping matrices (fig8 and fig10 share cells)
    reuse each other's journaled shards.
    """
    workload, label, differ, options, index, count = shard
    return ("diffshard", differ.cache_key(),
            variant_key(workload, "baseline", options),
            variant_key(workload, obfuscator_for(label), options),
            index, count)


def _normalize_resumed(result: DiffShardResult) -> DiffShardResult:
    """Rewrite a revived unit's counters as the pure store read it was.

    A resumed unit scored nothing, adopted no features and persisted
    nothing in *this* run — exactly like a fully warm unit — so the
    zero-rebuild counters hold across a resume.
    """
    return replace(result, units_scored=0,
                   units_from_store=len(result.partial.sources),
                   features_adopted=0, features_persisted=0,
                   diff_payloads_persisted=0)


def diff_cells(workloads: Sequence[WorkloadProgram], labels: Sequence[str],
               differs: Sequence[BinaryDiffer], options: Optional[OptOptions],
               jobs: Optional[int], cache: Optional[VariantCache]
               ) -> List[MergedCell]:
    """Run the diff matrix and merge each cell deterministically.

    An in-process run holds one workload's variants at a time (its baseline
    and every label).  Results merge in matrix order, and the parent bumps
    the ``diffshard.*`` registry counters (units scored, adopted from the
    store, feature and diff payloads persisted) from every unit's result.
    """
    shards = shard_diff_matrix(workloads, labels, differs, options)
    keys = [diff_shard_key(shard) for shard in shards]
    results = run_matrix(_diff_shard, shards, keys, ("fig8-10", tuple(keys)),
                         jobs, cache, len(labels) + 1,
                         normalize=_normalize_resumed)
    cells: List[MergedCell] = []
    position = 0
    for workload in workloads:
        for label in labels:
            for differ in differs:
                count = shards[position][5]
                cell_results = results[position:position + count]
                position += count
                merged = differ.merge_partials(
                    [r.partial for r in cell_results])
                ranks: Dict[str, Optional[int]] = {}
                for result in cell_results:
                    ranks.update(result.ranks)
                    _count(result)
                cells.append((workload, label, differ,
                              cell_results[0].partial.units, merged, ranks))
    return cells


def _count(result: DiffShardResult) -> None:
    counter = obs_metrics.counter
    counter("diffshard.shards")
    counter("diffshard.units_total", len(result.partial.sources))
    counter("diffshard.units_scored", result.units_scored)
    counter("diffshard.units_from_store", result.units_from_store)
    counter("diffshard.features_adopted", result.features_adopted)
    counter("diffshard.features_persisted", result.features_persisted)
    counter("diffshard.diff_payloads_persisted",
            result.diff_payloads_persisted)
