"""Per-workload units of the diffing matrices (Figures 8 and 10).

A fig 8/10 unit is one workload with its whole label row and tool list,
the shape the fig 6/7 units already have:

* :func:`shard_diff_matrix` plans one unit per workload;
* :func:`_diff_unit` builds the workload's baseline and each label once,
  from one synthesis of the workload, scores every (label, tool) cell with
  the tool's whole-binary ``diff()`` and returns only the reduced rows
  (:class:`DiffUnitResult`): the baseline's function names and, per cell,
  the similarity score and each function's provenance rank;
* :func:`diff_cells` runs the units on the shared engine
  (:func:`~repro.evaluation.checkpoint.run_matrix`), which persists each
  unit's rows as one ``shard`` object under :func:`diff_unit_key` and
  revives the unit from it on any later run over the same store tree.

A unit therefore builds and featurises each variant once: it keeps its
baseline for its whole row and each label's variant only while it scores
that label, and the parent holds nothing but rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..core.variant_cache import VariantCache, variant_key
from ..diffing import rank_of_correct
from ..diffing.base import BinaryDiffer
from ..obs import metrics as obs_metrics
from ..opt.pass_manager import OptOptions
from ..store.keys import config_cache_key
from ..toolchain import obfuscator_for
from ..workloads.suites import WorkloadProgram
from .checkpoint import run_matrix
from .overhead import build_variant

#: One unit of the diff matrix: a workload with its label row and tools.
DiffUnit = Tuple[WorkloadProgram, Tuple[str, ...], Tuple[BinaryDiffer, ...],
                 Optional[OptOptions]]


def shard_diff_matrix(workloads: Sequence[WorkloadProgram],
                      labels: Sequence[str],
                      differs: Sequence[BinaryDiffer],
                      options: Optional[OptOptions] = None
                      ) -> List[DiffUnit]:
    """One unit per workload, in the caller's workload order.

    Every unit carries the whole label tuple and tool list, so a
    workload's variants never spread across workers.
    """
    return [(workload, tuple(labels), tuple(differs), options)
            for workload in workloads]


@dataclass(frozen=True)
class DiffCell:
    """The reduced row of one (label, tool) cell."""

    similarity_score: float
    #: 1-based provenance rank of each baseline function's correct match
    #: (``None`` when no candidate is correct), in the unit's function order.
    ranks: Tuple[Optional[int], ...]


@dataclass(frozen=True)
class DiffUnitResult:
    """One workload's reduced rows, picklable across processes."""

    #: The baseline binary's function names: the order of every ``ranks``.
    functions: Tuple[str, ...]
    #: Label-major, then tool, in the unit's order.
    cells: Tuple[DiffCell, ...]
    #: Cells scored by this run: all of them, or 0 once revived from a store.
    scored: int = 0


def _diff_unit(unit: DiffUnit, cache=None) -> DiffUnitResult:
    """Score one workload's cells (the engine's unit function)."""
    workload, labels, differs, options = unit
    source = functools.cache(workload.build)
    baseline = build_variant(workload, "baseline", options, cache,
                             source).binary
    functions = tuple(function.name for function in baseline.functions)
    cells = []
    for label in labels:
        variant = build_variant(workload, label, options, cache, source)
        for differ in differs:
            result = differ.diff(baseline, variant.binary)
            cells.append(DiffCell(result.similarity_score, tuple(
                rank_of_correct(result.matches.get(name, []), name,
                                variant.provenance)
                for name in functions)))
    return DiffUnitResult(functions, tuple(cells), scored=len(cells))


def diff_unit_key(unit: DiffUnit) -> Tuple:
    """The value-based store key of one unit's rows.

    The baseline's variant key, each label's obfuscator configuration and
    each tool's ``cache_key()``: any run of the same code whose unit has
    the same ingredients revives the stored rows instead of scoring them
    again.
    """
    workload, labels, differs, options = unit
    return ("diffunit", variant_key(workload, "baseline", options),
            tuple(config_cache_key(obfuscator_for(label)) for label in labels),
            tuple(differ.cache_key() for differ in differs))


def _revived(result: DiffUnitResult) -> DiffUnitResult:
    """A unit read back from the store scored nothing in this run."""
    return replace(result, scored=0)


#: One cell: (workload, label, tool, the unit's function names, its row).
Cell = Tuple[WorkloadProgram, str, BinaryDiffer, Tuple[str, ...], DiffCell]


def diff_cells(workloads: Sequence[WorkloadProgram], labels: Sequence[str],
               differs: Sequence[BinaryDiffer], options: Optional[OptOptions],
               jobs: Optional[int], cache: Optional[VariantCache]
               ) -> List[Cell]:
    """Run the diff matrix; cells come back workload, label, tool major.

    The units build through ``cache`` when it is given (in process only,
    :func:`~repro.evaluation.checkpoint.run_matrix`).  The parent bumps the
    ``diffunit.*`` registry counters (units, cells scored) from the
    results.
    """
    units = shard_diff_matrix(workloads, labels, differs, options)
    keys = [diff_unit_key(unit) for unit in units]
    results = run_matrix(_diff_unit, units, keys, jobs, cache,
                         normalize=_revived)
    cells: List[Cell] = []
    for workload, result in zip(workloads, results):
        obs_metrics.counter("diffunit.units")
        obs_metrics.counter("diffunit.cells_scored", result.scored)
        rows = iter(result.cells)
        for label in labels:
            for differ in differs:
                cells.append((workload, label, differ, result.functions,
                              next(rows)))
    return cells
