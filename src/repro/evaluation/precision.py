"""Diffing accuracy experiment: Figure 8 (Precision@1 per tool per obfuscation).

For every workload program the original (un-obfuscated, un-stripped) binary is
diffed against each obfuscated build by each of the five tools; Precision@1 is
computed with the relaxed pairing rule (provenance-based).  Figure 8 reports
the average per (tool, obfuscation) pair over T-I and T-II.

The matrix runs at *function* granularity through
:func:`~repro.evaluation.diff_sharding.diff_cells`: Precision@1 is the
fraction of a cell's source functions whose correct match ranks first, and
the similarity score comes from the tool's deterministic merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.variant_cache import VariantCache
from ..diffing import all_differs
from ..diffing.base import BinaryDiffer
from ..opt.pass_manager import OptOptions
from ..toolchain import ALL_LABELS
from ..workloads.suites import (WorkloadProgram, coreutils_programs,
                                spec2006_programs, spec2017_programs)
from .diff_sharding import diff_cells


@dataclass
class PrecisionRow:
    program: str
    suite: str
    tool: str
    label: str
    precision: float
    similarity_score: float


@dataclass
class PrecisionReport:
    rows: List[PrecisionRow] = field(default_factory=list)

    def average(self, tool: str, label: str) -> float:
        values = [row.precision for row in self.rows
                  if row.tool == tool and row.label == label]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def tools(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.tool not in seen:
                seen.append(row.tool)
        return seen

    def labels(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.label not in seen:
                seen.append(row.label)
        return seen

    def matrix(self) -> Dict[str, Dict[str, float]]:
        return {tool: {label: self.average(tool, label) for label in self.labels()}
                for tool in self.tools()}


def measure_precision(workloads: Sequence[WorkloadProgram],
                      labels: Sequence[str] = ALL_LABELS,
                      differs: Optional[Sequence[BinaryDiffer]] = None,
                      options: Optional[OptOptions] = None,
                      cache: Optional[VariantCache] = None,
                      jobs: Optional[int] = None) -> PrecisionReport:
    """Diff every obfuscated build against its baseline with every tool.

    A shared :class:`~repro.core.variant_cache.VariantCache` lets this reuse
    the variants the overhead experiments already built (and vice versa).
    ``jobs > 1`` (or ``REPRO_JOBS``) fans the function-granularity units
    across worker processes; rows are identical either way.
    """
    differs = list(differs) if differs is not None else all_differs()
    report = PrecisionReport()
    for workload, label, differ, units, merged, ranks in diff_cells(
            workloads, labels, differs, options, jobs, cache):
        correct = sum(1 for unit in units if ranks.get(unit) == 1)
        report.rows.append(PrecisionRow(
            program=workload.name, suite=workload.suite, tool=differ.name,
            label=label, precision=correct / len(units) if units else 0.0,
            similarity_score=merged.similarity_score))
    return report


def figure8(limit_spec: Optional[int] = 4, limit_coreutils: Optional[int] = 4,
            labels: Sequence[str] = ALL_LABELS,
            differs: Optional[Sequence[BinaryDiffer]] = None,
            options: Optional[OptOptions] = None,
            cache: Optional[VariantCache] = None,
            jobs: Optional[int] = None) -> PrecisionReport:
    """Figure 8 on a configurable subset of T-I and T-II.

    The full suites (47 SPEC + 108 CoreUtils programs x 8 obfuscations x 5
    tools) take a long time in pure Python; the defaults use a representative
    subset, and passing ``None`` for the limits reproduces the full figure.
    """
    spec = spec2006_programs() + spec2017_programs()
    core = coreutils_programs()
    if limit_spec is not None:
        spec = spec[:limit_spec]
    if limit_coreutils is not None:
        core = core[:limit_coreutils]
    return measure_precision(spec + core, labels, differs, options, cache,
                             jobs=jobs)
