"""Vulnerable-code-hiding experiment: Figure 10 (escape@1/10/50 on T-III).

The five embedded programs each contain at least one function with a known
CVE (Table 3).  For every obfuscation, each diffing tool ranks candidate
matches for each vulnerable function; the function *escapes* at rank *n* if no
correct match (per provenance) appears in the top *n*.  Following the paper,
only VulSeeker, Asm2Vec and SAFE are used (BinDiff and DeepBinDiff report only
their top-1 match) and Fla runs at a 100% ratio here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.variant_cache import VariantCache
from ..diffing import Asm2Vec, Safe, VulSeeker
from ..diffing.base import BinaryDiffer
from ..opt.pass_manager import OptOptions
from ..workloads.suites import WorkloadProgram, embedded_programs
from .diff_sharding import diff_cells

ESCAPE_LABELS = ("sub", "bog", "fla", "fufi.sep", "fufi.ori", "fufi.all")
ESCAPE_RANKS = (1, 10, 50)


@dataclass
class EscapeRow:
    program: str
    function: str
    tool: str
    label: str
    rank_of_correct: Optional[int]

    def escaped(self, n: int) -> bool:
        return self.rank_of_correct is None or self.rank_of_correct > n


@dataclass
class EscapeReport:
    rows: List[EscapeRow] = field(default_factory=list)

    def escape_ratio(self, tool: str, label: str, n: int) -> float:
        relevant = [row for row in self.rows
                    if row.tool == tool and row.label == label]
        if not relevant:
            return 0.0
        return sum(1 for row in relevant if row.escaped(n)) / len(relevant)

    def matrix(self, n: int) -> Dict[str, Dict[str, float]]:
        tools = sorted({row.tool for row in self.rows})
        labels = []
        for row in self.rows:
            if row.label not in labels:
                labels.append(row.label)
        return {tool: {label: self.escape_ratio(tool, label, n)
                       for label in labels}
                for tool in tools}


def escape_differs() -> List[BinaryDiffer]:
    return [VulSeeker(), Asm2Vec(), Safe()]


def measure_escape(workloads: Sequence[WorkloadProgram],
                   labels: Sequence[str] = ESCAPE_LABELS,
                   differs: Optional[Sequence[BinaryDiffer]] = None,
                   options: Optional[OptOptions] = None,
                   cache: Optional[VariantCache] = None,
                   jobs: Optional[int] = None) -> EscapeReport:
    """Rank the vulnerable functions of every workload under every label.

    Runs the figure-8 units of the vulnerable workloads; ``jobs > 1`` (or
    ``REPRO_JOBS``) fans them across worker processes, and rows are
    identical either way.
    """
    differs = list(differs) if differs is not None else escape_differs()
    vulnerable_workloads = [w for w in workloads if w.vulnerable_functions]
    report = EscapeReport()
    for workload, label, differ, units, _merged, ranks in diff_cells(
            vulnerable_workloads, labels, differs, options, jobs, cache):
        for function_name in workload.vulnerable_functions:
            if function_name in units:
                report.rows.append(EscapeRow(
                    program=workload.name, function=function_name,
                    tool=differ.name, label=label,
                    rank_of_correct=ranks[function_name]))
    return report


def figure10(labels: Sequence[str] = ESCAPE_LABELS,
             options: Optional[OptOptions] = None,
             limit: Optional[int] = None,
             jobs: Optional[int] = None) -> EscapeReport:
    """Figure 10: escape@1/10/50 of the T-III vulnerable functions."""
    workloads = embedded_programs()
    if limit is not None:
        workloads = workloads[:limit]
    return measure_escape(workloads, labels, options=options, jobs=jobs)
