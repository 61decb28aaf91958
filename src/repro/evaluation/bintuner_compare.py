"""Compiler-option comparison: Figure 9 (BinDiff similarity, BinTuner vs Khaos).

Following section 4.2 ("Compared with compiler options"), BinTuner iteratively
searches compiler options against an O0 baseline, Khaos uses FuFi.all on the
standard O2 + LTO build, and both resulting binaries are compared by BinDiff
against the program compiled at O0, O1, O2 and O3.  The paper additionally
reports BinTuner's runtime overhead against the O2 + LTO baseline (30.35%).

The unit is one workload: it builds the four opt-level references once,
diffs the BinTuner and the Khaos binary against each, and its dominant
cost is the BinTuner option search rather than any single diff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..baselines.bintuner import BinTuner
from ..core.variant_cache import variant_key
from ..diffing.bindiff import BinDiff
from ..obs import tracing as obs_tracing
from ..opt.pass_manager import OptOptions
from ..store.keys import config_cache_key
from ..toolchain import obfuscator_for
from ..utils import geometric_mean
from ..vm.machine import run_program
from ..workloads.suites import (SPECINT_2006, SPECSPEED_2017, WorkloadProgram,
                                find_program)
from .checkpoint import run_matrix
from .executor import worker_cache
from .overhead import build_variant

OPT_LEVELS = (0, 1, 2, 3)
#: The Khaos variant compared with BinTuner (section 4.2).
KHAOS_LABEL = "fufi.all"


@dataclass
class SimilarityRow:
    program: str
    protection: str          # "bintuner" or "khaos"
    opt_level: int
    similarity: float


@dataclass
class BinTunerReport:
    rows: List[SimilarityRow] = field(default_factory=list)
    bintuner_overhead_percent: float = 0.0

    def similarity(self, protection: str, opt_level: int) -> float:
        values = [row.similarity for row in self.rows
                  if row.protection == protection and row.opt_level == opt_level]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def geomean(self, protection: str, opt_level: int) -> float:
        values = [row.similarity for row in self.rows
                  if row.protection == protection and row.opt_level == opt_level]
        if not values:
            return 0.0
        return geometric_mean([v - 1.0 for v in values]) + 1.0


def default_programs() -> List[WorkloadProgram]:
    names = list(SPECINT_2006) + list(SPECSPEED_2017)
    return [find_program(name) for name in names]


#: One figure-9 unit: a workload and its BinTuner iteration budget.
BinTunerShard = Tuple[WorkloadProgram, int]


def shard_bintuner_matrix(workloads: Sequence[WorkloadProgram],
                          tuner_iterations: int) -> List[BinTunerShard]:
    """One unit per workload, in the caller's workload order."""
    return [(workload, tuner_iterations) for workload in workloads]


def _bintuner_shard(shard: BinTunerShard, cache=None
                    ) -> Tuple[List[float], List[float], float]:
    """Diff both protections' binaries against every opt-level reference.

    The opt-level references and the Khaos build are store-keyed variants,
    built once and shared by both protections; the BinTuner search is
    seeded, so the tuned binary is deterministic per (workload,
    iterations), and its overhead is measured on the program the search
    compiled.  Every build and the search start from one synthesis of the
    workload.  Returns the BinTuner and the Khaos similarity scores in
    :data:`OPT_LEVELS` order, plus BinTuner's runtime-overhead factor
    against the O2 + LTO baseline.
    """
    workload, tuner_iterations = shard
    cache = cache if cache is not None else worker_cache()
    source = functools.cache(workload.build)
    with obs_tracing.span("shard.fig9", cat="diff", workload=workload.name):
        references = [build_variant(workload, "baseline",
                                    OptOptions(level=level, lto=level >= 2),
                                    cache, source).binary
                      for level in OPT_LEVELS]
        tuned = BinTuner(iterations=tuner_iterations).tune(source())
        baseline_run = run_program(
            build_variant(workload, "baseline", None, cache, source).program)
        tuned_run = run_program(tuned.best_program)
        base = baseline_run.cycles or 1
        khaos = build_variant(workload, KHAOS_LABEL, None, cache,
                              source).binary
        differ = BinDiff()
        return ([differ.diff(reference, tuned.best_binary).similarity_score
                 for reference in references],
                [differ.diff(reference, khaos).similarity_score
                 for reference in references],
                (tuned_run.cycles - base) / base)


def bintuner_shard_key(shard: BinTunerShard) -> Tuple:
    """The value-based store key of one figure-9 unit's rows.

    ``scripts/gc_store.py`` derives the unit's variants from it: the
    baseline, its opt-level references and the Khaos build.
    """
    workload, iterations = shard
    return ("fig9unit", variant_key(workload, "baseline", None),
            config_cache_key(obfuscator_for(KHAOS_LABEL)), iterations)


def measure_bintuner(workloads: Sequence[WorkloadProgram],
                     tuner_iterations: int = 6,
                     jobs: Optional[int] = None) -> BinTunerReport:
    """Figure 9's measurement loop.

    One unit per workload; an in-process run holds that workload's four
    opt-level references while it builds the O2 + LTO baseline and the
    Khaos build.  ``jobs > 1`` (or ``REPRO_JOBS``) fans the units across
    worker processes.  Rows come back per workload and opt level, bintuner
    before khaos, and the overhead geomean is taken in workload order, so
    the report is identical either way.
    """
    shards = shard_bintuner_matrix(workloads, tuner_iterations)
    keys = [bintuner_shard_key(shard) for shard in shards]
    results = run_matrix(_bintuner_shard, shards, keys, ("fig9", tuple(keys)),
                         jobs, None, 1)
    report = BinTunerReport()
    overheads: List[float] = []
    for workload, (bintuner_sims, khaos_sims, overhead) in zip(workloads,
                                                               results):
        for level, bintuner_sim, khaos_sim in zip(OPT_LEVELS, bintuner_sims,
                                                  khaos_sims):
            report.rows.append(SimilarityRow(
                program=workload.name, protection="bintuner",
                opt_level=level, similarity=bintuner_sim))
            report.rows.append(SimilarityRow(
                program=workload.name, protection="khaos",
                opt_level=level, similarity=khaos_sim))
        overheads.append(overhead)
    report.bintuner_overhead_percent = geometric_mean(overheads) * 100.0
    return report


def figure9(limit: Optional[int] = 4,
            tuner_iterations: int = 6,
            jobs: Optional[int] = None) -> BinTunerReport:
    """Figure 9 on a subset of SPECint 2006 + SPECspeed 2017 (``limit=None`` = all)."""
    workloads = default_programs()
    if limit is not None:
        workloads = workloads[:limit]
    return measure_bintuner(workloads, tuner_iterations=tuner_iterations,
                            jobs=jobs)
