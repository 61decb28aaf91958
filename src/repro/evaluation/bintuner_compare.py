"""Compiler-option comparison: Figure 9 (BinDiff similarity, BinTuner vs Khaos).

Following section 4.2 ("Compared with compiler options"), BinTuner iteratively
searches compiler options against an O0 baseline, Khaos uses FuFi.all on the
standard O2 + LTO build, and both resulting binaries are compared by BinDiff
against the program compiled at O0, O1, O2 and O3.  The paper additionally
reports BinTuner's runtime overhead against the O2 + LTO baseline (30.35%).

The unit is the binary pair, one per (workload, protection): its row value
is the whole-binary similarity score, and its dominant cost is the BinTuner
option search rather than any single diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..baselines.bintuner import BinTuner
from ..core.variant_cache import variant_key
from ..diffing.bindiff import BinDiff
from ..obs import tracing as obs_tracing
from ..opt.pass_manager import OptOptions
from ..opt.pipelines import optimize_program
from ..utils import geometric_mean
from ..vm.machine import run_program
from ..workloads.suites import (SPECINT_2006, SPECSPEED_2017, WorkloadProgram,
                                find_program)
from .checkpoint import run_matrix
from .executor import worker_cache
from .overhead import build_variant

OPT_LEVELS = (0, 1, 2, 3)


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


#: One figure-9 unit: a workload's binary under one protection scheme,
#: diffed against every opt-level reference.
BinTunerShard = Tuple[WorkloadProgram, str, int]


def shard_bintuner_matrix(workloads: Sequence[WorkloadProgram],
                          tuner_iterations: int) -> List[BinTunerShard]:
    """One unit per (workload, protection), bintuner before khaos."""
    return [(workload, protection, tuner_iterations)
            for workload in workloads
            for protection in ("bintuner", "khaos")]


def _bintuner_shard(shard: BinTunerShard, cache=None
                    ) -> Tuple[List[float], Optional[float]]:
    """Diff one protection scheme's binary against every opt-level reference.

    The opt-level references and the Khaos build are store-keyed variants;
    the BinTuner search is seeded, so the tuned binary is deterministic per
    (workload, iterations).  Returns the four similarity scores in
    :data:`OPT_LEVELS` order plus, for the ``bintuner`` unit, the
    runtime-overhead factor against the O2 + LTO baseline.
    """
    workload, protection, tuner_iterations = shard
    cache = cache if cache is not None else worker_cache()
    with obs_tracing.span("shard.fig9", cat="diff", workload=workload.name,
                          protection=protection):
        references = [build_variant(workload, "baseline",
                                    OptOptions(level=level, lto=level >= 2),
                                    cache).binary
                      for level in OPT_LEVELS]
        overhead: Optional[float] = None
        if protection == "bintuner":
            tuned = BinTuner(iterations=tuner_iterations).tune(workload.build())
            target = tuned.best_binary
            baseline_run = run_program(
                build_variant(workload, "baseline", None, cache).program)
            tuned_run = run_program(optimize_program(workload.build(),
                                                     tuned.best_options))
            base = baseline_run.cycles or 1
            overhead = (tuned_run.cycles - base) / base
        else:
            target = build_variant(workload, "fufi.all", None, cache).binary
        differ = BinDiff()
        return ([differ.diff(reference, target).similarity_score
                 for reference in references], overhead)


def bintuner_shard_key(shard: BinTunerShard) -> Tuple:
    """The value-based checkpoint identity of one figure-9 unit."""
    workload, protection, iterations = shard
    return ("fig9shard", variant_key(workload, "baseline", None),
            protection, iterations)


def measure_bintuner(workloads: Sequence[WorkloadProgram],
                     tuner_iterations: int = 6,
                     jobs: Optional[int] = None) -> BinTunerReport:
    """Figure 9's measurement loop.

    An in-process run holds one workload's six variants at a time (the
    four opt-level references, the O2 + LTO baseline and the Khaos build).
    ``jobs > 1`` (or ``REPRO_JOBS``) fans the units across worker
    processes.  Rows come back per workload and opt level, bintuner before
    khaos, and the overhead geomean is taken in workload order, so the
    report is identical either way.
    """
    shards = shard_bintuner_matrix(workloads, tuner_iterations)
    keys = [bintuner_shard_key(shard) for shard in shards]
    results = run_matrix(_bintuner_shard, shards, keys, ("fig9", tuple(keys)),
                         jobs, None, 6)
    report = BinTunerReport()
    overheads: List[float] = []
    for position, workload in enumerate(workloads):
        bintuner_sims, overhead = results[2 * position]
        khaos_sims, _ = results[2 * position + 1]
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
