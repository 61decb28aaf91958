"""Runtime-overhead experiments: Figure 6 and Figure 7.

Figure 6 reports the per-program runtime overhead of the five Khaos variants
on SPEC CPU 2006 and 2017; Figure 7 compares their geometric means against
the O-LLVM baselines (Sub, Bog, Fla, Fla-10).  Here "runtime" is the dynamic
cycle count of the interpreter (see DESIGN.md for the substitution), so the
columns are directly comparable between baseline and obfuscated builds.

The matrix runs as one unit per workload (:func:`shard_overhead_matrix`),
each unit measuring its baseline and every label through a
:class:`ShardBatch`, on the engine every figure shares
(:func:`~repro.evaluation.checkpoint.run_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.variant_cache import VariantCache, variant_key
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..opt.pass_manager import OptOptions
from ..toolchain import (KHAOS_LABELS, build_baseline, build_obfuscated,
                         obfuscator_for)
from ..utils import geometric_mean
from ..vm.batch import VMBatch
from ..vm.machine import ExecutionResult
from ..workloads.suites import WorkloadProgram, spec2006_programs, spec2017_programs
from .checkpoint import run_matrix
from .executor import worker_cache


@dataclass
class OverheadRow:
    program: str
    suite: str
    label: str
    baseline_cycles: int
    cycles: int

    @property
    def overhead_percent(self) -> float:
        base = self.baseline_cycles or 1
        return (self.cycles - base) / base * 100.0


@dataclass
class OverheadReport:
    rows: List[OverheadRow] = field(default_factory=list)

    def labels(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.label not in seen:
                seen.append(row.label)
        return seen

    def programs(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.program not in seen:
                seen.append(row.program)
        return seen

    def overhead(self, program: str, label: str) -> Optional[float]:
        for row in self.rows:
            if row.program == program and row.label == label:
                return row.overhead_percent
        return None

    def geomean(self, label: str, suite: Optional[str] = None) -> float:
        values = [row.overhead_percent / 100.0 for row in self.rows
                  if row.label == label and (suite is None or row.suite == suite)]
        return geometric_mean(values) * 100.0


def build_variant(workload: WorkloadProgram, label: str,
                  options: Optional[OptOptions] = None,
                  cache: Optional[VariantCache] = None):
    """Build one variant of ``workload``, through ``cache`` when given.

    ``label`` is either ``"baseline"`` or an obfuscation label understood by
    :func:`~repro.toolchain.obfuscator_for`.  Builds are deterministic, so a
    cached artifact is bit-identical to a fresh build; cached artifacts are
    shared and must not be mutated (execute / diff / read only).
    """
    if label == "baseline":
        key_source = "baseline"
        builder = lambda: build_baseline(workload.build(), options)  # noqa: E731
    else:
        key_source = obfuscator_for(label)
        builder = lambda: build_obfuscated(  # noqa: E731
            workload.build(), key_source, options)

    def traced_builder():
        # the span covers only *fresh* builds — cache/store hits are already
        # visible as store.read spans and store.*_hits counters
        with obs_tracing.span("build.variant", cat="build",
                              workload=workload.name, label=label):
            artifact = builder()
        obs_metrics.counter("build.variants")
        return artifact

    if cache is None:
        return traced_builder()
    return cache.get_or_build(variant_key(workload, key_source, options),
                              traced_builder)


#: One unit of the matrix: a workload with its full label row.
OverheadShard = Tuple[WorkloadProgram, Tuple[str, ...], Optional[OptOptions]]


def shard_overhead_matrix(workloads: Sequence[WorkloadProgram],
                          labels: Sequence[str],
                          options: Optional[OptOptions] = None
                          ) -> List[OverheadShard]:
    """Deterministic partitioning of the (program × label) matrix.

    One unit per workload, in the caller's workload order; every unit
    carries the whole label tuple, so a workload's builds never spread
    across workers and its baseline runs once for every row.
    """
    return [(workload, tuple(labels), options) for workload in workloads]


class ShardBatch:
    """One unit's VM measurements against one cache.

    Builds go through ``cache`` and every execution routes through
    :meth:`VMBatch.run_many`: one interpreter per variant, one run with no
    inputs — what the figures measure.
    """

    def __init__(self, workload: WorkloadProgram,
                 options: Optional[OptOptions], cache):
        self.workload = workload
        self.options = options
        self.cache = cache
        self.vm = VMBatch()

    def execute(self, label: str) -> ExecutionResult:
        """Build (or fetch) the ``label`` variant and run it once."""
        artifact = build_variant(self.workload, label, self.options,
                                 self.cache)
        with obs_tracing.span("vm.measure", cat="measure",
                              workload=self.workload.name, label=label):
            return self.vm.run(artifact.program)

    def rows(self, labels: Sequence[str]) -> List[OverheadRow]:
        baseline_cycles = self.execute("baseline").cycles
        return [OverheadRow(program=self.workload.name,
                            suite=self.workload.suite, label=label,
                            baseline_cycles=baseline_cycles,
                            cycles=self.execute(label).cycles)
                for label in labels]


def _overhead_shard(shard: OverheadShard, cache=None) -> List[OverheadRow]:
    """One workload's rows (the engine's unit function)."""
    workload, labels, options = shard
    with obs_tracing.span("shard.fig67", cat="measure",
                          workload=workload.name, labels=len(labels)):
        batch = ShardBatch(workload, options,
                           cache if cache is not None else worker_cache())
        return batch.rows(labels)


def measure_overhead(workloads: Sequence[WorkloadProgram],
                     labels: Sequence[str] = KHAOS_LABELS,
                     options: Optional[OptOptions] = None,
                     cache: Optional[VariantCache] = None,
                     jobs: Optional[int] = None) -> OverheadReport:
    """Run every workload under the baseline and each obfuscation label.

    Passing a :class:`~repro.core.variant_cache.VariantCache` skips the build
    phase (obfuscate → optimize → lower) for variants already built by an
    earlier experiment; the VM measurement still executes every variant.
    Without one, an in-process run holds at most two variants (the baseline
    and the label being measured).  ``jobs > 1`` (or ``REPRO_JOBS``) fans
    the units across worker processes; rows are identical either way (see
    :func:`~repro.evaluation.checkpoint.run_matrix`).
    """
    shards = shard_overhead_matrix(workloads, labels, options)
    keys = [("fig67shard", variant_key(workload, "baseline", options),
             tuple(labels)) for workload in workloads]
    report = OverheadReport()
    for rows in run_matrix(_overhead_shard, shards, keys,
                           ("fig67", tuple(keys)), jobs, cache, 2):
        report.rows.extend(rows)
    return report


def figure6(limit: Optional[int] = None,
            options: Optional[OptOptions] = None,
            cache: Optional[VariantCache] = None,
            jobs: Optional[int] = None) -> OverheadReport:
    """Figure 6: Khaos overhead on the SPEC CPU 2006/2017 programs."""
    workloads = spec2006_programs() + spec2017_programs()
    if limit is not None:
        workloads = workloads[:limit]
    return measure_overhead(workloads, KHAOS_LABELS, options, cache,
                            jobs=jobs)


def figure7(limit: Optional[int] = None,
            options: Optional[OptOptions] = None,
            cache: Optional[VariantCache] = None,
            jobs: Optional[int] = None) -> OverheadReport:
    """Figure 7: O-LLVM (Sub/Bog/Fla/Fla-10) vs Khaos overhead."""
    workloads = spec2006_programs() + spec2017_programs()
    if limit is not None:
        workloads = workloads[:limit]
    labels = ("sub", "bog", "fla", "fla-10") + tuple(KHAOS_LABELS)
    return measure_overhead(workloads, labels, options, cache, jobs=jobs)
