"""Runtime-overhead experiments: Figure 6 and Figure 7.

Figure 6 reports the per-program runtime overhead of the five Khaos variants
on SPEC CPU 2006 and 2017; Figure 7 compares their geometric means against
the O-LLVM baselines (Sub, Bog, Fla, Fla-10).  Here "runtime" is the dynamic
cycle count of the interpreter (see DESIGN.md for the substitution), so the
columns are directly comparable between baseline and obfuscated builds.

The matrix runs as one unit per workload (:func:`shard_overhead_matrix`) on
the engine every figure shares (:func:`~repro.evaluation.checkpoint.run_matrix`).
A unit reads its baseline's and every label's cycles through the process-wide
*facts memo*: for each :func:`~repro.core.variant_cache.variant_key` it keeps
what the figures read off that variant — its opcode histogram, a Khaos
variant's statistics (table 2's) and, once it has run, its cycles and
observable output — but never its IR or binary.  A
unit builds a variant and runs it in the VM only when the memo lacks it or
holds only its histogram, then drops it, so figures 6, 7 and 11 in one
process build and run each distinct variant once.  The memo grows only with
the number of distinct keys, forked children start with it empty, and
:func:`clear_variant_facts` empties it.  Every unit checks that each label
prints what its baseline prints (:class:`SemanticsMismatch`).

A unit builds all its variants from one *source*, ``functools.cache(
workload.build)``: the workload is synthesized on the unit's first build
and never when every variant comes from the memo, a caller's cache or the
store.  The source lives as long as its unit (a worker synthesizes its
own), and no build writes it (:mod:`repro.toolchain`).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backend.disassembler import opcode_histogram
from ..core.stats import KhaosStats
from ..core.variant_cache import VariantCache, variant_key
from ..ir.module import Program
from ..obs import metrics as obs_metrics
from ..opt.pass_manager import OptOptions
from ..toolchain import (KHAOS_LABELS, build_baseline, build_obfuscated,
                         obfuscator_for)
from ..utils import geometric_mean
from ..vm.batch import VMBatch
from ..workloads.suites import WorkloadProgram, spec2006_programs, spec2017_programs
from .checkpoint import run_matrix


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


class SemanticsMismatch(RuntimeError):
    """A variant's observable output differs from its baseline's: the
    obfuscation changed what the program computes, so its overhead would
    measure a different program."""

    def __init__(self, workload: str, label: str, baseline: object,
                 variant: object):
        super().__init__(f"{workload}: the {label!r} variant prints "
                         f"{variant!r}, its baseline {baseline!r}")
        self.workload = workload
        self.label = label
        self.baseline = baseline
        self.variant = variant

    def __reduce__(self):
        # rebuilt from the fields, not ``args``, when a worker raises it
        return (type(self),
                (self.workload, self.label, self.baseline, self.variant))


#: A workload's program on demand; the builds only read what it returns.
Source = Callable[[], Program]


def _recipe(workload: WorkloadProgram, label: str,
            options: Optional[OptOptions], source: Optional[Source] = None
            ) -> Tuple[Tuple, Callable[[], object]]:
    """The variant key of ``(workload, label, options)`` and its builder,
    which builds from ``source()`` (default: a fresh synthesis)."""
    source = source or workload.build
    if label == "baseline":
        key_source = "baseline"
        builder = lambda: build_baseline(source(), options)  # noqa: E731
    else:
        key_source = obfuscator_for(label)
        builder = lambda: build_obfuscated(  # noqa: E731
            source(), key_source, options)

    def counted_builder():
        # counts only *fresh* builds, not a caller's cache hits
        obs_metrics.counter("build.variants")
        return builder()

    return variant_key(workload, key_source, options), counted_builder


def build_variant(workload: WorkloadProgram, label: str,
                  options: Optional[OptOptions] = None,
                  cache: Optional[VariantCache] = None,
                  source: Optional[Source] = None):
    """Build one variant of ``workload``, through ``cache`` when given.

    ``label`` is either ``"baseline"`` or an obfuscation label understood by
    :func:`~repro.toolchain.obfuscator_for`.  A fresh build starts from
    ``source()`` — a unit passes one memoised source to all its builds
    (module docstring) — or, without one, from a fresh synthesis.  Builds
    are deterministic, so a memoised artifact is bit-identical to a fresh
    build; memoised artifacts are shared and must not be mutated (execute /
    diff / read only).
    """
    key, builder = _recipe(workload, label, options, source)
    if cache is None:
        return builder()
    return cache.get_or_build(key, builder)


@dataclass
class _Facts:
    """What the figures read off one variant: never its IR or binary."""

    histogram: Dict[str, int]
    cycles: Optional[int] = None
    observable: Optional[Tuple] = None
    stats: Optional[KhaosStats] = None  # a Khaos variant's, for table 2


#: Variant key -> facts, for every variant this process has built.
_FACTS: Dict[Tuple, _Facts] = {}


def clear_variant_facts() -> None:
    """Forget every variant's facts, so the next figure builds (and runs)
    its variants again — for tests and benchmarks that exercise a cache or
    a store, or time builds."""
    _FACTS.clear()


if hasattr(os, "register_at_fork"):
    # a pool worker measures its units itself, never from its parent's memo
    os.register_at_fork(after_in_child=clear_variant_facts)


def _variant_facts(workload: WorkloadProgram, label: str,
                   options: Optional[OptOptions] = None,
                   cache: Optional[VariantCache] = None,
                   run: bool = False,
                   source: Optional[Source] = None) -> _Facts:
    """The memoised facts of one variant; with ``run``, its cycles too.

    Builds the variant (through ``cache`` when given, from ``source``) only
    when the memo lacks it or, with ``run``, holds only its histogram; the
    memo keeps nothing of the artifact itself.
    """
    key, builder = _recipe(workload, label, options, source)
    facts = _FACTS.get(key)
    if facts is not None and (not run or facts.cycles is not None):
        return facts
    artifact = builder() if cache is None else cache.get_or_build(key, builder)
    if facts is None:
        facts = _FACTS[key] = _Facts(opcode_histogram(artifact.binary),
                                     stats=artifact.stats)
    if run:
        result = VMBatch().run(artifact.program)
        facts.cycles = result.cycles
        facts.observable = result.observable()
    return facts


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


def _overhead_shard(shard: OverheadShard, cache=None) -> List[OverheadRow]:
    """One workload's rows (the engine's unit function)."""
    workload, labels, options = shard
    source = functools.cache(workload.build)
    baseline = _variant_facts(workload, "baseline", options, cache,
                              run=True, source=source)
    rows = []
    for label in labels:
        facts = _variant_facts(workload, label, options, cache, run=True,
                               source=source)
        if facts.observable != baseline.observable:
            raise SemanticsMismatch(workload.name, label,
                                    baseline.observable, facts.observable)
        rows.append(OverheadRow(
            program=workload.name, suite=workload.suite, label=label,
            baseline_cycles=baseline.cycles, cycles=facts.cycles))
    return rows


def measure_overhead(workloads: Sequence[WorkloadProgram],
                     labels: Sequence[str] = KHAOS_LABELS,
                     options: Optional[OptOptions] = None,
                     cache: Optional[VariantCache] = None,
                     jobs: Optional[int] = None) -> OverheadReport:
    """Run every workload under the baseline and each obfuscation label.

    A variant whose cycles this process already measured (figures 6 and 7
    share theirs) is neither built nor run again: its row comes from the
    facts memo (module docstring).  Every other variant is built — through
    ``cache`` when given, so variants built by an earlier experiment skip
    obfuscate → optimize → lower — and executed once.  Without a cache, a
    unit holds its source program and one variant at a time, the one being
    measured.  ``jobs > 1`` (or ``REPRO_JOBS``) fans the units across
    worker processes, which start with an empty memo; rows are identical
    either way (see :func:`~repro.evaluation.checkpoint.run_matrix`).
    Raises :class:`SemanticsMismatch` when a variant prints something
    other than its baseline.
    """
    shards = shard_overhead_matrix(workloads, labels, options)
    keys = [("fig67shard", variant_key(workload, "baseline", options),
             tuple(labels)) for workload in workloads]
    report = OverheadReport()
    for rows in run_matrix(_overhead_shard, shards, keys, jobs, cache):
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
