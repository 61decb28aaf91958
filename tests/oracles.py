"""Reference implementations of the figure 6–10 cells, for differential tests.

Each oracle computes a report cell by cell the plain way — build, execute
or diff the whole binary pair, read the answer — with no units, no cache,
no executor and no store, so it is unaffected by ``REPRO_STORE_DIR``,
``REPRO_JOBS`` or a journal.  The ``measure_*`` drivers must reproduce
these reports row for row.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.bintuner import BinTuner
from repro.diffing import all_differs, precision_at_1
from repro.diffing.bindiff import BinDiff
from repro.evaluation.bintuner_compare import (OPT_LEVELS, BinTunerReport,
                                               SimilarityRow)
from repro.evaluation.escape import EscapeReport, EscapeRow, escape_differs
from repro.evaluation.overhead import OverheadReport, OverheadRow, build_variant
from repro.evaluation.precision import PrecisionReport, PrecisionRow
from repro.opt.pass_manager import OptOptions
from repro.opt.pipelines import optimize_program
from repro.utils import geometric_mean
from repro.vm.machine import run_program


def overhead(workloads, labels: Sequence[str],
             options: Optional[OptOptions] = None) -> OverheadReport:
    """Figures 6/7: the cycles of every variant against its baseline's."""
    report = OverheadReport()
    for workload in workloads:
        baseline = run_program(build_variant(workload, "baseline",
                                             options).program).cycles
        for label in labels:
            cycles = run_program(build_variant(workload, label,
                                               options).program).cycles
            report.rows.append(OverheadRow(
                program=workload.name, suite=workload.suite, label=label,
                baseline_cycles=baseline, cycles=cycles))
    return report


def _pairs(workloads, labels, differs, options):
    for workload in workloads:
        baseline = build_variant(workload, "baseline", options)
        for label in labels:
            variant = build_variant(workload, label, options)
            for differ in differs:
                yield (workload, label, differ, baseline, variant,
                       differ.diff(baseline.binary, variant.binary))


def precision(workloads, labels: Sequence[str], differs=None,
              options: Optional[OptOptions] = None) -> PrecisionReport:
    """Figure 8: Precision@1 of one whole-binary ``diff()`` per cell."""
    report = PrecisionReport()
    differs = list(differs) if differs is not None else all_differs()
    for workload, label, differ, baseline, variant, result in _pairs(
            workloads, labels, differs, options):
        report.rows.append(PrecisionRow(
            program=workload.name, suite=workload.suite, tool=differ.name,
            label=label,
            precision=precision_at_1(
                result, variant.provenance,
                [f.name for f in baseline.binary.functions]),
            similarity_score=result.similarity_score))
    return report


def escape(workloads, labels: Sequence[str], differs=None,
           options: Optional[OptOptions] = None) -> EscapeReport:
    """Figure 10: the rank of each vulnerable function's correct match."""
    report = EscapeReport()
    differs = list(differs) if differs is not None else escape_differs()
    vulnerable = [w for w in workloads if w.vulnerable_functions]
    for workload, label, differ, _baseline, variant, result in _pairs(
            vulnerable, labels, differs, options):
        for name in workload.vulnerable_functions:
            if name in result.matches:
                report.rows.append(EscapeRow(
                    program=workload.name, function=name, tool=differ.name,
                    label=label,
                    rank_of_correct=result.rank_of_correct(
                        name, variant.provenance)))
    return report


def bintuner(workloads, tuner_iterations: int) -> BinTunerReport:
    """Figure 9: tune, obfuscate and diff each workload against O0–O3."""
    report = BinTunerReport()
    overheads = []
    differ = BinDiff()
    for workload in workloads:
        tuned = BinTuner(iterations=tuner_iterations).tune(workload.build())
        khaos = build_variant(workload, "fufi.all").binary
        for level in OPT_LEVELS:
            reference = build_variant(
                workload, "baseline",
                OptOptions(level=level, lto=level >= 2)).binary
            for protection, target in (("bintuner", tuned.best_binary),
                                       ("khaos", khaos)):
                report.rows.append(SimilarityRow(
                    program=workload.name, protection=protection,
                    opt_level=level,
                    similarity=differ.diff(reference,
                                           target).similarity_score))
        base = run_program(optimize_program(workload.build(),
                                            OptOptions())).cycles or 1
        tuned_cycles = run_program(optimize_program(
            workload.build(), tuned.best_options)).cycles
        overheads.append((tuned_cycles - base) / base)
    report.bintuner_overhead_percent = geometric_mean(overheads) * 100.0
    return report
