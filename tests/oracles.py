"""Reference implementations for differential tests.

Each figure 6–11 oracle computes a report cell by cell the plain way —
build, execute or diff the whole binary pair, read the answer — with no
units, no cache, no facts memo, no executor and no store, so it is
unaffected by ``REPRO_STORE_DIR``, ``REPRO_JOBS``, a journal or what an
earlier experiment measured.  The ``measure_*`` drivers must reproduce
these reports row for row.

:class:`FixedPointSimplifyCFG` is the reference semantics of the
incremental :class:`~repro.opt.simplify_cfg.SimplifyCFG`,
:func:`deepbindiff` the all-pairs block vote that DeepBinDiff's pruned
vote must reproduce, and :func:`add_scaled_fold` the vector-at-a-time sum
that :func:`~repro.diffing.features.weighted_sum` must reproduce.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import List, Optional, Sequence

from repro.analysis.manager import AnalysisManager
from repro.backend.disassembler import normalised_distances, opcode_histogram
from repro.baselines.bintuner import BinTuner
from repro.diffing import all_differs, precision_at_1
from repro.diffing.base import DiffResult
from repro.diffing.bindiff import BinDiff
from repro.diffing.deepbindiff import DeepBinDiff
from repro.diffing.features import vector_similarity
from repro.evaluation.bintuner_compare import (OPT_LEVELS, BinTunerReport,
                                               SimilarityRow)
from repro.evaluation.escape import EscapeReport, EscapeRow, escape_differs
from repro.evaluation.opcode_distance import DISTANCE_LABELS, DistanceReport
from repro.evaluation.overhead import OverheadReport, OverheadRow, build_variant
from repro.evaluation.precision import PrecisionReport, PrecisionRow
from repro.ir.instructions import Branch
from repro.opt.pass_manager import OptOptions
from repro.opt.pipelines import optimize_program
from repro.opt.simplify_cfg import SimplifyCFG, _retarget_terminator
from repro.toolchain import build_baseline, build_obfuscated, obfuscator_for
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


def opcode_distance(workloads, labels: Sequence[str] = DISTANCE_LABELS,
                    options: Optional[OptOptions] = None,
                    tuner_iterations: int = 4) -> DistanceReport:
    """Figure 11: every binary built afresh, its opcode histogram's distance
    to the baseline's, normalised per program."""
    report = DistanceReport()
    for workload in workloads:
        baseline = build_baseline(workload.build(), options)
        obfuscated = {}
        for label in labels:
            if label == "bintuner":
                tuner = BinTuner(iterations=tuner_iterations)
                binary = tuner.tune(workload.build()).best_binary
            else:
                binary = build_obfuscated(workload.build(),
                                          obfuscator_for(label),
                                          options).binary
            obfuscated[label] = opcode_histogram(binary)
        report.distances[workload.name] = normalised_distances(
            opcode_histogram(baseline.binary), obfuscated)
    return report


def deepbindiff_top(source_vector, target_items, k: int):
    """One source block's top k ``(score, target function)``: every target
    block scored with ``vector_similarity``, picked by a stable
    ``heapq.nlargest`` over ``target_items`` (``((function, label),
    vector)`` in block order), so ties go to the earlier target."""
    return heapq.nlargest(
        k, ((vector_similarity(source_vector, target_vector), target_function)
            for (target_function, _label), target_vector in target_items),
        key=itemgetter(0))


def deepbindiff_votes(source_blocks, target_blocks, k: int, sharpness: int):
    """DeepBinDiff's all-pairs block vote over two block-embedding maps."""
    target_items = list(target_blocks.items())
    votes = {}
    for (source_function, _label), source_vector in source_blocks.items():
        bucket = votes.setdefault(source_function, {})
        for score, target_function in deepbindiff_top(source_vector,
                                                      target_items, k):
            bucket[target_function] = (bucket.get(target_function, 0.0)
                                       + score ** sharpness)
    return votes


def deepbindiff(differ: DeepBinDiff, original, obfuscated) -> DiffResult:
    """DeepBinDiff's ``diff()`` with the all-pairs vote over per-diff
    block embeddings."""
    votes = deepbindiff_votes(differ.block_embeddings(original, None),
                              differ.block_embeddings(obfuscated, None),
                              differ.max_block_candidates,
                              differ.vote_sharpness)
    return differ.rank_votes(votes, original, obfuscated)


def add_scaled_fold(vectors, weights, start=None) -> List[float]:
    """Add each ``weight · vector`` into a zero vector (or a copy of
    ``start``) one vector at a time, as ``t + s`` when the weight is 1.0."""
    total = list(start) if start is not None else [0.0] * len(vectors[0])
    for vector, weight in zip(vectors, weights):
        if weight == 1.0:
            total = [t + s for t, s in zip(total, vector)]
        else:
            total = [t + weight * s for t, s in zip(total, vector)]
    return total


class FixedPointSimplifyCFG(SimplifyCFG):
    """SimplifyCFG the plain way: re-fetch the CFG after every rewrite.

    Each round removes unreachable blocks, else merges one straight-line
    pair, else skips one forwarding block, invalidating the analyses after
    every change, until a round changes nothing.  The incremental pass must
    reach the same normal form block for block.
    """

    def run_on_function(self, function, analyses=None) -> bool:
        analyses = analyses if analyses is not None else AnalysisManager()
        changed = False
        while (self._remove_unreachable(function, analyses)
               or self._merge_straight_line(function, analyses)
               or self._skip_forwarding_block(function, analyses)):
            changed = True
        return changed

    @staticmethod
    def _remove_unreachable(function, analyses) -> bool:
        dead = analyses.cfg(function).unreachable_blocks()
        for block in dead:
            function.remove_block(block)
        if dead:
            analyses.invalidate(function)
        return bool(dead)

    @staticmethod
    def _merge_straight_line(function, analyses) -> bool:
        cfg = analyses.cfg(function)
        for block in function.blocks:
            succs = cfg.successors.get(block, [])
            if len(succs) != 1:
                continue
            succ = succs[0]
            if succ is function.entry_block or succ is block:
                continue
            if len(cfg.predecessors.get(succ, [])) != 1:
                continue
            block.remove(block.terminator)
            for inst in list(succ.instructions):
                succ.remove(inst)
                block.append(inst)
            function.remove_block(succ)
            analyses.invalidate(function)
            return True
        return False

    @staticmethod
    def _skip_forwarding_block(function, analyses) -> bool:
        for block in function.blocks:
            if block is function.entry_block:
                continue
            if len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, Branch) or term.target is block:
                continue
            for other in function.blocks:
                _retarget_terminator(other.terminator, block, term.target)
            function.remove_block(block)
            analyses.invalidate(function)
            return True
        return False
