"""Opcode histogram distance experiment: Figure 11.

The paper disassembles every binary (objdump), builds opcode histograms and
reports, per program, the vector distance between the original and each
obfuscated binary, normalised by the largest distance observed for that
program.  FuFi.all is expected to have the largest distance, followed by
FuFi.sep and FuFi.ori.

The histograms of the baseline and of every label but BinTuner come from
the facts memo of :mod:`repro.evaluation.overhead`, which builds each
variant through :func:`~repro.evaluation.overhead.build_variant` only when
no earlier experiment in this process (figures 6 and 7 share the variants)
has built it.  BinTuner's label is a tuning result, not a variant key: it is
tuned afresh on every call.  Each workload is synthesized at most once per
call, for every build and the tuning alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..backend.disassembler import normalised_distances, opcode_histogram
from ..baselines.bintuner import BinTuner
from ..opt.pass_manager import OptOptions
from ..workloads.suites import WorkloadProgram, spec2006_programs, spec2017_programs
from .overhead import _variant_facts

DISTANCE_LABELS = ("sub", "bog", "fla-10", "bintuner", "fission", "fusion",
                   "fufi.sep", "fufi.ori", "fufi.all")


@dataclass
class DistanceReport:
    # program -> label -> normalised distance
    distances: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def labels(self) -> List[str]:
        seen: List[str] = []
        for per_program in self.distances.values():
            for label in per_program:
                if label not in seen:
                    seen.append(label)
        return seen

    def average(self, label: str) -> float:
        values = [per_program[label] for per_program in self.distances.values()
                  if label in per_program]
        if not values:
            return 0.0
        return sum(values) / len(values)


def measure_opcode_distance(workloads: Sequence[WorkloadProgram],
                            labels: Sequence[str] = DISTANCE_LABELS,
                            options: Optional[OptOptions] = None,
                            tuner_iterations: int = 4) -> DistanceReport:
    report = DistanceReport()
    for workload in workloads:
        source = functools.cache(workload.build)
        baseline = _variant_facts(workload, "baseline", options,
                                  source=source).histogram
        obfuscated = {}
        for label in labels:
            if label == "bintuner":
                tuner = BinTuner(iterations=tuner_iterations)
                obfuscated[label] = opcode_histogram(
                    tuner.tune(source()).best_binary)
            else:
                obfuscated[label] = _variant_facts(workload, label, options,
                                                   source=source).histogram
        report.distances[workload.name] = normalised_distances(
            baseline, obfuscated)
    return report


def figure11(limit: Optional[int] = 6,
             options: Optional[OptOptions] = None) -> DistanceReport:
    """Figure 11 on a subset of T-I (``limit=None`` reproduces the full figure)."""
    workloads = spec2006_programs() + spec2017_programs()
    if limit is not None:
        workloads = workloads[:limit]
    return measure_opcode_distance(workloads, options=options)
