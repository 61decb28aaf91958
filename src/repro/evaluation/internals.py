"""Khaos internal statistics: Table 2.

The table reports, separately for SPEC CPU 2006, SPEC CPU 2017 and CoreUtils:

* fission ratio (#sepFuncs / #oriFuncs), average sepFunc size in basic blocks
  (#BB) and the reduction ratio of the split functions (RR);
* fusion ratio (fraction of candidates aggregated), parameters saved by the
  compression (#RP) and innocuous blocks per fused function (#HBB).

The statistics come from running the fission and fusion primitives
individually (no combination), exactly as the paper describes.  Those are
the ``fission`` and ``fusion`` variants of figures 6 and 7, whose
statistics the process-wide facts memo keeps
(:mod:`repro.evaluation.overhead`): a workload whose variant this process
already built is read off the memo, and only the others are obfuscated,
from one synthesis per workload.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.config import Mode
from ..core.stats import KhaosStats
from ..core.variant_cache import variant_key
from ..toolchain import KhaosVariant
from ..workloads.suites import (WorkloadProgram, coreutils_programs,
                                spec2006_programs, spec2017_programs)
from .overhead import _FACTS


@dataclass
class InternalsRow:
    suite: str
    fission_ratio: float
    avg_sepfunc_blocks: float
    reduction_ratio: float
    fusion_ratio: float
    avg_reduced_params: float
    avg_innocuous_blocks: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "Fission Ratio": self.fission_ratio,
            "#BB": self.avg_sepfunc_blocks,
            "RR": self.reduction_ratio,
            "Fusion Ratio": self.fusion_ratio,
            "#RP": self.avg_reduced_params,
            "#HBB": self.avg_innocuous_blocks,
        }


@dataclass
class InternalsReport:
    rows: Dict[str, InternalsRow] = field(default_factory=dict)

    def as_table(self) -> Dict[str, Dict[str, float]]:
        return {suite: row.as_dict() for suite, row in self.rows.items()}


def _khaos_stats(workload: WorkloadProgram, mode: str, seed: int,
                 source) -> KhaosStats:
    """The statistics of ``workload`` obfuscated under ``mode``: off the
    facts memo when this process built that variant, else obfuscated from
    ``source()``."""
    variant = KhaosVariant(mode, seed=seed)
    facts = _FACTS.get(variant_key(workload, variant))
    if facts is not None and facts.stats is not None:
        return facts.stats
    return variant.obfuscate(source()).stats


def measure_internals(workloads_by_suite: Dict[str, Sequence[WorkloadProgram]],
                      seed: int = 0x5EED) -> InternalsReport:
    report = InternalsReport()
    for suite, workloads in workloads_by_suite.items():
        fission_ratios: List[float] = []
        sepfunc_blocks: List[float] = []
        reductions: List[float] = []
        fusion_ratios: List[float] = []
        reduced_params: List[float] = []
        innocuous: List[float] = []

        for workload in workloads:
            # each obfuscation links its own copy of the one synthesis
            source = functools.cache(workload.build)
            fission = _khaos_stats(workload, Mode.FISSION, seed, source).fission
            fusion = _khaos_stats(workload, Mode.FUSION, seed, source).fusion
            fission_ratios.append(fission.ratio)
            sepfunc_blocks.append(fission.avg_sepfunc_blocks)
            reductions.append(fission.reduction_ratio)
            fusion_ratios.append(fusion.ratio)
            reduced_params.append(fusion.avg_reduced_params)
            innocuous.append(fusion.avg_innocuous_blocks)

        def mean(values: List[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        report.rows[suite] = InternalsRow(
            suite=suite,
            fission_ratio=mean(fission_ratios),
            avg_sepfunc_blocks=mean(sepfunc_blocks),
            reduction_ratio=mean(reductions),
            fusion_ratio=mean(fusion_ratios),
            avg_reduced_params=mean(reduced_params),
            avg_innocuous_blocks=mean(innocuous))
    return report


def table2(limit: Optional[int] = 5) -> InternalsReport:
    """Table 2 over (a subset of) SPEC 2006, SPEC 2017 and CoreUtils."""
    def cut(workloads: List[WorkloadProgram]) -> List[WorkloadProgram]:
        return workloads if limit is None else workloads[:limit]

    return measure_internals({
        "SPEC CPU 2006": cut(spec2006_programs()),
        "SPEC CPU 2017": cut(spec2017_programs()),
        "CoreUtils": cut(coreutils_programs()),
    })
