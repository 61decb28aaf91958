"""Glue between workloads, obfuscators, the optimizer, the backend and the VM.

The evaluation drivers all follow the same build recipe the paper uses:
obfuscate at the IR level (Khaos middle-end passes or an O-LLVM baseline),
optimize "under O2 with link-time optimization", lower to a binary, and —
for the performance experiments — execute the program to count cycles.

The builders only read the program they are given, so one synthesized
program is the source of every variant of its workload: the baseline's
optimizer copies it, and each obfuscator links a private copy, which
:func:`build_obfuscated` then optimizes in place.  Every variant thus
costs one IR copy, and a variant built from a shared source is
bit-identical to one built from a fresh synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .backend.binary import Binary
from .backend.lowering import lower_program
from .baselines.ollvm import (bogus_obfuscator, flattening_obfuscator,
                              sub_obfuscator)
from .core.config import KhaosConfig, Mode
from .core.obfuscator import Khaos, ObfuscationResult
from .core.provenance import ProvenanceMap
from .core.stats import KhaosStats
from .ir.module import Program
from .opt.pass_manager import OptOptions
from .opt.pipelines import optimize_program
from .vm.machine import ExecutionResult, run_program

#: The obfuscation labels of Figures 7, 8 and 11, in presentation order.
BASELINE_LABELS = ("sub", "bog", "fla-10")
KHAOS_LABELS = ("fission", "fusion", "fufi.sep", "fufi.ori", "fufi.all")
ALL_LABELS = BASELINE_LABELS + KHAOS_LABELS


class KhaosVariant:
    """Adapter giving :class:`~repro.core.obfuscator.Khaos` a stable label."""

    def __init__(self, mode: str, seed: int = 0x5EED):
        self.label = mode
        self._khaos = Khaos(KhaosConfig(mode=mode, seed=seed))

    def obfuscate(self, program: Program, verify: bool = True) -> ObfuscationResult:
        return self._khaos.obfuscate(program, verify=verify)

    def cache_key(self) -> tuple:
        return self._khaos.cache_key()


def obfuscator_for(label: str, seed: int = 0x5EED,
                   flatten_ratio: float = 0.1):
    """Resolve an obfuscation label to an obfuscator object."""
    if label in Mode.ALL:
        return KhaosVariant(label, seed=seed)
    if label == "sub":
        return sub_obfuscator()
    if label == "bog":
        return bogus_obfuscator(ratio=0.3)
    if label == "fla":
        return flattening_obfuscator(ratio=1.0)
    if label.startswith("fla-"):
        return flattening_obfuscator(ratio=int(label.split("-", 1)[1]) / 100.0)
    raise KeyError(f"unknown obfuscation label {label!r}")


@dataclass
class BuildArtifact:
    """One compiled configuration of one program."""

    label: str
    program: Program                   # optimized IR (post middle-end)
    binary: Binary
    provenance: ProvenanceMap
    stats: Optional[KhaosStats] = None
    execution: Optional[ExecutionResult] = None

    @property
    def cycles(self) -> Optional[int]:
        return self.execution.cycles if self.execution is not None else None


def build_baseline(program: Program, options: Optional[OptOptions] = None,
                   run: bool = False) -> BuildArtifact:
    """Compile without obfuscation (the paper's O2 + LTO baseline)."""
    optimized = optimize_program(program, options)
    provenance = ProvenanceMap(
        f.name for f in optimized.modules[0].defined_functions())
    artifact = BuildArtifact(label="baseline", program=optimized,
                             binary=lower_program(optimized),
                             provenance=provenance)
    if run:
        artifact.execution = run_program(optimized)
    return artifact


def build_obfuscated(program: Program, obfuscator,
                     options: Optional[OptOptions] = None,
                     run: bool = False) -> BuildArtifact:
    """Obfuscate at the IR level, then compile like the baseline.

    ``program`` is only read: the obfuscator links its own copy, which no
    one else holds, so the optimizer works on that copy in place.
    """
    result = obfuscator.obfuscate(program)
    optimized = optimize_program(result.program, options, in_place=True)
    artifact = BuildArtifact(label=result.label, program=optimized,
                             binary=lower_program(optimized),
                             provenance=result.provenance,
                             stats=result.stats)
    if run:
        artifact.execution = run_program(optimized)
    return artifact


def build_all_variants(program_factory, labels: Sequence[str] = ALL_LABELS,
                       options: Optional[OptOptions] = None,
                       run: bool = False) -> Dict[str, BuildArtifact]:
    """Build the baseline plus every requested obfuscated variant.

    ``program_factory`` is called once: every variant is built from the one
    program it returns, which no build mutates (module docstring).
    """
    program = program_factory()
    artifacts = {"baseline": build_baseline(program, options, run=run)}
    for label in labels:
        artifacts[label] = build_obfuscated(program, obfuscator_for(label),
                                            options, run=run)
    return artifacts


def overhead_percent(baseline: BuildArtifact, variant: BuildArtifact) -> float:
    """Runtime overhead of ``variant`` relative to ``baseline`` in percent."""
    if baseline.execution is None or variant.execution is None:
        raise ValueError("both artifacts must be built with run=True")
    base = baseline.execution.cycles or 1
    return (variant.execution.cycles - base) / base * 100.0
