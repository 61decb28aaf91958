"""Driver presenting the O-LLVM baselines with the same interface as Khaos.

The paper compares Khaos against the three O-LLVM obfuscations — instruction
substitution (*Sub*), bogus control flow (*Bog*) and control-flow flattening
(*Fla*, also evaluated at a 10% ratio as *Fla-10*).  Each driver clones and
links the input program, applies the corresponding pass and returns an
:class:`~repro.core.obfuscator.ObfuscationResult` whose provenance is the
identity map (intra-procedural obfuscation never changes the function set).
"""

from __future__ import annotations

from typing import List

from ..analysis.manager import AnalysisManager
from ..core.obfuscator import ObfuscationResult, assert_valid
from ..core.provenance import ProvenanceMap
from ..core.stats import KhaosStats
from ..ir.module import Program
from ..obs import layer
from ..opt.pass_manager import Pass
from .bogus_cfg import BogusControlFlow
from .flattening import ControlFlowFlattening
from .substitution import InstructionSubstitution


class OLLVMObfuscator:
    """Applies one O-LLVM obfuscation to a program."""

    def __init__(self, label: str, passes: List[Pass]):
        self.label = label
        self.passes = passes

    def cache_key(self) -> tuple:
        """Identity of this obfuscator for :class:`~repro.core.variant_cache.VariantCache`."""
        return ("ollvm", self.label, tuple(
            (pass_.name, getattr(pass_, "ratio", None),
             getattr(pass_, "seed", None))
            for pass_ in self.passes))

    @layer("baselines.ollvm")
    def obfuscate(self, program: Program, verify: bool = True) -> ObfuscationResult:
        working = program.link()
        module = working.modules[0]
        provenance = ProvenanceMap(f.name for f in module.defined_functions())
        analyses = AnalysisManager()
        for pass_ in self.passes:
            pass_.run(working, analyses)
        if verify:
            assert_valid(working, analyses=analyses)
        working.metadata["obfuscation"] = self.label
        return ObfuscationResult(program=working, provenance=provenance,
                                 stats=KhaosStats(), label=self.label)


def sub_obfuscator(ratio: float = 1.0, seed: int = 1) -> OLLVMObfuscator:
    return OLLVMObfuscator("sub", [InstructionSubstitution(ratio=ratio, seed=seed)])


def bogus_obfuscator(ratio: float = 1.0, seed: int = 2) -> OLLVMObfuscator:
    return OLLVMObfuscator("bog", [BogusControlFlow(ratio=ratio, seed=seed)])


def flattening_obfuscator(ratio: float = 1.0, seed: int = 3) -> OLLVMObfuscator:
    label = "fla" if ratio >= 0.999 else f"fla-{int(round(ratio * 100))}"
    return OLLVMObfuscator(label, [ControlFlowFlattening(ratio=ratio, seed=seed)])


def standard_ollvm_baselines(flatten_ratio: float = 0.1) -> List[OLLVMObfuscator]:
    """The baseline set of Figure 7/8: Sub, Bog and Fla-10."""
    return [sub_obfuscator(), bogus_obfuscator(),
            flattening_obfuscator(ratio=flatten_ratio)]
