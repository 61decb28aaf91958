"""The Khaos driver: runs fission and/or fusion according to the configured mode.

The five modes follow section 3.4 of the paper:

* ``fission`` — only the fission primitive;
* ``fusion`` — only the fusion primitive, over the original functions;
* ``fufi.sep`` — fission first, then fusion restricted to the generated
  sepFuncs (no indirect-call handling is ever needed in this mode because
  sepFuncs are never address-taken);
* ``fufi.ori`` — fission first, then fusion restricted to functions the
  fission did not touch (the paper's recommended balance);
* ``fufi.all`` — fission first, then fusion over sepFuncs and untouched
  functions uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..analysis.manager import AnalysisManager
from ..ir.function import Function
from ..ir.module import Program
from ..ir.verifier import assert_valid as _assert_valid
from ..obs import layer
from .config import KhaosConfig, Mode
from .fission import Fission
from .fusion import Fusion
from .provenance import ProvenanceMap
from .stats import KhaosStats

#: The obfuscators check their output through this binding, which charges
#: the check to the ``analysis.verify`` layer; other callers' checks are
#: part of their own layer.
assert_valid = layer("analysis.verify")(_assert_valid)


@dataclass
class ObfuscationResult:
    """IR-level outcome of an obfuscation run."""

    program: Program
    provenance: ProvenanceMap
    stats: KhaosStats
    label: str
    config: Optional[KhaosConfig] = None


def _fusion_filter_for(mode: str) -> Optional[Callable[[Function], bool]]:
    if mode == Mode.FUSION:
        return None
    if mode == Mode.FUFI_SEP:
        return lambda f: f.attributes.get("khaos_kind") == "sepfunc"
    if mode == Mode.FUFI_ORI:
        return lambda f: (f.attributes.get("khaos_kind") != "sepfunc"
                          and not f.attributes.get("khaos_fissioned"))
    if mode == Mode.FUFI_ALL:
        return lambda f: (f.attributes.get("khaos_kind") == "sepfunc"
                          or not f.attributes.get("khaos_fissioned"))
    return None


class Khaos:
    """Applies the configured Khaos mode to a program (at the IR level)."""

    def __init__(self, config: Optional[KhaosConfig] = None):
        self.config = config or KhaosConfig()

    def cache_key(self) -> tuple:
        """Identity of this obfuscator for :class:`~repro.core.variant_cache.VariantCache`."""
        return self.config.cache_key()

    @layer("core.obfuscate")
    def obfuscate(self, program: Program, verify: bool = True) -> ObfuscationResult:
        working = program.link()
        module = working.modules[0]
        original_names = [f.name for f in module.defined_functions()]
        provenance = ProvenanceMap(original_names)
        stats = KhaosStats()

        analyses = AnalysisManager()
        if self.config.runs_fission:
            fission = Fission(self.config.fission, provenance, stats.fission,
                              analyses=analyses)
            fission.run_on_module(module, entry=working.entry)

        if self.config.runs_fusion:
            fusion = Fusion(self.config.fusion, provenance, stats.fusion,
                            seed=self.config.seed, analyses=analyses)
            fusion.run_on_module(module, entry=working.entry,
                                 candidate_filter=_fusion_filter_for(self.config.mode))

        if verify:
            # tier from REPRO_VERIFY_IR (structural by default); reusing the
            # pipeline's AnalysisManager lets the full tier walk the dominator
            # trees fission/fusion already built for the surviving functions
            assert_valid(working, analyses=analyses)
        working.metadata["khaos_mode"] = self.config.mode
        return ObfuscationResult(program=working, provenance=provenance,
                                 stats=stats, label=self.config.mode,
                                 config=self.config)


def obfuscate(program: Program, mode: str = Mode.FUFI_ORI,
              seed: int = 0x5EED, verify: bool = True) -> ObfuscationResult:
    """Convenience wrapper: obfuscate ``program`` with the given Khaos mode."""
    return Khaos(KhaosConfig(mode=mode, seed=seed)).obfuscate(program, verify=verify)
