"""Pass management and optimization options.

The obfuscation passes and the classic optimizations all plug into the same
:class:`PassManager`.  :class:`OptOptions` captures the knobs BinTuner-style
iterative compilation searches over (optimization level, inline threshold,
individual pass toggles, LTO).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple, Union

from ..analysis.manager import AnalysisManager
from ..ir.function import Function
from ..ir.module import Module, Program
from ..ir.verifier import assert_valid


class Pass:
    """Base class: a named transformation over a program.

    Passes receive an :class:`~repro.analysis.manager.AnalysisManager` and
    fetch every analysis through it instead of constructing CFGs, dominator
    trees or def-use chains ad hoc.  ``preserves`` names the analyses that
    remain valid when the pass reports a change (``PRESERVE_ALL`` for pure
    queries); everything else is invalidated by the driving :class:`Pass.run`.
    """

    name = "pass"
    preserves: Union[str, Tuple[str, ...]] = ()

    def run(self, program: Program,
            analyses: Optional[AnalysisManager] = None) -> bool:
        """Run over the program; return True if anything changed."""
        raise NotImplementedError


class FunctionPass(Pass):
    """A pass applied independently to every defined function."""

    def run(self, program: Program,
            analyses: Optional[AnalysisManager] = None) -> bool:
        analyses = analyses if analyses is not None else AnalysisManager()
        changed = False
        for module in program.modules:
            for function in list(module.functions.values()):
                if function.is_declaration:
                    continue
                function_changed = bool(self.run_on_function(function, analyses))
                if function_changed:
                    analyses.invalidate(function, preserve=self.preserves)
                changed |= function_changed
        return changed

    def run_on_function(self, function: Function,
                        analyses: Optional[AnalysisManager] = None) -> bool:
        raise NotImplementedError


class ModulePass(Pass):
    """A pass applied to each module as a whole."""

    def run(self, program: Program,
            analyses: Optional[AnalysisManager] = None) -> bool:
        analyses = analyses if analyses is not None else AnalysisManager()
        changed = False
        for module in program.modules:
            module_changed = bool(self.run_on_module(module, analyses))
            if module_changed:
                analyses.invalidate_module(module, preserve=self.preserves)
            changed |= module_changed
        return changed

    def run_on_module(self, module: Module,
                      analyses: Optional[AnalysisManager] = None) -> bool:
        raise NotImplementedError


@dataclass
class OptOptions:
    """Compiler configuration, the search space of BinTuner (Figure 9)."""

    level: int = 2                 # 0..3, mirrors -O0/-O1/-O2/-O3
    lto: bool = True               # the paper builds everything with -O2 + LTO
    inline_threshold: int = 30     # max callee size (instructions) to inline
    enable_inlining: bool = True
    enable_simplify_cfg: bool = True
    enable_constant_folding: bool = True
    enable_dce: bool = True
    enable_dead_function_elim: bool = True
    iterations: int = 2            # fixed-point rounds of the scalar pipeline

    def label(self) -> str:
        lto = "+LTO" if self.lto else ""
        return f"O{self.level}{lto}"

    def with_level(self, level: int) -> "OptOptions":
        return replace(self, level=level)


class PassManager:
    """Runs a pass sequence, optionally verifying the program after each.

    ``verify_each`` accepts ``False`` (off), ``True`` (tier selected by
    ``REPRO_VERIFY_IR``, defaulting to ``structural``) or an explicit tier
    name (``"structural"`` / ``"typed"`` / ``"full"``).  Verification runs
    through the manager's own :class:`AnalysisManager`, so the dominator
    trees the ``full`` tier walks are the ones the passes already cached,
    and per-function verify results stay warm across passes that did not
    touch the function.
    """

    def __init__(self, passes: Optional[Iterable[Pass]] = None,
                 verify_each: Union[bool, str] = False,
                 analyses: Optional[AnalysisManager] = None):
        self.passes: List[Pass] = list(passes or [])
        self.verify_each = verify_each
        self.history: List[str] = []
        self.analyses = analyses if analyses is not None else AnalysisManager()

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, program: Program) -> bool:
        changed = False
        verify_tier = self.verify_each
        for pass_ in self.passes:
            pass_changed = pass_.run(program, self.analyses)
            changed |= bool(pass_changed)
            self.history.append(f"{pass_.name}:{'changed' if pass_changed else 'no-op'}")
            if verify_tier:
                assert_valid(program, tier=verify_tier,
                             analyses=self.analyses)
        return changed
