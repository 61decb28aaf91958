"""Pass management and optimization options.

The obfuscation passes and the classic optimizations all plug into the same
:class:`PassManager`.  :class:`OptOptions` captures the knobs BinTuner-style
iterative compilation searches over (optimization level, inline threshold,
individual pass toggles, LTO).

A :class:`FunctionPass` that declares ``skips_settled`` is not rerun on a
function it last left unchanged while nothing has invalidated the function
since (the manager's change stamp,
:meth:`~repro.analysis.manager.AnalysisManager.stamp`): at O2 the scalar
rounds after the inliner then revisit only the callers it inlined into and
the functions an earlier pass of the round changed.  A skipped run is one
that would have changed nothing, so the output is the same, and
:attr:`PassManager.history` still records it as ``name:no-op``.  Each
function pass adds its runs and skips to the ``opt.pass_runs`` and
``opt.pass_skips`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple, Union

from ..analysis.manager import AnalysisManager
from ..ir.function import Function
from ..ir.module import Module, Program
from ..ir.verifier import assert_valid
from ..obs.metrics import counter


class Pass:
    """Base class: a named transformation over a program.

    Passes receive an :class:`~repro.analysis.manager.AnalysisManager` and
    fetch every analysis through it instead of constructing CFGs, dominator
    trees or def-use chains ad hoc.  ``preserves`` names the analyses that
    remain valid when the pass reports a change (``PRESERVE_ALL`` for pure
    queries); everything else is invalidated by the driving :class:`Pass.run`.

    ``skips_settled`` lets a :class:`FunctionPass` skip a function it last
    left unchanged and that no one has invalidated since.  A pass may
    declare it only when what it does to a function is a deterministic
    function of that function's own IR (no RNG, no other function, no
    configuration) and a run that reports no change changes nothing.
    """

    name = "pass"
    preserves: Union[str, Tuple[str, ...]] = ()
    skips_settled = False

    def run(self, program: Program,
            analyses: Optional[AnalysisManager] = None) -> bool:
        """Run over the program; return True if anything changed."""
        raise NotImplementedError


class FunctionPass(Pass):
    """A pass applied independently to every defined function."""

    def run(self, program: Program,
            analyses: Optional[AnalysisManager] = None) -> bool:
        analyses = analyses if analyses is not None else AnalysisManager()
        key = type(self) if self.skips_settled else None
        changed = False
        runs = skips = 0
        for module in program.modules:
            for function in list(module.functions.values()):
                if function.is_declaration:
                    continue
                if key is not None and analyses.settled(function, key):
                    skips += 1
                    continue
                runs += 1
                if self.run_on_function(function, analyses):
                    analyses.invalidate(function, preserve=self.preserves)
                    changed = True
                elif key is not None:
                    analyses.settle(function, key)
        counter("opt.pass_runs", runs)
        counter("opt.pass_skips", skips)
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
