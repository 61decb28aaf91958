"""Standard optimization pipelines (O0–O3, optional LTO).

The paper compiles every test suite "under O2 with the link-time optimization
(LTO)"; :func:`optimize_program` reproduces that default.  BinTuner (Figure 9)
searches over :class:`~repro.opt.pass_manager.OptOptions` instances and calls
the same entry point.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir.module import Program
from .constant_fold import ConstantFolding
from .dce import DeadCodeElimination, DeadFunctionElimination
from .inline import Inliner
from .pass_manager import OptOptions, Pass, PassManager
from .simplify_cfg import SimplifyCFG


def build_pipeline(options: OptOptions, entry: str = "main") -> List[Pass]:
    passes: List[Pass] = []
    if options.level <= 0:
        return passes

    def scalar_round() -> List[Pass]:
        round_passes: List[Pass] = []
        if options.enable_constant_folding:
            round_passes.append(ConstantFolding())
        if options.enable_simplify_cfg:
            round_passes.append(SimplifyCFG())
        if options.enable_dce:
            round_passes.append(DeadCodeElimination())
        return round_passes

    passes.extend(scalar_round())
    if options.level >= 2 and options.enable_inlining:
        threshold = options.inline_threshold
        if options.level >= 3:
            threshold = max(threshold * 2, threshold + 20)
        passes.append(Inliner(threshold=threshold))
        passes.extend(scalar_round())
    for _ in range(max(0, options.iterations - 1)):
        passes.extend(scalar_round())
    if options.lto and options.enable_dead_function_elim:
        passes.append(DeadFunctionElimination(entry_names={entry}))
    return passes


def optimize_program(program: Program, options: Optional[OptOptions] = None,
                     verify_each: bool = False,
                     in_place: bool = False) -> Program:
    """Link (when LTO is requested), optimize and return the program.

    By default the input is never mutated: it is linked/cloned first,
    mirroring the way a compiler consumes source and produces a separate
    artifact.  A caller that owns ``program`` and reads it no more (an
    obfuscator's private copy) passes ``in_place`` to skip that copy: the
    program is then linked and optimized as itself (see
    :meth:`~repro.ir.module.Program.link`), with the same result as a copy.
    """
    options = options or OptOptions()
    if options.lto:
        working = program.link(in_place=in_place)
    else:
        working = (program.restart_name_counters() if in_place
                   else program.clone())
    manager = PassManager(build_pipeline(options, entry=working.entry),
                          verify_each=verify_each)
    manager.run(working)
    working.metadata["opt_options"] = options
    return working
