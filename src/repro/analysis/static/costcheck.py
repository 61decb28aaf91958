"""Cost-model consistency lint.

The compiled dispatch tier precomputes a ``(count, total_cost)`` pair per
basic block (:meth:`repro.vm.compiler.BlockCompiler.compile_block`) and
charges it in one batch.  A drift between those baked-in totals and the
cost model — a compile routine charging the wrong field — would silently
corrupt every Figure 6/7 overhead measurement.

This lint statically recomputes each block's step count and cycle total
straight from :mod:`repro.vm.costs` and cross-checks it against every block
the interpreter has compiled (``cost-block``).

Calls and ``unreachable`` contribute zero to a block's *precomputed* total
by design: calls charge their (static) cost mid-step to keep the legacy
cycle ordering around recursion, and the legacy path raises on
``unreachable`` before charging.  The static recomputation mirrors that.
"""

from __future__ import annotations

from typing import List, Tuple

from ...ir.basicblock import BasicBlock
from ...ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                                CondBranch, GetElementPtr, Instruction, Load,
                                Ret, Select, Store, Switch, Unreachable)
from ...vm.costs import CostModel
from .diagnostics import Diagnostic, error

#: Codes this module can emit (each has a failing-input test).
COST_CODES = (
    "cost-block",
)


def static_instruction_cost(inst: Instruction, cost_model: CostModel) -> int:
    """The cycles ``inst`` contributes to its block's precomputed total."""
    if isinstance(inst, BinaryOp):
        return cost_model.arithmetic
    if isinstance(inst, Compare):
        return cost_model.compare
    if isinstance(inst, Alloca):
        return cost_model.alloca
    if isinstance(inst, Load):
        return cost_model.load
    if isinstance(inst, Store):
        return cost_model.store
    if isinstance(inst, GetElementPtr):
        return cost_model.gep
    if isinstance(inst, Cast):
        return cost_model.cast
    if isinstance(inst, Select):
        return cost_model.select
    if isinstance(inst, Call):
        return 0  # charged mid-step by the call closure itself
    if isinstance(inst, Ret):
        return cost_model.ret
    if isinstance(inst, Branch):
        return cost_model.branch
    if isinstance(inst, CondBranch):
        return cost_model.cond_branch
    if isinstance(inst, Switch):
        return cost_model.switch
    if isinstance(inst, Unreachable):
        return 0  # the legacy path raises before charging
    return 0


def static_block_cost(block: BasicBlock,
                      cost_model: CostModel) -> Tuple[int, int]:
    """``(step count, cycle total)`` of one run of ``block`` — execution
    stops at the first terminator, exactly like ``compile_block``."""
    count = 0
    cycles = 0
    for inst in block.instructions:
        count += 1
        cycles += static_instruction_cost(inst, cost_model)
        if inst.is_terminator:
            break
    return count, cycles


def check_interpreter(interpreter) -> List[Diagnostic]:
    """Cross-check every compiled block cached on ``interpreter``."""
    diagnostics: List[Diagnostic] = []
    cost_model = interpreter.cost_model
    compiled_blocks = interpreter._compiled_blocks

    for block, compiled in compiled_blocks.items():
        count, cycles = static_block_cost(block, cost_model)
        baked_count, baked_cost = compiled[2], compiled[3]
        if (count, cycles) != (baked_count, baked_cost):
            function = block.parent
            diagnostics.append(error(
                "cost-block",
                f"compiled block totals ({baked_count} steps, {baked_cost} "
                f"cycles) != static recomputation ({count} steps, {cycles} "
                f"cycles)", function.name if function is not None else "",
                block.name))
    return diagnostics


def check_program(program, cost_model=None) -> List[Diagnostic]:
    """Compile every block of ``program`` fresh and cross-check the totals.

    Builds a throwaway compiled-dispatch interpreter, forces compilation of
    every basic block, then delegates to :func:`check_interpreter` — the
    entry point ``scripts/lint_ir.py`` uses.
    """
    from ...vm.machine import Interpreter
    interpreter = Interpreter(program, cost_model=cost_model,
                              dispatch="compiled")
    from ...vm.compiler import BlockCompiler
    compiler = BlockCompiler(interpreter)
    for function in program.defined_functions():
        for block in function.blocks:
            if block not in interpreter._compiled_blocks:
                interpreter._compiled_blocks[block] = \
                    compiler.compile_block(function, block)
    return check_interpreter(interpreter)
