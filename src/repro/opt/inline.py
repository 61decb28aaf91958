"""Function inlining.

Direct calls to small, non-recursive functions are expanded at the call site.
Inlining interacts with the Khaos primitives in two ways the paper calls out:

* after fission, the slimmed-down remFunc may become small enough to be
  inlined into its callers, which is why some programs show *negative*
  overhead (e.g. 456.hmmer in Figure 6);
* inlining is the classic inter-procedural transformation that binary diffing
  papers acknowledge hurts their accuracy, which motivates Khaos.

A run decides :func:`can_inline` once per callee and decides again only for
a function it has inlined into: inlining changes the caller alone, so every
other answer stands.  For the same reason it invalidates only the callers it
inlined into, plus the module's call graph, so a function the scalar passes
left settled stays settled across it
(:class:`~repro.opt.pass_manager.FunctionPass`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.manager import AnalysisManager
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Alloca, Branch, Call, Load, Ret, Store
from ..ir.module import Module, Program, clone_function_body
from ..ir.values import Value
from .pass_manager import Pass


def function_size(function: Function) -> int:
    return sum(len(b.instructions) for b in function.blocks)


def _is_recursive(function: Function) -> bool:
    for inst in function.instructions():
        if isinstance(inst, Call) and inst.callee is function:
            return True
    return False


def can_inline(callee: Function, threshold: int) -> bool:
    if callee.is_declaration:
        return False
    if callee.is_variadic:
        return False
    if _is_recursive(callee):
        return False
    if callee.attributes.get("noinline"):
        return False
    return function_size(callee) <= threshold


def inline_call(caller: Function, call: Call) -> bool:
    """Expand one direct call site in place.  Returns True on success."""
    callee = call.callee
    if not isinstance(callee, Function) or callee.is_declaration:
        return False
    block = call.parent
    if block is None or block.parent is not caller:
        return False

    call_index = block.instructions.index(call)
    trailing = block.instructions[call_index + 1:]

    # 1. continuation block receives everything after the call
    continuation = caller.add_block(f"{block.name}.cont")
    for inst in trailing:
        block.remove(inst)
        continuation.append(inst)
    block.remove(call)

    # 2. clone the callee body into the caller
    value_map: Dict[int, Value] = {}
    for formal, actual in zip(callee.args, call.args):
        value_map[id(formal)] = actual
    temp = Function(f"{callee.name}.inlined", callee.ftype)
    clone_function_body(callee, temp, value_map)

    # result slot: a ret value in the callee becomes a store to this alloca
    result_slot: Optional[Alloca] = None
    if not callee.return_type.is_void:
        result_slot = Alloca(callee.return_type, name=f"{callee.name}.retval")
        caller.entry_block.insert(0, result_slot)

    cloned_blocks: List[BasicBlock] = []
    for cloned in temp.blocks:
        cloned.name = caller.unique_name(f"{callee.name}.{cloned.name}")
        cloned.parent = caller
        caller.blocks.append(cloned)
        cloned_blocks.append(cloned)

    for cloned in cloned_blocks:
        term = cloned.terminator
        if isinstance(term, Ret):
            cloned.remove(term)
            if result_slot is not None and term.value is not None:
                cloned.append(Store(term.value, result_slot))
            cloned.append(Branch(continuation))

    # 3. wire the original block to the inlined entry and patch the result
    block.append(Branch(cloned_blocks[0]))
    if result_slot is not None:
        load = Load(result_slot, name=f"{callee.name}.retload")
        continuation.insert(0, load)
        for inst in caller.instructions():
            inst.replace_operand(call, load)
    return True


class Inliner(Pass):
    """Inlines small callees module by module, invalidating only the callers
    it changed (module docstring)."""

    name = "inline"

    def __init__(self, threshold: int = 30, max_rounds: int = 2):
        self.threshold = threshold
        self.max_rounds = max_rounds

    def run(self, program: Program,
            analyses: Optional[AnalysisManager] = None) -> bool:
        analyses = analyses if analyses is not None else AnalysisManager()
        changed = False
        for module in program.modules:
            changed |= self.run_on_module(module, analyses)
        return changed

    def run_on_module(self, module: Module,
                      analyses: Optional[AnalysisManager] = None) -> bool:
        analyses = analyses if analyses is not None else AnalysisManager()
        inlinable: Dict[Function, bool] = {}

        def may_inline(callee: Function) -> bool:
            verdict = inlinable.get(callee)
            if verdict is None:
                verdict = inlinable[callee] = can_inline(callee,
                                                         self.threshold)
            return verdict

        changed = False
        for _ in range(self.max_rounds):
            round_changed = False
            for caller in list(module.functions.values()):
                if caller.is_declaration:
                    continue
                call_sites = [inst for inst in caller.instructions()
                              if isinstance(inst, Call)
                              and isinstance(inst.callee, Function)
                              and inst.callee is not caller
                              and may_inline(inst.callee)]
                caller_changed = False
                for call in call_sites:
                    if call.parent is None:
                        continue
                    if inline_call(caller, call):
                        caller_changed = True
                if caller_changed:
                    # its size and recursion moved; no other function's did
                    inlinable.pop(caller, None)
                    analyses.invalidate(caller)
                    round_changed = True
            if not round_changed:
                break
            changed = True
        if changed:
            analyses.invalidate_callgraph(module)
        return changed
