"""Dead code elimination.

Removes instructions whose results are unused and which have no side effects,
stores to allocas that are never loaded, and (as a module-level pass) internal
functions that are never referenced.  Dead-function elimination is what erases
the original functions after the fusion pass has redirected every call site to
the fused function.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.manager import AnalysisManager
from ..ir.function import Function, Linkage
from ..ir.instructions import Alloca, Call, Instruction, Store, Terminator
from ..ir.module import Module
from .pass_manager import FunctionPass, ModulePass


#: The instructions DCE never removes for being unused.
_SIDE_EFFECTS = (Terminator, Store, Call)


class DeadCodeElimination(FunctionPass):
    name = "dce"
    # DCE only deletes non-terminator instructions, so the block graph and
    # everything derived from it stay valid; def-use chains do not.
    preserves = ("cfg", "domtree", "loops", "block_frequency")
    skips_settled = True  # a function of the function's own IR

    def run_on_function(self, function: Function,
                        analyses: Optional[AnalysisManager] = None) -> bool:
        """Worklist DCE over one walk of the function.

        The fixed point of "remove side-effect-free instructions with no
        uses, plus allocas that are only ever stored to" is unique, so the
        pass walks the function once, building a live user map of every
        instruction (and collecting the allocas) on the way, and threads
        that map through the removals: deleting an instruction releases its
        operands, which may enqueue them in turn.
        """
        # live users per instruction id, updated as code dies
        users: Dict[int, List[Instruction]] = {}
        pure: List[Instruction] = []
        allocas: List[Alloca] = []
        for block in function.blocks:
            for inst in block.instructions:
                for op in inst.operands:
                    if isinstance(op, Instruction):
                        users.setdefault(id(op), []).append(inst)
                if not isinstance(inst, _SIDE_EFFECTS):
                    pure.append(inst)
                    if isinstance(inst, Alloca):
                        allocas.append(inst)

        def is_dead(inst: Instruction) -> bool:
            return (not isinstance(inst, _SIDE_EFFECTS)
                    and not users.get(id(inst)))

        def release(inst: Instruction) -> None:
            """Unregister ``inst`` as a user of its operands; enqueue newly
            dead definitions."""
            for op in inst.operands:
                op_users = users.get(id(op))
                if not op_users:
                    continue
                try:
                    op_users.remove(inst)
                except ValueError:
                    continue
                if not op_users and isinstance(op, Instruction) \
                        and not isinstance(op, _SIDE_EFFECTS):
                    worklist.append(op)

        worklist = [inst for inst in pure if id(inst) not in users]
        removed = 0
        while True:
            while worklist:
                inst = worklist.pop()
                if inst.parent is None or not is_dead(inst):
                    continue
                inst.parent.remove(inst)
                removed += 1
                release(inst)
            # allocas only ever stored to (never loaded or escaped) die with
            # their stores; the released store operands may re-arm the loop
            progressed = False
            for alloca in allocas:
                if alloca.parent is None:
                    continue
                uses = users.get(id(alloca))
                if uses and all(isinstance(u, Store) and u.pointer is alloca
                                for u in uses):
                    for use in list(uses):
                        if use.parent is not None:
                            use.parent.remove(use)
                            removed += 1
                        release(use)
                    users[id(alloca)] = []
                    alloca.parent.remove(alloca)
                    removed += 1
                    progressed = True
            if not worklist and not progressed:
                break
        return bool(removed)


class DeadFunctionElimination(ModulePass):
    name = "dead-function-elim"

    def __init__(self, entry_names: Set[str] = frozenset({"main"})):
        self.entry_names = set(entry_names)

    def run_on_module(self, module: Module,
                      analyses: Optional[AnalysisManager] = None) -> bool:
        analyses = analyses if analyses is not None else AnalysisManager()
        changed = False
        while True:
            graph = analyses.callgraph(module)
            removable = []
            for function in module.functions.values():
                if function.is_declaration:
                    continue
                if function.name in self.entry_names:
                    continue
                if function.linkage != Linkage.INTERNAL:
                    continue
                if graph.in_degree(function.name) > 0:
                    continue
                if graph.is_address_taken(function.name):
                    continue
                removable.append(function.name)
            if not removable:
                break
            for name in removable:
                module.remove_function(name)
            analyses.invalidate_module(module)
            changed = True
        return changed
