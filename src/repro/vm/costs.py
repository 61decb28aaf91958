"""Cycle cost model for the interpreter.

Runtime overhead in the paper (Figures 6 and 7) is wall-clock time on an x86
machine; here it is a deterministic dynamic cycle count.  The model charges
extra for exactly the effects the Khaos design discusses:

* function calls have a fixed dispatch cost plus a per-argument cost, with a
  steep surcharge for arguments beyond the six register slots of the SysV
  calling convention (this is what makes parameter-list compression and the
  data-flow reduction pay off);
* memory operations cost more than register arithmetic;
* indirect calls cost slightly more than direct calls (branch-target miss).
"""

from __future__ import annotations

from dataclasses import dataclass


# Number of integer argument registers in the modelled calling convention.
REGISTER_ARG_SLOTS = 6


@dataclass(frozen=True)
class CostModel:
    """Per-instruction-class cycle costs.

    Frozen: compiled blocks bake these costs into precomputed totals, so
    mutating a shared model mid-run would silently desynchronise cached
    code from fresh runs.  Build a new model (e.g. ``dataclasses.replace``)
    instead of mutating one.
    """
    arithmetic: int = 1
    compare: int = 1
    cast: int = 1
    select: int = 1
    load: int = 2
    store: int = 2
    gep: int = 1
    alloca: int = 1
    branch: int = 1
    cond_branch: int = 1
    switch: int = 2
    call_base: int = 6
    call_indirect_extra: int = 4
    call_register_arg: int = 1
    call_stack_arg: int = 3
    ret: int = 2
    intrinsic: int = 4

    def call_cost(self, arg_count: int, indirect: bool = False) -> int:
        register_args = min(arg_count, REGISTER_ARG_SLOTS)
        stack_args = max(0, arg_count - REGISTER_ARG_SLOTS)
        cost = (self.call_base
                + register_args * self.call_register_arg
                + stack_args * self.call_stack_arg)
        if indirect:
            cost += self.call_indirect_extra
        return cost


DEFAULT_COST_MODEL = CostModel()
