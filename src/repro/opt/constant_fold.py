"""Constant folding and propagation.

Folds arithmetic, comparisons, selects and casts whose operands are literal
constants, and simplifies conditional branches with constant conditions into
unconditional branches (the follow-up CFG simplification removes the dead
arm).  This is one of the intra-procedural optimizations whose behaviour
changes once Khaos restructures code across functions.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.function import Function
from ..ir.instructions import (BinaryOp, Branch, Cast, Compare, CondBranch,
                               Select, Switch)
from ..ir.types import FloatType, IntType
from ..ir.values import Constant, Value
from .pass_manager import FunctionPass


def _truncated_div(lhs: int, rhs: int) -> int:
    """C-style (truncate-toward-zero) integer division; division by zero is 0."""
    if rhs == 0:
        return 0
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs >= 0) == (rhs >= 0) else -quotient


def _fold_binop(inst: BinaryOp) -> Optional[Constant]:
    lhs, rhs = inst.lhs, inst.rhs
    if not (isinstance(lhs, Constant) and isinstance(rhs, Constant)):
        return None
    a, b = lhs.value, rhs.value
    op = inst.op
    try:
        if op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "mul":
            result = a * b
        elif op == "sdiv":
            result = _truncated_div(int(a), int(b))
        elif op == "srem":
            result = int(a) - _truncated_div(int(a), int(b)) * int(b) if b != 0 else 0
        elif op == "and":
            result = int(a) & int(b)
        elif op == "or":
            result = int(a) | int(b)
        elif op == "xor":
            result = int(a) ^ int(b)
        elif op == "shl":
            result = int(a) << (int(b) & 63)
        elif op == "ashr":
            result = int(a) >> (int(b) & 63)
        elif op == "fadd":
            result = float(a) + float(b)
        elif op == "fsub":
            result = float(a) - float(b)
        elif op == "fmul":
            result = float(a) * float(b)
        elif op == "fdiv":
            result = float(a) / float(b) if b != 0.0 else 0.0
        else:
            return None
    except (TypeError, ValueError):
        return None
    return Constant(inst.type, result)


def _fold_compare(inst: Compare) -> Optional[Constant]:
    lhs, rhs = inst.lhs, inst.rhs
    if not (isinstance(lhs, Constant) and isinstance(rhs, Constant)):
        return None
    a, b = lhs.value, rhs.value
    table = {
        "eq": a == b, "ne": a != b, "slt": a < b, "sle": a <= b,
        "sgt": a > b, "sge": a >= b,
        "oeq": a == b, "one": a != b, "olt": a < b, "ole": a <= b,
        "ogt": a > b, "oge": a >= b,
    }
    if inst.predicate not in table:
        return None
    return Constant(IntType(1), 1 if table[inst.predicate] else 0)


def _fold_cast(inst: Cast) -> Optional[Constant]:
    value = inst.value
    if not isinstance(value, Constant):
        return None
    kind = inst.kind
    if kind in ("trunc", "zext", "sext") and isinstance(inst.type, IntType):
        return Constant(inst.type, int(value.value))
    if kind == "sitofp" and isinstance(inst.type, FloatType):
        return Constant(inst.type, float(value.value))
    if kind == "fptosi" and isinstance(inst.type, IntType):
        return Constant(inst.type, int(value.value))
    if kind in ("fpext", "fptrunc") and isinstance(inst.type, FloatType):
        return Constant(inst.type, float(value.value))
    return None


def _fold_select(inst: Select) -> Optional[Value]:
    cond = inst.condition
    if isinstance(cond, Constant):
        return inst.true_value if cond.value else inst.false_value
    return None


class ConstantFolding(FunctionPass):
    name = "constant-folding"
    preserves = ()  # may rewrite terminators (constant condbr/switch -> br)
    skips_settled = True  # a function of the function's own IR

    def run_on_function(self, function: Function, analyses=None) -> bool:
        changed = False
        # iterate to a fixed point so chains like (6 * 7) + 0 fold completely
        while self._fold_once(function):
            changed = True
        return changed

    def _fold_once(self, function: Function) -> bool:
        changed = False
        replacements: Dict[int, Value] = {}

        for block in function.blocks:
            for inst in list(block.instructions):
                folded: Optional[Value] = None
                if isinstance(inst, BinaryOp):
                    folded = _fold_binop(inst)
                elif isinstance(inst, Compare):
                    folded = _fold_compare(inst)
                elif isinstance(inst, Cast):
                    folded = _fold_cast(inst)
                elif isinstance(inst, Select):
                    folded = _fold_select(inst)
                if folded is not None:
                    replacements[id(inst)] = folded
                    block.remove(inst)
                    changed = True

        if replacements:
            for inst in function.instructions():
                for i, op in enumerate(inst.operands):
                    if id(op) in replacements:
                        inst.operands[i] = replacements[id(op)]

        # constant conditional branches / switches become unconditional
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, CondBranch) and isinstance(term.condition, Constant):
                target = (term.true_target if term.condition.value
                          else term.false_target)
                block.remove(term)
                block.append(Branch(target))
                changed = True
            elif isinstance(term, Switch) and isinstance(term.value, Constant):
                target = term.default_target
                for constant, case_target in term.cases:
                    if int(constant.value) == int(term.value.value):
                        target = case_target
                        break
                block.remove(term)
                block.append(Branch(target))
                changed = True
        return changed
