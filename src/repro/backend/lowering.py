"""Lowering from IR to the virtual machine ISA.

The code generator is deliberately simple (every value lives in a stack slot,
operations go through scratch registers), but it models the aspects of real
x86-64 code generation that the paper's evaluation depends on:

* the SysV calling convention — six register arguments, the rest pushed on the
  stack — which is what makes the fusion pass's parameter-list compression
  and the fission data-flow reduction observable in the binary;
* call/branch structure and per-opcode byte sizes, which feed the diffing
  tools and the opcode-histogram distance of Figure 11;
* the Khaos tagged-pointer intrinsics lower to plain and/or/shift sequences,
  exactly as the real implementation hides them in ordinary arithmetic.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.function import Function, Linkage
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                               CondBranch, GetElementPtr, Instruction, Load,
                               Ret, Select, Store, Switch, Unreachable)
from ..ir.module import Module, Program
from ..ir.types import FloatType
from ..ir.values import (Constant, GlobalVariable, NullPointer, UndefValue,
                         Value)
from ..obs import layer
from .binary import Binary, BinaryFunction
from .isa import ARG_REGISTERS, MachineBlock, RETURN_REGISTER

_BINOP_OPCODES = {
    "add": "add", "sub": "sub", "mul": "imul", "sdiv": "idiv", "srem": "idiv",
    "and": "and", "or": "or", "xor": "xor", "shl": "shl", "ashr": "sar",
    "fadd": "addsd", "fsub": "subsd", "fmul": "mulsd", "fdiv": "divsd",
}

_CMP_SETCC = {
    "eq": "sete", "ne": "setne", "slt": "setl", "sle": "setle",
    "sgt": "setg", "sge": "setge",
    "oeq": "sete", "one": "setne", "olt": "setl", "ole": "setle",
    "ogt": "setg", "oge": "setge",
}

_CMP_JCC = {
    "eq": "je", "ne": "jne", "slt": "jl", "sle": "jle", "sgt": "jg",
    "sge": "jge",
}

# Intrinsics inserted by the fusion pass; they lower to inline bit twiddling
# rather than calls so the obfuscated binary contains no telltale symbols.
_TAG_INTRINSICS = {"__khaos_tag_ptr", "__khaos_extract_tag", "__khaos_clear_tag"}


class FunctionLowering:
    def __init__(self, function: Function):
        self.function = function
        self.slots: Dict[int, int] = {}
        self.frame_size = 0
        self._assign_slots()

    # -- frame layout -------------------------------------------------------------

    def _assign_slot(self, value: Value, size: int = 1) -> int:
        self.frame_size += 8 * size
        self.slots[id(value)] = self.frame_size
        return self.frame_size

    def _assign_slots(self) -> None:
        for arg in self.function.args:
            self._assign_slot(arg)
        for inst in self.function.instructions():
            if isinstance(inst, Alloca):
                size = inst.allocated_type.size_in_slots() * max(1, inst.count)
                self._assign_slot(inst, max(1, size))
            elif inst.has_result:
                self._assign_slot(inst)

    def slot_ref(self, value: Value) -> str:
        return f"[rbp-{self.slots[id(value)]}]"

    # -- operand helpers ----------------------------------------------------------

    def load_operand(self, block: MachineBlock, value: Value, reg: str) -> None:
        if isinstance(value, NullPointer):
            block.append("xor", reg, reg)
        elif isinstance(value, Constant):
            if isinstance(value.type, FloatType):
                block.append("movsd", reg, f"${value.value}")
            else:
                block.append("mov", reg, f"${value.value}")
        elif isinstance(value, UndefValue):
            block.append("xor", reg, reg)
        elif isinstance(value, GlobalVariable):
            block.append("lea", reg, f"[rip+{value.name}]")
        elif isinstance(value, Function):
            block.append("lea", reg, f"[rip+{value.name}]")
        elif id(value) in self.slots:
            block.append("mov", reg, self.slot_ref(value))
        else:
            # value produced in a block we have not slotted (should not happen)
            block.append("xor", reg, reg)

    def store_result(self, block: MachineBlock, inst: Instruction,
                     reg: str = RETURN_REGISTER) -> None:
        if inst.has_result and id(inst) in self.slots:
            block.append("mov", self.slot_ref(inst), reg)

    # -- main lowering ------------------------------------------------------------

    def lower(self) -> BinaryFunction:
        function = self.function
        result = BinaryFunction(function.name,
                                exported=function.linkage != Linkage.INTERNAL)
        if function.is_declaration:
            return result

        label_of = {id(b): f"{function.name}.{b.name}" for b in function.blocks}

        for index, ir_block in enumerate(function.blocks):
            mblock = MachineBlock(label_of[id(ir_block)])
            result.blocks.append(mblock)
            if index == 0:
                self._emit_prologue(mblock)
            for inst in ir_block.instructions:
                self._lower_instruction(mblock, inst, label_of)
            mblock.successors = [label_of[id(s)] for s in ir_block.successors()
                                 if id(s) in label_of]
        return result

    def _emit_prologue(self, block: MachineBlock) -> None:
        block.append("push", "rbp")
        block.append("mov", "rbp", "rsp")
        if self.frame_size:
            block.append("sub", "rsp", f"${self.frame_size}")
        for i, arg in enumerate(self.function.args):
            if i < len(ARG_REGISTERS):
                block.append("mov", self.slot_ref(arg), ARG_REGISTERS[i])
            else:
                stack_offset = 16 + 8 * (i - len(ARG_REGISTERS))
                block.append("mov", "rax", f"[rbp+{stack_offset}]")
                block.append("mov", self.slot_ref(arg), "rax")

    def _emit_epilogue(self, block: MachineBlock) -> None:
        block.append("leave")
        block.append("ret")

    # -- per-instruction lowering -------------------------------------------------

    def _lower_instruction(self, block: MachineBlock, inst: Instruction,
                           label_of: Dict[int, str]) -> None:
        if isinstance(inst, Alloca):
            block.append("lea", "rax", f"[rbp-{self.slots[id(inst)]}]")
            # the slot assigned to the alloca doubles as its storage; the
            # pointer value itself is rematerialised by users via lea
            return
        if isinstance(inst, BinaryOp):
            self._lower_binop(block, inst)
            return
        if isinstance(inst, Compare):
            self.load_operand(block, inst.lhs, "rax")
            self.load_operand(block, inst.rhs, "r10")
            block.append("cmp", "rax", "r10")
            block.append(_CMP_SETCC[inst.predicate], "al")
            block.append("movzx", "rax", "al")
            self.store_result(block, inst)
            return
        if isinstance(inst, Load):
            self.load_operand(block, inst.pointer, "rax")
            block.append("mov", "rax", "[rax]")
            self.store_result(block, inst)
            return
        if isinstance(inst, Store):
            self.load_operand(block, inst.value, "rax")
            self.load_operand(block, inst.pointer, "r10")
            block.append("mov", "[r10]", "rax")
            return
        if isinstance(inst, GetElementPtr):
            self.load_operand(block, inst.pointer, "rax")
            self.load_operand(block, inst.index, "r10")
            block.append("lea", "rax", "[rax+r10*8]")
            self.store_result(block, inst)
            return
        if isinstance(inst, Cast):
            self._lower_cast(block, inst)
            return
        if isinstance(inst, Select):
            self.load_operand(block, inst.condition, "rax")
            block.append("test", "rax", "rax")
            self.load_operand(block, inst.true_value, "r10")
            self.load_operand(block, inst.false_value, "r11")
            block.append("cmp", "rax", "$0")
            block.append("mov", "rax", "r10")
            block.append("sete", "al")
            self.store_result(block, inst)
            return
        if isinstance(inst, Call):
            self._lower_call(block, inst)
            return
        if isinstance(inst, Ret):
            if inst.value is not None:
                self.load_operand(block, inst.value, RETURN_REGISTER)
            else:
                block.append("xor", RETURN_REGISTER, RETURN_REGISTER)
            self._emit_epilogue(block)
            return
        if isinstance(inst, Branch):
            block.append("jmp", jump_target=label_of[id(inst.target)])
            return
        if isinstance(inst, CondBranch):
            self.load_operand(block, inst.condition, "rax")
            block.append("test", "rax", "rax")
            block.append("jne", jump_target=label_of[id(inst.true_target)])
            block.append("jmp", jump_target=label_of[id(inst.false_target)])
            return
        if isinstance(inst, Switch):
            self.load_operand(block, inst.value, "rax")
            for constant, target in inst.cases:
                block.append("cmp", "rax", f"${constant.value}")
                block.append("je", jump_target=label_of[id(target)])
            block.append("jmp", jump_target=label_of[id(inst.default_target)])
            return
        if isinstance(inst, Unreachable):
            block.append("nop")
            return
        block.append("nop")

    def _lower_binop(self, block: MachineBlock, inst: BinaryOp) -> None:
        opcode = _BINOP_OPCODES[inst.op]
        if inst.op.startswith("f"):
            self.load_operand(block, inst.lhs, "xmm0")
            self.load_operand(block, inst.rhs, "xmm1")
            block.append(opcode, "xmm0", "xmm1")
            block.append("movsd", self.slot_ref(inst), "xmm0")
            return
        self.load_operand(block, inst.lhs, "rax")
        self.load_operand(block, inst.rhs, "r10")
        if inst.op in ("shl", "ashr"):
            block.append("mov", "rcx", "r10")
            block.append(opcode, "rax", "cl")
        elif inst.op in ("sdiv", "srem"):
            block.append("idiv", "r10")
            if inst.op == "srem":
                block.append("mov", "rax", "rdx")
        else:
            block.append(opcode, "rax", "r10")
        self.store_result(block, inst)

    def _lower_cast(self, block: MachineBlock, inst: Cast) -> None:
        self.load_operand(block, inst.value, "rax")
        if inst.kind == "sitofp":
            block.append("cvtsi2sd", "xmm0", "rax")
            block.append("movsd", self.slot_ref(inst), "xmm0")
            return
        if inst.kind == "fptosi":
            block.append("cvttsd2si", "rax", "xmm0")
        elif inst.kind in ("trunc", "zext", "sext"):
            block.append("movzx" if inst.kind == "zext" else "mov", "rax", "rax")
        self.store_result(block, inst)

    def _lower_call(self, block: MachineBlock, inst: Call) -> None:
        callee = inst.callee
        callee_name = getattr(callee, "name", None)
        if callee_name in _TAG_INTRINSICS:
            self._lower_tag_intrinsic(block, inst, callee_name)
            return

        register_args = inst.args[:len(ARG_REGISTERS)]
        stack_args = inst.args[len(ARG_REGISTERS):]
        for value in reversed(stack_args):
            self.load_operand(block, value, "rax")
            block.append("push", "rax")
        for reg, value in zip(ARG_REGISTERS, register_args):
            self.load_operand(block, value, reg)

        if isinstance(callee, Function):
            block.append("call", callee.name, call_target=callee.name)
        else:
            self.load_operand(block, callee, "r11")
            block.append("call", "r11")
        if stack_args:
            block.append("add", "rsp", f"${8 * len(stack_args)}")
        self.store_result(block, inst)

    def _lower_tag_intrinsic(self, block: MachineBlock, inst: Call,
                             name: str) -> None:
        # tag lives in bits 1-2 of the function pointer (16-byte alignment
        # guarantees they are free), matching appendix A.1 of the paper
        if name == "__khaos_tag_ptr":
            self.load_operand(block, inst.args[0], "rax")
            self.load_operand(block, inst.args[1], "r10")
            block.append("shl", "r10", "$1")
            block.append("or", "rax", "r10")
        elif name == "__khaos_extract_tag":
            self.load_operand(block, inst.args[0], "rax")
            block.append("sar", "rax", "$1")
            block.append("and", "rax", "$3")
        else:  # __khaos_clear_tag
            self.load_operand(block, inst.args[0], "rax")
            block.append("and", "rax", "$-8")
        self.store_result(block, inst)


def lower_function(function: Function) -> BinaryFunction:
    return FunctionLowering(function).lower()


def lower_module(module: Module, name: Optional[str] = None) -> Binary:
    binary = Binary(name or module.name)
    for function in module.functions.values():
        if function.is_declaration:
            continue
        binary.functions.append(lower_function(function))
    return binary


@layer("backend.lower")
def lower_program(program: Program) -> Binary:
    linked = program if len(program.modules) == 1 else program.link()
    binary = lower_module(linked.modules[0], name=program.name)
    binary.metadata["entry"] = program.entry
    return binary
