"""A deterministic interpreter for the reproduction IR.

The interpreter serves two purposes:

* **correctness oracle** — every workload program can be executed before and
  after obfuscation; equal observable output (plus exit value) demonstrates
  the transformation preserved semantics, which is how the test suite checks
  the fission/fusion passes;
* **runtime-overhead measurement** — execution accumulates cycles according to
  :class:`~repro.vm.costs.CostModel`, giving the dynamic cost figures used to
  reproduce Figures 6 and 7.

The machine model is simple but sufficient: integers wrap at their declared
width, pointers are (allocation, offset) handles, and function pointers carry
the Khaos tag bits explicitly so the tagged-pointer intrinsics have a direct
runtime meaning.
"""

from __future__ import annotations

import os
import time

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                               CondBranch, GetElementPtr, Instruction, Load,
                               Ret, Select, Store, Switch, Unreachable)
from ..ir.module import Program
from ..ir.types import IntType
from ..ir.values import (Constant, GlobalVariable, NullPointer, UndefValue,
                         Value)
from ..obs import metrics as obs_metrics
from .costs import CostModel, DEFAULT_COST_MODEL


class ExecutionError(Exception):
    """Raised when the interpreted program performs an invalid operation."""


class StepLimitExceeded(ExecutionError):
    """Raised when execution exceeds the configured step budget."""


@dataclass
class Allocation:
    """A block of memory cells (globals, allocas)."""

    cells: List[object]
    label: str = ""


class Pointer:
    """A data pointer: an allocation handle plus an element offset."""

    __slots__ = ("allocation", "offset")

    def __init__(self, allocation: Allocation, offset: int = 0):
        self.allocation = allocation
        self.offset = offset

    def moved(self, delta: int) -> "Pointer":
        return Pointer(self.allocation, self.offset + delta)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Pointer)
                and other.allocation is self.allocation
                and other.offset == self.offset)

    def __hash__(self) -> int:
        return hash((id(self.allocation), self.offset))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pointer {self.allocation.label}+{self.offset}>"


class FuncPointer:
    """A function pointer, optionally carrying Khaos tag bits."""

    __slots__ = ("function", "tag")

    def __init__(self, function: Function, tag: int = 0):
        self.function = function
        self.tag = tag

    def with_tag(self, tag: int) -> "FuncPointer":
        return FuncPointer(self.function, tag)

    def untagged(self) -> "FuncPointer":
        return FuncPointer(self.function, 0)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FuncPointer)
                and other.function is self.function and other.tag == self.tag)

    def __hash__(self) -> int:
        return hash((id(self.function), self.tag))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FuncPointer @{self.function.name} tag={self.tag}>"


NULL_SENTINEL = 0


@dataclass
class ExecutionResult:
    """Observable outcome of running a program."""

    exit_value: object
    output: List[object]
    cycles: int
    instructions_executed: int
    call_count: int
    steps: int

    def observable(self) -> Tuple[object, Tuple[object, ...]]:
        """The pair compared by semantic-preservation tests."""
        return (self.exit_value, tuple(self.output))


#: Recognised dispatch tiers: the reference semantics, then the fast path.
DISPATCH_TIERS = ("legacy", "compiled")


class Interpreter:
    """Executes a :class:`~repro.ir.module.Program`.

    Two dispatch tiers produce bit-for-bit identical results:

    * ``dispatch="legacy"`` walks the original per-step ``isinstance``
      ladder; it is the reference semantics for differential testing;
    * ``dispatch="compiled"`` (the default) lazily compiles each basic block
      into a list of step closures with pre-resolved operand slots and
      precomputed cycle costs (see :mod:`repro.vm.compiler`) — several times
      faster on the Figure 6/7 measurement loop.

    The ``REPRO_VM_DISPATCH`` environment variable (``legacy`` /
    ``compiled``) selects the tier when ``dispatch`` is not given; any
    other value, like any other explicit ``dispatch``, raises
    :class:`ValueError`.
    """

    def __init__(self, program: Program, cost_model: Optional[CostModel] = None,
                 max_steps: int = 5_000_000, inputs: Optional[Sequence[int]] = None,
                 dispatch: Optional[str] = None):
        self.program = program if len(program.modules) == 1 else program.link()
        self.module = self.program.modules[0]
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.max_steps = max_steps
        self.inputs = list(inputs or [])
        self.output: List[object] = []
        self.cycles = 0
        self.instructions_executed = 0
        self.call_count = 0
        self.steps = 0
        self.globals: Dict[str, Pointer] = {}
        self._intrinsics: Dict[str, Callable] = self._build_intrinsics()
        self._initialise_globals()
        if dispatch is None:
            dispatch = os.environ.get("REPRO_VM_DISPATCH") or "compiled"
        if dispatch not in DISPATCH_TIERS:
            raise ValueError(f"unknown dispatch tier {dispatch!r}; expected "
                             f"one of {DISPATCH_TIERS}")
        self.dispatch = dispatch
        self._compiled = dispatch == "compiled"
        self._compiled_blocks: Dict[BasicBlock, tuple] = {}
        self._compiler = None

    # -- setup --------------------------------------------------------------------

    @staticmethod
    def _initial_cells(g) -> List[object]:
        size = g.value_type.size_in_slots() or 1
        cells: List[object] = [0] * size
        init = g.initializer
        if init is not None:
            if isinstance(init, (list, tuple)):
                for i, v in enumerate(init[:size]):
                    cells[i] = v
            else:
                cells[0] = init
        return cells

    def _initialise_globals(self) -> None:
        for name, g in self.module.globals.items():
            allocation = Allocation(self._initial_cells(g), label=f"@{name}")
            self.globals[name] = Pointer(allocation, 0)

    def reset(self, inputs: Optional[Sequence[int]] = None) -> None:
        """Rewind to a fresh-interpreter state, keeping compiled state.

        Counters, output and the input stream are cleared; global memory is
        re-initialised **in place** (compiled closures capture the global
        cell lists, so the lists must keep their identity).  Compiled blocks
        depend only on the IR and survive, which is what makes
        :meth:`run_many` amortise setup.
        """
        self.inputs = list(inputs or [])
        self.output = []
        self.cycles = 0
        self.instructions_executed = 0
        self.call_count = 0
        self.steps = 0
        for name, g in self.module.globals.items():
            self.globals[name].allocation.cells[:] = self._initial_cells(g)

    def _build_intrinsics(self) -> Dict[str, Callable]:
        def putint(value):
            self.output.append(int(value))
            return 0

        def putfloat(value):
            self.output.append(round(float(value), 6))
            return 0

        def putchar(value):
            self.output.append(int(value) & 0xFF)
            return int(value) & 0xFF

        def input_i64(index):
            idx = int(index)
            if 0 <= idx < len(self.inputs):
                return int(self.inputs[idx])
            return 0

        def input_len():
            return len(self.inputs)

        def khaos_tag_ptr(ptr, tag):
            if isinstance(ptr, FuncPointer):
                return ptr.with_tag(int(tag))
            raise ExecutionError("__khaos_tag_ptr applied to a non-function pointer")

        def khaos_extract_tag(ptr):
            if isinstance(ptr, FuncPointer):
                return ptr.tag
            return 0

        def khaos_clear_tag(ptr):
            if isinstance(ptr, FuncPointer):
                return ptr.untagged()
            return ptr

        def abs_model(value):
            return abs(int(value))

        def setjmp_model(buf):
            # Static constraint only (fission refuses to split across setjmp);
            # the dynamic behaviour modelled here is "no longjmp ever fires".
            return 0

        def longjmp_model(buf, value):
            raise ExecutionError("longjmp is not modelled dynamically")

        def exit_model(code):
            raise _ProgramExit(int(code))

        return {
            "putint": putint,
            "putfloat": putfloat,
            "putchar": putchar,
            "input_i64": input_i64,
            "input_len": input_len,
            "__khaos_tag_ptr": khaos_tag_ptr,
            "__khaos_extract_tag": khaos_extract_tag,
            "__khaos_clear_tag": khaos_clear_tag,
            "abs": abs_model,
            "setjmp": setjmp_model,
            "longjmp": longjmp_model,
            "exit": exit_model,
        }

    # -- public API ---------------------------------------------------------------

    def run(self, args: Optional[Sequence[object]] = None) -> ExecutionResult:
        entry = self.program.find_function(self.program.entry)
        if entry is None or entry.is_declaration:
            raise ExecutionError(
                f"program {self.program.name} has no entry function "
                f"{self.program.entry!r}")
        started = time.perf_counter()
        try:
            exit_value = self.call_function(entry, list(args or []))
        except _ProgramExit as stop:
            exit_value = stop.code
        result = ExecutionResult(
            exit_value=exit_value,
            output=list(self.output),
            cycles=self.cycles,
            instructions_executed=self.instructions_executed,
            call_count=self.call_count,
            steps=self.steps,
        )
        # per-run telemetry only (never per instruction): a handful of dict
        # increments + two clock reads, well inside the ≤2% disabled budget
        elapsed = time.perf_counter() - started
        self._metrics_run(result, elapsed)
        return result

    def _metrics_run(self, result: ExecutionResult, elapsed: float) -> None:
        counter = obs_metrics.REGISTRY.counter
        counter("vm.runs." + self.dispatch)
        counter("vm.steps", result.steps)
        if elapsed > 0:
            obs_metrics.REGISTRY.gauge("vm.steps_per_s",
                                       result.steps / elapsed)
            obs_metrics.REGISTRY.observe("vm.run_seconds", elapsed)

    def run_many(self, input_sets: Sequence[Sequence[int]],
                 args: Optional[Sequence[object]] = None
                 ) -> List[ExecutionResult]:
        """Run the program once per input vector through one interpreter.

        Each run starts from :meth:`reset`, so result ``i`` is bit-identical
        to a fresh interpreter run with ``input_sets[i]`` — but compiled
        blocks are built once and shared across the whole batch.
        """
        results = []
        for inputs in input_sets:
            self.reset(inputs)
            results.append(self.run(args=args))
        return results

    # -- execution ----------------------------------------------------------------

    def call_function(self, function: Function, args: List[object]) -> object:
        if function.is_declaration:
            return self._call_external(function, args)

        self.call_count += 1
        expected = len(function.args)
        if len(args) < expected:
            raise ExecutionError(
                f"call to @{function.name} with {len(args)} args, expected {expected}")

        env: Dict[int, object] = {}
        for formal, actual in zip(function.args, args):
            env[id(formal)] = actual

        if self._compiled:
            return self._call_compiled(function, env)

        block = function.entry_block
        while True:
            result = self._run_block_legacy(function, block, env)
            if isinstance(result, _Return):
                return result.value
            block = result

    def _call_external(self, function: Function, args: List[object]) -> object:
        handler = self._intrinsics.get(function.name)
        self.cycles += self.cost_model.intrinsic
        if handler is None:
            # Unknown externals behave as no-ops returning zero; workloads only
            # declare externals that the intrinsic table knows about, so this
            # path exists for robustness rather than correctness.
            return 0
        return handler(*args)

    def _run_block_legacy(self, function: Function, block: BasicBlock,
                          env: Dict[int, object]):
        for inst in block.instructions:
            self.steps += 1
            if self.steps > self.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self.max_steps} steps in @{function.name}")
            outcome = self._execute(function, inst, env)
            if isinstance(outcome, (_Return, BasicBlock)):
                return outcome
        raise ExecutionError(
            f"block {block.name} in @{function.name} fell through without terminator")

    # -- compiled dispatch --------------------------------------------------------

    def _call_compiled(self, function: Function, env: Dict[int, object]):
        """Run one function call through the compiled-block fast path.

        Counters are kept in locals across consecutive call-free blocks and
        flushed to the interpreter around anything that can observe them
        (nested calls, the step limit, and — via ``finally`` — exceptions),
        so successful runs see values identical to the legacy path.
        """
        cache = self._compiled_blocks
        max_steps = self.max_steps
        block = function.entry_block
        steps = self.steps
        instructions = self.instructions_executed
        cycles = self.cycles
        try:
            while True:
                compiled = cache.get(block)
                if compiled is None:
                    if self._compiler is None:
                        from .compiler import BlockCompiler
                        self._compiler = BlockCompiler(self)
                    compiled = self._compiler.compile_block(function, block)
                    cache[block] = compiled
                body, last, count, total_cost, per_step, has_call = compiled
                if not has_call and steps + count <= max_steps:
                    # call-free block comfortably below the limit: charge the
                    # counters in one batch and run the straight line; only
                    # the terminator's outcome needs inspecting
                    steps += count
                    instructions += count
                    cycles += total_cost
                    for step in body:
                        step(env)
                    outcome = last(env) if last is not None else None
                else:
                    # exact per-step accounting: recursion below a call and
                    # the step limit must observe the counters exactly as the
                    # legacy path does
                    self.steps = steps
                    self.instructions_executed = instructions
                    self.cycles = cycles
                    try:
                        outcome = self._run_block_exact(function, block,
                                                        per_step, env)
                    finally:
                        # reload even when the slow path raises, so the outer
                        # finally cannot clobber its exact accounting
                        steps = self.steps
                        instructions = self.instructions_executed
                        cycles = self.cycles
                if outcome is None:
                    raise ExecutionError(
                        f"block {block.name} in @{function.name} fell through "
                        f"without terminator")
                if outcome.__class__ is _Return:
                    return outcome.value
                block = outcome
        finally:
            self.steps = steps
            self.instructions_executed = instructions
            self.cycles = cycles

    def _run_block_exact(self, function: Function, block: BasicBlock,
                         per_step, env: Dict[int, object]):
        """Slow path: per-step counters and limit checks, legacy ordering."""
        for step, cost in per_step:
            self.steps += 1
            if self.steps > self.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self.max_steps} steps in @{function.name}")
            self.instructions_executed += 1
            self.cycles += cost
            outcome = step(env)
            if outcome is not None:
                return outcome
        return None

    def invalidate_compiled(self, function: Optional[Function] = None) -> None:
        """Drop compiled blocks after IR mutation.

        With a function, only that function's blocks are dropped; with
        ``None``, everything.  Called by code that mutates a program after
        running it.
        """
        if function is None:
            self._compiled_blocks.clear()
            return
        for block in list(self._compiled_blocks):
            if block.parent is function:
                del self._compiled_blocks[block]

    # -- instruction dispatch -----------------------------------------------------

    def _execute(self, function: Function, inst: Instruction,
                 env: Dict[int, object]):
        self.instructions_executed += 1
        cm = self.cost_model

        if isinstance(inst, BinaryOp):
            self.cycles += cm.arithmetic
            env[id(inst)] = self._binop(inst, env)
            return None
        if isinstance(inst, Compare):
            self.cycles += cm.compare
            env[id(inst)] = self._compare(inst, env)
            return None
        if isinstance(inst, Alloca):
            self.cycles += cm.alloca
            size = inst.allocated_type.size_in_slots() * max(1, inst.count)
            allocation = Allocation([0] * max(1, size), label=f"%{inst.name}")
            env[id(inst)] = Pointer(allocation, 0)
            return None
        if isinstance(inst, Load):
            self.cycles += cm.load
            ptr = self._value(inst.pointer, env)
            env[id(inst)] = self._read(ptr)
            return None
        if isinstance(inst, Store):
            self.cycles += cm.store
            value = self._value(inst.value, env)
            ptr = self._value(inst.pointer, env)
            self._write(ptr, value)
            return None
        if isinstance(inst, GetElementPtr):
            self.cycles += cm.gep
            ptr = self._value(inst.pointer, env)
            index = int(self._value(inst.index, env))
            if not isinstance(ptr, Pointer):
                raise ExecutionError(f"gep on non-pointer value in @{function.name}")
            env[id(inst)] = ptr.moved(index)
            return None
        if isinstance(inst, Cast):
            self.cycles += cm.cast
            env[id(inst)] = self._cast(inst, env)
            return None
        if isinstance(inst, Select):
            self.cycles += cm.select
            cond = self._value(inst.condition, env)
            chosen = inst.true_value if self._truthy(cond) else inst.false_value
            env[id(inst)] = self._value(chosen, env)
            return None
        if isinstance(inst, Call):
            return self._call(function, inst, env)
        if isinstance(inst, Ret):
            self.cycles += cm.ret
            value = self._value(inst.value, env) if inst.value is not None else None
            return _Return(value)
        if isinstance(inst, Branch):
            self.cycles += cm.branch
            return inst.target
        if isinstance(inst, CondBranch):
            self.cycles += cm.cond_branch
            cond = self._value(inst.condition, env)
            return inst.true_target if self._truthy(cond) else inst.false_target
        if isinstance(inst, Switch):
            self.cycles += cm.switch
            value = int(self._value(inst.value, env))
            for constant, target in inst.cases:
                if int(constant.value) == value:
                    return target
            return inst.default_target
        if isinstance(inst, Unreachable):
            raise ExecutionError(f"reached unreachable in @{function.name}")
        raise ExecutionError(f"unknown instruction {inst.opcode}")

    # -- helpers ------------------------------------------------------------------

    def _value(self, value: Optional[Value], env: Dict[int, object]) -> object:
        if value is None:
            return None
        if isinstance(value, NullPointer):
            return NULL_SENTINEL
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, UndefValue):
            return 0
        if isinstance(value, GlobalVariable):
            return self.globals[value.name]
        if isinstance(value, Function):
            return FuncPointer(value, 0)
        if id(value) in env:
            return env[id(value)]
        raise ExecutionError(f"use of undefined value %{value.name}")

    @staticmethod
    def _truthy(value: object) -> bool:
        if isinstance(value, (Pointer, FuncPointer)):
            return True
        return bool(value)

    def _read(self, ptr: object) -> object:
        if not isinstance(ptr, Pointer):
            raise ExecutionError(f"load from non-pointer value {ptr!r}")
        cells = ptr.allocation.cells
        if not 0 <= ptr.offset < len(cells):
            raise ExecutionError(
                f"out-of-bounds load at {ptr.allocation.label}+{ptr.offset}")
        return cells[ptr.offset]

    def _write(self, ptr: object, value: object) -> None:
        if not isinstance(ptr, Pointer):
            raise ExecutionError(f"store to non-pointer value {ptr!r}")
        cells = ptr.allocation.cells
        if not 0 <= ptr.offset < len(cells):
            raise ExecutionError(
                f"out-of-bounds store at {ptr.allocation.label}+{ptr.offset}")
        cells[ptr.offset] = value

    def _binop(self, inst: BinaryOp, env: Dict[int, object]) -> object:
        lhs = self._value(inst.lhs, env)
        rhs = self._value(inst.rhs, env)
        op = inst.op
        if op.startswith("f"):
            lhs, rhs = float(lhs), float(rhs)
            if op == "fadd":
                return lhs + rhs
            if op == "fsub":
                return lhs - rhs
            if op == "fmul":
                return lhs * rhs
            if op == "fdiv":
                return lhs / rhs if rhs != 0.0 else 0.0
            raise ExecutionError(f"unknown float op {op}")

        # pointer arithmetic through integer add/sub is allowed
        if isinstance(lhs, Pointer) and op in ("add", "sub"):
            delta = int(rhs)
            return lhs.moved(delta if op == "add" else -delta)

        lhs, rhs = int(lhs), int(rhs)
        if op == "add":
            result = lhs + rhs
        elif op == "sub":
            result = lhs - rhs
        elif op == "mul":
            result = lhs * rhs
        elif op == "sdiv":
            result = _truncated_div(lhs, rhs)
        elif op == "srem":
            result = lhs - _truncated_div(lhs, rhs) * rhs if rhs != 0 else 0
        elif op == "and":
            result = lhs & rhs
        elif op == "or":
            result = lhs | rhs
        elif op == "xor":
            result = lhs ^ rhs
        elif op == "shl":
            result = lhs << (rhs & 63)
        elif op == "ashr":
            result = lhs >> (rhs & 63)
        else:
            raise ExecutionError(f"unknown integer op {op}")
        if isinstance(inst.type, IntType):
            result = inst.type.wrap(result)
        return result

    def _compare(self, inst: Compare, env: Dict[int, object]) -> int:
        return self._compare_values(inst.predicate,
                                    self._value(inst.lhs, env),
                                    self._value(inst.rhs, env))

    @staticmethod
    def _compare_values(pred: str, lhs: object, rhs: object) -> int:
        if isinstance(lhs, (Pointer, FuncPointer)) or isinstance(rhs, (Pointer, FuncPointer)):
            equal = lhs == rhs
            if pred in ("eq", "oeq"):
                return 1 if equal else 0
            if pred in ("ne", "one"):
                return 0 if equal else 1
            # ordered comparison on pointers: compare identity-ish keys
            lhs_key = (id(getattr(lhs, "allocation", lhs)), getattr(lhs, "offset", 0))
            rhs_key = (id(getattr(rhs, "allocation", rhs)), getattr(rhs, "offset", 0))
            lhs, rhs = lhs_key, rhs_key
        table = {
            "eq": lhs == rhs, "ne": lhs != rhs,
            "slt": lhs < rhs, "sle": lhs <= rhs,
            "sgt": lhs > rhs, "sge": lhs >= rhs,
            "oeq": lhs == rhs, "one": lhs != rhs,
            "olt": lhs < rhs, "ole": lhs <= rhs,
            "ogt": lhs > rhs, "oge": lhs >= rhs,
        }
        return 1 if table[pred] else 0

    def _cast(self, inst: Cast, env: Dict[int, object]) -> object:
        value = self._value(inst.value, env)
        kind = inst.kind
        to_type = inst.type
        if kind in ("bitcast", "inttoptr", "ptrtoint"):
            return value
        if kind in ("trunc", "zext", "sext"):
            result = int(value)
            if isinstance(to_type, IntType):
                result = to_type.wrap(result)
            return result
        if kind == "fptosi":
            return int(value)
        if kind == "sitofp":
            return float(value)
        if kind in ("fpext", "fptrunc"):
            return float(value)
        raise ExecutionError(f"unknown cast kind {kind}")

    def _call(self, function: Function, inst: Call, env: Dict[int, object]):
        callee = self._value(inst.callee, env)
        args = [self._value(a, env) for a in inst.args]

        if isinstance(callee, FuncPointer):
            target = callee.function
            indirect = not isinstance(inst.callee, Function)
        elif isinstance(callee, Function):  # pragma: no cover - defensive
            target, indirect = callee, False
        else:
            raise ExecutionError(
                f"indirect call through non-function value in @{function.name}")

        self.cycles += self.cost_model.call_cost(len(args), indirect=indirect)
        result = self.call_function(target, args)
        if inst.has_result:
            env[id(inst)] = result if result is not None else 0
        return None


def _truncated_div(lhs: int, rhs: int) -> int:
    """C-style (truncate-toward-zero) integer division; division by zero is 0."""
    if rhs == 0:
        return 0
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs >= 0) == (rhs >= 0) else -quotient


class _Return:
    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


class _ProgramExit(Exception):
    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


def run_program(program: Program, inputs: Optional[Sequence[int]] = None,
                args: Optional[Sequence[object]] = None,
                max_steps: int = 5_000_000,
                cost_model: Optional[CostModel] = None,
                dispatch: Optional[str] = None) -> ExecutionResult:
    """Convenience wrapper: link (if needed), interpret, and return the result."""
    interpreter = Interpreter(program, cost_model=cost_model,
                              max_steps=max_steps, inputs=inputs,
                              dispatch=dispatch)
    return interpreter.run(args=args)
