"""Compiled-dispatch fast path for the interpreter.

The baseline interpreter walks a long ``isinstance`` ladder for every executed
instruction and re-resolves every operand through a second ``isinstance``
ladder (:meth:`Interpreter._value`).  For the overhead experiments (Figures 6
and 7) each workload executes tens of thousands of steps, so this per-step
dispatch dominates the whole measurement loop.

:class:`BlockCompiler` (``compiled`` dispatch) removes the per-step work:

* a **per-instruction-class dispatch table** (:attr:`BlockCompiler._COMPILERS`)
  maps each concrete instruction class to a compile routine, resolved once per
  static instruction instead of once per executed step;
* each compile routine emits a **step closure** with pre-resolved operand
  slots: constants are captured as raw Python values, globals as their
  interpreter :class:`Pointer`, function references as :class:`FuncPointer`
  objects, and SSA values as captured ``id()`` keys into the per-call
  environment dict — fetched inline (``env[key]``) in the hot instruction
  classes, exactly mirroring :meth:`Interpreter._value`;
* per-instruction cycle costs are fully static (including the direct/indirect
  call surcharge), so the interpreter charges a precomputed **block total**
  once per executed call-free block instead of chasing cost-model attributes
  per step; blocks containing calls are charged per step, in legacy order.

The compiled form of a block is the tuple
``(body, last, count, total_cost, per_step, has_call)``: ``body`` holds the
closures before the terminator (their return values are ignored), ``last`` is
the terminator closure (the only one whose outcome is inspected), and
``per_step`` pairs every closure with its individual cost for the exact-
accounting slow path (step limit in reach, or a call in the block).

Compiled blocks are built lazily the first time a block executes and cached on
the interpreter; :meth:`Interpreter.invalidate_compiled` drops the cache for a
function whose IR changed.  Semantics — observable output, cycle counts, step
counts, error behaviour — are identical to the legacy path on every program
that runs to completion (including ``exit()``), which is differential-tested
in ``tests/test_vm_compiled.py``.  The single permitted divergence: when a
program *aborts* with an :class:`ExecutionError` mid-block, the partially-
charged counters on the (discarded) interpreter may differ from legacy.
"""

from __future__ import annotations

import operator

from typing import Callable, Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                               CondBranch, GetElementPtr, Load, Ret, Select,
                               Store, Switch, Unreachable)
from ..ir.types import IntType
from ..ir.values import (Constant, GlobalVariable, NullPointer, UndefValue,
                         Value)

#: A compiled step: executes one instruction against the environment and
#: returns ``None`` (fall through), a :class:`BasicBlock` (jump) or a
#: ``_Return`` marker.
Step = Callable[[dict], object]

#: ``(body, last, count, total_cost, per_step, has_call)`` — see module docs.
CompiledBlock = Tuple[Tuple[Step, ...], Optional[Step], int, int,
                      Tuple[Tuple[Step, int], ...], bool]

_ORDERED_PREDICATES = {
    "eq": operator.eq, "ne": operator.ne,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
    "oeq": operator.eq, "one": operator.ne,
    "olt": operator.lt, "ole": operator.le,
    "ogt": operator.gt, "oge": operator.ge,
}


class BlockCompiler:
    """Compiles basic blocks of one :class:`Interpreter` into step closures."""

    def __init__(self, interpreter):
        # the import is deferred to avoid a circular import at module load
        from .machine import (Allocation, ExecutionError, FuncPointer,
                              NULL_SENTINEL, Pointer, _Return, _truncated_div)
        self._interp = interpreter
        self._Allocation = Allocation
        self._ExecutionError = ExecutionError
        self._FuncPointer = FuncPointer
        self._Pointer = Pointer
        self._Return = _Return
        self._null = NULL_SENTINEL
        self._truncated_div = _truncated_div

    # -- operand pre-resolution ---------------------------------------------------

    def _slot(self, value: Optional[Value]):
        """Pre-resolve one operand.

        Returns ``(key, name, None)`` for SSA values living in the call
        environment, or ``(None, None, resolved)`` for operands whose runtime
        value is fixed at compile time — mirroring ``Interpreter._value`` with
        the type ladder hoisted out of the loop.
        """
        if value is None:
            return None, None, None
        if isinstance(value, NullPointer):
            return None, None, self._null
        if isinstance(value, Constant):
            return None, None, value.value
        if isinstance(value, UndefValue):
            return None, None, 0
        if isinstance(value, GlobalVariable):
            return None, None, self._interp.globals[value.name]
        if isinstance(value, Function):
            return None, None, self._FuncPointer(value, 0)
        return id(value), value.name, None

    def _operand(self, value: Optional[Value]) -> Step:
        """A getter closure for operand positions that stay generic."""
        key, name, imm = self._slot(value)
        if key is None:
            return lambda env: imm
        error = self._ExecutionError

        def get(env):
            try:
                return env[key]
            except KeyError:
                raise error(f"use of undefined value %{name}") from None
        return get

    def _undef(self, name: str):
        return self._ExecutionError(f"use of undefined value %{name}")

    # -- per-class compile routines -----------------------------------------------
    #
    # Every routine returns ``(step, cost)``.  Step closures are *bare*: they
    # do not touch the interpreter's counters (the block driver charges steps,
    # instructions and cycles) — except calls, which charge their own cycles
    # mid-step to keep the legacy ordering around recursion, and therefore
    # report a cost of 0.

    def _compile_binop(self, function: Function, inst: BinaryOp):
        cost = self._interp.cost_model.arithmetic
        key = id(inst)
        lk, ln, lv = self._slot(inst.lhs)
        rk, rn, rv = self._slot(inst.rhs)
        op = inst.op
        error = self._ExecutionError

        if op[0] == "f":
            if op == "fadd":
                def apply(a, b):
                    return float(a) + float(b)
            elif op == "fsub":
                def apply(a, b):
                    return float(a) - float(b)
            elif op == "fmul":
                def apply(a, b):
                    return float(a) * float(b)
            elif op == "fdiv":
                def apply(a, b):
                    return float(a) / float(b) if float(b) != 0.0 else 0.0
            else:
                raise error(f"unknown float op {op}")
        else:
            apply = self._int_binop(inst, op)

        if lk is not None and rk is not None:
            def step(env):
                try:
                    a = env[lk]
                except KeyError:
                    raise error(f"use of undefined value %{ln}") from None
                try:
                    b = env[rk]
                except KeyError:
                    raise error(f"use of undefined value %{rn}") from None
                env[key] = apply(a, b)
        elif lk is not None:
            def step(env):
                try:
                    a = env[lk]
                except KeyError:
                    raise error(f"use of undefined value %{ln}") from None
                env[key] = apply(a, rv)
        elif rk is not None:
            def step(env):
                try:
                    b = env[rk]
                except KeyError:
                    raise error(f"use of undefined value %{rn}") from None
                env[key] = apply(lv, b)
        else:
            def step(env):
                env[key] = apply(lv, rv)
        return step, cost

    def _int_binop(self, inst: BinaryOp, op: str):
        """An ``apply(lhs, rhs)`` for one integer binop, wrap folded in.

        The 64-bit forms — the overwhelming majority of executed arithmetic —
        are written out flat (one closure, branchless two's-complement wrap)
        so a binop step performs exactly one nested call.  ``add``/``sub``
        keep the legacy pointer-arithmetic escape hatch inline.
        """
        Pointer = self._Pointer
        trunc_div = self._truncated_div
        if isinstance(inst.type, IntType):
            bits = inst.type.bits
        else:
            bits = 0  # no wrapping (pointer-typed add/sub and the like)
        if bits > 1:
            half = 1 << (bits - 1)
            mask = (1 << bits) - 1
            # ((v + half) & mask) - half == IntType.wrap(v) for bits > 1
            if op == "add":
                def apply(a, b):
                    # int(Pointer) raises TypeError, so the pointer-arithmetic
                    # escape hatch costs nothing on the integer fast path
                    try:
                        return ((int(a) + int(b) + half) & mask) - half
                    except TypeError:
                        if isinstance(a, Pointer):
                            return a.moved(int(b))
                        raise
            elif op == "sub":
                def apply(a, b):
                    try:
                        return ((int(a) - int(b) + half) & mask) - half
                    except TypeError:
                        if isinstance(a, Pointer):
                            return a.moved(-int(b))
                        raise
            elif op == "mul":
                def apply(a, b):
                    return ((int(a) * int(b) + half) & mask) - half
            elif op == "sdiv":
                def apply(a, b):
                    return ((trunc_div(int(a), int(b)) + half) & mask) - half
            elif op == "srem":
                def apply(a, b):
                    a, b = int(a), int(b)
                    r = a - trunc_div(a, b) * b if b != 0 else 0
                    return ((r + half) & mask) - half
            elif op == "and":
                def apply(a, b):
                    return ((int(a) & int(b)) + half & mask) - half
            elif op == "or":
                def apply(a, b):
                    return ((int(a) | int(b)) + half & mask) - half
            elif op == "xor":
                def apply(a, b):
                    return ((int(a) ^ int(b)) + half & mask) - half
            elif op == "shl":
                def apply(a, b):
                    return ((int(a) << (int(b) & 63)) + half & mask) - half
            elif op == "ashr":
                def apply(a, b):
                    return ((int(a) >> (int(b) & 63)) + half & mask) - half
            else:
                raise self._ExecutionError(f"unknown integer op {op}")
            return apply

        if bits == 1:
            def fix(v):
                return v & 1
        else:
            def fix(v):
                return v
        if op == "add":
            def apply(a, b):
                if isinstance(a, Pointer):
                    return a.moved(int(b))
                return fix(int(a) + int(b))
        elif op == "sub":
            def apply(a, b):
                if isinstance(a, Pointer):
                    return a.moved(-int(b))
                return fix(int(a) - int(b))
        elif op == "mul":
            def apply(a, b):
                return fix(int(a) * int(b))
        elif op == "sdiv":
            def apply(a, b):
                return fix(trunc_div(int(a), int(b)))
        elif op == "srem":
            def apply(a, b):
                a, b = int(a), int(b)
                return fix(a - trunc_div(a, b) * b if b != 0 else 0)
        elif op == "and":
            def apply(a, b):
                return fix(int(a) & int(b))
        elif op == "or":
            def apply(a, b):
                return fix(int(a) | int(b))
        elif op == "xor":
            def apply(a, b):
                return fix(int(a) ^ int(b))
        elif op == "shl":
            def apply(a, b):
                return fix(int(a) << (int(b) & 63))
        elif op == "ashr":
            def apply(a, b):
                return fix(int(a) >> (int(b) & 63))
        else:
            raise self._ExecutionError(f"unknown integer op {op}")
        return apply

    def _compile_compare(self, function: Function, inst: Compare):
        cost = self._interp.cost_model.compare
        key = id(inst)
        lk, ln, lv = self._slot(inst.lhs)
        rk, rn, rv = self._slot(inst.rhs)
        pred = inst.predicate
        cmp = _ORDERED_PREDICATES[pred]
        slow = self._interp._compare_values
        error = self._ExecutionError
        equality = pred in ("eq", "ne", "oeq", "one")

        # Equality predicates need no pointer special-casing at all: Pointer
        # and FuncPointer implement identity-shaped __eq__, which is exactly
        # what the legacy pointer branch computes.  Ordered predicates raise
        # TypeError on pointers, so the legacy identity-key comparison only
        # runs on that (cold) fallback.
        if lk is not None and rk is not None:
            if equality:
                def step(env):
                    try:
                        a = env[lk]
                        b = env[rk]
                    except KeyError:
                        name = ln if lk not in env else rn
                        raise error(f"use of undefined value %{name}") \
                            from None
                    env[key] = 1 if cmp(a, b) else 0
            else:
                def step(env):
                    try:
                        a = env[lk]
                        b = env[rk]
                    except KeyError:
                        name = ln if lk not in env else rn
                        raise error(f"use of undefined value %{name}") \
                            from None
                    try:
                        env[key] = 1 if cmp(a, b) else 0
                    except TypeError:
                        env[key] = slow(pred, a, b)
        elif lk is not None:
            if equality:
                def step(env):
                    try:
                        a = env[lk]
                    except KeyError:
                        raise error(f"use of undefined value %{ln}") from None
                    env[key] = 1 if cmp(a, rv) else 0
            else:
                def step(env):
                    try:
                        a = env[lk]
                    except KeyError:
                        raise error(f"use of undefined value %{ln}") from None
                    try:
                        env[key] = 1 if cmp(a, rv) else 0
                    except TypeError:
                        env[key] = slow(pred, a, rv)
        elif rk is not None:
            if equality:
                def step(env):
                    try:
                        b = env[rk]
                    except KeyError:
                        raise error(f"use of undefined value %{rn}") from None
                    env[key] = 1 if cmp(lv, b) else 0
            else:
                def step(env):
                    try:
                        b = env[rk]
                    except KeyError:
                        raise error(f"use of undefined value %{rn}") from None
                    try:
                        env[key] = 1 if cmp(lv, b) else 0
                    except TypeError:
                        env[key] = slow(pred, lv, b)
        else:
            def step(env):
                env[key] = slow(pred, lv, rv)
        return step, cost

    def _compile_alloca(self, function: Function, inst: Alloca):
        cost = self._interp.cost_model.alloca
        key = id(inst)
        size = max(1, inst.allocated_type.size_in_slots() * max(1, inst.count))
        label = f"%{inst.name}"
        Allocation = self._Allocation
        Pointer = self._Pointer

        def step(env):
            env[key] = Pointer(Allocation([0] * size, label=label), 0)
        return step, cost

    def _compile_load(self, function: Function, inst: Load):
        cost = self._interp.cost_model.load
        key = id(inst)
        pk, pn, pv = self._slot(inst.pointer)
        Pointer = self._Pointer
        error = self._ExecutionError

        if pk is not None:
            # only Pointer carries .allocation, so the AttributeError fallback
            # replaces an isinstance check on the hot path for free
            def step(env):
                try:
                    ptr = env[pk]
                except KeyError:
                    raise error(f"use of undefined value %{pn}") from None
                try:
                    cells = ptr.allocation.cells
                except AttributeError:
                    raise error(f"load from non-pointer value {ptr!r}") \
                        from None
                offset = ptr.offset
                if 0 <= offset < len(cells):
                    env[key] = cells[offset]
                else:
                    raise error(f"out-of-bounds load at "
                                f"{ptr.allocation.label}+{offset}")
        else:
            def step(env):
                ptr = pv
                if not isinstance(ptr, Pointer):
                    raise error(f"load from non-pointer value {ptr!r}")
                cells = ptr.allocation.cells
                offset = ptr.offset
                if 0 <= offset < len(cells):
                    env[key] = cells[offset]
                else:
                    raise error(f"out-of-bounds load at "
                                f"{ptr.allocation.label}+{offset}")
        return step, cost

    def _compile_store(self, function: Function, inst: Store):
        cost = self._interp.cost_model.store
        vk, vn, vv = self._slot(inst.value)
        pk, pn, pv = self._slot(inst.pointer)
        Pointer = self._Pointer
        error = self._ExecutionError

        if vk is not None and pk is not None:
            def step(env):
                try:
                    value = env[vk]
                except KeyError:
                    raise error(f"use of undefined value %{vn}") from None
                try:
                    ptr = env[pk]
                except KeyError:
                    raise error(f"use of undefined value %{pn}") from None
                try:
                    cells = ptr.allocation.cells
                except AttributeError:
                    raise error(f"store to non-pointer value {ptr!r}") \
                        from None
                offset = ptr.offset
                if 0 <= offset < len(cells):
                    cells[offset] = value
                else:
                    raise error(f"out-of-bounds store at "
                                f"{ptr.allocation.label}+{offset}")
        else:
            value_get = self._operand(inst.value)
            ptr_get = self._operand(inst.pointer)

            def step(env):
                value = value_get(env)
                ptr = ptr_get(env)
                if not isinstance(ptr, Pointer):
                    raise error(f"store to non-pointer value {ptr!r}")
                cells = ptr.allocation.cells
                offset = ptr.offset
                if 0 <= offset < len(cells):
                    cells[offset] = value
                else:
                    raise error(f"out-of-bounds store at "
                                f"{ptr.allocation.label}+{offset}")
        return step, cost

    def _compile_gep(self, function: Function, inst: GetElementPtr):
        cost = self._interp.cost_model.gep
        key = id(inst)
        ptr_get = self._operand(inst.pointer)
        ik, iname, iv = self._slot(inst.index)
        Pointer = self._Pointer
        error = self._ExecutionError
        fname = function.name

        if ik is not None:
            def step(env):
                ptr = ptr_get(env)
                try:
                    index = int(env[ik])
                except KeyError:
                    raise error(f"use of undefined value %{iname}") from None
                try:
                    env[key] = Pointer(ptr.allocation, ptr.offset + index)
                except AttributeError:
                    raise error(f"gep on non-pointer value in @{fname}") \
                        from None
        else:
            index = int(iv)

            def step(env):
                ptr = ptr_get(env)
                try:
                    env[key] = Pointer(ptr.allocation, ptr.offset + index)
                except AttributeError:
                    raise error(f"gep on non-pointer value in @{fname}") \
                        from None
        return step, cost

    def _compile_cast(self, function: Function, inst: Cast):
        cost = self._interp.cost_model.cast
        key = id(inst)
        value_get = self._operand(inst.value)
        kind = inst.kind
        to_type = inst.type
        error = self._ExecutionError

        if kind in ("bitcast", "inttoptr", "ptrtoint"):
            def apply(v):
                return v
        elif kind in ("trunc", "zext", "sext"):
            if isinstance(to_type, IntType):
                wrap = to_type.wrap
                def apply(v):
                    return wrap(int(v))
            else:
                def apply(v):
                    return int(v)
        elif kind == "fptosi":
            def apply(v):
                return int(v)
        elif kind in ("sitofp", "fpext", "fptrunc"):
            def apply(v):
                return float(v)
        else:
            raise error(f"unknown cast kind {kind}")

        def step(env):
            env[key] = apply(value_get(env))
        return step, cost

    def _compile_select(self, function: Function, inst: Select):
        cost = self._interp.cost_model.select
        key = id(inst)
        cond_get = self._operand(inst.condition)
        true_get = self._operand(inst.true_value)
        false_get = self._operand(inst.false_value)

        # plain truth testing matches Interpreter._truthy for every runtime
        # value: Pointer/FuncPointer define no __bool__/__len__ and are truthy
        def step(env):
            chosen = true_get if cond_get(env) else false_get
            env[key] = chosen(env)
        return step, cost

    def _compile_call(self, function: Function, inst: Call):
        interp = self._interp
        key = id(inst)
        arg_gets = [self._operand(a) for a in inst.args]
        has_result = inst.has_result
        # the direct/indirect distinction is static: it depends on the callee
        # *operand*, not on the runtime value flowing through it
        indirect = not isinstance(inst.callee, Function)
        cost = interp.cost_model.call_cost(len(arg_gets), indirect=indirect)
        call_function = interp.call_function
        FuncPointer = self._FuncPointer
        error = self._ExecutionError
        fname = function.name

        if not indirect:
            target = inst.callee

            def step(env):
                args = [g(env) for g in arg_gets]
                interp.cycles += cost
                result = call_function(target, args)
                if has_result:
                    env[key] = result if result is not None else 0
            return step, 0

        callee_get = self._operand(inst.callee)
        # matches the legacy defensive branch: a raw Function value flowing
        # through an indirect callee is charged as a direct call
        direct_cost = interp.cost_model.call_cost(len(arg_gets), indirect=False)

        def step(env):
            callee = callee_get(env)
            args = [g(env) for g in arg_gets]
            if isinstance(callee, FuncPointer):
                target = callee.function
                interp.cycles += cost
            elif isinstance(callee, Function):  # pragma: no cover - defensive
                target = callee
                interp.cycles += direct_cost
            else:
                raise error(
                    f"indirect call through non-function value in @{fname}")
            result = call_function(target, args)
            if has_result:
                env[key] = result if result is not None else 0
        return step, 0

    # -- terminators --------------------------------------------------------------

    def _compile_ret(self, function: Function, inst: Ret):
        cost = self._interp.cost_model.ret
        Return = self._Return
        if inst.value is None:
            return (lambda env: Return(None)), cost
        value_get = self._operand(inst.value)
        return (lambda env: Return(value_get(env))), cost

    def _compile_branch(self, function: Function, inst: Branch):
        cost = self._interp.cost_model.branch
        target = inst.target
        return (lambda env: target), cost

    def _compile_cond_branch(self, function: Function, inst: CondBranch):
        cost = self._interp.cost_model.cond_branch
        ck, cn, cv = self._slot(inst.condition)
        true_target = inst.true_target
        false_target = inst.false_target
        error = self._ExecutionError

        if ck is not None:
            # plain truth testing matches Interpreter._truthy (see select)
            def step(env):
                try:
                    cond = env[ck]
                except KeyError:
                    raise error(f"use of undefined value %{cn}") from None
                return true_target if cond else false_target
        else:
            fixed = true_target if self._interp._truthy(cv) else false_target

            def step(env):
                return fixed
        return step, cost

    def _compile_switch(self, function: Function, inst: Switch):
        cost = self._interp.cost_model.switch
        value_get = self._operand(inst.value)
        table: Dict[int, BasicBlock] = {}
        # first matching case wins, exactly like the legacy linear scan
        for constant, target in inst.cases:
            table.setdefault(int(constant.value), target)
        default = inst.default_target
        get_target = table.get

        def step(env):
            return get_target(int(value_get(env)), default)
        return step, cost

    def _compile_unreachable(self, function: Function, inst: Unreachable):
        error = self._ExecutionError
        fname = function.name

        def step(env):
            raise error(f"reached unreachable in @{fname}")
        # the legacy path raises before charging any cycles
        return step, 0

    _COMPILERS = {
        BinaryOp: _compile_binop,
        Compare: _compile_compare,
        Alloca: _compile_alloca,
        Load: _compile_load,
        Store: _compile_store,
        GetElementPtr: _compile_gep,
        Cast: _compile_cast,
        Select: _compile_select,
        Call: _compile_call,
        Ret: _compile_ret,
        Branch: _compile_branch,
        CondBranch: _compile_cond_branch,
        Switch: _compile_switch,
        Unreachable: _compile_unreachable,
    }

    # -- block compilation ---------------------------------------------------------

    def compile_block(self, function: Function,
                      block: BasicBlock) -> CompiledBlock:
        """Compile ``block`` up to (and including) its first terminator.

        The legacy path never executes anything past the first terminator, so
        neither does the compiled form.
        """
        per_step: List[Tuple[Step, int]] = []
        has_call = False
        for inst in block.instructions:
            compiler = self._lookup(type(inst))
            if compiler is None:
                opcode = inst.opcode
                error = self._ExecutionError

                def step(env, _opcode=opcode, _error=error):
                    raise _error(f"unknown instruction {_opcode}")
                per_step.append((step, 0))
            else:
                if isinstance(inst, Call):
                    has_call = True
                per_step.append(compiler(self, function, inst))
            if inst.is_terminator:
                break
        steps = tuple(s for s, _ in per_step)
        total_cost = sum(c for _, c in per_step)
        body = steps[:-1] if steps else ()
        last = steps[-1] if steps else None
        return (body, last, len(steps), total_cost, tuple(per_step), has_call)

    @classmethod
    def _lookup(cls, inst_class):
        """Resolve a compile routine, honouring instruction subclasses."""
        for klass in inst_class.__mro__:
            compiler = cls._COMPILERS.get(klass)
            if compiler is not None:
                return compiler
        return None
