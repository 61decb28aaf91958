"""Tests for values, instructions, builder, modules, cloning, linking and the verifier."""

import pytest

from repro.analysis.static import verification_errors
from repro.ir import (BasicBlock, BinaryOp, Call, Compare, CondBranch,
                      Constant, FunctionType, IRBuilder, Linkage,
                      Load, Module, Program, Ret, Switch, VerificationError,
                      assert_valid, create_function, instruction_to_str,
                      int_const, module_to_str, I64, VOID)
from repro.vm import run_program


def verify_function(function):
    """The rendered error diagnostics of ``function``."""
    return [d.render() for d in verification_errors(function)]


class TestValuesAndInstructions:
    def test_constant_wraps_to_type(self):
        c = Constant(I64, 2 ** 64 + 5)
        assert c.value == 5

    def test_binop_requires_known_op(self):
        with pytest.raises(ValueError):
            BinaryOp("bogus", int_const(1), int_const(2))

    def test_compare_produces_i1(self):
        cmp = Compare("slt", int_const(1), int_const(2))
        assert cmp.type.bits == 1

    def test_load_requires_pointer(self):
        with pytest.raises(TypeError):
            Load(int_const(3))

    def test_call_arity_and_result_type(self):
        module = Module("m")
        callee = create_function(module, "f", I64, [I64, I64])
        call = Call(callee, [int_const(1), int_const(2)])
        assert call.type == I64
        assert len(call.args) == 2
        assert call.is_direct

    def test_replace_operand(self):
        a, b = int_const(1), int_const(2)
        op = BinaryOp("add", a, a)
        assert op.replace_operand(a, b) == 2
        assert op.lhs is b and op.rhs is b

    def test_terminator_successors(self):
        block_a = BasicBlock("a")
        block_b = BasicBlock("b")
        cond = CondBranch(int_const(1, 1), block_a, block_b)
        assert cond.successors() == [block_a, block_b]
        switch = Switch(int_const(0), block_a, [(Constant(I64, 1), block_b)])
        assert set(id(s) for s in switch.successors()) == {id(block_a), id(block_b)}


class TestBuilderAndFunction:
    def test_builder_refuses_terminated_block(self):
        module = Module("m")
        f = create_function(module, "f", I64, [])
        b = IRBuilder(f.entry_block)
        b.ret(0)
        with pytest.raises(RuntimeError):
            b.add(1, 2)

    def test_unique_block_names(self):
        module = Module("m")
        f = create_function(module, "f", VOID, [])
        first = f.add_block("loop")
        second = f.add_block("loop")
        assert first.name != second.name

    def test_predecessors(self):
        module = Module("m")
        f = create_function(module, "f", I64, [I64])
        b = IRBuilder(f.entry_block)
        then = f.add_block("then")
        other = f.add_block("other")
        b.cond_br(b.icmp("sgt", f.args[0], 0), then, other)
        b.position_at_end(then)
        b.ret(1)
        b.position_at_end(other)
        b.ret(0)
        preds = f.predecessors()
        assert preds[then] == [f.entry_block]
        assert preds[other] == [f.entry_block]


class TestModuleAndProgram:
    def test_duplicate_function_rejected(self):
        module = Module("m")
        create_function(module, "f", I64, [])
        with pytest.raises(ValueError):
            create_function(module, "f", I64, [])

    def test_declare_function_is_idempotent(self):
        module = Module("m")
        first = module.declare_function("ext", FunctionType(I64, [I64]))
        second = module.declare_function("ext", FunctionType(I64, [I64]))
        assert first is second

    def test_clone_is_independent(self, demo_program):
        clone = demo_program.clone()
        original_main = demo_program.find_function("main")
        cloned_main = clone.find_function("main")
        assert cloned_main is not original_main
        cloned_main.blocks[0].instructions[0].name = "mutated"
        assert original_main.blocks[0].instructions[0].name != "mutated"

    def test_clone_preserves_behaviour(self, demo_program):
        original = run_program(demo_program)
        cloned = run_program(demo_program.clone())
        assert original.observable() == cloned.observable()

    def test_link_merges_modules(self):
        lib = Module("lib")
        helper = create_function(lib, "helper", I64, [I64],
                                 linkage=Linkage.EXPORTED)
        hb = IRBuilder(helper.entry_block)
        hb.ret(hb.add(helper.args[0], 10))

        app = Module("app")
        main = create_function(app, "main", I64, [])
        mb = IRBuilder(main.entry_block)
        mb.ret(mb.call(helper, [32]))

        program = Program("two", [lib, app])
        linked = program.link()
        assert len(linked.modules) == 1
        assert linked.modules[0].get_function("helper") is not None
        assert run_program(linked).exit_value == 42
        # origin modules are remembered for the trampoline rule
        assert linked.modules[0].get_function("helper").attributes["origin_module"] == "lib"

    def test_link_resolves_duplicate_internal_names(self):
        first = Module("first")
        f1 = create_function(first, "util", I64, [])
        IRBuilder(f1.entry_block).ret(1)
        second = Module("second")
        f2 = create_function(second, "util", I64, [])
        IRBuilder(f2.entry_block).ret(2)
        main_mod = Module("mainmod")
        main = create_function(main_mod, "main", I64, [])
        IRBuilder(main.entry_block).ret(0)
        linked = Program("p", [first, second, main_mod]).link()
        names = [f.name for f in linked.defined_functions()]
        assert len([n for n in names if n.startswith("util")]) == 2
        assert len(set(names)) == len(names)


class TestPrinterAndVerifier:
    def test_printer_round_trips_key_syntax(self, demo_module):
        text = module_to_str(demo_module)
        assert "define i64 @classify" in text
        assert "br " in text and "ret " in text
        assert "declare i64 @putint" in text

    def test_instruction_to_str(self):
        inst = BinaryOp("add", int_const(1), int_const(2), name="t")
        assert "add" in instruction_to_str(inst)

    def test_verifier_accepts_demo(self, demo_module):
        assert_valid(demo_module)

    def test_verifier_rejects_missing_terminator(self):
        module = Module("m")
        f = create_function(module, "f", I64, [])
        IRBuilder(f.entry_block).add(1, 2)
        errors = verify_function(f)
        assert any("terminator" in e for e in errors)

    def test_verifier_rejects_wrong_arity_call(self):
        module = Module("m")
        callee = create_function(module, "callee", I64, [I64])
        IRBuilder(callee.entry_block).ret(0)
        caller = create_function(module, "caller", I64, [])
        call = Call(callee, [])
        caller.entry_block.append(call)
        caller.entry_block.append(Ret(call))
        errors = verify_function(caller)
        assert any("args" in e for e in errors)

    def test_verifier_rejects_cross_function_operand(self):
        module = Module("m")
        first = create_function(module, "first", I64, [])
        fb = IRBuilder(first.entry_block)
        value = fb.add(1, 2)
        fb.ret(value)
        second = create_function(module, "second", I64, [])
        second.entry_block.append(Ret(value))
        errors = verify_function(second)
        assert errors

    def test_verifier_rejects_ret_mismatch(self):
        module = Module("m")
        f = create_function(module, "f", VOID, [])
        f.entry_block.append(Ret(int_const(1)))
        with pytest.raises(VerificationError):
            assert_valid(f)
