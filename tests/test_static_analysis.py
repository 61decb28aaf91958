"""Tests for the deep static-analysis subsystem (repro.analysis.static).

Covers: tier resolution, a failing-input test for every diagnostic code,
verify-result caching through the AnalysisManager, the PassManager /
obfuscator / post-link wiring, reg2mem demotion, baseline suppression,
and the corpus property suite (every scheme's output verifies clean at the
``full`` tier).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.manager import AnalysisManager
from repro.analysis.static import (ALL_CODES, costcheck, dominance, lints,
                                   structural, typecheck, verify,
                                   verify_function)
from repro.analysis.static.diagnostics import (apply_baseline,
                                               diagnostics_to_json,
                                               load_baseline, write_baseline)
from repro.analysis.static.verify import resolve_tier
from repro.ir import (FunctionType, IRBuilder, Module, Program,
                      VerificationError, assert_valid, create_function, F64,
                      I1, I8, I64)
from repro.ir.instructions import (BinaryOp, Call, Cast, Compare, CondBranch,
                                   GetElementPtr, Ret, Select, Store, Switch)
from repro.ir.values import Constant, GlobalVariable, UndefValue
from repro.opt.pass_manager import Pass, PassManager
from repro.opt.reg2mem import demote_undominated
from repro.vm.machine import Interpreter
from repro.workloads import load_suite, suite_names


def codes_of(diagnostics):
    return {d.code for d in diagnostics}


def valid_function(module=None, name="f", return_type=I64):
    module = module if module is not None else Module("m")
    f = create_function(module, name, return_type, [I64])
    b = IRBuilder(f.entry_block)
    return module, f, b


# -- tier resolution ---------------------------------------------------------------


class TestTierResolution:
    def test_default_is_structural(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_IR", raising=False)
        assert resolve_tier(None) == "structural"
        assert resolve_tier(True) == "structural"

    def test_env_var_selects_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_IR", "full")
        assert resolve_tier(None) == "full"
        assert resolve_tier(True) == "full"
        # an explicit tier wins over the environment
        assert resolve_tier("typed") == "typed"

    def test_unknown_tier_raises(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_tier("everything")
        monkeypatch.setenv("REPRO_VERIFY_IR", "bogus")
        with pytest.raises(ValueError):
            resolve_tier(None)

    def test_every_code_is_unique(self):
        assert len(ALL_CODES) == len(set(ALL_CODES))


# -- structural codes --------------------------------------------------------------


class TestStructuralCodes:
    def test_empty_block(self):
        _, f, b = valid_function()
        b.ret(0)
        f.add_block("empty")
        assert "empty-block" in codes_of(structural.check_function(f))

    def test_missing_terminator(self):
        _, f, b = valid_function()
        b.add(1, 2)
        assert "missing-terminator" in codes_of(structural.check_function(f))

    def test_multiple_terminators(self):
        _, f, b = valid_function()
        b.ret(0)
        b.block.append(Ret(Constant(I64, 1)))
        assert "multiple-terminators" in codes_of(structural.check_function(f))

    def test_terminator_not_last(self):
        _, f, b = valid_function()
        b.ret(0)
        b.block.append(BinaryOp("add", Constant(I64, 1), Constant(I64, 2)))
        diagnostics = structural.check_function(f)
        assert "terminator-not-last" in codes_of(diagnostics)

    def test_foreign_branch_target(self):
        module, f, b = valid_function()
        _, other, ob = valid_function(module, name="g")
        ob.ret(0)
        b.block.append(__import__("repro.ir.instructions", fromlist=["Branch"])
                       .Branch(other.entry_block))
        assert "foreign-branch-target" in codes_of(
            structural.check_function(f))

    def test_null_operand(self):
        _, f, b = valid_function()
        inst = b.add(1, 2)
        inst.operands[1] = None
        b.ret(inst)
        assert "null-operand" in codes_of(structural.check_function(f))

    def test_foreign_argument(self):
        module, f, b = valid_function()
        _, other, ob = valid_function(module, name="g")
        ob.ret(0)
        b.ret(other.args[0])
        assert "foreign-argument" in codes_of(structural.check_function(f))

    def test_foreign_instruction(self):
        module, f, b = valid_function()
        _, other, ob = valid_function(module, name="g")
        foreign = ob.add(1, 2)
        ob.ret(foreign)
        b.ret(b.add(foreign, 1))
        assert "foreign-instruction" in codes_of(structural.check_function(f))

    def test_call_arity(self):
        module, f, b = valid_function()
        callee = module.declare_function("callee", FunctionType(I64, [I64, I64]))
        b.ret(b.call(callee, [Constant(I64, 1)]))
        assert "call-arity" in codes_of(structural.check_function(f))

    def test_ret_mismatch(self):
        _, f, b = valid_function()
        b.block.append(Ret(None))
        assert "ret-mismatch" in codes_of(structural.check_function(f))


# -- type-check codes --------------------------------------------------------------


class TestTypecheckCodes:
    def check(self, f):
        assert not [d for d in structural.check_function(f) if d.is_error], \
            "typecheck fixtures must be structurally clean"
        return codes_of(typecheck.check_function(f))

    def test_binop_type(self):
        _, f, b = valid_function()
        bad = BinaryOp("add", Constant(I64, 1), Constant(F64, 2.0))
        b.block.append(bad)
        b.ret(bad)
        assert "binop-type" in self.check(f)

    def test_compare_type(self):
        _, f, b = valid_function()
        bad = Compare("slt", Constant(I64, 1), Constant(F64, 2.0))
        b.block.append(bad)
        b.ret(b.cast("zext", bad, I64))
        assert "compare-type" in self.check(f)

    def test_cond_type(self):
        _, f, b = valid_function()
        then = f.add_block("then")
        IRBuilder(then).ret(1)
        other = f.add_block("other")
        IRBuilder(other).ret(2)
        b.block.append(CondBranch(Constant(I64, 1), then, other))
        assert "cond-type" in self.check(f)

    def test_select_type(self):
        _, f, b = valid_function()
        sel = Select(Constant(I1, 1), Constant(I64, 1), Constant(F64, 2.0))
        b.block.append(sel)
        b.ret(sel)
        assert "select-type" in self.check(f)

    def test_load_type(self):
        _, f, b = valid_function()
        slot = b.alloca(I64, name="slot")
        loaded = b.load(slot, name="v")
        loaded.type = F64
        b.ret(b.cast("fptosi", loaded, I64))
        assert "load-type" in self.check(f)

    def test_store_type(self):
        _, f, b = valid_function()
        slot = b.alloca(I64, name="slot")
        b.block.append(Store(Constant(F64, 1.0), slot))
        b.ret(0)
        assert "store-type" in self.check(f)

    def test_gep_type(self):
        _, f, b = valid_function()
        slot = b.alloca(I64, count=4, name="slot")
        gep = GetElementPtr(slot, Constant(F64, 1.0))
        b.block.append(gep)
        b.ret(b.load(gep))
        assert "gep-type" in self.check(f)

    def test_cast_type(self):
        _, f, b = valid_function()
        bad = Cast("trunc", Constant(I8, 1), I64)
        b.block.append(bad)
        b.ret(bad)
        assert "cast-type" in self.check(f)

    def test_callee_type(self):
        module, f, b = valid_function()
        callee = module.declare_function("callee", FunctionType(I64, [I64]))
        call = Call(callee, [Constant(I64, 1)])
        call.operands[0] = Constant(I64, 7)
        b.block.append(call)
        b.ret(call)
        assert "callee-type" in self.check(f)

    def test_call_arg_type(self):
        module, f, b = valid_function()
        callee = module.declare_function("callee", FunctionType(I64, [I64]))
        call = Call(callee, [Constant(F64, 1.0)])
        b.block.append(call)
        b.ret(call)
        assert "call-arg-type" in self.check(f)

    def test_call_result_type(self):
        module, f, b = valid_function()
        callee = module.declare_function("callee", FunctionType(I64, [I64]))
        call = Call(callee, [Constant(I64, 1)])
        call.type = F64
        b.block.append(call)
        b.ret(b.cast("fptosi", call, I64))
        assert "call-result-type" in self.check(f)

    def test_ret_type(self):
        _, f, b = valid_function()
        b.block.append(Ret(Constant(F64, 1.0)))
        assert "ret-type" in self.check(f)

    def test_switch_type(self):
        _, f, b = valid_function()
        done = f.add_block("done")
        IRBuilder(done).ret(0)
        b.block.append(Switch(Constant(F64, 1.0), done))
        assert "switch-type" in self.check(f)

    def test_constant_value(self):
        _, f, b = valid_function()
        bad = Constant(I8, 1)
        bad.value = 4096          # bypasses the constructor's wrap
        inst = BinaryOp("add", bad, Constant(I8, 2))
        b.block.append(inst)
        b.ret(b.cast("sext", inst, I64))
        assert "constant-value" in self.check(f)

    def test_global_init(self):
        module, f, b = valid_function()
        b.ret(0)
        module.add_global(GlobalVariable("g", I64, initializer="nope"))
        diagnostics = typecheck.check_module(module)
        assert "global-init" in codes_of(diagnostics)


# -- dominance codes ---------------------------------------------------------------


class TestDominanceCodes:
    def test_use_before_def(self):
        _, f, b = valid_function()
        late = BinaryOp("add", Constant(I64, 1), Constant(I64, 2), name="late")
        early = BinaryOp("add", late, Constant(I64, 3), name="early")
        b.block.append(early)
        b.block.append(late)
        b.ret(early)
        assert "use-before-def" in codes_of(dominance.check_function(f))

    def test_dominance(self):
        _, f, b = valid_function()
        left = f.add_block("left")
        right = f.add_block("right")
        cond = b.icmp("eq", f.args[0], 0, name="cond")
        b.cond_br(cond, left, right)
        lb = IRBuilder(left)
        value = lb.add(1, 2, name="v")
        lb.ret(value)
        IRBuilder(right).ret(value)   # %v does not dominate right
        assert "dominance" in codes_of(dominance.check_function(f))

    def test_unreachable_def(self):
        _, f, b = valid_function()
        island = f.add_block("island")
        ib = IRBuilder(island)
        value = ib.add(1, 2, name="v")
        ib.ret(value)
        b.ret(value)                  # reachable use of an unreachable def
        assert "unreachable-def" in codes_of(dominance.check_function(f))


# -- dataflow lint codes -----------------------------------------------------------


class TestLintCodes:
    def test_unreachable_block(self):
        _, f, b = valid_function()
        b.ret(0)
        island = f.add_block("island")
        IRBuilder(island).ret(1)
        assert "unreachable-block" in codes_of(lints.check_function(f))

    def test_load_uninit(self):
        _, f, b = valid_function()
        slot = b.alloca(I64, name="slot")
        b.ret(b.load(slot))
        assert "load-uninit" in codes_of(lints.check_function(f))

    def test_dead_store(self):
        _, f, b = valid_function()
        slot = b.alloca(I64, name="slot")
        b.store(7, slot)
        b.ret(0)
        assert "dead-store" in codes_of(lints.check_function(f))

    def test_undef_operand(self):
        _, f, b = valid_function()
        inst = BinaryOp("add", UndefValue(I64), Constant(I64, 1))
        b.block.append(inst)
        b.ret(inst)
        assert "undef-operand" in codes_of(lints.check_function(f))

    def test_lints_are_warnings(self):
        _, f, b = valid_function()
        slot = b.alloca(I64, name="slot")
        b.store(7, slot)
        b.ret(0)
        assert all(not d.is_error for d in lints.check_function(f))
        # so full-tier *error* verification stays clean
        assert not [d for d in verify(f, tier="full") if d.is_error]


# -- cost-model consistency codes --------------------------------------------------


def _loop_program():
    module = Module("loopy")
    f = create_function(module, "main", I64, [])
    entry = f.entry_block
    loop = f.add_block("loop")
    body = f.add_block("body")
    done = f.add_block("done")
    b = IRBuilder(entry)
    i_slot = b.alloca(I64, name="i")
    acc_slot = b.alloca(I64, name="acc")
    b.store(0, i_slot)
    b.store(0, acc_slot)
    b.br(loop)
    b.position_at_end(loop)
    cond = b.icmp("slt", b.load(i_slot), 50, name="cond")
    b.cond_br(cond, body, done)
    b.position_at_end(body)
    b.store(b.add(b.load(acc_slot), b.load(i_slot)), acc_slot)
    b.store(b.add(b.load(i_slot), 1), i_slot)
    b.br(loop)
    b.position_at_end(done)
    b.ret(b.load(acc_slot))
    return Program("loopy", [module])


class TestCostCodes:
    def test_cost_block(self):
        interp = Interpreter(_loop_program(), dispatch="compiled")
        interp.run([])
        assert not costcheck.check_interpreter(interp)
        block, compiled = next(iter(interp._compiled_blocks.items()))
        tampered = (compiled[0], compiled[1], compiled[2],
                    compiled[3] + 5, compiled[4], compiled[5])
        interp._compiled_blocks[block] = tampered
        assert "cost-block" in codes_of(costcheck.check_interpreter(interp))

    def test_check_program_clean_on_workload(self):
        program = load_suite("embedded")[0].build()
        assert not costcheck.check_program(program)


# -- caching through the AnalysisManager -------------------------------------------


class TestVerifyCaching:
    def test_warm_reverification_is_a_cache_hit(self):
        _, f, b = valid_function()
        b.ret(f.args[0])
        analyses = AnalysisManager()
        first = verify_function(f, tier="full", analyses=analyses)
        hits_before = analyses.hits
        second = verify_function(f, tier="full", analyses=analyses)
        assert second is first               # the cached result object
        assert analyses.hits == hits_before + 1

    def test_tiers_cache_independently(self):
        _, f, b = valid_function()
        b.ret(f.args[0])
        analyses = AnalysisManager()
        assert verify_function(f, tier="structural", analyses=analyses) is not \
            verify_function(f, tier="full", analyses=analyses)

    def test_invalidation_drops_verify_entries(self):
        _, f, b = valid_function()
        b.ret(f.args[0])
        analyses = AnalysisManager()
        first = verify_function(f, tier="full", analyses=analyses)
        # passes name only real analyses in preserve=: verify entries drop
        analyses.invalidate(f, preserve=("cfg", "domtree"))
        misses_before = analyses.misses
        second = verify_function(f, tier="full", analyses=analyses)
        assert second is not first
        assert analyses.misses > misses_before


# -- wiring: PassManager, obfuscators, post-link -----------------------------------


class _NoOpPass(Pass):
    name = "no-op"

    def run(self, program, analyses=None):
        return False


def _typed_broken_program():
    module = Module("m")
    f = create_function(module, "main", I64, [])
    b = IRBuilder(f.entry_block)
    bad = BinaryOp("add", Constant(I64, 1), Constant(F64, 2.0))
    b.block.append(bad)
    b.ret(bad)
    return Program("m", [module])


class TestVerifyWiring:
    def test_pass_manager_tiered_verify_each(self):
        program = _typed_broken_program()
        PassManager([_NoOpPass()], verify_each="structural").run(program)
        with pytest.raises(VerificationError):
            PassManager([_NoOpPass()], verify_each="typed").run(program)

    def test_assert_valid_tier_escalation(self):
        program = _typed_broken_program()
        assert_valid(program, tier="structural")
        with pytest.raises(VerificationError) as info:
            assert_valid(program, tier="typed")
        assert "binop-type" in str(info.value)

    def test_post_link_verify_env_gated(self, monkeypatch):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        f.entry_block.append(
            BinaryOp("add", Constant(I64, 1), Constant(I64, 2)))
        program = Program("m", [module])
        monkeypatch.delenv("REPRO_VERIFY_IR", raising=False)
        program.link()                        # unverified: no raise
        monkeypatch.setenv("REPRO_VERIFY_IR", "structural")
        with pytest.raises(VerificationError):
            program.link()

    def test_obfuscators_verify_under_full_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_IR", "full")
        from repro.baselines.ollvm import flattening_obfuscator
        from repro.core.obfuscator import Khaos, KhaosConfig
        program = load_suite("embedded")[0].build()
        Khaos(KhaosConfig(mode="fufi.ori", seed=1)).obfuscate(program)
        flattening_obfuscator(1.0).obfuscate(
            load_suite("embedded")[0].build())


# -- reg2mem demotion --------------------------------------------------------------


class TestReg2mem:
    def _broken_diamond(self):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        entry = f.entry_block
        left = f.add_block("left")
        right = f.add_block("right")
        join = f.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp("eq", 1, 1, name="cond")
        b.cond_br(cond, left, right)
        lb = IRBuilder(left)
        value = lb.add(1, 2, name="v")
        lb.br(join)
        rb = IRBuilder(right)
        rb.br(join)
        IRBuilder(join).ret(value)    # %v does not dominate join
        return Program("m", [module]), f

    def test_demotes_exactly_the_broken_defs(self):
        program, f = self._broken_diamond()
        assert "dominance" in codes_of(dominance.check_function(f))
        assert demote_undominated(f) == 1
        assert not dominance.check_function(f)
        assert demote_undominated(f) == 0     # idempotent
        assert_valid(program, tier="full")

    def test_demotion_preserves_semantics(self):
        program, _f = self._broken_diamond()
        assert Interpreter(program).run([]).exit_value == 3

    def test_clean_function_untouched(self):
        _, f, b = valid_function()
        b.ret(b.add(f.args[0], 1))
        before = list(f.entry_block.instructions)
        assert demote_undominated(f) == 0
        assert f.entry_block.instructions == before


# -- diagnostics: baseline suppression and JSON ------------------------------------


class TestDiagnostics:
    def _findings(self):
        _, f, b = valid_function()
        slot = b.alloca(I64, name="slot")
        b.store(7, slot)
        b.ret(0)
        return verify(f, tier="full")

    def test_baseline_round_trip(self, tmp_path):
        findings = self._findings()
        assert findings
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        kept, suppressed = apply_baseline(findings, load_baseline(path))
        assert not kept
        assert len(suppressed) == len(findings)

    def test_baseline_schema_mismatch(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": 99, "suppressions": []}))
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_json_output_parses(self):
        payload = json.loads(diagnostics_to_json(self._findings()))
        assert payload
        assert {"severity", "code", "message"} <= set(payload[0])

    def test_render_mentions_code(self):
        finding = self._findings()[0]
        assert f"[{finding.code}]" in finding.render()


# -- corpus property suite ---------------------------------------------------------


SCHEMES = ("fission", "fusion", "fufi.sep", "fufi.ori", "fufi.all",
           "sub", "bog", "fla")


def _sample_workloads():
    sample = []
    for suite in suite_names():
        loaded = load_suite(suite)
        sample.extend((suite, w) for w in loaded[:2])
    return sample


class TestCorpusVerifiesClean:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheme_outputs_verify_full(self, scheme):
        from repro.baselines.ollvm import (bogus_obfuscator,
                                           flattening_obfuscator,
                                           sub_obfuscator)
        from repro.core.obfuscator import Khaos, KhaosConfig
        for _suite, workload in _sample_workloads():
            program = workload.build()
            if scheme in ("sub", "bog", "fla"):
                factory = {"sub": sub_obfuscator, "bog": bogus_obfuscator,
                           "fla": lambda: flattening_obfuscator(1.0)}[scheme]
                result = factory().obfuscate(program, verify=False)
            else:
                result = Khaos(KhaosConfig(mode=scheme, seed=1)).obfuscate(
                    program, verify=False)
            errors = [d for d in verify(result.program, tier="full")
                      if d.is_error]
            assert not errors, (
                f"{workload.name}/{scheme}: "
                + "; ".join(d.render() for d in errors[:5]))

    def test_optimized_outputs_verify_full(self):
        from repro.opt import optimize_program
        for _suite, workload in _sample_workloads()[:4]:
            optimize_program(workload.build(), verify_each="full")

    def test_all_160_workloads_link_clean_at_full_tier(self):
        total = 0
        for suite in suite_names():
            for workload in load_suite(suite):
                program = workload.build().link()
                errors = [d for d in verify(program, tier="full")
                          if d.is_error]
                assert not errors, f"{workload.name}: {errors[:3]}"
                total += 1
        assert total == 160
