"""Differential tests: superblock-dispatch VM vs. compiled and legacy tiers.

The superblock tier fuses hot block chains into generated trace functions
(with guarded side exits through conditional branches) and batches whole
chains' step/cycle accounting.  Everything the evaluation observes must stay
bit-for-bit identical to both reference tiers: exit value, output stream,
cycle count, step count, instruction count and call count — across every
workload of every suite, across obfuscated (fission / fusion / flattened)
control flow, across batched ``run_many`` re-runs of one interpreter, and
at nasty boundaries (step limit inside a fused chain, mid-block aborts,
IR mutated under live traces).
"""

import pytest

from repro.analysis.manager import PRESERVE_ALL, AnalysisManager
from repro.baselines import ControlFlowFlattening
from repro.core.obfuscator import obfuscate
from repro.core.variant_cache import VariantCache
from repro.evaluation.overhead import ShardBatch
from repro.ir import (FunctionType, I64, IRBuilder, Module, Program,
                      create_function)
from repro.opt.pipelines import optimize_program
from repro.vm import (Interpreter, StaleTraceError, StepLimitExceeded,
                      VMBatch, run_program)
from repro.vm.machine import ExecutionError
from repro.workloads.suites import load_suite, spec2006_programs, suite_names

DISPATCHES = ("legacy", "compiled", "superblock")


def result_tuple(result):
    return (result.exit_value, tuple(result.output), result.cycles,
            result.instructions_executed, result.call_count, result.steps)


def all_workloads():
    for name in suite_names():
        for workload in load_suite(name):
            yield workload


def tier_results(program_factory):
    return {dispatch: result_tuple(run_program(program_factory(),
                                               dispatch=dispatch))
            for dispatch in DISPATCHES}


def hot_loop_program(iterations=400):
    """A multi-block counting loop: the loop's body/step blocks form a
    fusable chain behind the loop head's conditional branch, with the exit
    arm as the side exit taken once per call."""
    module = Module("hot")
    f = create_function(module, "main", I64, [])
    loop = f.add_block("loop")
    body = f.add_block("body")
    step = f.add_block("step")
    done = f.add_block("done")
    b = IRBuilder(f.entry_block)
    slot = b.alloca(I64, name="n")
    b.store(0, slot)
    b.br(loop)
    b.position_at_end(loop)
    n = b.load(slot)
    b.cond_br(b.icmp("slt", n, iterations), body, done)
    b.position_at_end(body)
    b.store(b.add(b.load(slot), 1), slot)
    b.br(step)
    b.position_at_end(step)
    b.store(b.mul(b.sdiv(b.load(slot), 1), 1), slot)
    b.br(loop)
    b.position_at_end(done)
    b.ret(b.load(slot))
    return Program("hot", [module])


def input_sum_program():
    """Sums the input stream through the ``input_len``/``input_i64``
    intrinsics — run_many batches must feed each run its own inputs."""
    module = Module("insum")
    input_len = module.declare_function("input_len", FunctionType(I64, []))
    input_i64 = module.declare_function("input_i64", FunctionType(I64, [I64]))
    putint = module.declare_function("putint", FunctionType(I64, [I64]))
    f = create_function(module, "main", I64, [])
    loop = f.add_block("loop")
    body = f.add_block("body")
    done = f.add_block("done")
    b = IRBuilder(f.entry_block)
    count = b.call(input_len, [])
    i_slot = b.alloca(I64, name="i")
    acc_slot = b.alloca(I64, name="acc")
    b.store(0, i_slot)
    b.store(0, acc_slot)
    b.br(loop)
    b.position_at_end(loop)
    i = b.load(i_slot)
    b.cond_br(b.icmp("slt", i, count), body, done)
    b.position_at_end(body)
    b.store(b.add(b.load(acc_slot), b.call(input_i64, [b.load(i_slot)])),
            acc_slot)
    b.store(b.add(b.load(i_slot), 1), i_slot)
    b.br(loop)
    b.position_at_end(done)
    acc = b.load(acc_slot)
    b.call(putint, [acc])
    b.ret(acc)
    return Program("insum", [module])


class TestEveryWorkload:
    @pytest.mark.parametrize("workload", list(all_workloads()),
                             ids=lambda wp: f"{wp.suite}-{wp.name}")
    def test_identical_on_workload(self, workload):
        results = tier_results(workload.build)
        assert results["superblock"] == results["legacy"]
        assert results["superblock"] == results["compiled"]


class TestBatchedRunMany:
    def test_warm_reruns_stay_identical(self):
        """Re-running one interpreter heats traces past the JIT threshold;
        every later (fused) run must still match a fresh legacy run."""
        for workload in (load_suite("spec2006")[0], load_suite("coreutils")[0],
                         load_suite("embedded")[0]):
            reference = result_tuple(run_program(workload.build(),
                                                 dispatch="legacy"))
            interp = Interpreter(workload.build(), dispatch="superblock")
            for result in interp.run_many([()] * 6):
                assert result_tuple(result) == reference

    def test_run_many_feeds_each_run_its_inputs(self):
        program_sets = [(1, 2, 3), (), (5,), (7, 8, 9, 10)]
        references = [result_tuple(run_program(input_sum_program(),
                                               inputs=inputs,
                                               dispatch="legacy"))
                      for inputs in program_sets]
        for dispatch in DISPATCHES:
            interp = Interpreter(input_sum_program(), dispatch=dispatch)
            got = [result_tuple(r) for r in interp.run_many(program_sets)]
            assert got == references

    def test_hot_chain_actually_fuses(self):
        program = hot_loop_program()
        reference = result_tuple(run_program(hot_loop_program(),
                                             dispatch="legacy"))
        interp = Interpreter(program, dispatch="superblock")
        for result in interp.run_many([()] * 4):
            assert result_tuple(result) == reference
        fused = [t for t in interp._traces.values() if t.fast is not None]
        assert fused, "the hot loop never tripped the JIT threshold"
        assert any(len(t.blocks) > 1 for t in fused), \
            "no multi-block chain was fused"
        # the loop head's chain crosses its conditional branch, so the
        # generated source must carry a credit-back side exit
        assert any(len(t.blocks) > 1 and "return (" in (t.source or "")
                   for t in fused)


class TestObfuscatedVariants:
    @pytest.mark.parametrize("mode", ["fission", "fusion", "fufi.sep",
                                      "fufi.ori", "fufi.all"])
    def test_identical_after_khaos_and_o2(self, mode):
        workload = load_suite("spec2006")[0]
        optimized = optimize_program(obfuscate(workload.build(),
                                               mode=mode).program)
        results = {dispatch: result_tuple(run_program(optimized,
                                                      dispatch=dispatch))
                   for dispatch in DISPATCHES}
        assert results["superblock"] == results["legacy"]
        assert results["superblock"] == results["compiled"]

    def test_identical_after_control_flow_flattening(self):
        """Flattened functions (dispatcher + switch) are the adversarial
        case for chain selection: every block flows back through the
        dispatcher."""
        workload = load_suite("coreutils")[0]
        program = workload.build()
        ControlFlowFlattening(ratio=1.0).run(program)
        reference = result_tuple(run_program(program, dispatch="legacy"))
        assert result_tuple(run_program(program,
                                        dispatch="compiled")) == reference
        interp = Interpreter(program, dispatch="superblock")
        for result in interp.run_many([()] * 4):
            assert result_tuple(result) == reference


class TestEdgeSemantics:
    def test_step_limit_fires_inside_a_fused_chain(self):
        """A limit landing mid-chain must stop at exactly ``limit + 1``
        steps on every tier — the fused fast path may only run when the
        whole chain fits under the limit."""
        full = run_program(hot_loop_program(), dispatch="legacy")
        limit = full.steps // 2
        outcomes = {}
        for dispatch in DISPATCHES:
            interp = Interpreter(hot_loop_program(), max_steps=limit,
                                 dispatch=dispatch)
            with pytest.raises(StepLimitExceeded):
                interp.run()
            first = interp.steps
            # second run on the same (now trace-warm) interpreter
            interp.reset()
            with pytest.raises(StepLimitExceeded):
                interp.run()
            outcomes[dispatch] = (first, interp.steps)
        assert outcomes["legacy"] == outcomes["compiled"] \
            == outcomes["superblock"] == (limit + 1, limit + 1)

    def test_mid_block_abort_reports_the_same_error(self):
        module = Module("oob")
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        buf = b.alloca(I64, name="buf")
        b.store(1, buf)
        wild = b.gep(buf, 5)
        b.store(2, wild)  # out of bounds: aborts mid-block
        b.ret(0)
        program = Program("oob", [module])
        messages = set()
        for dispatch in DISPATCHES:
            with pytest.raises(ExecutionError) as err:
                run_program(program, dispatch=dispatch)
            messages.add(str(err.value))
        assert len(messages) == 1
        assert "out-of-bounds store" in messages.pop()


class TestInvalidation:
    def _warm_interpreter(self, **kwargs):
        workload = load_suite("coreutils")[0]
        interp = Interpreter(workload.build(), dispatch="superblock",
                             **kwargs)
        interp.run_many([()] * 3)
        assert interp._traces
        return interp

    def test_invalidate_compiled_drops_traces(self):
        interp = self._warm_interpreter()
        head = next(iter(interp._traces))
        function = head.parent
        interp.invalidate_compiled(function)
        for trace_head, trace in interp._traces.items():
            assert trace_head.parent is not function
            assert all(block.parent is not function
                       for block in trace.blocks)
        interp.invalidate_compiled()
        assert not interp._traces
        assert not interp._compiled_blocks
        assert not interp._block_heat

    def test_analysis_manager_invalidation_reaches_traces(self):
        manager = AnalysisManager()
        interp = self._warm_interpreter(analyses=manager)
        head = next(iter(interp._traces))
        function = head.parent
        manager.invalidate(function)
        assert all(h.parent is not function
                   and all(b.parent is not function for b in t.blocks)
                   for h, t in interp._traces.items())
        # PRESERVE_ALL asserts "nothing structural changed": traces stay
        interp.reset()
        interp.run()
        kept = dict(interp._traces)
        manager.invalidate(function, preserve=PRESERVE_ALL)
        assert interp._traces == kept

    def test_dead_listeners_are_pruned(self):
        manager = AnalysisManager()
        interp = self._warm_interpreter(analyses=manager)
        function = next(iter(interp._traces)).parent
        del interp
        manager.invalidate(function)  # must not blow up on a dead weakref

    def test_stale_trace_check_catches_unreported_mutation(self):
        interp = self._warm_interpreter(verify_traces=True)
        interp.reset()
        interp.run()  # verified clean before the mutation
        head = next(iter(interp._traces))
        # dead code past the terminator, but the block's shape changed
        head.instructions.append(head.instructions[0])
        interp.reset()
        with pytest.raises(StaleTraceError):
            interp.run()
        # reporting the mutation rebuilds the trace and clears the fault
        interp.invalidate_compiled(head.parent)
        interp.reset()
        interp.run()

    def test_verify_traces_env_var(self, monkeypatch):
        workload = load_suite("coreutils")[0]
        monkeypatch.setenv("REPRO_VM_VERIFY_TRACES", "1")
        assert Interpreter(workload.build()).verify_traces is True
        monkeypatch.setenv("REPRO_VM_VERIFY_TRACES", "0")
        assert Interpreter(workload.build()).verify_traces is False
        monkeypatch.delenv("REPRO_VM_VERIFY_TRACES")
        assert Interpreter(workload.build()).verify_traces is False


class TestDispatchSelection:
    def test_env_var_selects_superblock(self, monkeypatch):
        workload = load_suite("coreutils")[1]
        monkeypatch.setenv("REPRO_VM_DISPATCH", "superblock")
        interp = Interpreter(workload.build())
        assert interp.dispatch == "superblock"
        assert interp.compiled is True
        monkeypatch.setenv("REPRO_VM_DISPATCH", "warp-drive")
        assert Interpreter(workload.build()).dispatch == "compiled"

    def test_explicit_argument_beats_env(self, monkeypatch):
        workload = load_suite("coreutils")[1]
        monkeypatch.setenv("REPRO_VM_DISPATCH", "legacy")
        interp = Interpreter(workload.build(), dispatch="superblock")
        assert interp.dispatch == "superblock"

    def test_unknown_explicit_dispatch_raises(self):
        workload = load_suite("coreutils")[1]
        with pytest.raises(ValueError):
            Interpreter(workload.build(), dispatch="turbo")


class TestBatchedMeasurement:
    def test_vmbatch_run_many_drives_one_interpreter_per_batch(self):
        program = input_sum_program()
        sets = ((1, 2, 3), (4, 5))
        batch = VMBatch(dispatch="superblock")
        first = batch.run_many(program, sets)
        assert batch.interpreters == 1
        assert batch.executions == len(sets)
        for inputs, result in zip(sets, first):
            reference = run_program(input_sum_program(), inputs=inputs)
            assert result_tuple(result) == result_tuple(reference)
        # every batch is a fresh measurement
        again = batch.run_many(program, sets)
        assert [r.cycles for r in first] == [r.cycles for r in again]
        assert batch.interpreters == 2
        assert batch.executions == 2 * len(sets)

    def test_shardbatch_superblock_rows_match_serial_reference(self):
        workload = spec2006_programs()[0]
        labels = ("fission", "fufi.ori")
        reference = ShardBatch(workload, None, VariantCache()).rows(labels)
        batch = ShardBatch(workload, None, VariantCache(),
                           input_sets=((), ()), dispatch="superblock")
        assert batch.rows(labels) == reference
        # rows ran the whole two-input batch per variant, one interpreter each
        assert batch.vm.executions == 2 * (len(labels) + 1)
        assert batch.vm.interpreters == len(labels) + 1
