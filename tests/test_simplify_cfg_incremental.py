"""Incremental SimplifyCFG vs the fixed-point reference.

The incremental implementation maintains local successor/predecessor maps and
must reach exactly the same normal form as the fixed-point reference
(:class:`tests.oracles.FixedPointSimplifyCFG`), which re-fetches the CFG
after every single rewrite.  The differential test runs both over every
obfuscated workload variant and compares the printed IR block for block.
"""

import pytest

from repro.analysis.manager import AnalysisManager
from repro.ir import (IRBuilder, Module, Program, assert_valid,
                      create_function, module_to_str, I64)
from repro.opt import PassManager, SimplifyCFG
from repro.toolchain import obfuscator_for
from repro.vm import run_program
from repro.workloads.suites import (coreutils_programs, spec2006_programs,
                                    spec2017_programs)
from tests.oracles import FixedPointSimplifyCFG


def make_program(module):
    return Program("p", [module])


def _printed(program):
    return "\n".join(module_to_str(m) for m in program.modules)


DIFFERENTIAL_WORKLOADS = (spec2006_programs()[:2] + spec2017_programs()[:1]
                          + coreutils_programs()[:1])
DIFFERENTIAL_LABELS = ("fission", "fusion", "fufi.sep", "fufi.ori",
                       "fufi.all", "bog", "fla-10")


class TestDifferential:
    @pytest.mark.parametrize("workload", DIFFERENTIAL_WORKLOADS,
                             ids=lambda wp: wp.name)
    @pytest.mark.parametrize("label", DIFFERENTIAL_LABELS)
    def test_block_for_block_identical_on_obfuscated_workloads(
            self, workload, label):
        obfuscated = obfuscator_for(label).obfuscate(workload.build()).program
        reference_copy = obfuscated.clone()
        incremental_copy = obfuscated.clone()

        reference_changed = FixedPointSimplifyCFG().run(reference_copy)
        incremental_changed = SimplifyCFG().run(incremental_copy)

        assert reference_changed == incremental_changed
        assert _printed(reference_copy) == _printed(incremental_copy)
        assert_valid(incremental_copy)

    def test_differential_on_raw_workloads(self):
        for workload in DIFFERENTIAL_WORKLOADS:
            program = workload.build()
            reference_copy, incremental_copy = program.clone(), program.clone()
            assert (FixedPointSimplifyCFG().run(reference_copy)
                    == SimplifyCFG().run(incremental_copy))
            assert _printed(reference_copy) == _printed(incremental_copy)


class TestIncrementalShapes:
    def test_merges_whole_chain(self):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        first = f.add_block("first")
        second = f.add_block("second")
        b.br(first)
        bb = IRBuilder(first)
        v = bb.add(1, 2)
        bb.br(second)
        IRBuilder(second).ret(v)
        SimplifyCFG().run(make_program(module))
        assert f.block_count() == 1
        assert run_program(make_program(module)).exit_value == 3

    def test_forwarding_chain_collapses(self):
        module = Module("m")
        f = create_function(module, "main", I64, [I64])
        b = IRBuilder(f.entry_block)
        hop1 = f.add_block("hop1")
        hop2 = f.add_block("hop2")
        left = f.add_block("left")
        b.cond_br(b.icmp("slt", f.args[0], 0), left, hop1)
        IRBuilder(hop1).br(hop2)
        done = f.add_block("done")
        IRBuilder(hop2).br(done)
        IRBuilder(left).ret(1)
        IRBuilder(done).ret(2)
        reference = make_program(module).clone()
        SimplifyCFG().run(make_program(module))
        FixedPointSimplifyCFG().run(reference)
        # merges take priority: hop1 absorbs hop2 then done, ending in `ret 2`
        assert {blk.name for blk in f.blocks} == {"entry", "left", "hop1"}
        assert f.get_block("hop1").instructions[-1].opcode == "ret"
        assert ({blk.name for blk in reference.modules[0].get_function("main").blocks}
                == {blk.name for blk in f.blocks})
        assert_valid(f)

    def test_removes_unreachable_cycle(self):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        IRBuilder(f.entry_block).ret(1)
        dead_a = f.add_block("dead_a")
        dead_b = f.add_block("dead_b")
        IRBuilder(dead_a).br(dead_b)
        IRBuilder(dead_b).br(dead_a)
        assert SimplifyCFG().run(make_program(module))
        assert f.block_count() == 1

    def test_condbr_with_coinciding_targets_not_merged(self):
        # a condbr whose two edges reach the same block counts as two
        # successors (multiplicity), so no straight-line merge may fire
        module = Module("m")
        f = create_function(module, "main", I64, [I64])
        b = IRBuilder(f.entry_block)
        join = f.add_block("join")
        b.cond_br(b.icmp("slt", f.args[0], 0), join, join)
        jb = IRBuilder(join)
        jb.ret(7)
        reference = make_program(module).clone()
        assert (SimplifyCFG().run(make_program(module))
                == FixedPointSimplifyCFG().run(reference))
        assert f.block_count() == 2

    def test_entry_forwarding_block_stays(self):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        target = f.add_block("target")
        other = f.add_block("other")
        b.br(target)
        tb = IRBuilder(target)
        tb.cond_br(tb.icmp("eq", tb.add(1, 1), 2), other, target)
        IRBuilder(other).ret(0)
        SimplifyCFG().run(make_program(module))
        # entry merged forward is fine, but the function stays valid and
        # behaviour is preserved
        assert_valid(f)
        assert run_program(make_program(module)).exit_value == 0

    def test_self_loop_forwarding_block_untouched(self):
        module = Module("m")
        f = create_function(module, "main", I64, [I64])
        b = IRBuilder(f.entry_block)
        spin = f.add_block("spin")
        out = f.add_block("out")
        b.cond_br(b.icmp("slt", f.args[0], 0), spin, out)
        IRBuilder(spin).br(spin)
        IRBuilder(out).ret(0)
        SimplifyCFG().run(make_program(module))
        assert {blk.name for blk in f.blocks} >= {"spin", "out"}


class TestDriver:
    @pytest.mark.parametrize("simplify", (SimplifyCFG, FixedPointSimplifyCFG))
    def test_verify_invalidation_clean(self, simplify):
        """Neither path may mutate a function without invalidating analyses."""
        workload = spec2006_programs()[0]
        program = workload.build().link()
        analyses = AnalysisManager(verify_invalidation=True)
        function = program.modules[0].get_function("main")
        analyses.cfg(function)  # prime the cache
        manager = PassManager([simplify()], analyses=analyses)
        manager.run(program)
        # fetching again after the pass must not raise StaleAnalysisError
        for f in program.modules[0].defined_functions():
            analyses.cfg(f)

    def test_preserves_behaviour_on_obfuscated_program(self):
        workload = coreutils_programs()[0]
        obfuscated = obfuscator_for("fufi.ori").obfuscate(
            workload.build()).program
        before = run_program(obfuscated.clone()).observable()
        changed = SimplifyCFG().run(obfuscated)
        assert run_program(obfuscated).observable() == before
        assert isinstance(changed, bool)
