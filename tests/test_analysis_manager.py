"""Tests for the caching AnalysisManager and its invalidation semantics."""

import pytest

from repro.analysis import (AnalysisManager, BlockFrequency, ControlFlowGraph,
                            DefUse, DominatorTree, LoopInfo, PRESERVE_ALL,
                            StaleAnalysisError)
from repro.ir import IRBuilder, Module, Program, create_function, I64
from repro.obs.metrics import counted
from repro.opt import DeadCodeElimination, PassManager, SimplifyCFG
from repro.opt.pass_manager import FunctionPass
from repro.vm import run_program
from repro.workloads.suites import (coreutils_programs, embedded_programs,
                                    spec2006_programs, spec2017_programs)


def diamond_function():
    """A function with branching control flow, a loop-free diamond."""
    module = Module("m")
    f = create_function(module, "main", I64, [I64])
    b = IRBuilder(f.entry_block)
    then = f.add_block("then")
    other = f.add_block("other")
    join = f.add_block("join")
    b.cond_br(b.icmp("slt", f.args[0], 10), then, other)
    IRBuilder(then).br(join)
    IRBuilder(other).br(join)
    IRBuilder(join).ret(7)
    return module, f


class TestCaching:
    def test_repeated_fetches_hit_the_cache(self):
        _, f = diamond_function()
        am = AnalysisManager()
        first = am.cfg(f)
        assert am.cfg(f) is first
        assert am.domtree(f) is am.domtree(f)
        assert am.defuse(f) is am.defuse(f)
        assert am.loops(f) is am.loops(f)
        assert am.block_frequency(f) is am.block_frequency(f)
        assert am.hits > 0

    def test_derived_analyses_share_the_cached_cfg(self):
        _, f = diamond_function()
        am = AnalysisManager()
        cfg = am.cfg(f)
        assert am.domtree(f).cfg is cfg
        assert am.loops(f).cfg is cfg
        assert am.block_frequency(f).cfg is cfg

    def test_invalidate_drops_everything(self):
        _, f = diamond_function()
        am = AnalysisManager()
        cfg = am.cfg(f)
        defuse = am.defuse(f)
        am.invalidate(f)
        assert am.cfg(f) is not cfg
        assert am.defuse(f) is not defuse

    def test_invalidate_preserve_keeps_named_analyses(self):
        _, f = diamond_function()
        am = AnalysisManager()
        cfg = am.cfg(f)
        defuse = am.defuse(f)
        am.invalidate(f, preserve=("cfg",))
        assert am.cfg(f) is cfg
        assert am.defuse(f) is not defuse

    def test_preserve_all_keeps_everything(self):
        _, f = diamond_function()
        am = AnalysisManager()
        cfg = am.cfg(f)
        defuse = am.defuse(f)
        am.invalidate(f, preserve=PRESERVE_ALL)
        assert am.cfg(f) is cfg
        assert am.defuse(f) is defuse

    def test_callgraph_cached_per_module_and_invalidated(self):
        module, _ = diamond_function()
        am = AnalysisManager()
        graph = am.callgraph(module)
        assert am.callgraph(module) is graph
        am.invalidate_module(module)
        assert am.callgraph(module) is not graph


class TestChangeStamps:
    def two_functions(self):
        module, f = diamond_function()
        g = create_function(module, "g", I64, [])
        IRBuilder(g.entry_block).ret(0)
        return module, f, g

    @pytest.mark.parametrize("preserve", [(), ("cfg",), PRESERVE_ALL])
    def test_every_invalidate_moves_only_its_functions_stamp(self, preserve):
        _, f, g = self.two_functions()
        am = AnalysisManager()
        before = am.stamp(f), am.stamp(g)
        am.invalidate(f, preserve=preserve)
        assert am.stamp(f) != before[0]
        assert am.stamp(g) == before[1]

    def test_invalidate_module_moves_every_stamp_cached_or_not(self):
        module, f, g = self.two_functions()
        am = AnalysisManager()
        am.cfg(f)  # f has cached analyses, g has none
        before = am.stamp(f), am.stamp(g)
        am.invalidate_module(module)
        assert am.stamp(f) != before[0] and am.stamp(g) != before[1]

    def test_invalidate_callgraph_moves_no_stamp(self):
        module, f, g = self.two_functions()
        am = AnalysisManager()
        graph = am.callgraph(module)
        before = am.stamp(f), am.stamp(g)
        am.invalidate_callgraph(module)
        assert am.callgraph(module) is not graph
        assert (am.stamp(f), am.stamp(g)) == before

    def test_settled_until_the_stamp_moves(self):
        _, f, g = self.two_functions()
        am = AnalysisManager()
        assert not am.settled(f, SimplifyCFG)
        am.settle(f, SimplifyCFG)
        assert am.settled(f, SimplifyCFG)
        assert not am.settled(f, DeadCodeElimination)  # per pass class
        assert not am.settled(g, SimplifyCFG)          # per function
        am.invalidate(g)
        assert am.settled(f, SimplifyCFG)
        am.invalidate(f, preserve=PRESERVE_ALL)
        assert not am.settled(f, SimplifyCFG)

    def test_invalidate_all_unsettles_every_function(self):
        _, f, g = self.two_functions()
        am = AnalysisManager()
        am.invalidate(g)
        am.settle(f, SimplifyCFG)
        am.settle(g, SimplifyCFG)
        am.invalidate_all()
        assert not am.settled(f, SimplifyCFG)
        assert not am.settled(g, SimplifyCFG)
        am.settle(f, SimplifyCFG)
        assert am.settled(f, SimplifyCFG)

    def test_only_a_declaring_pass_skips_and_the_counters_show_it(self):
        class Counting(FunctionPass):
            name = "counting"
            runs = 0

            def run_on_function(self, function, analyses=None):
                Counting.runs += 1
                return False

        module, _, _ = self.two_functions()
        program = Program("p", [module])
        am = AnalysisManager()
        Counting().run(program, am)
        Counting().run(program, am)
        assert Counting.runs == 4
        assert SimplifyCFG().run(program, am)  # merges the diamond's arms
        assert not SimplifyCFG().run(program, am)
        with counted("opt") as grown:
            assert not SimplifyCFG().run(program, am)
        assert grown == {"pass_runs": 0, "pass_skips": 2}


class TestStaleDetection:
    def test_mutation_without_invalidation_is_caught(self):
        _, f = diamond_function()
        am = AnalysisManager(verify_invalidation=True)
        am.cfg(f)
        # a "pass" that restructures the CFG but forgets to invalidate
        f.remove_block(f.blocks[-1])
        with pytest.raises(StaleAnalysisError):
            am.cfg(f)

    def test_mutation_with_invalidation_is_fine(self):
        _, f = diamond_function()
        am = AnalysisManager(verify_invalidation=True)
        am.cfg(f)
        f.remove_block(f.blocks[-1])
        am.invalidate(f)
        assert am.cfg(f) is not None

    def test_terminator_rewrite_is_caught(self):
        _, f = diamond_function()
        am = AnalysisManager(verify_invalidation=True)
        am.domtree(f)
        then = f.get_block("then")
        other = f.get_block("other")
        # retarget entry's condbr edge: successors change, block list doesn't
        term = f.entry_block.terminator
        term.true_target = other
        assert then is not other
        with pytest.raises(StaleAnalysisError):
            am.domtree(f)

    def test_stale_pass_class_is_caught_end_to_end(self):
        class ForgetfulPass(FunctionPass):
            name = "forgetful"

            def run_on_function(self, function, analyses=None):
                analyses.cfg(function)
                function.remove_block(function.blocks[-1])
                return False  # lies: nothing gets invalidated

        module, f = diamond_function()
        program = Program("p", [module])
        am = AnalysisManager(verify_invalidation=True)
        manager = PassManager([ForgetfulPass()], analyses=am)
        manager.run(program)
        with pytest.raises(StaleAnalysisError):
            am.cfg(f)

    def test_lying_preserve_all_pass_is_caught(self):
        class LyingPass(FunctionPass):
            name = "lying"
            preserves = PRESERVE_ALL  # lies: it restructures the CFG

            def run_on_function(self, function, analyses=None):
                analyses.cfg(function)
                function.remove_block(function.blocks[-1])
                return True

        module, f = diamond_function()
        program = Program("p", [module])
        am = AnalysisManager(verify_invalidation=True)
        manager = PassManager([LyingPass()], analyses=am)
        manager.run(program)
        with pytest.raises(StaleAnalysisError):
            am.cfg(f)


class TestPassIntegration:
    def test_dce_preserves_the_cfg_object(self):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        b.add(1, 2)  # dead
        b.ret(7)
        program = Program("p", [module])
        am = AnalysisManager(verify_invalidation=True)
        cfg = am.cfg(f)
        assert DeadCodeElimination().run(program, am)
        # DCE declares it preserves the CFG: same object, and not stale
        assert am.cfg(f) is cfg

    def test_simplify_cfg_invalidates(self):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        middle = f.add_block("middle")
        b.br(middle)
        IRBuilder(middle).ret(5)
        program = Program("p", [module])
        am = AnalysisManager(verify_invalidation=True)
        cfg = am.cfg(f)
        assert SimplifyCFG().run(program, am)
        assert am.cfg(f) is not cfg
        assert run_program(program).exit_value == 5


def _sample_workloads():
    return (spec2006_programs()[:3] + spec2017_programs()[:3]
            + coreutils_programs()[:6] + embedded_programs()[:2])


class TestDifferential:
    """Cached analyses must agree with freshly-constructed ones on every
    workload function."""

    @pytest.mark.parametrize("workload", _sample_workloads(),
                             ids=lambda wp: wp.name)
    def test_cached_matches_fresh(self, workload):
        program = workload.build()
        am = AnalysisManager()
        for module in program.modules:
            for function in module.functions.values():
                if function.is_declaration:
                    continue
                # warm the cache, then fetch again (hits) and compare with
                # a from-scratch construction
                cached_cfg = am.cfg(function)
                cached_dom = am.domtree(function)
                cached_loops = am.loops(function)
                cached_freq = am.block_frequency(function)
                cached_defuse = am.defuse(function)

                fresh_cfg = ControlFlowGraph(function)
                assert cached_cfg.successors == fresh_cfg.successors
                assert cached_cfg.predecessors == fresh_cfg.predecessors
                assert (cached_cfg.reverse_post_order()
                        == fresh_cfg.reverse_post_order())

                fresh_dom = DominatorTree(function)
                assert cached_dom.idom == fresh_dom.idom

                fresh_loops = LoopInfo(function)
                assert ({loop.header for loop in cached_loops.loops}
                        == {loop.header for loop in fresh_loops.loops})
                for block in function.blocks:
                    assert (cached_loops.loop_depth(block)
                            == fresh_loops.loop_depth(block))

                fresh_freq = BlockFrequency(function)
                for block in function.blocks:
                    assert cached_freq.get(block) == fresh_freq.get(block)

                fresh_defuse = DefUse(function)
                for inst in function.instructions():
                    assert (cached_defuse.uses_of(inst)
                            == fresh_defuse.uses_of(inst))
