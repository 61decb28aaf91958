"""Settled functions: a scalar pass skips what it last left unchanged.

:class:`~repro.opt.pass_manager.FunctionPass` skips a function when the
same pass class last reported no change on it and the function's change
stamp (:meth:`~repro.analysis.manager.AnalysisManager.stamp`) has not moved
since, for the passes that declare ``skips_settled``.  These tests pin the
premise (a pass that changed nothing changes nothing again), the
bookkeeping (the inliner moves only its callers' stamps), the skip's share
of the ``overhead`` benchmark's pass runs, and that the skip changes no
build: every configuration of a corpus sample is identical with the skip on
and off.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisManager
from repro.ir import IRBuilder, Linkage, Module, Program, create_function, I64
from repro.ir.printer import function_to_str, module_to_str
from repro.obs import measure
from repro.obs.metrics import counted
from repro.opt import (ConstantFolding, DeadCodeElimination, Inliner,
                       OptOptions, SimplifyCFG, build_pipeline)
from repro.toolchain import (ALL_LABELS, build_baseline, build_obfuscated,
                             obfuscator_for)
from repro.workloads import load_suite, suite_names
from repro.workloads.synth import ProgramProfile, synthesize_program

#: The passes that declare the skip.
SKIPPING = (ConstantFolding, SimplifyCFG, DeadCodeElimination)

#: Every 5th program of the corpus (32 of 160).
SAMPLE = [workload for suite in suite_names()
          for workload in load_suite(suite)][::5]

#: The baseline's optimizer configurations: O0, O1, O2 without LTO, the
#: default (O2 + LTO) and O3 + LTO with a third scalar round.
BASELINE_OPTIONS = (OptOptions(level=0), OptOptions(level=1),
                    OptOptions(lto=False), None,
                    OptOptions(level=3, iterations=3))


def _defined(program: Program):
    return [function for module in program.modules
            for function in module.functions.values()
            if not function.is_declaration]


def _fingerprints(workload):
    """Printed optimized IR and binary digest of each of the workload's
    fourteen builds."""
    source = workload.build()
    artifacts = [build_baseline(source, options)
                 for options in BASELINE_OPTIONS]
    artifacts += [build_obfuscated(source, obfuscator_for(label))
                  for label in ALL_LABELS + ("fla",)]
    return [("".join(module_to_str(m) for m in artifact.program.modules),
             artifact.binary.content_digest()) for artifact in artifacts]


def test_the_sample_is_every_fifth_corpus_program():
    assert len(SAMPLE) == 32


@pytest.mark.parametrize("workload", SAMPLE, ids=lambda w: w.name)
def test_the_skip_changes_no_build(workload, monkeypatch):
    with counted("opt") as grown:
        skipping = _fingerprints(workload)
    assert grown["pass_skips"] > 0
    for pass_class in SKIPPING:
        monkeypatch.setattr(pass_class, "skips_settled", False)
    with counted("opt") as grown:
        plain = _fingerprints(workload)
    assert grown["pass_skips"] == 0
    assert skipping == plain


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       label=st.sampled_from(("none",) + ALL_LABELS + ("fla",)))
def test_a_pass_that_changed_nothing_changes_nothing_again(seed, label):
    """The skip's premise, at every step of the O3 pipeline: once
    ConstantFolding, SimplifyCFG or DCE reports no change on a function, a
    rerun reports no change either and leaves the function as it was."""
    program = synthesize_program(ProgramProfile(
        name=f"settled{seed}", suite="test", seed=seed, kernel_count=6))
    if label == "none":
        program = program.link()
    else:
        program = obfuscator_for(label).obfuscate(program).program
    for pass_ in build_pipeline(OptOptions(level=3, iterations=3)):
        if pass_.skips_settled:
            for function in _defined(program):
                before = function_to_str(function)
                if pass_.run_on_function(function, AnalysisManager()):
                    continue
                assert function_to_str(function) == before
                assert not pass_.run_on_function(function, AnalysisManager())
                assert function_to_str(function) == before
        pass_.run(program)


class TestInlinerBookkeeping:
    @staticmethod
    def build():
        """``f`` calls the small ``h``; ``g`` calls nothing.  Every
        function is already in the scalar passes' normal form."""
        module = Module("m")
        h = create_function(module, "h", I64, [I64], ["x"])
        hb = IRBuilder(h.entry_block)
        hb.ret(hb.add(h.args[0], 1))
        f = create_function(module, "f", I64, [I64], ["x"],
                            linkage=Linkage.EXTERNAL)
        fb = IRBuilder(f.entry_block)
        fb.ret(fb.mul(fb.call(h, [f.args[0]]), 3))
        g = create_function(module, "g", I64, [I64], ["x"],
                            linkage=Linkage.EXTERNAL)
        gb = IRBuilder(g.entry_block)
        gb.ret(gb.sub(g.args[0], 5))
        return Program("p", [module]), module, f, g, h

    @staticmethod
    def scalar_round(program, analyses, monkeypatch):
        """Run one ConstantFolding -> SimplifyCFG -> DCE round; return the
        functions each pass ran on (skipped ones are absent)."""
        ran = {}
        for pass_class in SKIPPING:
            original = pass_class.run_on_function

            def spy(self, function, analyses=None, _original=original):
                ran.setdefault(type(self).__name__, []).append(function.name)
                return _original(self, function, analyses)
            monkeypatch.setattr(pass_class, "run_on_function", spy)
        for pass_class in SKIPPING:
            pass_class().run(program, analyses)
        monkeypatch.undo()
        return ran

    def test_the_next_round_reruns_only_the_changed_caller(self, monkeypatch):
        program, module, f, g, h = self.build()
        analyses = AnalysisManager()
        first = self.scalar_round(program, analyses, monkeypatch)
        assert all(names == ["h", "f", "g"] for names in first.values())
        # nothing changed, so a second round skips every function
        assert self.scalar_round(program, analyses, monkeypatch) == {}

        stamps = {fn.name: analyses.stamp(fn) for fn in (f, g, h)}
        graph = analyses.callgraph(module)
        assert Inliner(threshold=30).run(program, analyses)
        assert analyses.stamp(f) != stamps["f"]
        assert analyses.stamp(g) == stamps["g"]
        assert analyses.stamp(h) == stamps["h"]
        assert analyses.callgraph(module) is not graph

        after = self.scalar_round(program, analyses, monkeypatch)
        assert after == {"ConstantFolding": ["f"], "SimplifyCFG": ["f"],
                         "DeadCodeElimination": ["f"]}

    def test_can_inline_is_decided_again_only_for_changed_callers(
            self, monkeypatch):
        from repro.opt import inline
        module = Module("m")
        main, f, g, h = (create_function(module, name, I64, [I64], ["x"])
                         for name in ("main", "f", "g", "h"))
        mb = IRBuilder(main.entry_block)
        mb.ret(mb.add(mb.call(f, [main.args[0]]), mb.call(f, [2])))
        fb = IRBuilder(f.entry_block)
        fb.ret(fb.call(h, [f.args[0]]))
        gb = IRBuilder(g.entry_block)
        gb.ret(gb.call(f, [g.args[0]]))
        hb = IRBuilder(h.entry_block)
        hb.ret(hb.add(h.args[0], 1))
        asked = []
        original = inline.can_inline

        def spy(callee, threshold):
            asked.append(callee.name)
            return original(callee, threshold)
        monkeypatch.setattr(inline, "can_inline", spy)
        assert Inliner(threshold=30).run(Program("p", [module]))
        # f is asked again after h was inlined into it; h, called from
        # four sites over both rounds, is asked once
        assert asked == ["f", "h", "f"]


def test_overhead_skips_at_least_two_fifths_of_scalar_runs():
    from paperbench.workloads import draw, experiments
    with measure() as run:
        for _name, call in experiments("overhead", draw("overhead", 0)):
            call()
    runs = run.counters["opt.pass_runs"]
    skips = run.counters["opt.pass_skips"]
    assert skips / (runs + skips) >= 0.4
