"""Every variant of a workload is built from one synthesized program.

A figure unit synthesizes its workload at most once and builds all of that
workload's variants from the one program, which no build may write
(:mod:`repro.toolchain`): the baseline's optimizer copies it, and each
obfuscator links a private copy that :func:`~repro.toolchain.build_obfuscated`
then optimizes in place.  These tests pin that contract: the source stays
as synthesized, every artifact built from it equals one built from a fresh
synthesis, the in-place optimizer gives what the copying one gives, and the
drivers synthesize once per unit, or not at all when nothing is built.
"""

import copy

import pytest

from repro.backend.lowering import lower_program
from repro.baselines.bintuner import BinTuner
from repro.core.config import KhaosConfig, Mode
from repro.core.obfuscator import Khaos
from repro.core.variant_cache import VariantCache
from repro.diffing.bindiff import BinDiff
from repro.evaluation import (clear_variant_facts, measure_bintuner,
                              measure_overhead, measure_precision,
                              run_experiment)
from repro.evaluation.bintuner_compare import default_programs
from repro.evaluation.diff_sharding import _diff_unit
from repro.ir import (FunctionType, GlobalVariable, IRBuilder, Linkage,
                      Module, Program, VerificationError, create_function,
                      I64)
from repro.ir.instructions import BinaryOp
from repro.ir.printer import module_to_str
from repro.ir.values import Constant
from repro.obs import measure
from repro.opt.pass_manager import OptOptions
from repro.opt.pipelines import optimize_program
from repro.toolchain import (ALL_LABELS, build_all_variants, build_baseline,
                             build_obfuscated, obfuscator_for)
from repro.workloads.suites import WorkloadProgram, embedded_programs, find_program
from tests.conftest import build_demo_program

#: Every obfuscation label a figure builds.
LABELS = ALL_LABELS + ("fla",)


def printed(program: Program) -> str:
    return "\n".join(module_to_str(module) for module in program.modules)


def origins(program: Program):
    return {f.name: f.attributes.get("origin_module")
            for f in program.all_functions()}


def snapshot(program: Program):
    """Everything of ``program`` a build could write by mistake."""
    return (printed(program), copy.deepcopy(program.metadata),
            [copy.deepcopy(module.metadata) for module in program.modules],
            [(f.name, copy.deepcopy(f.attributes))
             for f in program.all_functions()])


def _artifact(artifact):
    return artifact.binary.content_digest(), printed(artifact.program)


def _builds():
    """(name, build) of everything the units build from a workload's source:
    the baseline, every label, a BinTuner search and table 2's two runs."""
    yield "baseline", lambda program: _artifact(build_baseline(program))
    for label in LABELS:
        yield label, lambda program, label=label: _artifact(
            build_obfuscated(program, obfuscator_for(label)))

    def tune(program):
        result = BinTuner(iterations=3).tune(program)
        return (result.best_options, result.history,
                result.best_binary.content_digest(),
                printed(result.best_program))
    yield "bintuner", tune
    for mode in (Mode.FISSION, Mode.FUSION):
        def obfuscate(program, mode=mode):
            result = Khaos(KhaosConfig(mode=mode)).obfuscate(program)
            return printed(result.program), result.stats
        yield mode, obfuscate


@pytest.mark.parametrize("workload", [
    find_program("462.libquantum"),
    # its vulnerable functions carry list-valued attributes
    embedded_programs()[0],
], ids=lambda workload: workload.name)
def test_builds_from_one_source_leave_it_as_synthesized(workload):
    source = workload.build()
    before = snapshot(source)
    for name, build in _builds():
        shared = build(source)
        assert snapshot(source) == before, f"{name} wrote its source"
        assert shared == build(workload.build()), name


class TestInPlaceOptimize:
    @pytest.mark.parametrize("label", LABELS)
    def test_equals_the_copying_path(self, label):
        obfuscated = obfuscator_for(label).obfuscate(
            find_program("462.libquantum").build()).program
        copied = optimize_program(obfuscated)
        optimized = optimize_program(obfuscated, in_place=True)
        assert optimized is obfuscated
        assert None not in origins(copied).values()
        assert origins(optimized) == origins(copied)
        assert printed(optimized) == printed(copied)
        assert lower_program(optimized).content_digest() == \
            lower_program(copied).content_digest()

    @pytest.mark.parametrize("lto", [True, False])
    def test_names_new_blocks_as_a_copy_does(self, lto):
        # ``main`` inlines ``helper`` twice, so the second copy's blocks
        # take numbered names from main's block-name counter, which a clone
        # restarts; advance it first, as an obfuscator's renames would
        program = _twice_inlined_program()
        main = program.find_function("main")
        for _ in range(3):
            main.unique_name(main.entry_block.name)
        options = None if lto else OptOptions(lto=False)
        copied = printed(optimize_program(program, options))
        assert "helper.negative.2" in copied
        assert printed(optimize_program(program, options,
                                        in_place=True)) == copied

    def test_links_under_the_verifier(self, monkeypatch):
        module = Module("m")
        main = create_function(module, "main", I64, [])
        main.entry_block.append(
            BinaryOp("add", Constant(I64, 1), Constant(I64, 2)))
        monkeypatch.setenv("REPRO_VERIFY_IR", "structural")
        with pytest.raises(VerificationError):
            optimize_program(Program("m", [module]), in_place=True)

    def test_a_multi_module_program_still_links(self):
        program = _two_module_program()
        before = printed(program)
        linked = optimize_program(program, in_place=True)
        assert linked is not program and len(linked.modules) == 1
        assert linked.metadata["linked"] is True
        assert printed(program) == before
        assert printed(linked) == printed(optimize_program(program))


class TestSynthesisCount:
    @pytest.fixture
    def syntheses(self, monkeypatch):
        """The name of every workload synthesized while the test runs."""
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        calls = []
        original = WorkloadProgram.build

        def build(workload):
            calls.append(workload.name)
            return original(workload)
        monkeypatch.setattr(WorkloadProgram, "build", build)
        return calls

    def test_quick_figure8_synthesizes_once_per_workload(self, syntheses):
        report = run_experiment("figure8", quick=True)
        programs = {row.program for row in report.rows}
        assert len(programs) == 4
        assert sorted(syntheses) == sorted(programs)

    def test_paperbench_overhead_calls_synthesize_nine_times(self,
                                                              syntheses):
        # figs 6, 7 and 11 once per SPEC program each (fig 7's O-LLVM
        # labels and fig 11's BinTuner are new); table 2 reads the SPEC
        # programs' statistics off fig 6's builds and synthesizes only the
        # CoreUtils programs
        from paperbench.workloads import draw, experiments
        drawn = draw("overhead", 0)
        for _name, call in experiments("overhead", drawn):
            call()
        assert len(syntheses) == 9
        assert sorted(syntheses) == sorted(
            3 * [w.name for w in drawn["spec"]]
            + [w.name for w in drawn["coreutils"]])

    def test_a_warm_store_rerun_synthesizes_nothing(self, syntheses,
                                                    tmp_store):
        workloads = [find_program("arch"), find_program("b2sum")]

        def run():
            clear_variant_facts()
            return (measure_overhead(workloads, ("fission",), jobs=1),
                    measure_precision(workloads, ("sub", "fission"),
                                      [BinDiff()], jobs=1))
        cold = run()
        # one synthesis per unit: each figure's unit needs a new variant
        assert sorted(syntheses) == sorted(2 * [w.name for w in workloads])
        syntheses.clear()
        assert run() == cold
        assert syntheses == []

    def test_a_unit_served_by_its_cache_synthesizes_nothing(self, syntheses):
        cache = VariantCache()
        unit = (find_program("arch"), ("sub", "fission"), (BinDiff(),), None)
        first = _diff_unit(unit, cache)
        assert syntheses == ["arch"]
        assert _diff_unit(unit, cache) == first
        assert syntheses == ["arch"]

    def test_build_all_variants_calls_its_factory_once(self):
        calls = []

        def factory():
            calls.append(1)
            return build_demo_program()
        variants = build_all_variants(factory, labels=("sub", "fission"))
        assert list(variants) == ["baseline", "sub", "fission"]
        assert calls == [1]


def test_a_figure9_unit_compiles_no_reference_twice(monkeypatch):
    """The four opt-level references, the Khaos build and one compile per
    BinTuner candidate: the O2 + LTO reference is the overhead baseline,
    and the search takes its O0 baseline and its O3 + LTO start from the
    unit's references."""
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    iterations = 2
    with measure() as run:
        measure_bintuner(default_programs()[:1], tuner_iterations=iterations,
                         jobs=1)
    assert run.calls["opt.optimize"] == 4 + 1 + iterations
    assert run.calls["backend.lower"] == run.calls["opt.optimize"]


# -- hand-built programs ----------------------------------------------------------

def _twice_inlined_program() -> Program:
    """``main`` calls a branching ``helper`` twice on a value the optimizer
    cannot fold, so the inlined blocks survive."""
    module = Module("m")
    putint = module.declare_function("putint", FunctionType(I64, [I64]))
    seed = module.add_global(GlobalVariable("seed", I64, initializer=-4))
    helper = create_function(module, "helper", I64, [I64], ["x"])
    b = IRBuilder(helper.entry_block)
    negative = helper.add_block("negative")
    positive = helper.add_block("positive")
    b.cond_br(b.icmp("slt", helper.args[0], 0), negative, positive)
    b.position_at_end(negative)
    b.ret(b.sub(0, helper.args[0]))
    b.position_at_end(positive)
    b.ret(helper.args[0])
    main = create_function(module, "main", I64, [])
    b = IRBuilder(main.entry_block)
    value = b.load(seed)
    b.call(putint, [b.call(helper, [value])])
    b.call(putint, [b.call(helper, [b.add(value, 9)])])
    b.ret(0)
    return Program("m", [module])


def _two_module_program() -> Program:
    library = Module("library")
    seven = create_function(library, "seven", I64, [],
                            linkage=Linkage.EXPORTED)
    IRBuilder(seven.entry_block).ret(7)
    application = Module("application")
    putint = application.declare_function("putint", FunctionType(I64, [I64]))
    main = create_function(application, "main", I64, [],
                           linkage=Linkage.EXPORTED)
    b = IRBuilder(main.entry_block)
    b.call(putint, [b.call(seven, [])])
    b.ret(0)
    return Program("p", [library, application])
