"""Tests for the fusion primitive: pair selection, parameter compression, the
ctrl dispatch, tagged pointers, trampolines, deep fusion and statistics."""


from repro.core import Fusion, FusionConfig, ProvenanceMap
from repro.core.fusion import TAG_FUSED_A, TAG_FUSED_B
from repro.core.stats import FusionStats
from repro.ir import (Function, IRBuilder, Linkage, Module, Program,
                      assert_valid, create_function, I64, F64)
from repro.vm import run_program
from tests.conftest import build_demo_program


def run_fusion(program, config=None, seed=0x5EED, candidate_filter=None):
    linked = program.link()
    module = linked.modules[0]
    provenance = ProvenanceMap(f.name for f in module.defined_functions())
    stats = FusionStats()
    fusion = Fusion(config or FusionConfig(), provenance, stats, seed=seed)
    created = fusion.run_on_module(module, entry="main",
                                   candidate_filter=candidate_filter)
    assert_valid(linked)
    return linked, module, provenance, stats, created


class TestPairSelection:
    def test_incompatible_return_types_not_paired(self):
        module = Module("m")
        int_fn = create_function(module, "int_fn", I64, [I64])
        IRBuilder(int_fn.entry_block).ret(1)
        float_fn = create_function(module, "float_fn", F64, [I64])
        IRBuilder(float_fn.entry_block).ret(1.0)
        main = create_function(module, "main", I64, [])
        IRBuilder(main.entry_block).ret(0)
        _, merged_module, _, stats, created = run_fusion(Program("p", [module]))
        assert created == []
        assert stats.fusfuncs_created == 0

    def test_directly_related_functions_not_paired(self):
        module = Module("m")
        callee = create_function(module, "callee", I64, [I64])
        IRBuilder(callee.entry_block).ret(1)
        caller = create_function(module, "caller", I64, [I64])
        cb = IRBuilder(caller.entry_block)
        cb.ret(cb.call(callee, [caller.args[0]]))
        main = create_function(module, "main", I64, [])
        IRBuilder(main.entry_block).ret(0)
        _, _, _, _, created = run_fusion(Program("p", [module]))
        assert created == []

    def test_variadic_functions_excluded(self, demo_program):
        module = demo_program.modules[0]
        from repro.ir import FunctionType
        variadic = Function("logf", FunctionType(I64, [I64], variadic=True))
        variadic.add_block("entry")
        IRBuilder(variadic.entry_block).ret(0)
        module.add_function(variadic)
        _, merged_module, _, _, created = run_fusion(demo_program)
        for fused in created:
            assert "logf" not in fused.attributes["khaos_sides"]

    def test_entry_function_never_fused(self):
        _, module, _, _, created = run_fusion(build_demo_program())
        for fused in created:
            assert "main" not in fused.attributes["khaos_sides"]


class TestFusionTransform:
    def test_preserves_semantics(self):
        baseline = run_program(build_demo_program())
        linked, _, _, _, created = run_fusion(build_demo_program())
        assert created
        assert run_program(linked).observable() == baseline.observable()

    def test_fused_function_shape(self):
        _, module, _, _, created = run_fusion(build_demo_program())
        for fused in created:
            assert fused.args[0].name == "ctrl"
            assert fused.attributes["khaos_kind"] == "fusfunc"
            # both sides' entries are reachable from the ctrl dispatch
            assert fused.block_count() >= 3

    def test_originals_removed_and_callsites_redirected(self):
        _, module, _, _, created = run_fusion(build_demo_program())
        fused_sides = [side for f in created for side in f.attributes["khaos_sides"]]
        for side in fused_sides:
            survivor = module.get_function(side)
            if survivor is not None:
                # only trampolines may keep the original name
                assert survivor.attributes.get("khaos_kind") == "trampoline"

    def test_provenance_maps_fused_to_both_sides(self):
        _, _, provenance, _, created = run_fusion(build_demo_program())
        for fused in created:
            side_a, side_b = fused.attributes["khaos_sides"]
            assert provenance.is_correct_match(side_a, fused.name)
            assert provenance.is_correct_match(side_b, fused.name)

    def test_parameter_compression_reduces_parameters(self):
        _, _, _, stats, created = run_fusion(build_demo_program())
        if created:
            assert stats.avg_reduced_params >= 0
            for fused in created:
                # ctrl + compressed params never exceeds the sum + 1
                assert len(fused.args) <= 1 + 4

    def test_compression_can_be_disabled(self):
        # exclude the address-taken pair (scale/mix): identical-signature
        # address-taken functions always share a layout for correctness
        config = FusionConfig(enable_parameter_compression=False)
        _, _, _, stats, created = run_fusion(
            build_demo_program(), config,
            candidate_filter=lambda f: f.name not in ("scale", "mix"))
        assert stats.avg_reduced_params == 0

    def test_stats_ratio(self):
        _, _, _, stats, created = run_fusion(build_demo_program())
        assert stats.fused_functions == 2 * stats.fusfuncs_created
        assert 0 <= stats.ratio <= 1

    def test_candidate_filter_restricts_fusion(self):
        _, _, _, _, created = run_fusion(
            build_demo_program(), candidate_filter=lambda f: False)
        assert created == []

    def test_seed_changes_pairing_deterministically(self):
        _, _, _, _, first = run_fusion(build_demo_program(), seed=1)
        _, _, _, _, second = run_fusion(build_demo_program(), seed=1)
        assert ([f.attributes["khaos_sides"] for f in first]
                == [f.attributes["khaos_sides"] for f in second])


class TestTaggedPointersAndTrampolines:
    def test_indirect_call_through_fused_pointer_works(self):
        # scale/mix are address-taken in the demo program; select_op calls them
        # through a function pointer, so fusing them exercises the tag path
        baseline = run_program(build_demo_program())
        linked, module, _, _, created = run_fusion(build_demo_program())
        sides = {side for f in created for side in f.attributes["khaos_sides"]}
        assert {"scale", "mix"} & sides, "address-taken functions should fuse"
        assert run_program(linked).observable() == baseline.observable()

    def test_tag_intrinsics_inserted(self):
        _, module, _, _, created = run_fusion(build_demo_program())
        names = set(module.functions)
        assert "__khaos_tag_ptr" in names
        assert "__khaos_extract_tag" in names
        assert "__khaos_clear_tag" in names

    def test_tag_constants_encode_ctrl(self):
        assert TAG_FUSED_A >> 1 & 1 == 1
        assert TAG_FUSED_B >> 1 & 1 == 0
        assert TAG_FUSED_A & 1 and TAG_FUSED_B & 1

    def test_exported_function_gets_trampoline(self):
        module = Module("m")
        api_a = create_function(module, "api_a", I64, [I64],
                                linkage=Linkage.EXPORTED)
        ba = IRBuilder(api_a.entry_block)
        ba.ret(ba.add(api_a.args[0], 1))
        api_b = create_function(module, "api_b", I64, [I64],
                                linkage=Linkage.EXPORTED)
        bb = IRBuilder(api_b.entry_block)
        bb.ret(bb.mul(api_b.args[0], 2))
        main = create_function(module, "main", I64, [])
        bm = IRBuilder(main.entry_block)
        bm.ret(bm.add(bm.call(api_a, [1]), bm.call(api_b, [3])))

        program = Program("p", [module])
        baseline = run_program(program.clone())
        linked, merged, _, _, created = run_fusion(program)
        assert created
        trampoline = merged.get_function("api_a")
        assert trampoline is not None
        assert trampoline.attributes["khaos_kind"] == "trampoline"
        assert run_program(linked).exit_value == baseline.exit_value


class TestDeepFusion:
    def test_deep_fusion_merges_blocks(self):
        config = FusionConfig(enable_deep_fusion=True)
        _, _, _, stats, created = run_fusion(build_demo_program(), config)
        # at least some innocuous blocks are observed; merging depends on the
        # self-containment check, so only require a non-negative count
        assert stats.deep_fused_blocks >= 0
        assert stats.avg_innocuous_blocks >= 0

    def test_deep_fusion_can_be_disabled(self):
        config = FusionConfig(enable_deep_fusion=False)
        _, _, _, stats, _ = run_fusion(build_demo_program(), config)
        assert stats.deep_fused_blocks == 0

    def test_deep_fusion_preserves_semantics_on_workload(self):
        from repro.workloads import find_program
        workload = find_program("458.sjeng")
        baseline = run_program(workload.build())
        linked, _, _, stats, _ = run_fusion(workload.build(),
                                            FusionConfig(enable_deep_fusion=True,
                                                         max_deep_fusion_blocks=4))
        assert run_program(linked).observable() == baseline.observable()
