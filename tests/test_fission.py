"""Tests for the fission primitive: region identification (Algorithm 1),
data-flow and control-flow rebuild, side conditions and statistics."""


from repro.analysis import CallGraph
from repro.core import Fission, FissionConfig, ProvenanceMap, RegionIdentifier
from repro.core.stats import FissionStats
from repro.ir import (FunctionType, IRBuilder, Module, PointerType,
                      assert_valid, create_function, I64)
from repro.vm import run_program
from tests.conftest import build_demo_program


def run_fission(program, config=None):
    linked = program.link()
    module = linked.modules[0]
    provenance = ProvenanceMap(f.name for f in module.defined_functions())
    stats = FissionStats()
    fission = Fission(config or FissionConfig(), provenance, stats)
    created = fission.run_on_module(module, entry="main")
    assert_valid(linked)
    return linked, module, provenance, stats, created


class TestRegionIdentification:
    def test_candidates_exclude_whole_function(self, demo_module):
        classify = demo_module.get_function("classify")
        identifier = RegionIdentifier(classify)
        for region in identifier.candidate_regions():
            assert region.head is not classify.entry_block
            assert len(region.blocks) < classify.block_count()

    def test_chosen_regions_do_not_intersect(self, demo_module):
        classify = demo_module.get_function("classify")
        regions = RegionIdentifier(classify).identify()
        seen = set()
        for region in regions:
            assert not (region.block_set & seen)
            seen |= region.block_set

    def test_value_prefers_cold_code(self, demo_module):
        classify = demo_module.get_function("classify")
        identifier = RegionIdentifier(classify)
        candidates = {r.head.name: r for r in identifier.candidate_regions()}
        # the loop body is hot (inside a loop); a region headed there must have
        # a higher cost than the cold "negative" branch if both are candidates
        if "body" in candidates and "negative" in candidates:
            assert candidates["body"].cost > candidates["negative"].cost

    def test_setjmp_region_rejected(self):
        module = Module("m")
        setjmp = module.declare_function("setjmp",
                                         FunctionType(I64, [PointerType(I64)]))
        f = create_function(module, "guarded", I64, [I64])
        b = IRBuilder(f.entry_block)
        work = f.add_block("work")
        out = f.add_block("out")
        b.br(work)
        b.position_at_end(work)
        buf = b.alloca(I64, count=4)
        b.call(setjmp, [buf])
        b.br(out)
        b.position_at_end(out)
        b.ret(f.args[0])
        regions = RegionIdentifier(f, FissionConfig(min_function_blocks=1,
                                                    min_region_blocks=1)).identify()
        for region in regions:
            names = {block.name for block in region.blocks}
            assert "work" not in names

    def test_eh_pair_kept_together(self):
        module = Module("m")
        helper = module.declare_function("may_throw", FunctionType(I64, [I64]))
        f = create_function(module, "eh", I64, [I64])
        b = IRBuilder(f.entry_block)
        tryb = f.add_block("try")
        catchb = f.add_block("catch")
        after = f.add_block("after")
        b.br(tryb)
        b.position_at_end(tryb)
        risky = b.call(helper, [f.args[0]], may_throw=True)
        b.cond_br(b.icmp("slt", risky, 0), catchb, after)
        b.position_at_end(catchb)
        b.ret(-1)
        b.position_at_end(after)
        b.ret(risky)
        f.eh_pairs.append(("try", "catch"))
        regions = RegionIdentifier(f, FissionConfig(min_function_blocks=1,
                                                    min_region_blocks=1)).identify()
        for region in regions:
            names = {block.name for block in region.blocks}
            assert ("try" in names) == ("catch" in names)


class TestFissionTransform:
    def test_creates_sepfuncs_and_preserves_semantics(self):
        baseline = run_program(build_demo_program())
        linked, module, provenance, stats, created = run_fission(build_demo_program())
        assert created, "fission should split at least one function"
        assert run_program(linked).observable() == baseline.observable()

    def test_sepfunc_metadata_and_provenance(self):
        _, module, provenance, stats, created = run_fission(build_demo_program())
        for sepfunc in created:
            assert sepfunc.attributes["khaos_kind"] == "sepfunc"
            origin = sepfunc.attributes["khaos_origin"]
            assert provenance.is_correct_match(origin, sepfunc.name)
            # the remFunc keeps the original name
            assert provenance.is_correct_match(origin, origin)

    def test_remfunc_calls_its_sepfuncs(self):
        _, module, _, _, created = run_fission(build_demo_program())
        graph = CallGraph(module)
        for sepfunc in created:
            origin = sepfunc.attributes["khaos_origin"]
            assert graph.calls(origin, sepfunc.name)

    def test_remfunc_shrinks(self):
        original = build_demo_program()
        original_blocks = original.find_function("classify").block_count()
        _, module, _, _, created = run_fission(build_demo_program())
        classify_seps = [f for f in created
                         if f.attributes["khaos_origin"] == "classify"]
        if classify_seps:
            assert module.get_function("classify").block_count() < original_blocks + 2

    def test_stats_populated(self):
        _, _, _, stats, created = run_fission(build_demo_program())
        assert stats.sepfuncs_created == len(created)
        assert stats.ratio > 0
        assert stats.avg_sepfunc_blocks >= 1
        assert 0 < stats.reduction_ratio <= 1

    def test_respects_max_parameters(self):
        config = FissionConfig(max_parameters=0)
        _, _, _, _, created = run_fission(build_demo_program(), config)
        # with no parameters allowed, only regions with no inputs/outputs split
        for sepfunc in created:
            assert len(sepfunc.args) == 0

    def test_min_function_blocks_threshold(self):
        config = FissionConfig(min_function_blocks=100)
        _, _, _, _, created = run_fission(build_demo_program(), config)
        assert created == []

    def test_no_obfuscate_attribute_respected(self):
        program = build_demo_program()
        program.find_function("classify").attributes["no_obfuscate"] = True
        _, _, _, _, created = run_fission(program)
        assert all(f.attributes["khaos_origin"] != "classify" for f in created)

    def test_fission_on_workload_program(self):
        from repro.workloads import find_program
        workload = find_program("429.mcf")
        baseline = run_program(workload.build())
        linked, module, provenance, stats, created = run_fission(workload.build())
        assert stats.ratio > 0.3   # a realistic program splits many functions
        assert run_program(linked).observable() == baseline.observable()
