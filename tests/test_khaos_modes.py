"""End-to-end tests of the Khaos driver: every mode, through the full pipeline."""

import pytest

from repro.core import KhaosConfig, Mode, obfuscate
from repro.opt import optimize_program
from repro.toolchain import (ALL_LABELS, KhaosVariant, build_all_variants,
                             build_baseline, build_obfuscated, obfuscator_for,
                             overhead_percent)
from repro.vm import run_program
from repro.workloads import find_program
from tests.conftest import build_demo_program


@pytest.fixture(scope="module")
def demo_baseline():
    return run_program(optimize_program(build_demo_program())).observable()


class TestModes:
    @pytest.mark.parametrize("mode", Mode.ALL)
    def test_mode_preserves_semantics(self, mode, demo_baseline):
        result = obfuscate(build_demo_program(), mode=mode)
        optimized = optimize_program(result.program)
        assert run_program(optimized).observable() == demo_baseline

    @pytest.mark.parametrize("mode", Mode.ALL)
    def test_mode_records_label_and_metadata(self, mode):
        result = obfuscate(build_demo_program(), mode=mode)
        assert result.label == mode
        assert result.program.metadata["khaos_mode"] == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            KhaosConfig(mode="nonsense")

    def test_fufi_sep_only_fuses_sepfuncs(self):
        result = obfuscate(build_demo_program(), mode=Mode.FUFI_SEP)
        module = result.program.modules[0]
        for f in module.defined_functions():
            if f.attributes.get("khaos_kind") == "fusfunc":
                for side in f.attributes["khaos_sides"]:
                    assert ".sep." in side

    def test_fufi_ori_does_not_fuse_fissioned_functions(self):
        result = obfuscate(build_demo_program(), mode=Mode.FUFI_ORI)
        module = result.program.modules[0]
        for f in module.defined_functions():
            if f.attributes.get("khaos_kind") == "fusfunc":
                for side in f.attributes["khaos_sides"]:
                    assert ".sep." not in side

    def test_fission_mode_collects_only_fission_stats(self):
        result = obfuscate(build_demo_program(), mode=Mode.FISSION)
        assert result.stats.fission.sepfuncs_created > 0
        assert result.stats.fusion.fusfuncs_created == 0

    def test_stats_row_shape(self):
        result = obfuscate(build_demo_program(), mode=Mode.FUFI_ALL)
        row = result.stats.as_row()
        assert set(row) == {"fission_ratio", "avg_bb", "reduction_ratio",
                            "fusion_ratio", "avg_reduced_params",
                            "avg_innocuous_blocks"}


class TestToolchain:
    def test_obfuscator_for_labels(self):
        for label in ALL_LABELS:
            assert obfuscator_for(label).label.startswith(label.split("-")[0])
        with pytest.raises(KeyError):
            obfuscator_for("unknown")

    def test_build_baseline_and_variant(self):
        workload = find_program("cat")
        baseline = build_baseline(workload.build(), run=True)
        variant = build_obfuscated(workload.build(), obfuscator_for("fufi.ori"),
                                   run=True)
        assert baseline.binary.functions and variant.binary.functions
        assert baseline.execution.observable() == variant.execution.observable()
        assert isinstance(overhead_percent(baseline, variant), float)

    def test_build_all_variants_labels(self):
        workload = find_program("true")
        artifacts = build_all_variants(workload.build, labels=("sub", "fission"))
        assert set(artifacts) == {"baseline", "sub", "fission"}

    def test_khaos_changes_function_set_but_baselines_do_not(self):
        workload = find_program("429.mcf")
        source_names = {f.name for f in workload.build().link().defined_functions()}

        # intra-procedural obfuscation introduces no new function symbols
        sub = build_obfuscated(workload.build(), obfuscator_for("sub"))
        assert set(sub.binary.function_names()) <= source_names

        # Khaos creates sepFuncs / fusFuncs that did not exist before
        khaos = build_obfuscated(workload.build(), obfuscator_for("fufi.all"))
        khaos_names = set(khaos.binary.function_names())
        assert any(name.startswith("khaos.fuse.") or ".sep." in name
                   for name in khaos_names)

    def test_workload_semantics_across_all_modes(self):
        workload = find_program("462.libquantum")
        baseline = build_baseline(workload.build(), run=True)
        for mode in Mode.ALL:
            variant = build_obfuscated(workload.build(), KhaosVariant(mode),
                                       run=True)
            assert (variant.execution.observable()
                    == baseline.execution.observable()), mode
