"""Function-granularity diff units: contract, merge identity, store reuse.

The diff matrices of figures 8 and 10 run as modular slices of each cell
(:mod:`repro.evaluation.diff_sharding`) and merge through the tools'
partial-result contract.  The reports must equal the plain whole-binary
``diff()`` oracle bit for bit, in process or across processes, cold or over
a warm shared store — and a warm store must serve every unit without
scoring a pair or rebuilding a single ``FeatureIndex`` payload.
"""

import os

import pytest

from repro.diffing import BinDiff, DeepBinDiff, all_differs
from repro.diffing.base import PartialDiff
from repro.evaluation import (figure8, measure_bintuner, measure_escape,
                              measure_precision)
from repro.evaluation.checkpoint import RUNS_DIR
from repro.evaluation.bintuner_compare import (bintuner_shard_key,
                                               shard_bintuner_matrix)
from repro.evaluation.diff_sharding import (SHARDS_PER_CELL, diff_shard_key,
                                            shard_diff_matrix)
from repro.evaluation.executor import reset_worker_cache
from repro.store import KIND_FEATURES, ArtifactStore
from repro.toolchain import build_baseline, build_obfuscated, obfuscator_for
from repro.workloads.suites import embedded_programs, spec2006_programs
from tests import oracles
from repro.obs.metrics import counted
from tests.conftest import build_demo_program

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


@pytest.fixture(scope="module")
def demo_pair():
    baseline = build_baseline(build_demo_program())
    variant = build_obfuscated(build_demo_program(), obfuscator_for("fufi.all"))
    return baseline.binary, variant.binary


def _precision_rows(report):
    return [(r.program, r.suite, r.tool, r.label, r.precision,
             r.similarity_score) for r in report.rows]


def _escape_rows(report):
    return [(r.program, r.function, r.tool, r.label, r.rank_of_correct)
            for r in report.rows]


class TestPartialContract:
    @pytest.mark.parametrize("differ", all_differs(), ids=lambda d: d.name)
    def test_merge_partials_reassembles_the_serial_diff(self, differ,
                                                        demo_pair):
        original, obfuscated = demo_pair
        reference = differ.diff(original, obfuscated)
        units = differ.shard_units(original)
        if differ.shard_granularity == "function":
            partials = [differ.partial_diff(original, obfuscated, units[k::3])
                        for k in range(3)]
        else:
            partials = [differ.partial_diff(original, obfuscated)]
        merged = differ.merge_partials(partials)
        assert merged.matches == reference.matches
        assert merged.similarity_score == reference.similarity_score
        assert (merged.tool, merged.original, merged.obfuscated) == \
            (reference.tool, reference.original, reference.obfuscated)

    @pytest.mark.parametrize("differ", all_differs(), ids=lambda d: d.name)
    def test_partition_choice_cannot_change_the_merge(self, differ, demo_pair):
        """Any partition (including reversed shard order) merges identically."""
        original, obfuscated = demo_pair
        if differ.shard_granularity != "function":
            pytest.skip("whole-pair tools have a single partition")
        units = differ.shard_units(original)
        by_threes = [differ.partial_diff(original, obfuscated, units[k::3])
                     for k in range(3)]
        one_by_one = [differ.partial_diff(original, obfuscated, [unit])
                      for unit in units]
        merged_a = differ.merge_partials(list(reversed(by_threes)))
        merged_b = differ.merge_partials(one_by_one)
        assert merged_a.matches == merged_b.matches
        assert merged_a.similarity_score == merged_b.similarity_score

    def test_shard_units_are_source_functions_in_rank_order(self, demo_pair):
        original, _obfuscated = demo_pair
        differ = BinDiff()
        assert differ.shard_units(original) == \
            [f.name for f in original.functions]

    def test_deepbindiff_falls_back_to_binary_granularity(self, demo_pair):
        original, obfuscated = demo_pair
        differ = DeepBinDiff()
        assert differ.shard_granularity == "binary"
        partial = differ.partial_diff(original, obfuscated, ["ignored"])
        assert partial.sources == tuple(differ.shard_units(original))
        assert partial.similarity_score is not None

    def test_partial_diff_rejects_unknown_sources(self, demo_pair):
        original, obfuscated = demo_pair
        with pytest.raises(ValueError, match="unknown source"):
            BinDiff().partial_diff(original, obfuscated, ["no_such_function"])

    def test_merge_rejects_uncovered_units(self, demo_pair):
        original, obfuscated = demo_pair
        differ = BinDiff()
        units = differ.shard_units(original)
        partial = differ.partial_diff(original, obfuscated, units[1:])
        with pytest.raises(ValueError, match="no score"):
            differ.merge_partials([partial])

    def test_merge_rejects_double_covered_units(self, demo_pair):
        original, obfuscated = demo_pair
        differ = BinDiff()
        units = differ.shard_units(original)
        whole = differ.partial_diff(original, obfuscated, units)
        extra = differ.partial_diff(original, obfuscated, units[:1])
        with pytest.raises(ValueError, match="two partials"):
            differ.merge_partials([whole, extra])

    def test_merge_rejects_mismatched_pairs(self, demo_pair):
        original, obfuscated = demo_pair
        differ = BinDiff()
        partial = differ.partial_diff(original, obfuscated)
        other = PartialDiff(tool=differ.name, original="other",
                            obfuscated=partial.obfuscated,
                            units=partial.units, sources=(),
                            matches={})
        with pytest.raises(ValueError, match="different pairs"):
            differ.merge_partials([partial, other])

    def test_cache_keys_are_stable_and_config_sensitive(self):
        from repro.diffing import Asm2Vec
        from repro.store import canonical_key
        keys = {differ.name: differ.cache_key() for differ in all_differs()}
        assert len(set(keys.values())) == len(keys)       # tools never collide
        for key in keys.values():
            assert canonical_key(key) == canonical_key(key)  # value-based
        assert Asm2Vec(walks=9).cache_key() != Asm2Vec().cache_key()


class TestShardPlanning:
    def test_partition_is_deterministic(self):
        differs = all_differs()
        assert shard_diff_matrix(WORKLOADS, LABELS, differs) == \
            shard_diff_matrix(WORKLOADS, LABELS, differs)

    def test_function_tools_split_binary_tools_do_not(self):
        shards = shard_diff_matrix(WORKLOADS[:1], ("fission",),
                                   [BinDiff(), DeepBinDiff()])
        counts = {}
        for _w, _label, differ, _opts, _index, count in shards:
            counts[differ.name] = count
        assert counts == {"BinDiff": SHARDS_PER_CELL, "DeepBinDiff": 1}
        assert len(shards) == SHARDS_PER_CELL + 1

    def test_unit_keys_are_value_based_and_name_the_slice(self):
        def keys(workloads):
            return [diff_shard_key(shard) for shard in shard_diff_matrix(
                workloads, ("fission",), [BinDiff(), DeepBinDiff()])]

        planned = keys(WORKLOADS[:1])
        assert len(set(planned)) == len(planned)
        assert all(key[0] == "diffshard" for key in planned)
        assert [key[-2:] for key in planned] == \
            [(index, SHARDS_PER_CELL) for index in range(SHARDS_PER_CELL)] \
            + [(0, 1)]
        # fresh workload objects plan the same keys: value, not identity
        assert keys(spec2006_programs()[:1]) == planned


class TestPrecisionSharded:
    def test_serial_shards_equal_the_reference(self):
        reference = oracles.precision(WORKLOADS[:1], LABELS)
        serial = measure_precision(WORKLOADS[:1], labels=LABELS, jobs=1)
        assert _precision_rows(serial) == _precision_rows(reference)

    def test_jobs2_equals_the_reference(self):
        reference = oracles.precision(WORKLOADS, LABELS)
        parallel = measure_precision(WORKLOADS, labels=LABELS, jobs=2)
        assert _precision_rows(parallel) == _precision_rows(reference)
        assert parallel.matrix() == reference.matrix()

    def test_figure8_jobs2_through_function_shards_is_bit_identical(self):
        """figure8(jobs=2) fans function-granularity units across workers
        and still equals the in-process run."""
        kwargs = dict(limit_spec=1, limit_coreutils=1, labels=LABELS)
        serial = figure8(**kwargs)
        parallel = figure8(jobs=2, **kwargs)
        assert _precision_rows(parallel) == _precision_rows(serial)
        assert parallel.matrix() == serial.matrix()

    def test_unit_counters_add_up_in_the_parent_at_jobs2(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        with counted("diffshard") as stats:
            measure_precision(WORKLOADS[:1], labels=("fission",),
                              differs=[BinDiff(), DeepBinDiff()], jobs=2)
        assert stats["shards"] == SHARDS_PER_CELL + 1
        assert stats["units_scored"] == stats["units_total"] > 0
        assert stats["units_from_store"] == 0
        assert stats["diff_payloads_persisted"] == 0      # storeless


class TestSharedStoreReuse:
    def test_warm_store_serves_every_unit_and_rebuilds_no_features(
            self, tmp_store):
        reference = oracles.precision(WORKLOADS[:1], LABELS)
        with counted("diffshard") as cold_stats:
            cold = measure_precision(WORKLOADS[:1], labels=LABELS, jobs=1)
        assert _precision_rows(cold) == _precision_rows(reference)
        assert cold_stats["units_scored"] == cold_stats["units_total"] > 0
        assert cold_stats["features_persisted"] > 0
        assert cold_stats["diff_payloads_persisted"] > 0

        reset_worker_cache()
        with counted("diffshard") as warm_stats:
            warm = measure_precision(WORKLOADS[:1], labels=LABELS, jobs=1)
        assert _precision_rows(warm) == _precision_rows(reference)
        # every unit adopted, zero pairs scored, zero feature rebuilds
        assert warm_stats["units_from_store"] == warm_stats["units_total"]
        assert warm_stats["units_scored"] == 0
        assert warm_stats["features_persisted"] == 0
        assert warm_stats["diff_payloads_persisted"] == 0
        # ...and the tree gained no feature objects on the warm pass
        features_after = ArtifactStore.attach(tmp_store).entry_count(
            KIND_FEATURES)
        reset_worker_cache()
        with counted("diffshard") as rerun_stats:
            measure_precision(WORKLOADS[:1], labels=LABELS, jobs=1)
        assert ArtifactStore.attach(tmp_store).entry_count(KIND_FEATURES) \
            == features_after
        assert rerun_stats["features_persisted"] == 0

    def test_jobs2_over_warm_store_equals_the_reference(self, tmp_store,
                                                        monkeypatch):
        reference = oracles.precision(WORKLOADS[:1], LABELS)
        measure_precision(WORKLOADS[:1], labels=LABELS, jobs=1)
        reset_worker_cache()
        # no journal: the workers must really run, over the warm payloads
        monkeypatch.setenv("REPRO_CHECKPOINT", "off")
        with counted("diffshard") as warm_stats:
            parallel = measure_precision(WORKLOADS[:1], labels=LABELS, jobs=2)
        assert _precision_rows(parallel) == _precision_rows(reference)
        assert warm_stats["units_from_store"] == warm_stats["units_total"] > 0
        assert warm_stats["units_scored"] == 0

    def test_stored_units_outlive_the_journal(self, tmp_store):
        """Per-function payloads are independent of the run journal: with
        the journals gone, a rerun adopts every unit a previous run
        persisted and scores nothing."""
        measure_precision(WORKLOADS[:1], labels=("fission",), jobs=1)
        for name in os.listdir(os.path.join(tmp_store, RUNS_DIR)):
            os.unlink(os.path.join(tmp_store, RUNS_DIR, name))
        reset_worker_cache()
        with counted("diffshard") as stats, counted("checkpoint") as run:
            measure_precision(WORKLOADS[:1], labels=("fission",), jobs=1)
        assert run["resumed"] == 0 and run["executed"] > 0
        assert stats["units_from_store"] == stats["units_total"]
        assert stats["units_scored"] == 0


class TestEscapeSharded:
    def test_sharded_escape_equals_the_reference(self):
        workloads = embedded_programs()[:1]
        labels = ("sub", "fufi.all")
        reference = oracles.escape(workloads, labels)
        serial = measure_escape(workloads, labels=labels, jobs=1)
        parallel = measure_escape(workloads, labels=labels, jobs=2)
        assert _escape_rows(serial) == _escape_rows(reference)
        assert _escape_rows(parallel) == _escape_rows(reference)
        for n in (1, 10, 50):
            assert parallel.matrix(n) == reference.matrix(n)


class TestBinTunerSharded:
    def test_units_pair_each_workload_bintuner_before_khaos(self):
        shards = shard_bintuner_matrix(WORKLOADS, 3)
        assert [(workload.name, protection)
                for workload, protection, _iterations in shards] == \
            [(workload.name, protection) for workload in WORKLOADS
             for protection in ("bintuner", "khaos")]
        keys = [bintuner_shard_key(shard) for shard in shards]
        assert len(set(keys)) == len(keys)
        assert all(key[0] == "fig9shard" and key[-1] == 3 for key in keys)

    def test_sharded_bintuner_equals_the_reference(self):
        reference = oracles.bintuner(WORKLOADS[:1], tuner_iterations=1)
        serial = measure_bintuner(WORKLOADS[:1], tuner_iterations=1, jobs=1)
        parallel = measure_bintuner(WORKLOADS[:1], tuner_iterations=1, jobs=2)
        assert serial.rows == reference.rows == parallel.rows
        assert (serial.bintuner_overhead_percent
                == reference.bintuner_overhead_percent
                == parallel.bintuner_overhead_percent)
