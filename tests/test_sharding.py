"""The fig6/7 matrix: jobs=1 vs jobs=2 bit-identity + store reuse.

The overhead matrices are pure functions of seeded inputs; running their
units across processes must reproduce the in-process reports exactly (same
rows, same order, same cycle counts), both must equal the plain per-cell
oracle, and workers attached to a warm shared store must rebuild nothing.
A rerun in one process reads the facts memo, so the tests that rerun a
matrix in process to exercise a path clear it first.
"""


from repro.core.variant_cache import VariantCache
from repro.evaluation import (clear_variant_facts, figure6, figure7,
                              measure_overhead, shard_overhead_matrix)
from repro.obs.metrics import counted
from repro.store import KIND_VARIANT, ArtifactStore
from repro.workloads.suites import spec2006_programs
from tests import oracles

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


def _rows(report):
    return [(r.program, r.suite, r.label, r.baseline_cycles, r.cycles)
            for r in report.rows]


class TestDeterministicPartitioning:
    def test_one_shard_per_workload_in_order(self):
        shards = shard_overhead_matrix(WORKLOADS, LABELS)
        assert [shard[0].name for shard in shards] == \
               [wp.name for wp in WORKLOADS]
        assert all(shard[1] == LABELS for shard in shards)

    def test_partition_is_reproducible(self):
        assert (shard_overhead_matrix(WORKLOADS, LABELS)
                == shard_overhead_matrix(WORKLOADS, LABELS))


class TestUnitExecutions:
    def test_one_vm_execution_per_distinct_variant(self):
        with counted("vmbatch") as first:
            report = measure_overhead(WORKLOADS[:1], labels=LABELS)
        assert len(report.rows) == len(LABELS)
        # one VM execution per variant: baseline + each label
        assert first["executions"] == len(LABELS) + 1
        # the facts memo holds every cycle count: a second call runs nothing
        with counted("vmbatch") as second:
            again = measure_overhead(WORKLOADS[:1], labels=LABELS)
        assert second["executions"] == 0
        assert again.rows == report.rows


class TestShardedBitIdentity:
    def test_measure_overhead_jobs2_equals_serial(self):
        serial = measure_overhead(WORKLOADS, labels=LABELS)
        parallel = measure_overhead(WORKLOADS, labels=LABELS, jobs=2)
        assert serial.rows == parallel.rows
        for label in LABELS:
            assert serial.geomean(label) == parallel.geomean(label)

    def test_measure_overhead_equals_the_oracle(self):
        reference = oracles.overhead(WORKLOADS, LABELS)
        assert _rows(measure_overhead(WORKLOADS, labels=LABELS)) == \
            _rows(reference)

    def test_figure6_jobs2_equals_serial(self):
        serial = figure6(limit=2)
        parallel = figure6(limit=2, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.labels() == parallel.labels()
        assert serial.programs() == parallel.programs()

    def test_figure7_jobs2_equals_serial(self):
        serial = figure7(limit=1)
        # one unit runs in process even at jobs=2: measure it again
        clear_variant_facts()
        parallel = figure7(limit=1, jobs=2)
        assert serial.rows == parallel.rows

    def test_overhead_respects_repro_jobs_env(self, monkeypatch):
        serial = measure_overhead(WORKLOADS[:1], labels=LABELS)
        clear_variant_facts()
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = measure_overhead(WORKLOADS[:1], labels=LABELS)
        assert serial.rows == parallel.rows

    def test_ambient_repro_jobs_never_overrides_explicit_cache(self,
                                                               monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        cache = VariantCache()
        measure_overhead(WORKLOADS[:1], labels=LABELS, cache=cache)
        assert cache.misses > 0           # the explicit cache was used
        hits_before = cache.hits
        clear_variant_facts()             # or the rerun never reaches it
        measure_overhead(WORKLOADS[:1], labels=LABELS, cache=cache)
        assert cache.hits > hits_before   # ...and hit on the rerun

    def test_jobs2_workers_rebuild_what_the_parent_measured(
            self, tmp_store, monkeypatch):
        """Forked workers start with an empty facts memo: after a serial
        run has measured every variant in this process, a jobs=2 run still
        builds (and persists to a fresh tree) every variant of its units."""
        monkeypatch.delenv("REPRO_STORE_DIR")
        serial = measure_overhead(WORKLOADS, labels=LABELS, jobs=1)
        monkeypatch.setenv("REPRO_STORE_DIR", tmp_store)
        parallel = measure_overhead(WORKLOADS, labels=LABELS, jobs=2)
        assert parallel.rows == serial.rows
        assert ArtifactStore.attach(tmp_store).entry_count(KIND_VARIANT) \
            == len(WORKLOADS) * (len(LABELS) + 1)


class TestSharedStoreReuse:
    def test_workers_attach_to_warm_tree_and_rebuild_nothing(
            self, tmp_store, monkeypatch):
        """After a cold in-process populate, a jobs=2 run through the shared
        store must add zero objects to the tree and reproduce the rows."""
        cold = VariantCache(store=ArtifactStore.attach(tmp_store))
        reference = measure_overhead(WORKLOADS, labels=LABELS, cache=cold)
        objects_before = cold.store.entry_count(KIND_VARIANT)
        assert objects_before == len(WORKLOADS) * (len(LABELS) + 1)

        # no journal: the workers must really run, over the warm variants
        monkeypatch.setenv("REPRO_CHECKPOINT", "off")
        parallel = measure_overhead(WORKLOADS, labels=LABELS, jobs=2)
        assert _rows(parallel) == _rows(reference)
        after = ArtifactStore.attach(tmp_store)
        assert after.entry_count(KIND_VARIANT) == objects_before  # no rebuilds

    def test_cold_parallel_run_populates_the_tree(self, tmp_store):
        reference = oracles.overhead(WORKLOADS[:1], LABELS)
        parallel = measure_overhead(WORKLOADS[:1], labels=LABELS, jobs=2)
        assert _rows(parallel) == _rows(reference)
        store = ArtifactStore.attach(tmp_store)
        assert store.entry_count(KIND_VARIANT) == len(LABELS) + 1

    def test_precision_workers_share_the_overhead_tree(self, tmp_store):
        """Cross-experiment reuse through the store: figure-8 units must
        fetch the variants the figure-6/7 run persisted."""
        from repro.evaluation import measure_precision
        cold = VariantCache(store=ArtifactStore.attach(tmp_store))
        measure_overhead(WORKLOADS[:1], labels=LABELS, cache=cold)
        objects_before = cold.store.entry_count(KIND_VARIANT)

        reference = oracles.precision(WORKLOADS[:1], LABELS)
        with counted("checkpoint") as units:
            parallel = measure_precision(WORKLOADS[:1], labels=LABELS, jobs=2)
        # no journal to resume from: every unit ran in a worker
        assert units["executed"] == units["planned"] > 0
        assert [(r.program, r.tool, r.label, r.precision)
                for r in reference.rows] \
            == [(r.program, r.tool, r.label, r.precision) for r in parallel.rows]
        after = ArtifactStore.attach(tmp_store)
        assert after.entry_count(KIND_VARIANT) == objects_before
