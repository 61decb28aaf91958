"""The fig6/7 matrix: jobs=1 vs jobs=2 bit-identity + store reuse.

The overhead matrices are pure functions of seeded inputs; running their
units across processes must reproduce the in-process reports exactly (same
rows, same order, same cycle counts), both must equal the plain per-cell
oracle, and a warm shared store must revive every unit and rebuild
nothing, while no variant is ever stored.  A rerun in one process reads
the facts memo, so the tests that rerun a matrix in process to exercise a
path clear it first.
"""


from repro.core.variant_cache import VariantCache
from repro.evaluation import (clear_variant_facts, figure6, figure7,
                              measure_overhead, shard_overhead_matrix)
from repro.obs import measure
from repro.obs.metrics import counted
from repro.store import KIND_SHARD, LocalBackend, code_fingerprint
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
        builds every variant of its units (and stores only the units)."""
        monkeypatch.delenv("REPRO_STORE_DIR")
        serial = measure_overhead(WORKLOADS, labels=LABELS, jobs=1)
        monkeypatch.setenv("REPRO_STORE_DIR", tmp_store)
        with measure() as run:
            parallel = measure_overhead(WORKLOADS, labels=LABELS, jobs=2)
        assert parallel.rows == serial.rows
        assert run.counters["build.variants"] \
            == len(WORKLOADS) * (len(LABELS) + 1)
        refs = LocalBackend(tmp_store, code_fingerprint()).list_refs()
        assert [kind for kind, _digest in refs] == [KIND_SHARD] * len(WORKLOADS)


class TestSharedStoreReuse:
    def test_a_warm_jobs2_run_revives_every_unit_and_builds_nothing(
            self, tmp_store):
        """After a cold jobs=2 run, a jobs=2 rerun over the same tree
        revives every unit, starts no worker and reproduces the rows."""
        reference = oracles.overhead(WORKLOADS, LABELS)
        cold = measure_overhead(WORKLOADS, labels=LABELS, jobs=2)
        with measure() as run:
            warm = measure_overhead(WORKLOADS, labels=LABELS, jobs=2)
        assert _rows(cold) == _rows(warm) == _rows(reference)
        assert run.counters["checkpoint.resumed"] == len(WORKLOADS)
        assert run.counters.get("checkpoint.executed", 0) == 0
        assert "build.variants" not in run.counters
        assert "executor.tasks_completed" not in run.counters

    def test_cold_parallel_run_stores_only_its_units(self, tmp_store):
        reference = oracles.overhead(WORKLOADS[:1], LABELS)
        parallel = measure_overhead(WORKLOADS[:1], labels=LABELS, jobs=2)
        assert _rows(parallel) == _rows(reference)
        refs = LocalBackend(tmp_store, code_fingerprint()).list_refs()
        assert [kind for kind, _digest in refs] == [KIND_SHARD]
