"""Per-workload diff units: contract, identity, builds and reuse by key.

The diff matrices of figures 8 and 10 (and figure 9's) run as one unit per
workload (:mod:`repro.evaluation.diff_sharding`,
:mod:`repro.evaluation.bintuner_compare`).  The reports must equal the
plain whole-binary ``diff()`` oracle bit for bit, in process or across
processes; every distinct variant is built once per run at any ``jobs``;
and a unit whose rows this code stored is revived by key.
The tools' ``partial_diff``/``merge_partials`` wrappers, which the paper
benchmark's tracer still wraps, keep a test here.
"""

import pytest

from repro.diffing import Asm2Vec, BinDiff, DeepBinDiff, all_differs
from repro.evaluation import (MissingVulnerableFunction, figure8, figure9,
                              measure_bintuner, measure_escape,
                              measure_precision, overhead)
from repro.evaluation.bintuner_compare import (bintuner_shard_key,
                                               shard_bintuner_matrix)
from repro.evaluation.diff_sharding import diff_unit_key, shard_diff_matrix
from repro.store import (KIND_SHARD, LocalBackend, artifact_store,
                         canonical_key, code_fingerprint)
from repro.store.keys import _freeze, config_cache_key
from repro.toolchain import build_baseline, build_obfuscated, obfuscator_for
from repro.workloads.suites import (WorkloadProgram, embedded_programs,
                                    spec2006_programs)
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


@pytest.fixture
def build_log(tmp_path, monkeypatch):
    """Every fresh variant build, from this process and its workers.

    Each build appends its program, configuration and options to one file,
    cached or not; pool workers are forked after the patch, so they log
    too.  Storeless, so nothing is read back from a tree.
    """
    for name in ("REPRO_STORE_DIR", "REPRO_JOBS"):
        monkeypatch.delenv(name, raising=False)
    path = tmp_path / "builds.log"

    def logged(build, config):
        def wrapper(program, *args):
            options = args[-1] if args else None
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(canonical_key((program.name, config(*args),
                                        _freeze(options))) + "\n")
            return build(program, *args)
        return wrapper

    monkeypatch.setattr(overhead, "build_baseline", logged(
        overhead.build_baseline, lambda *args: "baseline"))
    monkeypatch.setattr(overhead, "build_obfuscated", logged(
        overhead.build_obfuscated, lambda obfuscator, *_: repr(
            config_cache_key(obfuscator))))

    def builds():
        if not path.exists():
            return []
        lines = path.read_text(encoding="utf-8").splitlines()
        path.unlink()
        return lines

    return builds


def _precision_rows(report):
    return [(r.program, r.suite, r.tool, r.label, r.precision,
             r.similarity_score) for r in report.rows]


def _escape_rows(report):
    return [(r.program, r.function, r.tool, r.label, r.rank_of_correct)
            for r in report.rows]


class TestPartialContract:
    @pytest.mark.parametrize("differ", all_differs(), ids=lambda d: d.name)
    def test_partial_wrappers_equal_diff(self, differ, demo_pair):
        """``partial_diff``/``merge_partials`` stay for the paper
        benchmark's tracer and hand back the pair's whole ``diff()``."""
        original, obfuscated = demo_pair
        reference = differ.diff(original, obfuscated)
        merged = differ.merge_partials(
            [differ.partial_diff(original, obfuscated)])
        assert merged.matches == reference.matches
        assert merged.similarity_score == reference.similarity_score
        assert (merged.tool, merged.original, merged.obfuscated) == \
            (reference.tool, reference.original, reference.obfuscated)

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

    def test_one_unit_per_workload_with_every_label_and_tool(self):
        differs = [BinDiff(), DeepBinDiff()]
        units = shard_diff_matrix(WORKLOADS, LABELS, differs)
        assert [unit[0].name for unit in units] == \
            [workload.name for workload in WORKLOADS]
        assert all(unit[1] == LABELS and unit[2] == tuple(differs)
                   for unit in units)

    def test_unit_keys_are_value_based(self):
        def keys(workloads, labels=("fission",), differs=(BinDiff(),)):
            return [diff_unit_key(unit) for unit in shard_diff_matrix(
                workloads, labels, differs)]

        planned = keys(WORKLOADS)
        assert len(set(planned)) == len(planned)
        assert all(key[0] == "diffunit" for key in planned)
        # fresh workload and tool objects plan the same keys: value, not
        # identity
        assert keys(spec2006_programs()[:2], differs=(BinDiff(),)) == planned
        # and every ingredient of the rows is in the key
        assert keys(WORKLOADS, labels=("fufi.ori",)) != planned
        assert keys(WORKLOADS, differs=(Asm2Vec(),)) != planned


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

    def test_figure8_jobs2_is_bit_identical(self):
        """figure8(jobs=2) fans the workload units across workers and still
        equals the in-process run."""
        kwargs = dict(limit_spec=1, limit_coreutils=1, labels=LABELS)
        serial = figure8(**kwargs)
        parallel = figure8(jobs=2, **kwargs)
        assert _precision_rows(parallel) == _precision_rows(serial)
        assert parallel.matrix() == serial.matrix()

    def test_unit_counters_add_up_in_the_parent_at_jobs2(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        with counted("diffunit") as stats:
            measure_precision(WORKLOADS, labels=("fission",),
                              differs=[BinDiff(), DeepBinDiff()], jobs=2)
        assert stats["units"] == len(WORKLOADS)
        assert stats["cells_scored"] == len(WORKLOADS) * 2


class TestBuildsOncePerVariant:
    """Counted across the parent and every worker: one figure run builds
    each distinct variant exactly once, at any ``jobs``."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quick_figure8(self, build_log, jobs):
        figure8(limit_spec=2, limit_coreutils=2, jobs=jobs)
        builds = build_log()
        assert len(builds) == len(set(builds)) == 4 * (1 + 8)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quick_figure9(self, build_log, jobs):
        figure9(limit=2, jobs=jobs)
        builds = build_log()
        # four opt-level references (O2 + LTO doubling as the baseline)
        # and FuFi.all
        assert len(builds) == len(set(builds)) == 2 * 5


class TestSharedStoreReuse:
    def test_warm_store_revives_every_unit_and_builds_nothing(
            self, tmp_store):
        reference = oracles.precision(WORKLOADS[:1], LABELS)
        with counted("diffunit") as cold_stats:
            cold = measure_precision(WORKLOADS[:1], labels=LABELS, jobs=1)
        assert _precision_rows(cold) == _precision_rows(reference)
        assert cold_stats["cells_scored"] == len(LABELS) * 5

        with counted("diffunit") as warm_stats, \
                counted("checkpoint") as run, counted("store") as store:
            warm = measure_precision(WORKLOADS[:1], labels=LABELS, jobs=1)
        assert _precision_rows(warm) == _precision_rows(reference)
        assert warm_stats["units"] == 1 and warm_stats["cells_scored"] == 0
        assert run["resumed"] == run["planned"] == 1
        assert store["misses"] == 0 and store["puts"] == 0

    def test_jobs2_over_warm_store_equals_the_reference(self, tmp_store):
        """Units a serial run stored revive in a jobs=2 run: no cell is
        scored again and the tree gains nothing, variants least of all."""
        reference = oracles.precision(WORKLOADS, LABELS)
        measure_precision(WORKLOADS, labels=LABELS, jobs=1)
        tree = LocalBackend(tmp_store, code_fingerprint())
        objects = tree.list_refs()
        assert {kind for kind, _digest in objects} == {KIND_SHARD}
        with counted("diffunit") as warm_stats, counted("checkpoint") as run:
            parallel = measure_precision(WORKLOADS, labels=LABELS, jobs=2)
        assert _precision_rows(parallel) == _precision_rows(reference)
        assert warm_stats["cells_scored"] == 0
        assert run["resumed"] == run["planned"] == len(WORKLOADS)
        assert tree.list_refs() == objects

    def test_units_of_other_code_are_scored_again(self, tmp_store,
                                                  monkeypatch):
        """Rows stored by other code never revive: under a new generation
        a rerun scores every cell again, and equals the first run."""
        first = measure_precision(WORKLOADS[:1], labels=("fission",), jobs=1)
        monkeypatch.setattr(artifact_store, "code_fingerprint",
                            lambda: "d" * 16)
        with counted("diffunit") as stats, counted("checkpoint") as run:
            again = measure_precision(WORKLOADS[:1], labels=("fission",),
                                      jobs=1)
        assert _precision_rows(again) == _precision_rows(first)
        assert run["resumed"] == 0 and run["executed"] == run["planned"] == 1
        assert stats["cells_scored"] == 5

    def test_overlapping_matrix_executes_only_its_new_unit(self, tmp_store):
        workloads = spec2006_programs()[:3]
        kwargs = dict(labels=("fission",), differs=[BinDiff()], jobs=1)
        first = measure_precision(workloads[:2], **kwargs)
        with counted("checkpoint") as run, counted("diffunit") as stats:
            wider = measure_precision(workloads, **kwargs)
        assert run["executed"] == 1 and run["resumed"] == 2
        assert stats["cells_scored"] == 1
        assert wider.rows[:len(first.rows)] == first.rows
        assert _precision_rows(wider) == _precision_rows(
            oracles.precision(workloads, ("fission",), [BinDiff()]))


class _PhantomVulnerable(WorkloadProgram):
    """A workload naming a vulnerable function its program does not have."""

    @property
    def vulnerable_functions(self):
        return super().vulnerable_functions + ["no_such_function"]


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

    def test_missing_vulnerable_function_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        real = embedded_programs()[0]
        phantom = _PhantomVulnerable(real.name, real.suite, real.profile)
        with pytest.raises(MissingVulnerableFunction) as raised:
            measure_escape([phantom], labels=("sub",), differs=[Asm2Vec()],
                           jobs=1)
        assert repr(real.name) in str(raised.value)
        assert "'no_such_function'" in str(raised.value)


class TestBinTunerSharded:
    def test_one_unit_per_workload(self):
        shards = shard_bintuner_matrix(WORKLOADS, 3)
        assert [(workload.name, iterations)
                for workload, iterations in shards] == \
            [(workload.name, 3) for workload in WORKLOADS]
        keys = [bintuner_shard_key(shard) for shard in shards]
        assert len(set(keys)) == len(keys)
        assert all(key[0] == "fig9unit" and key[-1] == 3 for key in keys)

    def test_sharded_bintuner_equals_the_reference(self):
        reference = oracles.bintuner(WORKLOADS[:1], tuner_iterations=1)
        serial = measure_bintuner(WORKLOADS[:1], tuner_iterations=1, jobs=1)
        parallel = measure_bintuner(WORKLOADS[:1], tuner_iterations=1, jobs=2)
        assert serial.rows == reference.rows == parallel.rows
        assert (serial.bintuner_overhead_percent
                == reference.bintuner_overhead_percent
                == parallel.bintuner_overhead_percent)
