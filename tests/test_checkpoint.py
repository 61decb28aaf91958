"""Checkpoint/resume: persisted unit results and strict resume.

The acceptance criterion this file pins down: a matrix run killed partway
and restarted against the same store tree re-executes *only* the unfinished
units — finished units revive from the store by key with zero re-executes,
whichever run of the same code wrote them.  Also covered: the
store-is-truth rule, units of other code never reviving, failed units
named by their matrix position, a store-backed figure run storing its
units and nothing else, and the pass-through contract when no store tree
is in play.
"""

import os

import pytest

from repro.core.variant_cache import VariantCache
from repro.diffing import Asm2Vec, BinDiff, DeepBinDiff
from repro.evaluation.bintuner_compare import measure_bintuner
from repro.evaluation.checkpoint import run_checkpointed, run_matrix
from repro.evaluation.escape import measure_escape
from repro.evaluation.executor import ExecutorTaskError
from repro.evaluation.overhead import clear_variant_facts, measure_overhead
from repro.evaluation.precision import measure_precision
from repro.obs import measure
from repro.store import (KIND_SHARD, OBJECTS_DIR, ArtifactStore, LocalBackend,
                         artifact_store, code_fingerprint, store_digest)
from repro.workloads.suites import embedded_programs, spec2006_programs
from tests import oracles
from repro.obs.metrics import counted

WORKLOADS = spec2006_programs()[:1]
LABELS = ("fission",)


def _square(value):
    return value * value


class _FailAt:
    """Picklable task_fn that raises on one designated input value."""

    def __init__(self, poison):
        self.poison = poison

    def __call__(self, value):
        if value == self.poison:
            raise RuntimeError(f"poisoned input {value}")
        return value * value


class _ExitAt(_FailAt):
    """Picklable task_fn whose poisoned input kills its worker."""

    def __call__(self, value):
        if value == self.poison:
            os._exit(3)
        return value * value


def _keys(values):
    return [("ckpt-test", value) for value in values]


def _stored(root, keys):
    """How many of ``keys`` have a unit object in the tree at ``root``."""
    store = ArtifactStore.attach(root)
    return sum(store.contains(KIND_SHARD, key) for key in keys)


def _probe(value, cache=None):
    """Picklable unit function reporting where and how the engine ran it."""
    return value * value, os.getpid(), cache is None


def _poisoned(value, cache=None):
    raise AssertionError(f"unit {value} must not execute")


def _storeless(monkeypatch):
    for name in ("REPRO_STORE_DIR", "REPRO_JOBS"):
        monkeypatch.delenv(name, raising=False)


class TestRunCheckpointed:
    def test_no_store_is_plain_pass_through(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        values = [1, 2, 3]
        with counted("checkpoint") as stats:
            out = run_checkpointed(_square, values, _keys(values), jobs=1)
        assert out == [1, 4, 9]
        assert stats["planned"] == 0  # layer never engaged

    def test_mismatched_keys_raise(self, tmp_store):
        with pytest.raises(ValueError, match="2 tasks but 1 keys"):
            run_checkpointed(_square, [1, 2], [("k", 1)])

    def test_interrupted_run_resumes_only_unfinished(self, tmp_store):
        """The acceptance criterion in miniature: kill mid-run, restart,
        and only the units the store does not hold execute again."""
        values = [1, 2, 3, 4, 5]
        keys = _keys(values)
        # first run dies on input 4: inputs 1..3 are already stored (the
        # serial path stores each result the moment it lands, and
        # re-raises task exceptions raw)
        with pytest.raises(RuntimeError, match="poisoned input 4"):
            run_checkpointed(_FailAt(4), values, keys, jobs=1)
        assert _stored(tmp_store, keys) == 3

        executed = []

        def counting(value):
            executed.append(value)
            return value * value

        with counted("checkpoint") as stats:
            out = run_checkpointed(counting, values, keys, jobs=1)
        assert out == [1, 4, 9, 16, 25]
        assert executed == [4, 5]  # stored units never re-execute
        assert stats["planned"] == 5 and stats["resumed"] == 3
        assert stats["executed"] == 2 and stats["stored"] == 2

    def test_completed_run_restart_executes_nothing(self, tmp_store):
        values = [1, 2, 3]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, jobs=1)
        with counted("checkpoint") as stats:
            # the poison proves nothing runs
            out = run_checkpointed(_FailAt(1), values, keys, jobs=1)
        assert out == [1, 4, 9]
        assert stats["resumed"] == 3 and stats["executed"] == 0

    def test_lost_object_re_executes(self, tmp_store):
        """The store is the truth."""
        values = [1, 2, 3]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, jobs=1)
        store = ArtifactStore.attach(tmp_store)
        victim = store.object_path(KIND_SHARD,
                                   store_digest(KIND_SHARD, keys[1]))
        os.unlink(victim)
        with counted("checkpoint") as stats:
            out = run_checkpointed(_square, values, keys, jobs=1)
        assert out == [1, 4, 9]
        assert stats["resumed"] == 2 and stats["executed"] == 1

    def test_normalize_applies_to_revived_results_only(self, tmp_store):
        values = [1, 2]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, jobs=1)
        out = run_checkpointed(_square, values, keys, jobs=1,
                               normalize=lambda r: -r)
        assert out == [-1, -4]

    def test_another_matrix_revives_by_key(self, tmp_store):
        """A unit's result is found by its key, whichever matrix stored
        it: a run over a subset revives every unit the first run stored."""
        values = [2, 3, 4]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, jobs=1)
        with counted("checkpoint") as stats:
            out = run_checkpointed(_FailAt(2), values[:2], keys[:2], jobs=1)
        assert out == [4, 9]
        assert stats["resumed"] == 2 and stats["executed"] == 0

    def test_units_of_other_code_re_execute(self, tmp_store, monkeypatch):
        """Rows stored by other code are never revived: a run under a new
        generation executes every unit and leaves the old rows alone."""
        values = [1, 2, 3]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, jobs=1)
        executed = []

        def counting(value):
            executed.append(value)
            return value * value

        with monkeypatch.context() as patch, \
                counted("checkpoint") as stats:
            patch.setattr(artifact_store, "code_fingerprint",
                          lambda: "e" * 16)
            out = run_checkpointed(counting, values, keys, jobs=1)
        assert out == [1, 4, 9]
        assert executed == values
        assert stats["resumed"] == 0 and stats["stored"] == 3
        assert _stored(tmp_store, keys) == 3  # this code's rows, untouched
        assert len(os.listdir(os.path.join(tmp_store, OBJECTS_DIR))) == 2


class TestFailedUnitIndex:
    """At jobs=2 a failed unit is named by its position in the matrix,
    also when the store revived the units before it."""

    @pytest.mark.parametrize("stored", [0, 2])
    def test_the_error_names_the_matrix_position(self, stored, tmp_store):
        values = [1, 2, 3, 4, 5]
        keys = _keys(values)
        run_checkpointed(_square, values[:stored], keys[:stored], jobs=1)
        with pytest.raises(ExecutorTaskError) as excinfo:
            run_checkpointed(_FailAt(4), values, keys, jobs=2)
        error = excinfo.value
        assert error.index == 3
        assert str(error).startswith("task 3 failed: RuntimeError: "
                                     "poisoned input 4")
        assert isinstance(error.__cause__, RuntimeError)

    def test_a_dead_worker_names_the_matrix_positions_in_flight(
            self, tmp_store):
        values = [1, 2, 3, 4, 5]
        keys = _keys(values)
        run_checkpointed(_square, values[:2], keys[:2], jobs=1)
        with pytest.raises(ExecutorTaskError) as excinfo:
            run_checkpointed(_ExitAt(4), values, keys, jobs=2)
        message = str(excinfo.value)
        assert "process pool broke" in message and "3 [task: 4]" in message
        named = [position for position, _task in excinfo.value.in_flight]
        assert 3 in named and set(named) <= {2, 3, 4}
        assert excinfo.value.index == min(named)

    def test_renumbered_maps_every_task_in_flight(self):
        error = ExecutorTaskError(0, "a", "the pool broke",
                                  [(0, "a"), (1, "b")])
        mapped = error.renumbered([2, 5])
        assert (mapped.index, mapped.task, mapped.cause) == (2, "a",
                                                             "the pool broke")
        assert mapped.in_flight == ((2, "a"), (5, "b"))
        assert str(mapped) == ("task 2 failed: the pool broke, 2 [task: 'a'], "
                               "5 [task: 'b'] [task: 'a']")


class TestRunMatrix:
    """The one run path every figure driver takes."""

    def test_explicit_cache_keeps_the_run_in_process(self, monkeypatch):
        _storeless(monkeypatch)
        monkeypatch.setenv("REPRO_JOBS", "2")
        mine = VariantCache()
        seen = []

        def unit(value, cache=None):
            seen.append((cache is mine, os.getpid()))
            return value

        values = [1, 2, 3]
        assert run_matrix(unit, values, _keys(values), None, mine) == values
        assert seen == [(True, os.getpid())] * len(values)

    def test_without_a_cache_a_unit_gets_only_its_unit(self, monkeypatch):
        _storeless(monkeypatch)
        calls = []

        def unit(*args, **kwargs):
            calls.append((args, kwargs))
            return args[0]

        values = [1, 2]
        assert run_matrix(unit, values, _keys(values), 1) == values
        assert calls == [((1,), {}), ((2,), {})]

    def test_without_a_cache_repro_jobs_engages_the_pool(self, monkeypatch):
        _storeless(monkeypatch)
        monkeypatch.setenv("REPRO_JOBS", "2")
        values = [1, 2, 3]
        out = run_matrix(_probe, values, _keys(values), None)
        assert [square for square, _pid, _ in out] == [1, 4, 9]
        assert os.getpid() not in {pid for _square, pid, _ in out}

    def test_jobs2_runs_units_in_workers_and_returns_unit_order(
            self, monkeypatch):
        _storeless(monkeypatch)
        values = [1, 2, 3, 4]
        out = run_matrix(_probe, values, _keys(values), 2, VariantCache())
        assert [square for square, _pid, _ in out] == [1, 4, 9, 16]
        assert os.getpid() not in {pid for _square, pid, _ in out}
        # workers build without a cache, never through the caller's
        assert all(uncached for *_rest, uncached in out)

    def test_jobs1_stores_whenever_a_store_is_attached(self, tmp_store):
        values = [1, 2, 3]
        keys = _keys(values)
        with counted("checkpoint") as first:
            out = run_matrix(_probe, values, keys, 1)
        assert first["planned"] == first["executed"] == 3
        assert first["stored"] == 3
        with counted("checkpoint") as second:
            again = run_matrix(_poisoned, values, keys, 1)
        assert again == out
        assert second["resumed"] == 3 and second["executed"] == 0

    def test_jobs2_stores_and_counts_in_the_parent(self, tmp_store):
        values = [1, 2, 3, 4]
        with counted("checkpoint") as stats:
            run_matrix(_probe, values, _keys(values), 2)
        assert stats["planned"] == stats["executed"] == 4
        assert stats["stored"] == 4
        assert _stored(tmp_store, _keys(values)) == 4


#: figure -> its driver at a given ``jobs``, over two workloads: two units.
STORE_BACKED_RUNS = {
    "fig67": lambda jobs: measure_overhead(
        spec2006_programs()[:2], labels=LABELS, jobs=jobs),
    "fig8": lambda jobs: measure_precision(
        spec2006_programs()[:2], labels=LABELS,
        differs=[BinDiff(), DeepBinDiff()], jobs=jobs),
    "fig9": lambda jobs: measure_bintuner(
        spec2006_programs()[:2], tuner_iterations=1, jobs=jobs),
    "fig10": lambda jobs: measure_escape(
        embedded_programs()[:2], labels=("sub",), differs=[Asm2Vec()],
        jobs=jobs),
}


class TestStoredUnits:
    """A store-backed figure run stores one ``shard`` object per unit (one
    unit per workload) in the current generation, and nothing else: its
    variants live only in the units that built them."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("figure", sorted(STORE_BACKED_RUNS))
    def test_a_run_stores_its_units_and_no_variant(self, figure, jobs,
                                                   tmp_store, monkeypatch):
        run = STORE_BACKED_RUNS[figure]
        monkeypatch.delenv("REPRO_STORE_DIR")
        reference = run(1)
        clear_variant_facts()  # fig 6/7 would answer from the memo
        monkeypatch.setenv("REPRO_STORE_DIR", tmp_store)
        cold = run(jobs)
        refs = LocalBackend(tmp_store, code_fingerprint()).list_refs()
        assert [kind for kind, _digest in refs] == [KIND_SHARD] * 2
        assert os.listdir(tmp_store) == [OBJECTS_DIR]
        assert os.listdir(os.path.join(tmp_store, OBJECTS_DIR)) == \
            [code_fingerprint()]
        assert os.listdir(os.path.join(tmp_store, OBJECTS_DIR,
                                       code_fingerprint())) == [KIND_SHARD]
        clear_variant_facts()
        with measure() as rerun:
            warm = run(jobs)
        assert rerun.counters.get("checkpoint.executed", 0) == 0
        assert rerun.counters["checkpoint.resumed"] == 2
        assert "workloads.build" not in rerun.calls
        assert "build.variants" not in rerun.counters
        assert cold == reference and warm == reference


class TestMatrixResume:
    """End-to-end resume through the real fig6/7 and fig8 drivers."""

    def _rows(self, report):
        return [(r.program, r.suite, r.tool, r.label, r.precision,
                 r.similarity_score) for r in report.rows]

    def test_fig8_completed_restart_revives_every_shard(self, tmp_store):
        from repro.diffing import all_differs
        differs = all_differs()[:1]
        reference = self._rows(oracles.precision(WORKLOADS, LABELS, differs))
        with counted("checkpoint") as first:
            rows = self._rows(measure_precision(
                WORKLOADS, labels=LABELS, differs=differs, jobs=1))
        assert rows == reference
        assert first["executed"] == first["planned"] > 0

        with counted("checkpoint") as second, counted("diffunit") as diff:
            resumed = self._rows(measure_precision(
                WORKLOADS, labels=LABELS, differs=differs, jobs=1))
        assert resumed == reference
        assert second["executed"] == 0
        assert second["resumed"] == second["planned"] == first["planned"]
        assert diff["units"] == len(WORKLOADS)
        assert diff["cells_scored"] == 0

    def test_fig67_completed_restart_revives_every_shard(self, tmp_store):
        with counted("checkpoint") as first:
            baseline = measure_overhead(WORKLOADS, labels=LABELS, jobs=1)
        assert first["executed"] == first["planned"] > 0
        with counted("checkpoint") as second:
            resumed = measure_overhead(WORKLOADS, labels=LABELS, jobs=1)
        assert self._overhead_rows(resumed) == self._overhead_rows(baseline)
        assert second["executed"] == 0
        assert second["resumed"] == first["planned"]

    def _overhead_rows(self, report):
        return [(r.program, r.suite, r.label, r.baseline_cycles, r.cycles)
                for r in report.rows]
