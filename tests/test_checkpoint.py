"""Checkpoint/resume: run manifests, journaled shards, strict resume.

The acceptance criterion this file pins down: a matrix run killed partway
and restarted against the same store tree re-executes *only* the unfinished
shard units — journaled units revive from the store with zero re-executes.
Also covered: the manifest's torn-line tolerance, the advisory-manifest /
store-is-truth rule, and the pass-through contract when no store tree (or
``REPRO_CHECKPOINT=off``) is in play.
"""

import gc
import os
import weakref

import pytest

from repro.core.variant_cache import VariantCache
from repro.diffing import Asm2Vec, BinDiff, DeepBinDiff
from repro.evaluation import executor
from repro.evaluation.bintuner_compare import measure_bintuner
from repro.evaluation.checkpoint import (RUNS_DIR, RunManifest,
                                         checkpoint_enabled, run_checkpointed,
                                         run_id, run_matrix)
from repro.evaluation.escape import measure_escape
from repro.evaluation.executor import reset_worker_cache
from repro.evaluation.overhead import measure_overhead
from repro.evaluation.precision import measure_precision
from repro.store import KIND_SHARD, ArtifactStore, store_digest
from repro.workloads.suites import embedded_programs, spec2006_programs
from tests import oracles
from repro.obs.metrics import counted

WORKLOADS = spec2006_programs()[:1]
LABELS = ("fission",)


class TestCheckpointEnabled:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
        assert checkpoint_enabled()

    @pytest.mark.parametrize("value, expected", [
        ("on", True), ("1", True), ("true", True), ("", True),
        ("off", False), ("0", False), ("false", False), ("OFF", False),
    ])
    def test_explicit_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_CHECKPOINT", value)
        assert checkpoint_enabled() is expected

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", "maybe")
        with pytest.raises(ValueError, match="REPRO_CHECKPOINT"):
            checkpoint_enabled()


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest(str(tmp_path), "abc123")
        assert manifest.done == set()
        manifest.mark_done("d1")
        manifest.mark_done("d2")
        reloaded = RunManifest(str(tmp_path), "abc123")
        assert reloaded.done == {"d1", "d2"}
        assert reloaded.path.endswith(os.path.join(RUNS_DIR, "abc123.jsonl"))

    def test_torn_trailing_line_under_reports_only(self, tmp_path):
        manifest = RunManifest(str(tmp_path), "torn")
        manifest.mark_done("ok1")
        manifest.mark_done("ok2")
        # simulate a writer killed mid-append: a truncated JSON line
        with open(manifest.path, "a", encoding="utf-8") as fh:
            fh.write('{"digest": "half')
        reloaded = RunManifest(str(tmp_path), "torn")
        assert reloaded.done == {"ok1", "ok2"}

    def test_distinct_identities_distinct_journals(self, tmp_path):
        RunManifest(str(tmp_path), "one").mark_done("d")
        assert RunManifest(str(tmp_path), "two").done == set()

    def test_run_id_is_stable_and_sensitive(self):
        parts = ("fig8", ("k1", "k2"))
        assert run_id(parts) == run_id(("fig8", ("k1", "k2")))
        assert run_id(parts) != run_id(("fig8", ("k1",)))
        assert len(run_id(parts)) == 16


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


def _keys(values):
    return [("ckpt-test", value) for value in values]


def _probe(value, cache=None):
    """Picklable unit function reporting where and how the engine ran it."""
    return value * value, os.getpid(), cache is None


def _poisoned(value, cache=None):
    raise AssertionError(f"unit {value} must not execute")


def _storeless(monkeypatch):
    for name in ("REPRO_STORE_DIR", "REPRO_STORE_URL",
                 "REPRO_VARIANT_CACHE_DIR", "REPRO_JOBS"):
        monkeypatch.delenv(name, raising=False)
    reset_worker_cache()


class TestRunCheckpointed:
    def test_no_store_is_plain_pass_through(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.delenv("REPRO_VARIANT_CACHE_DIR", raising=False)
        values = [1, 2, 3]
        with counted("checkpoint") as stats:
            out = run_checkpointed(_square, values, _keys(values),
                                   ("t", 1), jobs=1)
        assert out == [1, 4, 9]
        assert stats["planned"] == 0  # layer never engaged

    def test_checkpoint_off_is_pass_through(self, tmp_store, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", "off")
        values = [1, 2, 3]
        out = run_checkpointed(_square, values, _keys(values), ("t", 2),
                               jobs=1)
        assert out == [1, 4, 9]
        assert not os.path.isdir(os.path.join(tmp_store, RUNS_DIR))

    def test_mismatched_keys_raise(self, tmp_store):
        with pytest.raises(ValueError, match="2 tasks but 1 keys"):
            run_checkpointed(_square, [1, 2], [("k", 1)], ("t", 3))

    def test_interrupted_run_resumes_only_unfinished(self, tmp_store):
        """The acceptance criterion in miniature: kill mid-run, restart,
        and only the units the journal never saw execute again."""
        values = [1, 2, 3, 4, 5]
        keys = _keys(values)
        parts = ("t", 4)
        # first run dies on input 4: inputs 1..3 are already journaled
        # (the serial path journals each result the moment it lands, and
        # re-raises task exceptions raw)
        with pytest.raises(RuntimeError, match="poisoned input 4"):
            run_checkpointed(_FailAt(4), values, keys, parts, jobs=1)
        manifest = RunManifest(tmp_store, run_id(parts))
        assert len(manifest.done) == 3

        executed = []

        def counting(value):
            executed.append(value)
            return value * value

        with counted("checkpoint") as stats:
            out = run_checkpointed(counting, values, keys, parts, jobs=1)
        assert out == [1, 4, 9, 16, 25]
        assert executed == [4, 5]  # journaled units never re-execute
        assert stats["planned"] == 5 and stats["resumed"] == 3
        assert stats["executed"] == 2 and stats["journaled"] == 2

    def test_completed_run_restart_executes_nothing(self, tmp_store):
        values = [1, 2, 3]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, ("t", 5), jobs=1)
        with counted("checkpoint") as stats:
            # the poison proves nothing runs
            out = run_checkpointed(_FailAt(1), values, keys, ("t", 5), jobs=1)
        assert out == [1, 4, 9]
        assert stats["resumed"] == 3 and stats["executed"] == 0

    def test_journaled_but_lost_object_re_executes(self, tmp_store):
        """The manifest is advisory; the store is the truth."""
        values = [1, 2, 3]
        keys = _keys(values)
        parts = ("t", 6)
        run_checkpointed(_square, values, keys, parts, jobs=1)
        store = ArtifactStore.attach(tmp_store)
        victim = store.object_path(KIND_SHARD,
                                   store_digest(KIND_SHARD, keys[1]))
        os.unlink(victim)
        reset_worker_cache()
        with counted("checkpoint") as stats:
            out = run_checkpointed(_square, values, keys, parts, jobs=1)
        assert out == [1, 4, 9]
        assert stats["resumed"] == 2 and stats["executed"] == 1

    def test_normalize_applies_to_revived_results_only(self, tmp_store):
        values = [1, 2]
        keys = _keys(values)
        parts = ("t", 7)
        run_checkpointed(_square, values, keys, parts, jobs=1)
        out = run_checkpointed(_square, values, keys, parts, jobs=1,
                               normalize=lambda r: -r)
        assert out == [-1, -4]

    def test_run_parts_partition_journals(self, tmp_store):
        """Two different matrices over one tree keep separate journals:
        a fresh run identity resumes nothing, even when the store already
        holds every shard object from another run."""
        values = [2, 3]
        keys = _keys(values)
        run_checkpointed(_square, values, keys, ("matrix", "A"), jobs=1)
        with counted("checkpoint") as stats:
            run_checkpointed(_square, values, keys, ("matrix", "C"), jobs=1)
        assert stats["resumed"] == 0 and stats["executed"] == 2


class TestRunMatrix:
    """The one run path every figure driver takes."""

    def test_jobs1_units_share_one_call_cache_of_the_given_size(
            self, monkeypatch):
        _storeless(monkeypatch)
        caches = []

        def unit(value, cache=None):
            caches.append(cache)
            return value * value

        values = [1, 2, 3]
        out = run_matrix(unit, values, _keys(values), ("rm", 1), 1, None, 4)
        assert out == [1, 4, 9]
        assert len({id(cache) for cache in caches}) == 1
        assert caches[0].max_entries == 4
        assert executor._WORKER_CACHE is None

    def test_call_cache_is_released_when_the_run_returns(self, monkeypatch):
        _storeless(monkeypatch)
        refs = []

        def unit(value, cache=None):
            refs.append(weakref.ref(cache))
            return value

        run_matrix(unit, [1, 2], _keys([1, 2]), ("rm", 2), 1, None, 2)
        gc.collect()
        assert refs and all(ref() is None for ref in refs)

    def test_explicit_cache_keeps_the_run_in_process(self, monkeypatch):
        _storeless(monkeypatch)
        monkeypatch.setenv("REPRO_JOBS", "2")
        mine = VariantCache()
        seen = []

        def unit(value, cache=None):
            seen.append((cache is mine, os.getpid()))
            return value

        values = [1, 2, 3]
        assert run_matrix(unit, values, _keys(values), ("rm", 3), None, mine,
                          4) == values
        assert seen == [(True, os.getpid())] * len(values)

    def test_jobs2_runs_units_in_workers_and_returns_unit_order(
            self, monkeypatch):
        _storeless(monkeypatch)
        values = [1, 2, 3, 4]
        out = run_matrix(_probe, values, _keys(values), ("rm", 4), 2,
                         VariantCache(), 4)
        assert [square for square, _pid, _ in out] == [1, 4, 9, 16]
        assert os.getpid() not in {pid for _square, pid, _ in out}
        # workers build through their own worker cache, never the caller's
        assert all(storeless for *_rest, storeless in out)

    def test_jobs1_journals_whenever_a_store_is_attached(self, tmp_store):
        values = [1, 2, 3]
        keys = _keys(values)
        with counted("checkpoint") as first:
            out = run_matrix(_probe, values, keys, ("rm", 5), 1, None, 2)
        assert first["planned"] == first["executed"] == 3
        assert first["journaled"] == 3
        with counted("checkpoint") as second:
            again = run_matrix(_poisoned, values, keys, ("rm", 5), 1, None, 2)
        assert again == out
        assert second["resumed"] == 3 and second["executed"] == 0

    def test_jobs2_journals_and_counts_in_the_parent(self, tmp_store):
        values = [1, 2, 3, 4]
        with counted("checkpoint") as stats:
            run_matrix(_probe, values, _keys(values), ("rm", 6), 2, None, 2)
        assert stats["planned"] == stats["executed"] == 4
        assert stats["journaled"] == 4
        journal = RunManifest(tmp_store, run_id(("rm", 6)))
        assert len(journal.done) == 4


#: The journal each figure driver writes for one tiny matrix: its run
#: identity and its unit count.  The identity hashes the run's whole
#: unit-key list, so an unchanged name means unchanged units and keys — and
#: store trees and journals written by earlier versions keep resuming with
#: nothing re-executed.
PINNED_RUNS = {
    "fig67": ("d444d4555a09f068", 1),
    "fig8": ("76f40b3a865710fe", 3),
    "fig10": ("f6f71da0d7e23586", 2),
    "fig9": ("5af1b31d74124efd", 2),
}


class TestRunIdentities:
    @pytest.mark.parametrize("figure, call", [
        ("fig67", lambda: measure_overhead(WORKLOADS, labels=LABELS, jobs=1)),
        ("fig8", lambda: measure_precision(
            WORKLOADS, labels=LABELS, differs=[BinDiff(), DeepBinDiff()],
            jobs=1)),
        ("fig10", lambda: measure_escape(
            embedded_programs()[:1], labels=("sub",), differs=[Asm2Vec()],
            jobs=1)),
        ("fig9", lambda: measure_bintuner(WORKLOADS, tuner_iterations=1,
                                          jobs=1)),
    ], ids=["fig67", "fig8", "fig10", "fig9"])
    def test_journal_identity_is_unchanged(self, tmp_store, figure, call):
        call()
        identity, units = PINNED_RUNS[figure]
        assert os.listdir(os.path.join(tmp_store, RUNS_DIR)) == \
            [f"{identity}.jsonl"]
        assert len(RunManifest(tmp_store, identity).done) == units


class TestMatrixResume:
    """End-to-end resume through the real fig6/7 and fig8 drivers."""

    def _rows(self, report):
        return [(r.program, r.suite, r.tool, r.label, r.precision,
                 r.similarity_score) for r in report.rows]

    def test_fig8_completed_restart_revives_every_shard(self, tmp_store):
        from repro.diffing import all_differs
        differs = all_differs()[:1]
        reference = self._rows(oracles.precision(WORKLOADS, LABELS, differs))
        reset_worker_cache()
        with counted("checkpoint") as first:
            rows = self._rows(measure_precision(
                WORKLOADS, labels=LABELS, differs=differs, jobs=1))
        assert rows == reference
        assert first["executed"] == first["planned"] > 0

        reset_worker_cache()
        with counted("checkpoint") as second, counted("diffshard") as diff:
            resumed = self._rows(measure_precision(
                WORKLOADS, labels=LABELS, differs=differs, jobs=1))
        assert resumed == reference
        assert second["executed"] == 0
        assert second["resumed"] == second["planned"] == first["planned"]
        assert diff["units_scored"] == 0

    def test_fig67_completed_restart_revives_every_shard(self, tmp_store):
        reset_worker_cache()
        with counted("checkpoint") as first:
            baseline = measure_overhead(WORKLOADS, labels=LABELS, jobs=1)
        assert first["executed"] == first["planned"] > 0
        reset_worker_cache()
        with counted("checkpoint") as second:
            resumed = measure_overhead(WORKLOADS, labels=LABELS, jobs=1)
        assert self._overhead_rows(resumed) == self._overhead_rows(baseline)
        assert second["executed"] == 0
        assert second["resumed"] == first["planned"]

    def _overhead_rows(self, report):
        return [(r.program, r.suite, r.label, r.baseline_cycles, r.cycles)
                for r in report.rows]
