"""GC safety: the sweep never collects journal-reachable state.

The contracts this file pins down:

* on a freshly journaled tree, ``collect`` sweeps **nothing** — every
  object a warm rerun would read is derived live from the run journals;
* unreferenced objects are swept exactly, and a warm rerun after the
  sweep still re-scores zero units (the ISSUE's acceptance);
* ``--dry-run`` reports the same sweep without deleting anything;
* the grace window and ``--keep-generations`` each independently protect
  otherwise-collectable objects;
* an unreadable or unrecognised journaled shard degrades the sweep to
  conservative mode (only unreferenced ``shard`` objects go);
* the CLI refuses non-store trees with exit status 2.
"""

import json
import os
import sys

import pytest

from repro.evaluation.checkpoint import RUNS_DIR
from repro.evaluation.executor import reset_worker_cache
from repro.evaluation.precision import measure_precision
from repro.store import ArtifactStore, store_digest
from repro.store.artifact_store import KIND_SHARD, KIND_VARIANT
from repro.store.backend import LocalBackend
from repro.workloads.suites import spec2006_programs
from repro.obs.metrics import counted

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

import gc_store  # noqa: E402

WORKLOADS = spec2006_programs()[:1]
LABELS = ("fission",)


@pytest.fixture
def populated(tmp_store):
    """A store tree after one cold journaled figure-8 run."""
    with counted("checkpoint") as stats:
        report = measure_precision(WORKLOADS, labels=LABELS, jobs=1)
    assert stats["executed"] == stats["planned"] > 0
    reset_worker_cache()
    return tmp_store, report


def plant_garbage(root, count=4):
    """Objects no journal references — GC's only legitimate prey."""
    store = ArtifactStore(root)
    refs = []
    for i in range(count):
        key = ("garbage", i)
        store.put(KIND_VARIANT, key, {"junk": i})
        refs.append((KIND_VARIANT, store_digest(KIND_VARIANT, key)))
    return refs


def object_exists(root, kind, digest):
    return os.path.exists(LocalBackend(root).object_path(kind, digest))


class TestSweepSafety:
    def test_clean_tree_sweeps_nothing(self, populated):
        root, _ = populated
        report = gc_store.collect(root, grace=0)
        assert report["counts"]["swept"] == 0
        assert not report["conservative"]
        assert report["counts"]["live"] > 0

    def test_sweeps_exactly_the_unreferenced(self, populated):
        root, cold_report = populated
        garbage = plant_garbage(root)
        report = gc_store.collect(root, grace=0)
        assert report["counts"]["swept"] == len(garbage)
        assert report["swept_by_kind"] == {KIND_VARIANT: len(garbage)}
        assert report["bytes_reclaimed"] > 0
        assert report["counts"]["ledger_dropped"] == len(garbage)
        for kind, digest in garbage:
            assert not object_exists(root, kind, digest)

        # the acceptance: a warm rerun over the swept tree rebuilds nothing
        with counted("checkpoint") as warm_stats:
            warm = measure_precision(WORKLOADS, labels=LABELS, jobs=1)
        assert warm.rows == cold_report.rows
        assert warm_stats["executed"] == 0
        assert warm_stats["resumed"] == warm_stats["planned"]

    def test_idempotent(self, populated):
        root, _ = populated
        plant_garbage(root)
        assert gc_store.collect(root, grace=0)["counts"]["swept"] > 0
        again = gc_store.collect(root, grace=0)
        assert again["counts"]["swept"] == 0

    def test_dry_run_deletes_nothing(self, populated):
        root, _ = populated
        garbage = plant_garbage(root)
        report = gc_store.collect(root, dry_run=True, grace=0)
        assert report["dry_run"] is True
        assert report["counts"]["swept"] == len(garbage)
        assert report["counts"]["ledger_dropped"] == 0
        for kind, digest in garbage:
            assert object_exists(root, kind, digest)
        # and the real sweep afterwards agrees with the rehearsal
        real = gc_store.collect(root, grace=0)
        assert real["counts"]["swept"] == len(garbage)


class TestProtectionWindows:
    def test_grace_protects_fresh_writes(self, populated):
        root, _ = populated
        garbage = plant_garbage(root)
        report = gc_store.collect(root, grace=gc_store.DEFAULT_GRACE)
        assert report["counts"]["swept"] == 0
        assert report["counts"]["kept_grace"] >= len(garbage)
        for kind, digest in garbage:
            assert object_exists(root, kind, digest)

    def test_keep_generations_protects_ledgered_writes(self, populated):
        root, _ = populated
        garbage = plant_garbage(root)
        report = gc_store.collect(root, grace=0, keep_generations=1)
        assert report["counts"]["swept"] == 0
        assert report["counts"]["kept_generation"] >= len(garbage)
        for kind, digest in garbage:
            assert object_exists(root, kind, digest)


class TestConservativeMode:
    def _journaled_shard_digests(self, root):
        digests = set()
        runs_dir = os.path.join(root, RUNS_DIR)
        for name in os.listdir(runs_dir):
            with open(os.path.join(runs_dir, name), encoding="utf-8") as fh:
                for line in fh:
                    digests.add(json.loads(line)["digest"])
        return digests

    def test_corrupt_journaled_shard_degrades_to_conservative(
            self, populated):
        root, _ = populated
        digest = sorted(self._journaled_shard_digests(root))[0]
        path = LocalBackend(root).object_path(KIND_SHARD, digest)
        with open(path, "wb") as fh:
            fh.write(b"\x80garbage that does not unpickle")
        garbage = plant_garbage(root)

        report = gc_store.collect(root, grace=0)
        assert report["conservative"] is True
        assert report["conservative_causes"]
        # non-shard garbage survives a conservative sweep...
        assert report["counts"]["kept_conservative"] >= len(garbage)
        for kind, digest in garbage:
            assert object_exists(root, kind, digest)

    def test_unknown_shard_key_degrades_to_conservative(self, populated):
        root, _ = populated
        # a journaled shard written by a newer pipeline: unknown key shape
        store = ArtifactStore(root)
        key = ("mystery-shard", 1)
        store.put(KIND_SHARD, key, {"payload": "?"})
        digest = store_digest(KIND_SHARD, key)
        journal = os.path.join(root, RUNS_DIR, "mystery.jsonl")
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"digest": digest}) + "\n")

        report = gc_store.collect(root, grace=0)
        assert report["conservative"] is True
        assert any("unknown shard key" in cause
                   for cause in report["conservative_causes"])
        # the journaled mystery shard itself is a root: never swept
        assert object_exists(root, KIND_SHARD, digest)

    def test_unreferenced_shards_still_swept_conservatively(self, populated):
        root, _ = populated
        store = ArtifactStore(root)
        store.put(KIND_SHARD, ("orphan-shard", 9), {"payload": "?"})
        orphan = store_digest(KIND_SHARD, ("orphan-shard", 9))
        digest = sorted(self._journaled_shard_digests(root))[0]
        path = LocalBackend(root).object_path(KIND_SHARD, digest)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")

        report = gc_store.collect(root, grace=0)
        assert report["conservative"] is True
        assert report["swept_by_kind"].get(KIND_SHARD, 0) >= 1
        assert not object_exists(root, KIND_SHARD, orphan)


class TestCli:
    def test_json_report(self, populated, capsys):
        root, _ = populated
        plant_garbage(root, count=2)
        assert gc_store.main([root, "--dry-run", "--grace", "0",
                              "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["swept"] == 2

    def test_human_report(self, populated, capsys):
        root, _ = populated
        assert gc_store.main([root, "--grace", "0"]) == 0
        out = capsys.readouterr().out
        assert "swept: 0 objects" in out

    def test_refuses_non_store_tree(self, tmp_path, capsys):
        empty = tmp_path / "not-a-store"
        empty.mkdir()
        assert gc_store.main([str(empty)]) == 2
        assert "no generation log" in capsys.readouterr().err
        assert gc_store.main([str(tmp_path / "missing")]) == 2
