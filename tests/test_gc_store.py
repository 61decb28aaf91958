"""GC by generation: whole generations of other code are swept, never the
current one.

The contracts this file pins down:

* a tree written by other code (generation A) attaches under new code
  (generation B) and rebuilds every variant and unit, leaving A's files
  untouched; GC then sweeps exactly A, a warm rerun under B rebuilds
  nothing, and fsck passes;
* a tree in the layout from before objects carried their generation
  (``objects/<kind>/``, ``runs/`` journals, a ``generation.json`` stamp)
  attaches and rebuilds, and GC sweeps its ``objects/<kind>/``
  directories like any stale generation;
* ``--grace`` keeps a young stale generation, ``--keep-generations N``
  keeps the newest N, ``--dry-run`` deletes nothing and a second sweep
  sweeps nothing;
* the CLI reports as JSON or text and refuses non-store trees with exit
  status 2.
"""

import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.core.variant_cache import variant_key
from repro.diffing import BinDiff
from repro.evaluation.diff_sharding import diff_unit_key
from repro.evaluation.precision import measure_precision
from repro.obs.metrics import counted
from repro.store import (KIND_SHARD, OBJECTS_DIR, QUARANTINE_DIR, ArtifactStore,
                         artifact_store, code_fingerprint, store_digest)
from repro.workloads.suites import spec2006_programs
from tests import oracles

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

import fsck_store  # noqa: E402
import gc_store  # noqa: E402

WORKLOADS = spec2006_programs()[:1]
LABELS = ("fission",)
OLD, NEW = "a" * 16, "b" * 16


def run_as(monkeypatch, generation):
    """Make this process, GC and fsck the code whose fingerprint is
    ``generation``."""
    for module in (artifact_store, gc_store, fsck_store):
        monkeypatch.setattr(module, "code_fingerprint", lambda: generation)


def fig8():
    """One small figure-8 run; returns its rows and counters."""
    with counted("build") as builds, counted("checkpoint") as units:
        report = measure_precision(WORKLOADS, labels=LABELS,
                                   differs=[BinDiff()], jobs=1)
    return report.rows, builds, units


def files_of(folder):
    """Every file under ``folder`` with its bytes and mtime."""
    found = {}
    for parent, _subfolders, names in os.walk(folder):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, folder)] = (
                    fh.read(), os.stat(path).st_mtime_ns)
    return found


class TestOtherCodesTree:
    """Generation A is written, then the same tree is used as B."""

    @pytest.fixture
    def switched(self, tmp_store, monkeypatch):
        run_as(monkeypatch, OLD)
        cold = fig8()
        old_files = files_of(os.path.join(tmp_store, OBJECTS_DIR, OLD))
        run_as(monkeypatch, NEW)
        return tmp_store, cold, old_files, fig8()

    def test_every_variant_and_unit_rebuilds(self, switched):
        root, (rows, builds, units), old_files, rebuilt = switched
        new_rows, new_builds, new_units = rebuilt
        assert new_rows == rows
        assert new_builds["variants"] == builds["variants"] == 1 + len(LABELS)
        assert new_units["resumed"] == 0
        assert new_units["executed"] == new_units["planned"] == len(WORKLOADS)
        # A's objects are untouched: same files, same bytes, same mtimes
        assert files_of(os.path.join(root, OBJECTS_DIR, OLD)) == old_files
        assert len(old_files) == len(WORKLOADS)  # one unit each, no variant

    def test_gc_sweeps_exactly_the_old_generation(self, switched):
        root, _cold, old_files, _rebuilt = switched
        report = gc_store.collect(root, grace=0)
        assert report["generation"] == NEW
        assert report["kept"] == {NEW: "current"}
        assert report["swept"] == [OLD]
        assert report["counts"]["files_swept"] == len(old_files)
        assert os.listdir(os.path.join(root, OBJECTS_DIR)) == [NEW]

    def test_a_warm_rerun_after_gc_rebuilds_nothing(self, switched):
        root, _cold, _old, (rows, _builds, _units) = switched
        gc_store.collect(root, grace=0)
        warm_rows, builds, units = fig8()
        assert warm_rows == rows
        assert builds["variants"] == 0
        assert units["resumed"] == units["planned"] == len(WORKLOADS)
        assert units["executed"] == 0

    def test_fsck_passes_before_and_after_gc(self, switched, capsys):
        root = switched[0]
        report = fsck_store.fsck(root)
        assert report["clean"] and report["other_generations"] == [OLD]
        assert report["counts"]["objects_ok"] == len(WORKLOADS)
        gc_store.collect(root, grace=0)
        assert fsck_store.main([root]) == 0
        assert "other generations" not in capsys.readouterr().out


def plant_pre_generation_tree(root):
    """A tree as written before objects carried their generation: the
    objects of this very matrix in ``objects/<kind>/<aa>/`` (that code also
    stored built variants, under ``variant``), with stale payloads in
    envelopes stamped schema 2/2, a run journal and the
    ``generation.json`` stamp.  Returns the kind directories planted."""
    planted = {
        "variant": variant_key(WORKLOADS[0], "baseline"),
        KIND_SHARD: diff_unit_key((WORKLOADS[0], LABELS, (BinDiff(),), None)),
    }
    for kind, key in planted.items():
        digest = store_digest(kind, key)
        path = os.path.join(root, OBJECTS_DIR, kind, digest[:2],
                            f"{digest}.pkl")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            pickle.dump({"store_schema": 2, "key_schema": 2, "kind": kind,
                         "key": key, "payload": "stale"}, fh)
    os.makedirs(os.path.join(root, "runs"))
    with open(os.path.join(root, "runs", "0123456789abcdef.jsonl"),
              "w") as fh:
        fh.write(json.dumps({"digest": store_digest(
            KIND_SHARD, planted[KIND_SHARD])}) + "\n")
    with open(os.path.join(root, "generation.json"), "w") as fh:
        json.dump({"store_schema": 2, "key_schema": 2, "generation": 1}, fh)
    return sorted(planted)


class TestPreGenerationTree:
    def test_attaches_and_rebuilds(self, tmp_store):
        plant_pre_generation_tree(tmp_store)
        rows, builds, units = fig8()
        assert builds["variants"] == 1 + len(LABELS)
        assert units["resumed"] == 0
        assert units["executed"] == units["planned"] == len(WORKLOADS)
        assert rows == oracles.precision(WORKLOADS, LABELS, [BinDiff()]).rows

    def test_gc_sweeps_its_kind_directories(self, tmp_store):
        legacy = plant_pre_generation_tree(tmp_store)
        fig8()
        report = gc_store.collect(tmp_store, grace=0)
        assert report["swept"] == legacy == [KIND_SHARD, "variant"]
        assert report["kept"] == {code_fingerprint(): "current"}
        assert os.listdir(os.path.join(tmp_store, OBJECTS_DIR)) == \
            [code_fingerprint()]
        # the journals and the stamp are inert; GC leaves them alone
        assert sorted(os.listdir(tmp_store)) == \
            ["generation.json", OBJECTS_DIR, "runs"]
        _rows, builds, units = fig8()
        assert builds["variants"] == 0 and units["executed"] == 0

    def test_fsck_lists_them_as_advisory(self, tmp_store):
        legacy = plant_pre_generation_tree(tmp_store)
        report = fsck_store.fsck(tmp_store)
        assert report["clean"]
        assert report["counts"]["objects_scanned"] == 0
        assert report["other_generations"] == legacy


def plant_generation(root, name, age=0.0, area=OBJECTS_DIR, files=2):
    """Generation ``name`` under ``area`` with ``files`` objects whose
    mtime is ``age`` seconds ago."""
    stamp = time.time() - age
    for index in range(files):
        digest = f"{index:064x}"
        path = os.path.join(root, area, name, KIND_SHARD, digest[:2],
                            f"{digest}.pkl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"0123456789")
        os.utime(path, (stamp, stamp))


@pytest.fixture
def tree(tmp_path):
    """A store tree holding one object of the current generation."""
    root = str(tmp_path / "store")
    ArtifactStore.attach(root).put(KIND_SHARD, ("current",), 1)
    return root


def generation_dirs(root, area=OBJECTS_DIR):
    return sorted(os.listdir(os.path.join(root, area)))


class TestProtections:
    def test_the_current_generation_is_always_kept(self, tree):
        plant_generation(tree, code_fingerprint(), age=7200)
        report = gc_store.collect(tree, grace=0)
        assert report["kept"] == {code_fingerprint(): "current"}
        assert report["swept"] == []
        assert generation_dirs(tree) == [code_fingerprint()]

    def test_grace_keeps_a_young_stale_generation(self, tree):
        plant_generation(tree, "young", age=60)
        plant_generation(tree, "old", age=7200)
        report = gc_store.collect(tree, grace=3600)
        assert report["kept"]["young"] == "grace"
        assert report["swept"] == ["old"]
        assert generation_dirs(tree) == sorted([code_fingerprint(), "young"])

    def test_grace_reads_the_newest_file(self, tree):
        plant_generation(tree, "mixed", age=7200)
        plant_generation(tree, "mixed", age=60, area=QUARANTINE_DIR, files=1)
        report = gc_store.collect(tree, grace=3600)
        assert report["kept"]["mixed"] == "grace" and report["swept"] == []

    def test_keep_generations_keeps_the_newest_stale_ones(self, tree):
        for name, age in (("newer", 100), ("older", 200), ("oldest", 300)):
            plant_generation(tree, name, age=age)
        report = gc_store.collect(tree, grace=0, keep_generations=1)
        assert report["kept"] == {code_fingerprint(): "current",
                                  "newer": "newest"}
        assert report["swept"] == ["older", "oldest"]
        again = gc_store.collect(tree, grace=0, keep_generations=2)
        assert again["kept"]["newer"] == "newest" and again["swept"] == []

    def test_dry_run_deletes_nothing(self, tree):
        plant_generation(tree, "old", age=7200)
        before = files_of(tree)
        report = gc_store.collect(tree, dry_run=True, grace=0)
        assert report["dry_run"] is True and report["swept"] == ["old"]
        assert files_of(tree) == before
        # and the real sweep afterwards agrees with the rehearsal
        assert gc_store.collect(tree, grace=0)["swept"] == ["old"]

    def test_a_second_sweep_sweeps_nothing(self, tree):
        plant_generation(tree, "old", age=7200)
        assert gc_store.collect(tree, grace=0)["counts"]["swept"] == 1
        again = gc_store.collect(tree, grace=0)
        assert again["counts"]["swept"] == 0 and again["swept"] == []

    def test_quarantined_objects_go_with_their_generation(self, tree):
        plant_generation(tree, "old", age=7200)
        plant_generation(tree, "old", age=7200, area=QUARANTINE_DIR)
        plant_generation(tree, code_fingerprint(), age=7200,
                         area=QUARANTINE_DIR)
        report = gc_store.collect(tree, grace=0)
        assert report["swept"] == ["old"]
        assert report["counts"]["files_swept"] == 4
        assert report["bytes_reclaimed"] == 40
        assert generation_dirs(tree, QUARANTINE_DIR) == [code_fingerprint()]


class TestCli:
    def test_json_report(self, tree, capsys):
        plant_generation(tree, "old", age=7200)
        assert gc_store.main([tree, "--dry-run", "--grace", "0",
                              "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["swept"] == ["old"]
        assert report["counts"] == {"generations": 2, "kept": 1, "swept": 1,
                                    "files_swept": 2}

    def test_human_report(self, tree, capsys):
        plant_generation(tree, "old", age=7200)
        assert gc_store.main([tree, "--grace", "0"]) == 0
        out = capsys.readouterr().out
        assert f"kept {code_fingerprint()} (current)" in out
        assert "swept: 1 generations, 2 files (20 bytes) — old" in out
        assert gc_store.main([tree, "--grace", "0"]) == 0
        assert "swept: 0 generations" in capsys.readouterr().out

    def test_refuses_non_store_tree(self, tmp_path, capsys):
        empty = tmp_path / "not-a-store"
        empty.mkdir()
        assert gc_store.main([str(empty)]) == 2
        assert "not a store tree" in capsys.readouterr().err
        assert gc_store.main([str(tmp_path / "missing")]) == 2
        assert os.listdir(empty) == []

    def test_subprocess_invocation(self, tree):
        """CI calls the script as a subprocess; the entry point must work
        outside pytest's import context too."""
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(SCRIPTS), "src"))
        result = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "gc_store.py"), tree,
             "--json"], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["kept"] == \
            {code_fingerprint(): "current"}
