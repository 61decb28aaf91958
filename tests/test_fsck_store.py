"""Offline store verification: ``scripts/fsck_store.py`` scan and repair.

The runtime read path heals one object at a time; fsck walks the current
generation of the tree.  These tests pin down the triage rules: *damage*
(corrupt objects, renamed digests, stale temps) fails the check until
repaired into the generation's quarantine, and other generations, which
no process of this code reads, are listed as advisory and never fail it.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.store import (KIND_SHARD, OBJECTS_DIR, QUARANTINE_DIR,
                         ArtifactStore, code_fingerprint, store_digest)
from repro.store import backend as store_backend

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

from fsck_store import fsck, main  # noqa: E402


@pytest.fixture
def tree(tmp_path):
    root = str(tmp_path / "store")
    store = ArtifactStore.attach(root)
    store.put(KIND_SHARD, ("a",), 1)
    store.put(KIND_SHARD, ("b",), 2)
    store.put(KIND_SHARD, ("c",), b"\x00\x01")
    return root


def plant_generation(root, name, area=OBJECTS_DIR):
    """Generation ``name`` holding one file that is no valid object."""
    folder = os.path.join(root, area, name, KIND_SHARD, "00")
    os.makedirs(folder)
    with open(os.path.join(folder, "garbage.pkl"), "wb") as fh:
        fh.write(b"not a pickle")


def _object_path(root, kind, key):
    return ArtifactStore.attach(root).object_path(
        kind, store_digest(kind, key))


class _Retired:
    """A payload class whose pickled name is then changed to one that
    does not exist."""


class TestScan:
    def test_clean_tree_is_clean(self, tree):
        report = fsck(tree)
        assert report["clean"]
        assert report["counts"]["objects_scanned"] == 3
        assert report["counts"]["objects_ok"] == 3
        assert report["findings"] == []

    def test_corrupt_object_is_damage(self, tree):
        with open(_object_path(tree, KIND_SHARD, ("a",)), "wb") as fh:
            fh.write(b"garbage")
        report = fsck(tree)
        assert not report["clean"]
        assert [f["code"] for f in report["findings"]] == ["corrupt_object"]

    def test_envelope_mismatch_is_damage(self, tree):
        path = _object_path(tree, KIND_SHARD, ("a",))
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["kind"] = "other"
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        report = fsck(tree)
        assert [f["code"] for f in report["findings"]] == ["envelope_mismatch"]

    def test_renamed_object_is_digest_mismatch(self, tree):
        """A pristine pickle under the wrong name is still corruption."""
        path = _object_path(tree, KIND_SHARD, ("a",))
        fake = store_digest(KIND_SHARD, ("elsewhere",))
        target = os.path.join(os.path.dirname(os.path.dirname(path)),
                              fake[:2], f"{fake}.pkl")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.rename(path, target)
        codes = sorted(f["code"] for f in fsck(tree)["findings"])
        assert codes == ["digest_mismatch"]

    def test_stale_temp_and_stray_files_reported(self, tree):
        shard_dir = os.path.dirname(_object_path(tree, KIND_SHARD, ("a",)))
        with open(os.path.join(shard_dir, "x.pkl.tmp.123"), "wb") as fh:
            fh.write(b"partial")
        with open(os.path.join(shard_dir, "notes.txt"), "w") as fh:
            fh.write("hello")
        codes = sorted(f["code"] for f in fsck(tree)["findings"])
        assert codes == ["stale_temp", "stray_file"]

    def test_a_file_where_a_kind_belongs_is_stray(self, tree):
        stray = os.path.join(tree, OBJECTS_DIR, code_fingerprint(), "notes")
        with open(stray, "w") as fh:
            fh.write("hello")
        report = fsck(tree)
        assert [f["code"] for f in report["findings"]] == ["stray_file"]
        assert fsck(tree, repair=True)["clean"]
        assert not os.path.exists(stray)

    def test_a_payload_of_a_missing_class_is_damage(self, tree):
        """The current generation was written by this code, so a pickle
        naming a class it does not define is damage, not history."""
        path = _object_path(tree, KIND_SHARD, ("c",))
        data = pickle.dumps({"kind": KIND_SHARD, "key": ("c",),
                             "payload": _Retired()})
        with open(path, "wb") as fh:
            fh.write(data.replace(b"_Retired", b"_Missing"))
        codes = [f["code"] for f in fsck(tree)["findings"]]
        assert codes == ["corrupt_object"]

    def test_other_generations_are_advisory(self, tree):
        plant_generation(tree, "old")
        plant_generation(tree, "older", area=QUARANTINE_DIR)
        report = fsck(tree)
        assert report["clean"] and report["findings"] == []
        assert report["generation"] == code_fingerprint()
        assert report["other_generations"] == ["old", "older"]
        assert report["counts"]["other_generations"] == 2
        assert report["counts"]["objects_scanned"] == 3

    def test_a_tree_without_the_current_generation_is_clean(self, tmp_path):
        root = str(tmp_path / "store")
        plant_generation(root, "old")
        report = fsck(root)
        assert report["clean"] and report["counts"]["objects_scanned"] == 0
        assert report["other_generations"] == ["old"]


class TestRepair:
    def test_repair_quarantines_damage_and_reconciles(self, tree):
        victim = _object_path(tree, KIND_SHARD, ("a",))
        with open(victim, "wb") as fh:
            fh.write(b"garbage")
        report = fsck(tree, repair=True)
        assert report["clean"]
        assert report["counts"]["repaired"] == 1
        # the damaged object moved into the generation's quarantine with an
        # fsck reason
        digest = store_digest(KIND_SHARD, ("a",))
        moved = os.path.join(tree, QUARANTINE_DIR, code_fingerprint(),
                             KIND_SHARD, f"{digest}.pkl")
        assert os.path.exists(moved) and not os.path.exists(victim)
        with open(os.path.join(os.path.dirname(moved),
                               f"{digest}.reason.json")) as fh:
            record = json.load(fh)
        assert record["by"] == "fsck_store"
        assert record["cause"] == "corrupt_object"
        assert record["kind"] == KIND_SHARD and record["digest"] == digest
        # a second pass finds nothing left to do, and the quarantine is
        # not another generation
        again = fsck(tree)
        assert again["clean"] and again["counts"]["problems"] == 0
        assert again["other_generations"] == []

    @pytest.mark.parametrize("damage", ["corrupt", "misplaced"])
    def test_a_repair_is_as_durable_as_a_runtime_quarantine(
            self, damage, tree, monkeypatch):
        """A repair moves damage through the runtime's quarantine: it
        fsyncs the reason record, the quarantine directory and the
        directory the object left — also for a misplaced object, whose
        path is not the one its name derives."""
        path = _object_path(tree, KIND_SHARD, ("a",))
        if damage == "corrupt":
            with open(path, "wb") as fh:
                fh.write(b"garbage")
            digest = store_digest(KIND_SHARD, ("a",))
        else:
            digest = store_digest(KIND_SHARD, ("elsewhere",))
            misplaced = os.path.join(os.path.dirname(os.path.dirname(path)),
                                     "zz", f"{digest}.pkl")
            os.makedirs(os.path.dirname(misplaced))
            os.rename(path, misplaced)
            path = misplaced
        synced = []
        monkeypatch.setattr(store_backend.os, "fsync",
                            lambda fd: synced.append(os.fstat(fd).st_ino))
        report = fsck(tree, repair=True)
        assert report["clean"] and report["counts"]["repaired"] == 1
        moved = os.path.join(tree, QUARANTINE_DIR, code_fingerprint(),
                             KIND_SHARD, f"{digest}.pkl")
        assert os.path.exists(moved) and not os.path.exists(path)
        reason = os.path.join(os.path.dirname(moved), f"{digest}.reason.json")
        assert synced == [os.stat(reason).st_ino,
                          os.stat(os.path.dirname(moved)).st_ino,
                          os.stat(os.path.dirname(path)).st_ino]

    def test_repair_unlinks_temps_and_strays(self, tree):
        shard_dir = os.path.dirname(_object_path(tree, KIND_SHARD, ("a",)))
        temp = os.path.join(shard_dir, "x.pkl.tmp.123")
        stray = os.path.join(shard_dir, "notes.txt")
        for path in (temp, stray):
            with open(path, "w") as fh:
                fh.write("junk")
        assert fsck(tree, repair=True)["clean"]
        assert not os.path.exists(temp) and not os.path.exists(stray)

    def test_repair_leaves_other_generations_alone(self, tree):
        plant_generation(tree, "old")
        garbage = os.path.join(tree, OBJECTS_DIR, "old", KIND_SHARD, "00",
                               "garbage.pkl")
        report = fsck(tree, repair=True)
        assert report["clean"] and report["counts"]["repaired"] == 0
        assert os.path.exists(garbage)
        assert not os.path.exists(os.path.join(tree, QUARANTINE_DIR))


class TestCli:
    def test_exit_codes(self, tree, capsys):
        plant_generation(tree, "old")
        assert main([tree]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "other generations" in out and "old" in out
        with open(_object_path(tree, KIND_SHARD, ("a",)), "wb") as fh:
            fh.write(b"garbage")
        assert main([tree]) == 1
        assert "PROBLEMS FOUND" in capsys.readouterr().out
        assert main(["--repair", tree]) == 0
        assert main([os.path.join(tree, "no-such-dir")]) == 2

    def test_json_output(self, tree, capsys):
        assert main(["--json", tree]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] and report["counts"]["objects_scanned"] == 3

    def test_subprocess_invocation(self, tree):
        """The CI resume job calls the script as a subprocess; make sure the
        entry point works outside pytest's import context too."""
        script = os.path.join(SCRIPTS, "fsck_store.py")
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(SCRIPTS), "src"))
        result = subprocess.run([sys.executable, script, tree], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout
