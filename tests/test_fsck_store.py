"""Offline store verification: ``scripts/fsck_store.py`` scan and repair.

The runtime read path heals one object at a time; fsck walks the whole tree.
These tests pin down the triage rules: *damage* (corrupt objects, renamed
digests, stale temps) fails the check until repaired into quarantine,
*drift* (ledger/journal entries out of sync with the objects) is advisory
and never fails, and an unusable manifest is unrepairable (exit 1).
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.evaluation.checkpoint import RUNS_DIR
from repro.store import (KIND_BINARY, KIND_VARIANT, QUARANTINE_DIR,
                         ArtifactStore, GenerationLog, store_digest)

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

from fsck_store import fsck, main  # noqa: E402


@pytest.fixture
def tree(tmp_path):
    root = str(tmp_path / "store")
    store = ArtifactStore.attach(root)
    store.put(KIND_VARIANT, ("a",), 1)
    store.put(KIND_VARIANT, ("b",), 2)
    store.put(KIND_BINARY, ("c",), b"\x00\x01")
    return root


def _object_path(root, kind, key):
    return ArtifactStore.attach(root).object_path(
        kind, store_digest(kind, key))


class TestScan:
    def test_clean_tree_is_clean(self, tree):
        report = fsck(tree)
        assert report["clean"]
        assert report["counts"]["objects_scanned"] == 3
        assert report["counts"]["objects_ok"] == 3
        assert report["findings"] == []

    def test_corrupt_object_is_damage(self, tree):
        with open(_object_path(tree, KIND_VARIANT, ("a",)), "wb") as fh:
            fh.write(b"garbage")
        report = fsck(tree)
        assert not report["clean"]
        assert [f["code"] for f in report["findings"]] == ["corrupt_object"]

    def test_envelope_mismatch_is_damage(self, tree):
        path = _object_path(tree, KIND_VARIANT, ("a",))
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["store_schema"] = 99
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        report = fsck(tree)
        assert [f["code"] for f in report["findings"]] == ["envelope_mismatch"]

    def test_renamed_object_is_digest_mismatch(self, tree):
        """A pristine pickle under the wrong name is still corruption."""
        path = _object_path(tree, KIND_VARIANT, ("a",))
        fake = store_digest(KIND_VARIANT, ("elsewhere",))
        target = os.path.join(os.path.dirname(os.path.dirname(path)),
                              fake[:2], f"{fake}.pkl")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.rename(path, target)
        codes = sorted(f["code"] for f in fsck(tree)["findings"])
        assert codes == ["digest_mismatch"]

    def test_stale_temp_and_stray_files_reported(self, tree):
        shard_dir = os.path.dirname(_object_path(tree, KIND_VARIANT, ("a",)))
        with open(os.path.join(shard_dir, "x.pkl.tmp.123"), "wb") as fh:
            fh.write(b"partial")
        with open(os.path.join(shard_dir, "notes.txt"), "w") as fh:
            fh.write("hello")
        codes = sorted(f["code"] for f in fsck(tree)["findings"])
        assert codes == ["stale_temp", "stray_file"]

    def test_ledger_drift_is_advisory(self, tree):
        # orphan: ledger entry without an object
        log = GenerationLog.load(tree)
        log.append_entry(tree, "f" * 64, KIND_VARIANT)
        # unledgered: object the ledger never heard of (simulate by
        # deleting the ledger line via rewrite of a reduced map)
        victim = store_digest(KIND_VARIANT, ("b",))
        del log.entries[victim]
        log.entries["f" * 64] = {"kind": KIND_VARIANT, "note": ""}
        log.rewrite_entries(tree)
        report = fsck(tree)
        assert report["clean"]  # drift never fails
        assert report["counts"]["ledger_orphans"] == 1
        assert report["counts"]["unledgered"] == 1

    def test_journaled_digest_without_object_is_advisory(self, tree):
        runs = os.path.join(tree, RUNS_DIR)
        os.makedirs(runs)
        with open(os.path.join(runs, "deadbeef.jsonl"), "w") as fh:
            fh.write(json.dumps({"digest": "a" * 64}) + "\n")
        report = fsck(tree)
        assert report["clean"]
        assert report["counts"]["manifest_orphans"] == 1

    def test_unrepairable_manifest_fails(self, tree):
        with open(GenerationLog.path_for(tree), "w") as fh:
            fh.write("{not json")
        report = fsck(tree, repair=True)
        assert not report["clean"]
        assert report["findings"][0]["code"] == "bad_manifest"
        assert not report["findings"][0]["repairable"]


class TestRepair:
    def test_repair_quarantines_damage_and_reconciles(self, tree):
        victim = _object_path(tree, KIND_VARIANT, ("a",))
        with open(victim, "wb") as fh:
            fh.write(b"garbage")
        report = fsck(tree, repair=True)
        assert report["clean"]
        assert report["counts"]["repaired"] >= 1
        # the damaged object moved into quarantine with an fsck reason
        digest = store_digest(KIND_VARIANT, ("a",))
        moved = os.path.join(tree, QUARANTINE_DIR, KIND_VARIANT,
                             f"{digest}.pkl")
        assert os.path.exists(moved) and not os.path.exists(victim)
        with open(os.path.join(os.path.dirname(moved),
                               f"{digest}.reason.json")) as fh:
            record = json.load(fh)
        assert record["by"] == "fsck_store"
        assert record["cause"] == "corrupt_object"
        # the ledger no longer lists the quarantined object...
        assert digest not in GenerationLog.load(tree).entries
        # ...and a second pass finds nothing left to do
        again = fsck(tree)
        assert again["clean"] and again["counts"]["problems"] == 0

    def test_repair_unlinks_temps_and_strays(self, tree):
        shard_dir = os.path.dirname(_object_path(tree, KIND_VARIANT, ("a",)))
        temp = os.path.join(shard_dir, "x.pkl.tmp.123")
        stray = os.path.join(shard_dir, "notes.txt")
        for path in (temp, stray):
            with open(path, "w") as fh:
                fh.write("junk")
        assert fsck(tree, repair=True)["clean"]
        assert not os.path.exists(temp) and not os.path.exists(stray)

    def test_repair_adopts_unledgered_objects(self, tree):
        log = GenerationLog.load(tree)
        victim = store_digest(KIND_VARIANT, ("b",))
        del log.entries[victim]
        log.rewrite_entries(tree)
        fsck(tree, repair=True)
        entry = GenerationLog.load(tree).entries[victim]
        assert entry["kind"] == KIND_VARIANT
        assert entry["note"] == "adopted by fsck"

    def test_repair_drops_stale_journal_lines(self, tree):
        runs = os.path.join(tree, RUNS_DIR)
        os.makedirs(runs)
        keep = store_digest(KIND_VARIANT, ("a",))
        path = os.path.join(runs, "deadbeef.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"digest": keep}) + "\n")
            fh.write(json.dumps({"digest": "a" * 64}) + "\n")
        fsck(tree, repair=True)
        with open(path) as fh:
            digests = [json.loads(line)["digest"] for line in fh]
        assert digests == [keep]


class TestCli:
    def test_exit_codes(self, tree, capsys):
        assert main([tree]) == 0
        assert "clean" in capsys.readouterr().out
        with open(_object_path(tree, KIND_VARIANT, ("a",)), "wb") as fh:
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
