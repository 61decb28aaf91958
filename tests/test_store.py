"""The shared artifact store: keys, layers, concurrency, warm attach.

Covers the tentpole guarantees of the ``repro.store`` subsystem:

* content addressing is stable and value-based (a digest survives process
  and disk round trips);
* the store is its on-disk tree: it needs a root, every lookup reads the
  tree, and a build is persisted before it is returned;
* concurrent processes writing/reading the same artifact key cannot corrupt
  the tree (atomic rename; first-writer-kept at the API level, last-writer
  intact when both race through ``os.replace``);
* every object lives under its generation, the fingerprint of the code
  that wrote it, so a tree written by other code is never read;
* the retired ``features``/``diff`` payload helpers are no-ops;
* the report of every figure that takes a cache, built from a warm
  explicit memo, equals the cold run's and builds nothing;
* :class:`LocalBackend`, the byte layer under the tree, keeps the first
  writer's object and fsyncs each payload and its directory;
* every name the paper benchmark's layer tracer wraps still resolves.
"""

import importlib.util
import json
import multiprocessing
import os
import pickle
import re
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.variant_cache import VariantCache, variant_key
from repro.diffing import Asm2Vec, BinDiff, DeepBinDiff
from repro.evaluation import clear_variant_facts, run_tasks
from repro.evaluation.escape import measure_escape
from repro.evaluation.overhead import build_variant, measure_overhead
from repro.evaluation.precision import measure_precision
from repro.obs.metrics import counted
from repro.store import (KIND_SHARD, OBJECTS_DIR,
                         QUARANTINE_DIR, ArtifactStore, canonical_key,
                         code_fingerprint, is_store_tree, store_digest,
                         store_dir_from_env, store_from_env)
from repro.store import artifact_store, diff_payloads, feature_payloads
from repro.store import backend as store_backend
from repro.store import keys as store_keys
from repro.store.backend import LocalBackend, fsync_directory
from repro.workloads.suites import embedded_programs, spec2006_programs

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


class TestContentAddressing:
    def test_digest_is_stable_and_value_based(self):
        key = variant_key(WORKLOADS[0], "baseline")
        assert store_digest(KIND_SHARD, key) == store_digest(
            KIND_SHARD, variant_key(WORKLOADS[0], "baseline"))
        assert len(store_digest(KIND_SHARD, key)) == 64

    def test_kind_namespaces_are_disjoint(self):
        key = ("k", 1)
        assert store_digest(KIND_SHARD, key) != store_digest("other", key)

    def test_different_keys_different_digests(self):
        a = variant_key(WORKLOADS[0], "baseline")
        b = variant_key(WORKLOADS[1], "baseline")
        assert store_digest(KIND_SHARD, a) != store_digest(KIND_SHARD, b)

    def test_canonical_key_rejects_identity_hashed_components(self):
        class Opaque:
            pass
        with pytest.raises(TypeError):
            canonical_key((1, Opaque()))

    def test_canonical_key_distinguishes_string_from_int(self):
        assert canonical_key(("1",)) != canonical_key((1,))

    def test_canonical_key_rejects_enum_members(self):
        """Keys are frozen value tuples: an enum member is not one, and
        its ``repr`` would not name a value stable across code edits."""
        import enum

        class Color(enum.Enum):
            RED = 1
        with pytest.raises(TypeError):
            canonical_key((Color.RED,))


class TestDiskLayer:
    def test_requires_a_root(self):
        with pytest.raises(TypeError):
            ArtifactStore()

    def test_get_or_build_builds_once_then_reads_the_tree(self, tmp_path):
        store = ArtifactStore.attach(str(tmp_path / "store"))
        calls = []
        first = store.get_or_build(KIND_SHARD, ("k",),
                                   lambda: calls.append(1) or "built")
        second = store.get_or_build(KIND_SHARD, ("k",),
                                    lambda: calls.append(2) or "rebuilt")
        assert first == second == "built" and calls == [1]
        assert store.misses == 1 and store.puts == 1 and store.disk_hits == 1
        assert store.hit_rate == 0.5

    def test_stats_name_the_backend(self, tmp_path):
        root = str(tmp_path / "store")
        store = ArtifactStore.attach(root)
        assert store.persistent
        stats = store.stats()
        assert stats["backend"] == f"local:{os.path.abspath(root)}"
        assert set(stats) == {
            "root", "backend", "memory_hits", "disk_hits", "misses", "puts",
            "hit_rate", "corrupt_reads", "quarantined"}
        assert stats["memory_hits"] == 0  # no memory layer

    def test_a_fresh_store_reports_zero(self, tmp_path):
        stats = ArtifactStore.attach(str(tmp_path / "store")).stats()
        assert {name: stats[name] for name in (
            "memory_hits", "disk_hits", "misses", "puts", "hit_rate",
            "corrupt_reads", "quarantined")} == {
            "memory_hits": 0, "disk_hits": 0, "misses": 0, "puts": 0,
            "hit_rate": 0.0, "corrupt_reads": {}, "quarantined": 0}

    def test_every_lookup_reads_the_tree(self, tmp_path):
        """No object is held in memory: each read is a disk read, and an
        object gone from the tree is gone from the store."""
        store = ArtifactStore.attach(str(tmp_path / "store"))
        digest = store.put(KIND_SHARD, ("k",), "v")
        with counted("store") as reads:
            assert store.get(KIND_SHARD, ("k",)) == "v"
            assert store.get(KIND_SHARD, ("k",)) == "v"
        assert store.disk_hits == 2 and reads["disk_hits"] == 2
        assert reads["bytes_read"] == 2 * os.path.getsize(
            store.object_path(KIND_SHARD, digest))
        os.unlink(store.object_path(KIND_SHARD, digest))
        assert store.get(KIND_SHARD, ("k",), default="gone") == "gone"
        assert store.get_or_build(KIND_SHARD, ("k",), lambda: "new") == "new"
        assert store.misses == 1

    def test_get_never_builds_or_counts_a_miss(self, tmp_path):
        store = ArtifactStore.attach(str(tmp_path / "store"))
        assert store.get(KIND_SHARD, ("k",)) is None
        assert store.get(KIND_SHARD, ("k",), default="absent") == "absent"
        assert store.misses == store.disk_hits == store.puts == 0
        assert not store.contains(KIND_SHARD, ("k",))

    def test_contains_reads_the_tree(self, tmp_path):
        root = str(tmp_path / "store")
        reader = ArtifactStore.attach(root)
        assert not reader.contains(KIND_SHARD, ("k",))
        digest = ArtifactStore.attach(root).put(KIND_SHARD, ("k",), "v")
        assert reader.contains(KIND_SHARD, ("k",))
        os.unlink(reader.object_path(KIND_SHARD, digest))
        assert not reader.contains(KIND_SHARD, ("k",))

    def test_an_unpicklable_build_is_returned_not_stored(self, tmp_path):
        """Persistence never fails a build, and never silently: the
        failure is counted by its exception class."""
        root = str(tmp_path / "store")
        store = ArtifactStore.attach(root)
        built = store.get_or_build(KIND_SHARD, ("k",), lambda: (lambda: 1))
        assert built() == 1
        assert store.puts == 0 and store.misses == 1
        assert sum(store.metrics.prefixed("store.put_failures").values()) == 1
        assert LocalBackend(root, code_fingerprint()).list_refs() == []

    def test_an_unwritable_tree_still_returns_the_build(self, tmp_path,
                                                        monkeypatch):
        store = ArtifactStore.attach(str(tmp_path / "store"))

        def refuse(*_args, **_kwargs):
            raise OSError("read-only file system")

        monkeypatch.setattr(store._backend, "put", refuse)
        assert store.get_or_build(KIND_SHARD, ("k",), lambda: "v") == "v"
        assert store.put(KIND_SHARD, ("j",), "w") == store_digest(
            KIND_SHARD, ("j",))
        assert store.puts == 0
        assert store.metrics.prefixed("store.put_failures") == {"OSError": 2}
        assert not store.contains(KIND_SHARD, ("k",))

    def test_round_trip_across_instances(self, tmp_path):
        root = str(tmp_path / "store")
        writer = ArtifactStore.attach(root)
        digest = writer.put(KIND_SHARD, ("k", 1), {"payload": [1, 2, 3]})
        reader = ArtifactStore.attach(root)
        assert reader.get(KIND_SHARD, ("k", 1)) == {"payload": [1, 2, 3]}
        assert reader.disk_hits == 1
        assert os.path.exists(writer.object_path(KIND_SHARD, digest))

    def test_lowered_binary_round_trips_bit_identically(self, tmp_path):
        """A lowered Binary survives the pickle → disk → unpickle trip with
        its machine code exactly preserved (content digest over functions,
        blocks, instructions and CFG edges)."""
        from repro.toolchain import obfuscator_for
        root = str(tmp_path / "store")
        store = ArtifactStore.attach(root)
        artifact = build_variant(WORKLOADS[0], "fission")
        key = variant_key(WORKLOADS[0], obfuscator_for("fission"))
        store.put(KIND_SHARD, key, artifact)

        restored = ArtifactStore.attach(root).get(KIND_SHARD, key).binary
        assert restored is not artifact.binary
        assert restored.content_digest() == artifact.binary.content_digest()
        # and the digest is sensitive to actual code differences
        other = build_variant(WORKLOADS[0], "fufi.ori")
        assert other.binary.content_digest() != artifact.binary.content_digest()

    def test_first_writer_kept(self, tmp_path):
        root = str(tmp_path / "store")
        a = ArtifactStore.attach(root)
        b = ArtifactStore.attach(root)
        a.put(KIND_SHARD, ("k",), "first")
        b.put(KIND_SHARD, ("k",), "second")  # disk copy not replaced
        fresh = ArtifactStore.attach(root)
        assert fresh.get(KIND_SHARD, ("k",)) == "first"

    def test_overwrite_replaces_atomically(self, tmp_path):
        root = str(tmp_path / "store")
        store = ArtifactStore.attach(root)
        store.put(KIND_SHARD, ("k",), "v1")
        store.put(KIND_SHARD, ("k",), "v2", overwrite=True)
        assert ArtifactStore.attach(root).get(KIND_SHARD, ("k",)) == "v2"

    def test_two_writers_keep_every_object(self, tmp_path):
        root = str(tmp_path / "store")
        a = ArtifactStore.attach(root)
        b = ArtifactStore.attach(root)
        for index in range(10):
            a.put(KIND_SHARD, ("a", index), index)
            b.put(KIND_SHARD, ("b", index), index)
        refs = LocalBackend(root, code_fingerprint()).list_refs(KIND_SHARD)
        assert len(refs) == 20


class _Renamed:
    """A payload class whose pickled name is then changed to a missing one."""


class TestCorruptObjectDegradation:
    """Damaged on-disk objects are misses (builds are deterministic), never
    crashes."""

    @staticmethod
    def _stored(root):
        store = ArtifactStore.attach(root)
        digest = store.put(KIND_SHARD, ("k",), "good")
        return store.object_path(KIND_SHARD, digest)

    def test_truncated_pickle_is_a_miss(self, tmp_store):
        path = self._stored(tmp_store)
        with open(path, "wb") as fh:
            fh.write(b"\x80corrupt")
        fresh = ArtifactStore.attach(tmp_store)
        rebuilt = fresh.get_or_build(KIND_SHARD, ("k",), lambda: "rebuilt")
        assert rebuilt == "rebuilt" and fresh.misses == 1

    def test_empty_object_file_is_a_miss(self, tmp_store):
        path = self._stored(tmp_store)
        with open(path, "wb"):
            pass
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(KIND_SHARD, ("k",), default="absent") == "absent"

    def test_wrong_kind_envelope_is_a_miss(self, tmp_store):
        path = self._stored(tmp_store)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["kind"] = "other"
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(KIND_SHARD, ("k",), default="absent") == "absent"

    def test_payload_of_a_missing_class_is_a_quarantined_miss(self, tmp_store):
        """A generation holds only what this code wrote, so a pickle naming
        a class the code does not define is damage."""
        path = self._stored(tmp_store)
        data = pickle.dumps({"kind": KIND_SHARD, "key": ("k",),
                             "payload": _Renamed()})
        with open(path, "wb") as fh:
            fh.write(data.replace(b"_Renamed", b"_Missing"))
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(KIND_SHARD, ("k",), default="absent") == "absent"
        assert fresh.corrupt_reads == {"AttributeError": 1}
        assert fresh.quarantined == 1

    def test_wrong_key_envelope_is_a_miss(self, tmp_store):
        """A digest collision (or a tampered file) must never serve the
        wrong artifact: the envelope stores the full key and is checked."""
        path = self._stored(tmp_store)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["key"] = ("other",)
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(KIND_SHARD, ("k",), default="absent") == "absent"


def _fingerprints_computed(_task):
    """How often this worker computed the fingerprint, after using it."""
    code_fingerprint()
    return store_keys.code_fingerprint.cache_info().misses


#: The interpreter tag the package fingerprints below are taken under.
TAG = sys.implementation.cache_tag


class TestCodeFingerprint:
    """The generation is a digest of the ``repro`` sources and the
    interpreter tag; edits to a copy of the package show what moves it."""

    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        """A copy of the package that ``code_fingerprint`` reads instead."""
        copy = str(tmp_path / "repro")
        shutil.copytree(store_keys.PACKAGE_DIR, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(store_keys, "PACKAGE_DIR", copy)
        return copy

    @staticmethod
    def fingerprint():
        """``code_fingerprint`` computed afresh, past the per-process cache."""
        return store_keys.code_fingerprint.__wrapped__()

    def test_is_sixteen_hex_digits(self):
        assert re.fullmatch(r"[0-9a-f]{16}", code_fingerprint())

    def test_a_copy_of_the_package_has_the_same_fingerprint(self, package):
        assert self.fingerprint() == code_fingerprint()

    def test_editing_one_module_changes_it(self, package):
        before = self.fingerprint()
        with open(os.path.join(package, "opt", "dce.py"), "a") as fh:
            fh.write("# edited\n")
        assert self.fingerprint() != before

    def test_renaming_one_module_changes_it(self, package):
        before = self.fingerprint()
        os.rename(os.path.join(package, "opt", "dce.py"),
                  os.path.join(package, "opt", "dce2.py"))
        assert self.fingerprint() != before

    def test_the_interpreter_tag_changes_it(self, package, monkeypatch):
        before = self.fingerprint()
        monkeypatch.setattr(sys.implementation, "cache_tag", "cpython-399")
        assert self.fingerprint() != before

    def test_bytecode_caches_and_other_files_do_not_change_it(self, package):
        before = self.fingerprint()
        cache = os.path.join(package, "opt", "__pycache__")
        os.makedirs(cache)
        with open(os.path.join(cache, "dce.py"), "w") as fh:
            fh.write("stale = True\n")
        with open(os.path.join(cache, f"dce.{TAG}.pyc"), "wb") as fh:
            fh.write(b"\x00" * 16)
        with open(os.path.join(package, "NOTES.txt"), "w") as fh:
            fh.write("not a module\n")
        assert self.fingerprint() == before

    def test_forked_workers_inherit_it(self):
        code_fingerprint()
        computed = store_keys.code_fingerprint.cache_info().misses
        assert run_tasks(_fingerprints_computed, [0, 1], jobs=2) == \
            [computed, computed]

    def test_computed_once_per_process(self, package):
        first = code_fingerprint()
        with open(os.path.join(package, "opt", "dce.py"), "a") as fh:
            fh.write("# edited\n")
        assert code_fingerprint() == first != self.fingerprint()


class TestGenerations:
    def test_objects_live_under_the_code_generation(self, tmp_path):
        root = str(tmp_path / "store")
        store = ArtifactStore.attach(root)
        digest = store.put(KIND_SHARD, ("a",), 1)
        assert store.object_path(KIND_SHARD, digest) == os.path.join(
            os.path.abspath(root), OBJECTS_DIR, code_fingerprint(),
            KIND_SHARD, digest[:2], f"{digest}.pkl")

    def test_attach_writes_nothing_but_the_generation_directory(
            self, tmp_path):
        root = str(tmp_path / "store")
        ArtifactStore.attach(root)
        assert os.listdir(root) == [OBJECTS_DIR]
        assert os.listdir(os.path.join(root, OBJECTS_DIR)) == \
            [code_fingerprint()]

    def test_envelope_holds_kind_key_and_payload_only(self, tmp_path):
        store = ArtifactStore.attach(str(tmp_path / "store"))
        digest = store.put(KIND_SHARD, ("s",), [1])
        with open(store.object_path(KIND_SHARD, digest), "rb") as fh:
            envelope = pickle.load(fh)
        assert envelope == {"kind": KIND_SHARD, "key": ("s",),
                            "payload": [1]}

    def test_other_code_neither_reads_nor_touches_a_generation(
            self, tmp_path, monkeypatch):
        root = str(tmp_path / "store")
        old = ArtifactStore.attach(root)
        path = old.object_path(KIND_SHARD, old.put(KIND_SHARD, ("k",), 1))
        with open(path, "rb") as fh:
            written = fh.read()
        monkeypatch.setattr(artifact_store, "code_fingerprint",
                            lambda: "f" * 16)
        new = ArtifactStore.attach(root)
        assert new.get_or_build(KIND_SHARD, ("k",), lambda: 2) == 2
        assert new.misses == 1 and new.disk_hits == 0
        with open(path, "rb") as fh:
            assert fh.read() == written
        assert sorted(os.listdir(os.path.join(root, OBJECTS_DIR))) == \
            sorted([code_fingerprint(), "f" * 16])

    def test_is_store_tree(self, tmp_path):
        root = str(tmp_path / "store")
        assert not is_store_tree(root)
        ArtifactStore.attach(root)
        assert is_store_tree(root)


class TestEnvResolution:
    def test_store_dir_attaches_the_named_tree(self, tmp_path, monkeypatch):
        root = str(tmp_path / "s")
        monkeypatch.setenv("REPRO_STORE_DIR", root)
        assert store_dir_from_env() == root
        store = store_from_env()
        assert store.root == os.path.abspath(root)
        assert is_store_tree(root)

    def test_unset_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert store_dir_from_env() is None

    def test_no_env_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert store_from_env() is None

    def test_an_explicit_environment_names_the_tree(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        root = str(tmp_path / "s")
        assert store_dir_from_env({"REPRO_STORE_DIR": ""}) is None
        assert store_from_env({}) is None
        store = store_from_env({"REPRO_STORE_DIR": root})
        assert store.root == os.path.abspath(root) and is_store_tree(root)

    def test_unusable_store_dir_raises_os_error(self, tmp_path,
                                                monkeypatch):
        occupied = tmp_path / "a-file"
        occupied.write_text("not a directory")
        monkeypatch.setenv("REPRO_STORE_DIR", str(occupied))
        with pytest.raises(OSError):
            store_from_env()


class TestNoOpPayloadHelpers:
    """The ``features`` and ``diff`` helpers stay only as names the paper
    benchmark's tracer wraps: they write nothing and always miss."""

    def test_feature_payload_helpers_are_noops(self, tmp_store):
        store = ArtifactStore.attach(tmp_store)
        artifact = build_variant(WORKLOADS[0], "baseline")
        key = variant_key(WORKLOADS[0], "baseline")
        assert feature_payloads.persist_features(store, key,
                                                 artifact.binary) is None
        assert feature_payloads.warm_features(store, key,
                                              artifact.binary) == 0
        assert LocalBackend(tmp_store, code_fingerprint()).list_refs() == []

    def test_diff_payload_helpers_are_noops(self, tmp_store):
        store = ArtifactStore.attach(tmp_store)
        pair = ("diff", ("tool", 1), ("base",), ("var",))
        diff_payloads.persist_roster(store, pair, ("f",), "a", "b", 1, 1)
        diff_payloads.persist_unit(store, pair, "f", [("g", 1.0)], {}, 1)
        diff_payloads.persist_whole(store, pair, {"f": []}, 0.5, {"f": 1})
        assert diff_payloads.load_roster(store, pair) is None
        assert diff_payloads.load_unit(store, pair, "f") is None
        assert diff_payloads.load_whole(store, pair) is None
        assert LocalBackend(tmp_store, code_fingerprint()).list_refs() == []


# -- concurrent access (two processes, one tree) --------------------------------------


def _writer_process(root, payload, barrier, results):
    store = ArtifactStore.attach(root)
    barrier.wait(timeout=30)
    for round_index in range(20):
        store.put(KIND_SHARD, ("contended",), payload,
                  overwrite=bool(round_index % 2))
    results.put(("wrote", payload))


def _reader_process(root, barrier, results):
    store = ArtifactStore.attach(root)
    barrier.wait(timeout=30)
    seen = set()
    for _ in range(50):
        value = store.get(KIND_SHARD, ("contended",))
        if value is not None:
            seen.add(value)
    results.put(("read", tuple(sorted(seen))))


class TestConcurrentAccess:
    def test_two_processes_same_key_no_corruption(self, tmp_path):
        """Two writers + one reader hammer one artifact key: every read must
        observe a complete payload from one writer (atomic rename), never an
        interleaved or truncated object, and the tree must stay attachable."""
        root = str(tmp_path / "store")
        ArtifactStore.attach(root)  # create the tree up front
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(3)
        results = ctx.Queue()
        procs = [
            ctx.Process(target=_writer_process,
                        args=(root, "payload-A", barrier, results)),
            ctx.Process(target=_writer_process,
                        args=(root, "payload-B", barrier, results)),
            ctx.Process(target=_reader_process,
                        args=(root, barrier, results)),
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        outcomes = dict(results.get(timeout=10) for _ in procs)
        # whichever writer won any given race, the reader only ever saw
        # complete payloads
        assert set(outcomes["read"]) <= {"payload-A", "payload-B"}
        # and the final object is intact and one-of (last-writer-wins on the
        # overwriting rounds, first-writer-kept on the others — either way a
        # whole payload, asserted here)
        final = ArtifactStore.attach(root).get(KIND_SHARD, ("contended",))
        assert final in ("payload-A", "payload-B")

    def test_concurrent_runs_share_one_tree(self, tmp_path):
        """Two processes running the same matrix over one tree must agree
        and must leave exactly one object per unit in the tree."""
        root = str(tmp_path / "store")
        ArtifactStore.attach(root)
        ctx = multiprocessing.get_context("spawn")
        results = ctx.Queue()
        procs = [ctx.Process(target=_build_matrix_process,
                             args=(root, results)) for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=300)
            assert proc.exitcode == 0
        rows_a = results.get(timeout=10)
        rows_b = results.get(timeout=10)
        assert rows_a == rows_b
        refs = LocalBackend(root, code_fingerprint()).list_refs()
        assert [kind for kind, _digest in refs] == [KIND_SHARD]


def _stress_writer(args):
    """One writer process: put every key, report the payloads read back."""
    root, writer_id, keys = args
    store = ArtifactStore.attach(root)
    seen = {}
    for i in keys:
        store.put(KIND_SHARD, ("stress", i), {"writer": writer_id, "i": i})
        seen[i] = store.get(KIND_SHARD, ("stress", i))
    return seen


class TestConcurrentWriters:
    def test_first_writer_kept_across_processes(self, tmp_path):
        """N processes race the same keys; every key ends with exactly one
        internally consistent object that all readers agree on."""
        root = str(tmp_path / "store")
        ArtifactStore.attach(root)  # stamp the tree
        keys = list(range(16))
        with ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(
                _stress_writer,
                [(root, writer, keys) for writer in range(4)]))
        store = ArtifactStore.attach(root)
        writer_ids = set(range(4))
        for i in keys:
            winner = store.get(KIND_SHARD, ("stress", i))
            # the published object is exactly ONE racing writer's payload,
            # never torn or interleaved
            assert isinstance(winner, dict) and winner["i"] == i
            assert winner["writer"] in writer_ids
            digest = store_digest(KIND_SHARD, ("stress", i))
            path = store.object_path(KIND_SHARD, digest)
            assert os.path.isfile(path)
            # no torn leftovers from the race
            assert not [name for name in os.listdir(os.path.dirname(path))
                        if ".tmp." in name]
        # every writer observed internally consistent payloads throughout
        # (the disk winner is always a complete object; real payloads are
        # deterministic per key)
        for seen in outcomes:
            for i, payload in seen.items():
                assert isinstance(payload, dict) and payload["i"] == i


class TestLocalBackend:
    def test_first_writer_kept(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        assert backend.put("shard", "ab" * 32, b"first") is True
        assert backend.put("shard", "ab" * 32, b"second") is False
        assert backend.get("shard", "ab" * 32) == b"first"

    def test_overwrite_flag_wins(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        backend.put("shard", "cd" * 32, b"first")
        assert backend.put("shard", "cd" * 32, b"second",
                           overwrite=True) is True
        assert backend.get("shard", "cd" * 32) == b"second"

    def test_put_fsyncs_the_payload_and_its_directory(self, tmp_path,
                                                      monkeypatch):
        synced = []
        monkeypatch.setattr(store_backend.os, "fsync",
                            lambda fd: synced.append(os.fstat(fd).st_ino))
        backend = LocalBackend(str(tmp_path), "g")
        assert backend.put("shard", "bc" * 32, b"payload") is True
        path = backend.object_path("shard", "bc" * 32)
        assert synced == [os.stat(path).st_ino,
                          os.stat(os.path.dirname(path)).st_ino]
        assert backend.put("shard", "bc" * 32, b"again") is False
        assert len(synced) == 2  # a kept object is not rewritten

    def test_delete_and_list(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        backend.put("shard", "ef" * 32, b"x")
        assert ("shard", "ef" * 32) in backend.list_refs()
        assert backend.delete("shard", "ef" * 32) is True
        assert backend.delete("shard", "ef" * 32) is False
        assert backend.get("shard", "ef" * 32) is None

    def test_fsync_directory_tolerates_missing(self, tmp_path):
        fsync_directory(str(tmp_path / "nope"))  # must not raise

    def test_contains_follows_put_and_delete(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        assert backend.contains("shard", "12" * 32) is False
        backend.put("shard", "12" * 32, b"x")
        assert backend.contains("shard", "12" * 32) is True
        backend.delete("shard", "12" * 32)
        assert backend.contains("shard", "12" * 32) is False

    def test_list_refs_of_one_kind(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        backend.put("shard", "34" * 32, b"v")
        backend.put("binary", "56" * 32, b"b")
        assert backend.list_refs("shard") == [("shard", "34" * 32)]
        assert backend.list_refs() == [("binary", "56" * 32),
                                       ("shard", "34" * 32)]
        assert backend.list_refs("features") == []

    def test_generations_are_disjoint(self, tmp_path):
        old = LocalBackend(str(tmp_path), "old")
        new = LocalBackend(str(tmp_path), "new")
        old.put("shard", "ab" * 32, b"old")
        assert new.get("shard", "ab" * 32) is None
        assert not new.contains("shard", "ab" * 32)
        assert new.list_refs() == []
        assert new.put("shard", "ab" * 32, b"new") is True
        assert old.get("shard", "ab" * 32) == b"old"
        assert old.object_path("shard", "ab" * 32) == os.path.join(
            str(tmp_path), OBJECTS_DIR, "old", "shard", "ab",
            "ab" * 32 + ".pkl")

    def test_quarantine_moves_the_object_with_its_reason(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        backend.put("shard", "78" * 32, b"damaged")
        assert backend.quarantine("shard", "78" * 32,
                                  {"cause": "test"}) is True
        assert backend.get("shard", "78" * 32) is None
        moved = backend.quarantine_path("shard", "78" * 32)
        assert moved == os.path.join(str(tmp_path), QUARANTINE_DIR, "g",
                                     "shard", "78" * 32 + ".pkl")
        with open(moved, "rb") as fh:
            assert fh.read() == b"damaged"
        with open(moved[:-len(".pkl")] + ".reason.json") as fh:
            assert json.load(fh) == {"cause": "test"}
        # nothing left to move: reported, not raised
        assert backend.quarantine("shard", "78" * 32, {}) is False

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        backend = LocalBackend(str(tmp_path), "g")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_backend.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            backend.put("shard", "9a" * 32, b"payload")
        monkeypatch.undo()
        shard = os.path.dirname(backend.object_path("shard", "9a" * 32))
        assert os.listdir(shard) == []
        assert backend.get("shard", "9a" * 32) is None


#: One small run of each driver that takes a cache (figures 6, 7, 8 and
#: 10), at jobs=1 through the given ``VariantCache`` memo.
FIGURE_RUNS = {
    "fig6": lambda cache: measure_overhead(WORKLOADS[:1], labels=LABELS,
                                           cache=cache),
    "fig7": lambda cache: measure_overhead(
        WORKLOADS[:1], labels=("sub", "bog", "fla"), cache=cache),
    "fig8": lambda cache: measure_precision(
        WORKLOADS[:1], labels=LABELS, differs=[BinDiff(), DeepBinDiff()],
        cache=cache),
    "fig10": lambda cache: measure_escape(
        embedded_programs()[:1], labels=("sub",), differs=[Asm2Vec()],
        cache=cache),
}


class TestWarmReports:
    @pytest.mark.parametrize("figure", sorted(FIGURE_RUNS))
    def test_warm_memo_report_equals_cold(self, figure, monkeypatch):
        """A report built from a warm explicit memo is the cold run's
        report, and builds nothing."""
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        run = FIGURE_RUNS[figure]
        memo = VariantCache()
        with counted("build") as cold_builds:
            cold = run(memo)
        assert cold_builds["variants"] == memo.misses == len(memo) > 0
        clear_variant_facts()  # figs 6/7 would answer from the facts memo
        with counted("build") as warm_builds:
            warm = run(memo)
        assert warm == cold
        assert warm_builds["variants"] == 0
        assert memo.hits == memo.misses


def _paperbench_targets():
    """The (module, attribute) of every entry in the paper benchmark's
    layer table."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "paperbench", "layers.py")
    spec = importlib.util.spec_from_file_location("paperbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attribute) for module, attribute, *_ in layers.TARGETS]


PAPERBENCH_TARGETS = _paperbench_targets()


class TestPaperbenchNames:
    """``paperbench/layers.py`` wraps these names by looking them up
    (``owner.__dict__[method]`` for methods), so renaming or deleting one
    breaks ``paperbench/run.py --trace 1``."""

    @pytest.mark.parametrize(
        "module_name, attribute", PAPERBENCH_TARGETS,
        ids=[f"{module.rsplit('.', 1)[-1]}.{attribute}"
             for module, attribute in PAPERBENCH_TARGETS])
    def test_wrapped_name_resolves(self, module_name, attribute):
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            assert callable(getattr(module, class_name).__dict__[method])
        else:
            assert callable(getattr(module, attribute))

    def test_prefetch_loads_nothing(self, tmp_path):
        store = ArtifactStore.attach(str(tmp_path / "store"))
        store.put(KIND_SHARD, ("k",), 1)
        assert store.prefetch(KIND_SHARD, [("k",)]) == 0
        assert store.disk_hits == 0
        assert store.get(KIND_SHARD, ("k",)) == 1


def _build_matrix_process(root, results):
    os.environ["REPRO_STORE_DIR"] = root
    report = measure_overhead(WORKLOADS[:1], labels=LABELS, jobs=1)
    results.put([(r.program, r.label, r.baseline_cycles, r.cycles)
                 for r in report.rows])


# -- self-healing: quarantine + per-kind corruption accounting -------------------------


class TestQuarantine:
    """Corrupt objects are moved aside with a reason record and counted,
    never silently swallowed (satellite: the read path's blanket ``except``
    is gone — each failure kind advances its own counter)."""

    @staticmethod
    def _stored(root, kind=KIND_SHARD, key=("q",)):
        store = ArtifactStore.attach(root)
        digest = store.put(kind, key, "good")
        return store, digest, store.object_path(kind, digest)

    def test_truncated_object_is_quarantined_with_reason(self, tmp_store):
        _, digest, path = self._stored(tmp_store)
        with open(path, "wb") as fh:
            fh.write(b"\x80corrupt")
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(KIND_SHARD, ("q",), default="absent") == "absent"
        # the damaged file moved into
        # quarantine/<generation>/<kind>/<digest>.pkl ...
        assert not os.path.exists(path)
        moved = fresh.quarantine_path(KIND_SHARD, digest)
        assert os.path.exists(moved)
        assert moved == os.path.join(tmp_store, QUARANTINE_DIR,
                                     code_fingerprint(), KIND_SHARD,
                                     f"{digest}.pkl")
        # ... with a machine-readable reason record alongside
        with open(os.path.join(os.path.dirname(moved),
                               f"{digest}.reason.json")) as fh:
            record = json.load(fh)
        assert record["kind"] == KIND_SHARD
        assert record["digest"] == digest
        # b"\x80c..." reads as an unsupported pickle protocol -> ValueError
        assert record["cause"] == "ValueError"
        assert record["pid"] == os.getpid()
        assert "reason" in record and "quarantined_at" in record

    def test_counters_are_per_cause_and_surface_in_stats(self, tmp_store):
        _, _, path = self._stored(tmp_store)
        with open(path, "wb") as fh:
            fh.write(b"\x80corrupt")
        fresh = ArtifactStore.attach(tmp_store)
        fresh.get(KIND_SHARD, ("q",))
        assert fresh.corrupt_reads == {"ValueError": 1}
        assert fresh.quarantined == 1
        stats = fresh.stats()
        assert stats["corrupt_reads"] == {"ValueError": 1}
        assert stats["quarantined"] == 1

    def test_empty_file_counts_eof(self, tmp_store):
        _, _, path = self._stored(tmp_store)
        with open(path, "wb"):
            pass
        fresh = ArtifactStore.attach(tmp_store)
        fresh.get(KIND_SHARD, ("q",))
        assert fresh.corrupt_reads == {"EOFError": 1}

    def test_envelope_mismatch_is_quarantined_as_such(self, tmp_store):
        _, digest, path = self._stored(tmp_store)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["key"] = ("tampered",)
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(KIND_SHARD, ("q",), default="absent") == "absent"
        assert fresh.corrupt_reads == {"envelope_mismatch": 1}
        assert os.path.exists(fresh.quarantine_path(KIND_SHARD, digest))

    def test_rebuild_into_clean_slot_heals(self, tmp_store):
        """After quarantine the slot is empty, so the deterministic build
        repopulates it and subsequent reads are clean."""
        _, _, path = self._stored(tmp_store)
        with open(path, "wb") as fh:
            fh.write(b"junk")
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get_or_build(KIND_SHARD, ("q",),
                                  lambda: "rebuilt") == "rebuilt"
        healed = ArtifactStore.attach(tmp_store)
        assert healed.get(KIND_SHARD, ("q",)) == "rebuilt"
        assert healed.corrupt_reads == {}

    def test_missing_file_is_not_corruption(self, tmp_store):
        store = ArtifactStore.attach(tmp_store)
        assert store.get(KIND_SHARD, ("never",), default=None) is None
        assert store.corrupt_reads == {} and store.quarantined == 0

    def test_reset_counters_clears_corruption_accounting(self, tmp_store):
        _, _, path = self._stored(tmp_store)
        with open(path, "wb") as fh:
            fh.write(b"junk")
        fresh = ArtifactStore.attach(tmp_store)
        fresh.get(KIND_SHARD, ("q",))
        assert fresh.corrupt_reads
        fresh.reset_counters()
        assert fresh.corrupt_reads == {} and fresh.quarantined == 0
