"""The shared artifact store: keys, layers, concurrency, warm attach.

Covers the tentpole guarantees of the ``repro.store`` subsystem:

* content addressing is stable and value-based (a digest survives process
  and disk round trips);
* the in-process LRU layer and the on-disk object tree compose (memory →
  disk → build), and a *warm* attach rebuilds zero variants;
* concurrent processes writing/reading the same artifact key cannot corrupt
  the tree (atomic rename; first-writer-kept at the API level, last-writer
  intact when both race through ``os.replace``);
* every object lives under its generation, the fingerprint of the code
  that wrote it, so a tree written by other code is never read;
* the retired ``features``/``diff`` payload helpers are no-ops;
* the report of every figure that takes a cache, built from an explicit
  warm variant tree, equals the cold run's;
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
from repro.store import (KIND_SHARD, KIND_VARIANT, OBJECTS_DIR,
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
        assert store_digest(KIND_VARIANT, key) == store_digest(
            KIND_VARIANT, variant_key(WORKLOADS[0], "baseline"))
        assert len(store_digest(KIND_VARIANT, key)) == 64

    def test_kind_namespaces_are_disjoint(self):
        key = ("k", 1)
        assert store_digest(KIND_VARIANT, key) != store_digest(KIND_SHARD, key)

    def test_different_keys_different_digests(self):
        a = variant_key(WORKLOADS[0], "baseline")
        b = variant_key(WORKLOADS[1], "baseline")
        assert store_digest(KIND_VARIANT, a) != store_digest(KIND_VARIANT, b)

    def test_canonical_key_rejects_identity_hashed_components(self):
        class Opaque:
            pass
        with pytest.raises(TypeError):
            canonical_key((1, Opaque()))

    def test_canonical_key_distinguishes_string_from_int(self):
        assert canonical_key(("1",)) != canonical_key((1,))

    def test_canonical_key_accepts_enum_members(self):
        """Pre-store cache keys could embed enums (hashable singletons);
        the façade must keep accepting them, stably across processes."""
        import enum

        class Color(enum.Enum):
            RED = 1
            BLUE = 2
        assert canonical_key((Color.RED,)) == canonical_key((Color.RED,))
        assert canonical_key((Color.RED,)) != canonical_key((Color.BLUE,))
        assert "Color.RED" in canonical_key((Color.RED,))


class TestMemoryLayer:
    def test_get_or_build_miss_then_hit(self):
        store = ArtifactStore()
        calls = []
        first = store.get_or_build(KIND_VARIANT, ("k",),
                                   lambda: calls.append(1) or "built")
        second = store.get_or_build(KIND_VARIANT, ("k",),
                                    lambda: calls.append(2) or "rebuilt")
        assert first == second == "built" and calls == [1]
        assert store.memory_hits == 1 and store.misses == 1
        assert store.hit_rate == 0.5

    def test_lru_bound_evicts_oldest(self):
        store = ArtifactStore(max_memory_entries=2)
        for name in ("a", "b", "c"):
            store.put(KIND_VARIANT, (name,), name)
        assert not store.contains(KIND_VARIANT, ("a",))
        assert store.contains(KIND_VARIANT, ("c",))
        assert store.entry_count(KIND_VARIANT) == 2

    def test_bound_spans_every_kind(self):
        store = ArtifactStore(max_memory_entries=2)
        for name in ("a", "b"):
            store.put(KIND_VARIANT, (name,), name)
        store.put(KIND_SHARD, ("x",), "x")
        assert store.keys(KIND_VARIANT) == [("b",)]
        assert store.keys(KIND_SHARD) == [("x",)]

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_memory_entries=0)

    def test_in_memory_store_has_no_object_paths(self):
        with pytest.raises(ValueError):
            ArtifactStore().object_path(KIND_VARIANT, "ab" * 32)

    def test_stats_name_the_backend(self, tmp_path):
        memory = ArtifactStore()
        assert not memory.persistent
        assert memory.stats()["backend"] == "memory"
        root = str(tmp_path / "store")
        rooted = ArtifactStore.attach(root)
        assert rooted.persistent
        stats = rooted.stats()
        assert stats["backend"] == f"local:{os.path.abspath(root)}"
        assert set(stats) == {
            "root", "backend", "memory_entries", "memory_hits", "disk_hits",
            "misses", "puts", "hit_rate", "corrupt_reads", "quarantined"}


class TestDiskLayer:
    def test_round_trip_across_instances(self, tmp_path):
        root = str(tmp_path / "store")
        writer = ArtifactStore.attach(root)
        digest = writer.put(KIND_VARIANT, ("k", 1), {"payload": [1, 2, 3]})
        reader = ArtifactStore.attach(root)
        assert reader.get(KIND_VARIANT, ("k", 1)) == {"payload": [1, 2, 3]}
        assert reader.disk_hits == 1
        assert os.path.exists(writer.object_path(KIND_VARIANT, digest))

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        root = str(tmp_path / "store")
        ArtifactStore.attach(root).put(KIND_VARIANT, ("k",), "v")
        reader = ArtifactStore.attach(root)
        reader.get(KIND_VARIANT, ("k",))
        reader.get(KIND_VARIANT, ("k",))
        assert reader.disk_hits == 1 and reader.memory_hits == 1

    def test_memory_eviction_leaves_disk_copy(self, tmp_path):
        root = str(tmp_path / "store")
        store = ArtifactStore.attach(root, max_memory_entries=1)
        store.put(KIND_VARIANT, ("a",), "a")
        store.put(KIND_VARIANT, ("b",), "b")   # evicts ("a",) from memory
        assert store.get(KIND_VARIANT, ("a",)) == "a"  # served from disk
        assert store.disk_hits == 1

    def test_lowered_binary_round_trips_bit_identically(self, tmp_path):
        """A stored variant's lowered Binary survives the pickle → disk →
        unpickle trip with its machine code exactly preserved (content
        digest over functions, blocks, instructions and CFG edges)."""
        from repro.toolchain import obfuscator_for
        root = str(tmp_path / "store")
        store = ArtifactStore.attach(root)
        artifact = build_variant(WORKLOADS[0], "fission")
        key = variant_key(WORKLOADS[0], obfuscator_for("fission"))
        store.put(KIND_VARIANT, key, artifact)

        restored = ArtifactStore.attach(root).get(KIND_VARIANT, key).binary
        assert restored is not artifact.binary
        assert restored.content_digest() == artifact.binary.content_digest()
        # and the digest is sensitive to actual code differences
        other = build_variant(WORKLOADS[0], "fufi.ori")
        assert other.binary.content_digest() != artifact.binary.content_digest()

    def test_built_variants_write_only_variant_objects(self, tmp_path):
        """A store-backed build persists the variant, which carries its
        binary, and no object of any other kind."""
        root = str(tmp_path / "store")
        cache = VariantCache(store=ArtifactStore.attach(root))
        build_variant(WORKLOADS[0], "fission", cache=cache)
        refs = LocalBackend(root, code_fingerprint()).list_refs()
        assert {kind for kind, _digest in refs} == {KIND_VARIANT}

    def test_first_writer_kept(self, tmp_path):
        root = str(tmp_path / "store")
        a = ArtifactStore.attach(root)
        b = ArtifactStore.attach(root)
        a.put(KIND_VARIANT, ("k",), "first")
        b.put(KIND_VARIANT, ("k",), "second")  # disk copy not replaced
        fresh = ArtifactStore.attach(root)
        assert fresh.get(KIND_VARIANT, ("k",)) == "first"

    def test_overwrite_replaces_atomically(self, tmp_path):
        root = str(tmp_path / "store")
        store = ArtifactStore.attach(root)
        store.put(KIND_VARIANT, ("k",), "v1")
        store.put(KIND_VARIANT, ("k",), "v2", overwrite=True)
        assert ArtifactStore.attach(root).get(KIND_VARIANT, ("k",)) == "v2"

    def test_two_writers_keep_every_object(self, tmp_path):
        root = str(tmp_path / "store")
        a = ArtifactStore.attach(root)
        b = ArtifactStore.attach(root)
        for index in range(10):
            a.put(KIND_VARIANT, ("a", index), index)
            b.put(KIND_VARIANT, ("b", index), index)
        assert ArtifactStore.attach(root).entry_count(KIND_VARIANT) == 20


#: Every kind a tree holds — damage to either must degrade to a cache miss
#: (builds are deterministic), never to an exception.
ALL_KINDS = (KIND_VARIANT, KIND_SHARD)


class _Renamed:
    """A payload class whose pickled name is then changed to a missing one."""


class TestCorruptObjectDegradation:
    """Damaged on-disk objects are misses, never crashes, for every kind."""

    @staticmethod
    def _stored(root, kind):
        store = ArtifactStore.attach(root)
        digest = store.put(kind, ("k", kind), "good")
        return store.object_path(kind, digest)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_truncated_pickle_is_a_miss(self, kind, tmp_store):
        path = self._stored(tmp_store, kind)
        with open(path, "wb") as fh:
            fh.write(b"\x80corrupt")
        fresh = ArtifactStore.attach(tmp_store)
        rebuilt = fresh.get_or_build(kind, ("k", kind), lambda: "rebuilt")
        assert rebuilt == "rebuilt" and fresh.misses == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_object_file_is_a_miss(self, kind, tmp_store):
        path = self._stored(tmp_store, kind)
        with open(path, "wb"):
            pass
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(kind, ("k", kind), default="absent") == "absent"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_wrong_kind_envelope_is_a_miss(self, kind, tmp_store):
        path = self._stored(tmp_store, kind)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["kind"] = "other"
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(kind, ("k", kind), default="absent") == "absent"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_payload_of_a_missing_class_is_a_quarantined_miss(self, kind,
                                                             tmp_store):
        """A generation holds only what this code wrote, so a pickle naming
        a class the code does not define is damage."""
        path = self._stored(tmp_store, kind)
        data = pickle.dumps({"kind": kind, "key": ("k", kind),
                             "payload": _Renamed()})
        with open(path, "wb") as fh:
            fh.write(data.replace(b"_Renamed", b"_Missing"))
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(kind, ("k", kind), default="absent") == "absent"
        assert fresh.corrupt_reads == {"AttributeError": 1}
        assert fresh.quarantined == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_wrong_key_envelope_is_a_miss(self, kind, tmp_store):
        """A digest collision (or a tampered file) must never serve the
        wrong artifact: the envelope stores the full key and is checked."""
        path = self._stored(tmp_store, kind)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["key"] = ("other",)
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(kind, ("k", kind), default="absent") == "absent"


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
        digest = store.put(KIND_VARIANT, ("a",), 1)
        assert store.object_path(KIND_VARIANT, digest) == os.path.join(
            os.path.abspath(root), OBJECTS_DIR, code_fingerprint(),
            KIND_VARIANT, digest[:2], f"{digest}.pkl")

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
        path = old.object_path(KIND_VARIANT, old.put(KIND_VARIANT, ("k",), 1))
        with open(path, "rb") as fh:
            written = fh.read()
        monkeypatch.setattr(artifact_store, "code_fingerprint",
                            lambda: "f" * 16)
        new = ArtifactStore.attach(root)
        assert new.get_or_build(KIND_VARIANT, ("k",), lambda: 2) == 2
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
        store = store_from_env(max_memory_entries=4)
        assert store.persistent and store.root == os.path.abspath(root)
        assert store.max_memory_entries == 4
        assert is_store_tree(root)

    def test_unset_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert store_dir_from_env() is None

    def test_no_env_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert store_from_env(max_memory_entries=4) is None

    def test_unusable_store_dir_raises_os_error(self, tmp_path,
                                                monkeypatch):
        occupied = tmp_path / "a-file"
        occupied.write_text("not a directory")
        monkeypatch.setenv("REPRO_STORE_DIR", str(occupied))
        with pytest.raises(OSError):
            store_from_env(max_memory_entries=4)


class TestVariantCacheFacade:
    def test_warm_attach_rebuilds_zero_variants(self, tmp_path,
                                                monkeypatch):
        """The acceptance criterion: a second attach builds nothing."""
        root = str(tmp_path / "variants")
        # the façade is under test: no stored unit may serve the replay
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        cold = VariantCache(store=ArtifactStore.attach(root))
        reference = measure_overhead(WORKLOADS, labels=LABELS, cache=cold)
        built = cold.misses
        assert built == len(WORKLOADS) * (len(LABELS) + 1)

        warm = VariantCache(store=ArtifactStore.attach(root))
        clear_variant_facts()           # or the replay never reaches the tree
        replay = measure_overhead(WORKLOADS, labels=LABELS, cache=warm)
        assert warm.misses == 0                      # zero rebuilds
        assert warm.hits == built
        assert warm.store.disk_hits == built         # all from the tree
        assert [(r.program, r.label, r.cycles) for r in replay.rows] == \
               [(r.program, r.label, r.cycles) for r in reference.rows]

    def test_facade_counts_disk_hits_as_hits(self, tmp_store):
        root = tmp_store
        VariantCache(store=ArtifactStore.attach(root)).get_or_build(
            ("k",), lambda: "v")
        warm = VariantCache(store=ArtifactStore.attach(root))
        assert warm.get_or_build(("k",), lambda: "rebuilt") == "v"
        assert warm.hits == 1 and warm.misses == 0

    def test_store_backed_len_and_contains_see_disk(self, tmp_store):
        root = tmp_store
        VariantCache(store=ArtifactStore.attach(root)).get_or_build(
            ("k",), lambda: "v")
        warm = VariantCache(store=ArtifactStore.attach(root))
        assert len(warm) == 1 and ("k",) in warm

    def test_clear_keeps_shared_disk_objects(self, tmp_store):
        root = tmp_store
        cache = VariantCache(store=ArtifactStore.attach(root))
        cache.get_or_build(("k",), lambda: "v")
        cache.clear()
        assert len(cache) == 1                       # disk object survives
        assert cache.get_or_build(("k",), lambda: "rebuilt") == "v"


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
        store.put(KIND_VARIANT, ("contended",), payload,
                  overwrite=bool(round_index % 2))
    results.put(("wrote", payload))


def _reader_process(root, barrier, results):
    store = ArtifactStore.attach(root)
    barrier.wait(timeout=30)
    seen = set()
    for _ in range(50):
        value = store.get(KIND_VARIANT, ("contended",))
        if value is not None:
            seen.add(value)
        store.clear_memory()  # force the next read through the disk layer
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
        final = ArtifactStore.attach(root).get(KIND_VARIANT, ("contended",))
        assert final in ("payload-A", "payload-B")

    def test_concurrent_builds_share_one_tree(self, tmp_path):
        """Two worker processes building the same matrix must agree and must
        leave exactly one object per variant in the tree."""
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
        expected = len(WORKLOADS[:1]) * (len(LABELS) + 1)
        assert ArtifactStore.attach(root).entry_count(KIND_VARIANT) == expected


def _stress_writer(args):
    """One writer process: put every key, report the payloads read back."""
    root, writer_id, keys = args
    store = ArtifactStore.attach(root, max_memory_entries=2)
    seen = {}
    for i in keys:
        store.put(KIND_VARIANT, ("stress", i), {"writer": writer_id, "i": i})
        seen[i] = store.get(KIND_VARIANT, ("stress", i))
    return seen


class TestConcurrentWriters:
    def test_first_writer_kept_across_processes(self, tmp_path):
        """N processes race the same keys; every key ends with exactly one
        internally consistent object that all readers agree on."""
        root = str(tmp_path / "store")
        ArtifactStore.attach(root, max_memory_entries=2)  # stamp the tree
        keys = list(range(16))
        with ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(
                _stress_writer,
                [(root, writer, keys) for writer in range(4)]))
        store = ArtifactStore.attach(root, max_memory_entries=2)
        writer_ids = set(range(4))
        for i in keys:
            winner = store.get(KIND_VARIANT, ("stress", i))
            # the published object is exactly ONE racing writer's payload,
            # never torn or interleaved
            assert isinstance(winner, dict) and winner["i"] == i
            assert winner["writer"] in writer_ids
            digest = store_digest(KIND_VARIANT, ("stress", i))
            path = store.object_path(KIND_VARIANT, digest)
            assert os.path.isfile(path)
            # no torn leftovers from the race
            assert not [name for name in os.listdir(os.path.dirname(path))
                        if ".tmp." in name]
        # every writer observed internally consistent payloads throughout
        # (its own in-process memory layer or the disk winner — both are
        # complete objects; real payloads are deterministic per key)
        for seen in outcomes:
            for i, payload in seen.items():
                assert isinstance(payload, dict) and payload["i"] == i


class TestLocalBackend:
    def test_first_writer_kept(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        assert backend.put("variant", "ab" * 32, b"first") is True
        assert backend.put("variant", "ab" * 32, b"second") is False
        assert backend.get("variant", "ab" * 32) == b"first"

    def test_overwrite_flag_wins(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        backend.put("variant", "cd" * 32, b"first")
        assert backend.put("variant", "cd" * 32, b"second",
                           overwrite=True) is True
        assert backend.get("variant", "cd" * 32) == b"second"

    def test_put_fsyncs_the_payload_and_its_directory(self, tmp_path,
                                                      monkeypatch):
        synced = []
        monkeypatch.setattr(store_backend.os, "fsync",
                            lambda fd: synced.append(os.fstat(fd).st_ino))
        backend = LocalBackend(str(tmp_path), "g")
        assert backend.put("variant", "bc" * 32, b"payload") is True
        path = backend.object_path("variant", "bc" * 32)
        assert synced == [os.stat(path).st_ino,
                          os.stat(os.path.dirname(path)).st_ino]
        assert backend.put("variant", "bc" * 32, b"again") is False
        assert len(synced) == 2  # a kept object is not rewritten

    def test_delete_and_list(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        backend.put("variant", "ef" * 32, b"x")
        assert ("variant", "ef" * 32) in backend.list_refs()
        assert backend.delete("variant", "ef" * 32) is True
        assert backend.delete("variant", "ef" * 32) is False
        assert backend.get("variant", "ef" * 32) is None

    def test_fsync_directory_tolerates_missing(self, tmp_path):
        fsync_directory(str(tmp_path / "nope"))  # must not raise

    def test_contains_follows_put_and_delete(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        assert backend.contains("variant", "12" * 32) is False
        backend.put("variant", "12" * 32, b"x")
        assert backend.contains("variant", "12" * 32) is True
        backend.delete("variant", "12" * 32)
        assert backend.contains("variant", "12" * 32) is False

    def test_list_refs_of_one_kind(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        backend.put("variant", "34" * 32, b"v")
        backend.put("binary", "56" * 32, b"b")
        assert backend.list_refs("variant") == [("variant", "34" * 32)]
        assert backend.list_refs() == [("binary", "56" * 32),
                                       ("variant", "34" * 32)]
        assert backend.list_refs("features") == []

    def test_generations_are_disjoint(self, tmp_path):
        old = LocalBackend(str(tmp_path), "old")
        new = LocalBackend(str(tmp_path), "new")
        old.put("variant", "ab" * 32, b"old")
        assert new.get("variant", "ab" * 32) is None
        assert not new.contains("variant", "ab" * 32)
        assert new.list_refs() == []
        assert new.put("variant", "ab" * 32, b"new") is True
        assert old.get("variant", "ab" * 32) == b"old"
        assert old.object_path("variant", "ab" * 32) == os.path.join(
            str(tmp_path), OBJECTS_DIR, "old", "variant", "ab",
            "ab" * 32 + ".pkl")

    def test_quarantine_moves_the_object_with_its_reason(self, tmp_path):
        backend = LocalBackend(str(tmp_path), "g")
        backend.put("variant", "78" * 32, b"damaged")
        assert backend.quarantine("variant", "78" * 32,
                                  {"cause": "test"}) is True
        assert backend.get("variant", "78" * 32) is None
        moved = backend.quarantine_path("variant", "78" * 32)
        assert moved == os.path.join(str(tmp_path), QUARANTINE_DIR, "g",
                                     "variant", "78" * 32 + ".pkl")
        with open(moved, "rb") as fh:
            assert fh.read() == b"damaged"
        with open(moved[:-len(".pkl")] + ".reason.json") as fh:
            assert json.load(fh) == {"cause": "test"}
        # nothing left to move: reported, not raised
        assert backend.quarantine("variant", "78" * 32, {}) is False

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        backend = LocalBackend(str(tmp_path), "g")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_backend.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            backend.put("variant", "9a" * 32, b"payload")
        monkeypatch.undo()
        shard = os.path.dirname(backend.object_path("variant", "9a" * 32))
        assert os.listdir(shard) == []
        assert backend.get("variant", "9a" * 32) is None


#: One small run of each driver that takes a cache (figures 6, 7, 8 and
#: 10), at jobs=1 through the given ``VariantCache``.
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
    def test_warm_store_report_equals_cold(self, figure, tmp_path,
                                           monkeypatch):
        """A report built from an explicit warm variant tree is the cold
        run's report, and builds nothing.

        No ``REPRO_STORE_DIR``: no stored unit serves the warm run, so it
        really reads its variants from the tree.
        """
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        root = str(tmp_path / "variants")
        run = FIGURE_RUNS[figure]
        with counted("store") as cold_counts:
            cold = run(VariantCache(store=ArtifactStore.attach(root)))
        assert cold_counts["puts"] == cold_counts["misses"] > 0
        clear_variant_facts()  # figs 6/7 would answer from the memo
        with counted("store") as warm_counts:
            warm = run(VariantCache(store=ArtifactStore.attach(root)))
        assert warm == cold
        assert warm_counts["misses"] == 0 and warm_counts["puts"] == 0
        assert warm_counts["disk_hits"] == cold_counts["puts"]


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
        store.put(KIND_VARIANT, ("k",), 1)
        store.clear_memory()
        assert store.prefetch(KIND_VARIANT, [("k",)]) == 0
        assert store.keys(KIND_VARIANT) == []
        assert store.get(KIND_VARIANT, ("k",)) == 1


def _build_matrix_process(root, results):
    store = ArtifactStore.attach(root)
    cache = VariantCache(store=store)
    report = measure_overhead(WORKLOADS[:1], labels=LABELS, cache=cache)
    results.put([(r.program, r.label, r.baseline_cycles, r.cycles)
                 for r in report.rows])


# -- self-healing: quarantine + per-kind corruption accounting -------------------------


class TestQuarantine:
    """Corrupt objects are moved aside with a reason record and counted,
    never silently swallowed (satellite: the read path's blanket ``except``
    is gone — each failure kind advances its own counter)."""

    @staticmethod
    def _stored(root, kind=KIND_VARIANT, key=("q",)):
        store = ArtifactStore.attach(root)
        digest = store.put(kind, key, "good")
        return store, digest, store.object_path(kind, digest)

    def test_truncated_object_is_quarantined_with_reason(self, tmp_store):
        _, digest, path = self._stored(tmp_store)
        with open(path, "wb") as fh:
            fh.write(b"\x80corrupt")
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(KIND_VARIANT, ("q",), default="absent") == "absent"
        # the damaged file moved into
        # quarantine/<generation>/<kind>/<digest>.pkl ...
        assert not os.path.exists(path)
        moved = fresh.quarantine_path(KIND_VARIANT, digest)
        assert os.path.exists(moved)
        assert moved == os.path.join(tmp_store, QUARANTINE_DIR,
                                     code_fingerprint(), KIND_VARIANT,
                                     f"{digest}.pkl")
        # ... with a machine-readable reason record alongside
        with open(os.path.join(os.path.dirname(moved),
                               f"{digest}.reason.json")) as fh:
            record = json.load(fh)
        assert record["kind"] == KIND_VARIANT
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
        fresh.get(KIND_VARIANT, ("q",))
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
        fresh.get(KIND_VARIANT, ("q",))
        assert fresh.corrupt_reads == {"EOFError": 1}

    def test_envelope_mismatch_is_quarantined_as_such(self, tmp_store):
        _, digest, path = self._stored(tmp_store)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["key"] = ("tampered",)
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get(KIND_VARIANT, ("q",), default="absent") == "absent"
        assert fresh.corrupt_reads == {"envelope_mismatch": 1}
        assert os.path.exists(fresh.quarantine_path(KIND_VARIANT, digest))

    def test_rebuild_into_clean_slot_heals(self, tmp_store):
        """After quarantine the slot is empty, so the deterministic build
        repopulates it and subsequent reads are clean."""
        _, _, path = self._stored(tmp_store)
        with open(path, "wb") as fh:
            fh.write(b"junk")
        fresh = ArtifactStore.attach(tmp_store)
        assert fresh.get_or_build(KIND_VARIANT, ("q",),
                                  lambda: "rebuilt") == "rebuilt"
        healed = ArtifactStore.attach(tmp_store)
        assert healed.get(KIND_VARIANT, ("q",)) == "rebuilt"
        assert healed.corrupt_reads == {}

    def test_missing_file_is_not_corruption(self, tmp_store):
        store = ArtifactStore.attach(tmp_store)
        assert store.get(KIND_VARIANT, ("never",), default=None) is None
        assert store.corrupt_reads == {} and store.quarantined == 0

    def test_reset_counters_clears_corruption_accounting(self, tmp_store):
        _, _, path = self._stored(tmp_store)
        with open(path, "wb") as fh:
            fh.write(b"junk")
        fresh = ArtifactStore.attach(tmp_store)
        fresh.get(KIND_VARIANT, ("q",))
        assert fresh.corrupt_reads
        fresh.reset_counters()
        assert fresh.corrupt_reads == {} and fresh.quarantined == 0
