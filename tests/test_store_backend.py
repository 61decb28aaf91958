"""Store backends: local durability, the remote tier, and differentials.

The contracts this file pins down:

* :class:`LocalBackend` keeps the first writer's object and honours the
  ``REPRO_STORE_FSYNC`` durability gate — including under genuinely
  concurrent multi-process writers hammering the same keys;
* :class:`RemoteBackend` speaks the loopback ``scripts/store_server.py``
  protocol bit-faithfully: single and batched round trips, per-object
  checksum verification, the read-through cache tier, and the retry loop
  under seeded ``remote_fault`` chaos;
* a remote failure is **never** silently downgraded to a miss — a dead
  server raises :class:`RemoteStoreError` out of the store's read path and
  is counted per-cause in ``stats()["remote_errors"]``;
* the figure-8 sharded driver through a loopback remote store is
  bit-identical to the serial local reference, re-scores zero units on a
  warm rerun, and converges under injected network faults.
"""

import os
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.evaluation.executor import reset_worker_cache
from repro.evaluation.precision import measure_precision
from repro.faults import reset_injector
from repro.store import (KIND_SHARD, KIND_VARIANT, ArtifactStore, StoreError,
                         store_digest)
from repro.store.artifact_store import store_from_env, store_url_from_env
from repro.store.backend import (LocalBackend, RemoteBackend,
                                 RemoteStoreError, fsync_directory)
from repro.workloads.suites import spec2006_programs
from repro.obs.metrics import counted

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

from store_server import StoreServer  # noqa: E402

WORKLOADS = spec2006_programs()[:1]
LABELS = ("fission",)


@pytest.fixture
def server(tmp_path):
    """A loopback store server over a fresh tree."""
    root = str(tmp_path / "served")
    with StoreServer(root) as srv:
        yield srv


@pytest.fixture
def remote(server, monkeypatch):
    """A fast-failing client for the loopback server (tiny backoff)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_injector()
    yield RemoteBackend(server.url, backoff=0.001)
    reset_injector()


class TestLocalBackend:
    def test_first_writer_kept(self, tmp_path):
        backend = LocalBackend(str(tmp_path))
        assert backend.put("variant", "ab" * 32, b"first") is True
        assert backend.put("variant", "ab" * 32, b"second") is False
        assert backend.get("variant", "ab" * 32) == b"first"

    def test_overwrite_flag_wins(self, tmp_path):
        backend = LocalBackend(str(tmp_path))
        backend.put("variant", "cd" * 32, b"first")
        assert backend.put("variant", "cd" * 32, b"second",
                           overwrite=True) is True
        assert backend.get("variant", "cd" * 32) == b"second"

    def test_durability_gate(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_FSYNC", raising=False)
        assert LocalBackend(str(tmp_path)).durable() is True
        monkeypatch.setenv("REPRO_STORE_FSYNC", "off")
        assert LocalBackend(str(tmp_path)).durable() is False
        # an explicit constructor pin beats the environment
        assert LocalBackend(str(tmp_path), durable=True).durable() is True

    def test_delete_and_list(self, tmp_path):
        backend = LocalBackend(str(tmp_path))
        backend.put("variant", "ef" * 32, b"x")
        assert ("variant", "ef" * 32) in backend.list_refs()
        assert backend.delete("variant", "ef" * 32) is True
        assert backend.delete("variant", "ef" * 32) is False
        assert backend.get("variant", "ef" * 32) is None

    def test_fsync_directory_tolerates_missing(self, tmp_path):
        fsync_directory(str(tmp_path / "nope"))  # must not raise


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


class TestRemoteBackend:
    def test_round_trip(self, remote):
        digest = "ab" * 32
        assert remote.get("variant", digest) is None
        assert remote.contains("variant", digest) is False
        assert remote.put("variant", digest, b"payload") is True
        assert remote.put("variant", digest, b"other") is False  # kept
        assert remote.get("variant", digest) == b"payload"
        assert remote.contains("variant", digest) is True
        assert ("variant", digest) in remote.list_refs()
        assert remote.delete("variant", digest) is True
        assert remote.get("variant", digest) is None

    def test_manifest_carries_schema(self, remote):
        manifest = remote.manifest()
        assert isinstance(manifest["store_schema"], int)
        assert isinstance(manifest["key_schema"], int)

    def test_batched_round_trip(self, remote):
        items = [("variant", f"{i:02x}" * 32, f"obj-{i}".encode())
                 for i in range(10)]
        assert remote.put_many(items) == 10
        assert remote.put_many(items) == 0  # all kept
        refs = [(kind, digest) for kind, digest, _ in items]
        found = remote.get_many(refs)
        assert found == {(kind, digest): data
                         for kind, digest, data in items}
        presence = remote.contains_many(refs + [("variant", "ff" * 32)])
        assert all(presence[ref] for ref in refs)
        assert presence[("variant", "ff" * 32)] is False

    def test_invalid_url_rejected(self):
        with pytest.raises(ValueError, match="http"):
            RemoteBackend("ftp://nope")

    def test_dead_server_raises_not_misses(self, tmp_path):
        backend = RemoteBackend("http://127.0.0.1:9", retries=1,
                                backoff=0.001, timeout=0.5)
        with pytest.raises(RemoteStoreError):
            backend.get("variant", "ab" * 32)
        with pytest.raises(RemoteStoreError):
            backend.get_many([("variant", "ab" * 32)])

    def test_remote_store_error_is_oserror(self):
        # worker attach degradation catches OSError; the read path
        # re-raises RemoteStoreError explicitly before corrupt handling
        assert issubclass(RemoteStoreError, ConnectionError)
        assert issubclass(RemoteStoreError, OSError)

    def test_checksum_rejects_torn_transport(self, remote):
        from repro.store.backend import _ChecksumMismatch
        digest = "ab" * 32
        good = b"clean bytes"
        checksum = __import__("hashlib").sha256(good).hexdigest()
        # client side: a response whose bytes do not match the advertised
        # checksum is a retryable transport failure, never a served object
        with pytest.raises(_ChecksumMismatch):
            RemoteBackend._verify(b"torn byte", checksum, "variant/ab")
        RemoteBackend._verify(good, checksum, "variant/ab")  # no raise

    def test_checksum_rejects_torn_upload(self, remote):
        # server side: a PUT whose body contradicts its checksum header is
        # refused outright (400 → immediate RemoteStoreError, no retries)
        digest = "ab" * 32
        backend = remote

        def bad_put():
            import hashlib as h
            from repro.store.backend import CHECKSUM_HEADER
            headers = {CHECKSUM_HEADER: h.sha256(b"promised").hexdigest(),
                       "Content-Type": "application/octet-stream"}
            return backend._request("PUT", f"/objects/variant/{digest}",
                                    body=b"delivered", headers=headers)

        with pytest.raises(RemoteStoreError) as excinfo:
            bad_put()
        assert excinfo.value.cause == "http_400"
        assert backend.contains("variant", digest) is False

    def test_cache_tier_survives_server_loss(self, tmp_path):
        root = str(tmp_path / "served")
        cache_dir = str(tmp_path / "cache")
        digest = "ab" * 32
        with StoreServer(root) as srv:
            backend = RemoteBackend(srv.url, cache_dir=cache_dir,
                                    backoff=0.001)
            backend.put("variant", digest, b"cached payload")
            assert backend.get("variant", digest) == b"cached payload"
        # server gone: the read-through cache still serves the object
        offline = RemoteBackend(srv.url, cache_dir=cache_dir, retries=0,
                                backoff=0.001, timeout=0.5)
        assert offline.get("variant", digest) == b"cached payload"
        assert offline.contains("variant", digest) is True

    def test_run_journal_round_trip(self, remote):
        assert remote.fetch_run_journal("runabc") == ""
        remote.append_run_journal("runabc", '{"digest": "d1"}\n')
        remote.append_run_journal("runabc", '{"digest": "d2"}\n')
        text = remote.fetch_run_journal("runabc")
        assert text == '{"digest": "d1"}\n{"digest": "d2"}\n'


class TestRemoteFaultInjection:
    def test_seeded_faults_retry_to_convergence(self, server, monkeypatch):
        """With remote_fault chaos active every operation still converges:
        attempts re-roll, so the retry budget absorbs injected resets."""
        monkeypatch.setenv("REPRO_FAULTS", "remote_fault:p=0.15,seed=7")
        reset_injector()
        backend = RemoteBackend(server.url, backoff=0.001)
        for i in range(12):
            digest = f"{i:02x}" * 32
            assert backend.put("variant", digest, f"v{i}".encode()) is True
            assert backend.get("variant", digest) == f"v{i}".encode()
        from repro.faults import active_injector
        injector = active_injector()
        assert injector is not None and injector.fired["remote_fault"] > 0
        reset_injector()

    def test_fault_exhaustion_raises_with_cause(self, server, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "remote_fault:p=1.0,seed=1")
        reset_injector()
        backend = RemoteBackend(server.url, retries=2, backoff=0.001)
        with pytest.raises(RemoteStoreError) as excinfo:
            backend.get("variant", "ab" * 32)
        assert excinfo.value.cause == "ConnectionResetError"
        reset_injector()


class TestRemoteArtifactStore:
    def test_connect_and_round_trip(self, server):
        store = ArtifactStore.connect(server.url, max_memory_entries=4)
        assert store.persistent and store.root is None
        store.put(KIND_VARIANT, ("remote", 1), {"value": 1})
        # a second attachment sees it (no shared memory layer)
        other = ArtifactStore.connect(server.url, max_memory_entries=4)
        assert other.get(KIND_VARIANT, ("remote", 1)) == {"value": 1}
        stats = other.stats()
        assert stats["backend"].startswith("remote:")
        assert stats["remote_errors"] == {}

    def test_schema_mismatch_rejected(self, server):
        class _StaleServer(RemoteBackend):
            def manifest(self):
                return {"store_schema": 1, "key_schema": 1}

        with pytest.raises(StoreError, match="schema"):
            ArtifactStore(backend=_StaleServer(server.url, backoff=0.001),
                          max_memory_entries=4)
        # the real server's stamp attaches fine
        ArtifactStore.connect(server.url, max_memory_entries=4)

    def test_dead_server_read_raises_not_miss(self, server):
        store = ArtifactStore.connect(server.url, max_memory_entries=4)
        store.put(KIND_VARIANT, ("gone", 1), {"value": 1})
        store.clear_memory()
        server.stop()
        store.backend.retries = 0
        store.backend.timeout = 0.5
        with pytest.raises(RemoteStoreError):
            store.get(KIND_VARIANT, ("gone", 1), None)
        assert sum(store.remote_errors.values()) > 0

    def test_quarantine_heals_over_the_wire(self, server):
        store = ArtifactStore.connect(server.url, max_memory_entries=4)
        store.put(KIND_SHARD, ("heal", 1), {"value": 1})
        store.clear_memory()
        digest = store_digest(KIND_SHARD, ("heal", 1))
        path = server.state.backend.object_path(KIND_SHARD, digest)
        # valid pickle, wrong envelope: passes the transport checksum,
        # fails semantic validation client-side
        with open(path, "wb") as fh:
            pickle.dump({"not": "an envelope"}, fh)
        assert store.get(KIND_SHARD, ("heal", 1), "missing") == "missing"
        # the server moved the corpse aside; a rebuild publishes cleanly
        assert os.path.isfile(
            server.state.backend.quarantine_path(KIND_SHARD, digest))
        store.put(KIND_SHARD, ("heal", 1), {"value": 2})
        store.clear_memory()
        assert store.get(KIND_SHARD, ("heal", 1)) == {"value": 2}

    def test_prefetch_coalesces(self, server):
        store = ArtifactStore.connect(server.url, max_memory_entries=64)
        keys = [("pre", i) for i in range(20)]
        for key in keys:
            store.put(KIND_VARIANT, key, {"k": key})
        store.clear_memory()
        store.reset_counters()
        assert store.prefetch(KIND_VARIANT, keys) == 20
        batches = store.metrics.get("store.remote.batch_requests", 0)
        assert 0 < batches < 20  # coalesced, not one request per object
        for key in keys:
            assert store.get(KIND_VARIANT, key) == {"k": key}
        assert store.stats()["memory_hits"] >= 20

    def test_threaded_writers_first_writer_kept(self, server):
        def hammer(writer_id):
            backend = RemoteBackend(server.url, backoff=0.001)
            return [backend.put("variant", f"{i:02x}" * 32,
                                f"w{writer_id}".encode())
                    for i in range(8)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(hammer, range(4)))
        # exactly one winner per key across all racing writers
        for i in range(8):
            wins = sum(outcome[i] for outcome in outcomes)
            assert wins == 1


class TestStoreFromEnv:
    def test_url_wins_over_dir(self, server, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_URL", server.url)
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "unused"))
        assert store_url_from_env() == server.url
        store = store_from_env(max_memory_entries=4)
        assert store is not None and store.url == server.url

    def test_no_env_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_URL", raising=False)
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.delenv("REPRO_VARIANT_CACHE_DIR", raising=False)
        assert store_from_env(max_memory_entries=4) is None

    def test_cache_dir_env_wires_the_tier(self, server, tmp_path,
                                          monkeypatch):
        cache_dir = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_STORE_URL", server.url)
        monkeypatch.setenv("REPRO_STORE_CACHE_DIR", cache_dir)
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        store = store_from_env(max_memory_entries=4)
        assert store.backend.cache is not None
        assert store.backend.cache.root == os.path.abspath(cache_dir)


class TestRemoteDifferential:
    """Figure 8 through a loopback remote store, against the serial local
    reference — the ISSUE's bit-identity + zero-rescore acceptance."""

    def _remote_env(self, monkeypatch, url):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.delenv("REPRO_VARIANT_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_STORE_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_STORE_URL", url)
        monkeypatch.setenv("REPRO_REMOTE_BACKOFF", "0.001")
        reset_worker_cache()

    def test_fig8_remote_matches_serial_and_warm_rerun_is_free(
            self, server, monkeypatch):
        serial = measure_precision(WORKLOADS, labels=LABELS)

        self._remote_env(monkeypatch, server.url)
        try:
            with counted("checkpoint") as cold_stats:
                cold = measure_precision(WORKLOADS, labels=LABELS, jobs=2)
            assert cold.rows == serial.rows
            assert cold_stats["executed"] == cold_stats["planned"] > 0

            reset_worker_cache()
            with counted("checkpoint") as warm_stats:
                warm = measure_precision(WORKLOADS, labels=LABELS, jobs=2)
            assert warm.rows == serial.rows
            assert warm_stats["executed"] == 0
            assert warm_stats["resumed"] == warm_stats["planned"]
        finally:
            reset_worker_cache()

    def test_fig8_remote_converges_under_network_faults(self, server,
                                                        monkeypatch):
        serial = measure_precision(WORKLOADS, labels=LABELS)
        self._remote_env(monkeypatch, server.url)
        monkeypatch.setenv("REPRO_FAULTS", "remote_fault:p=0.05,seed=11")
        reset_injector()
        try:
            chaotic = measure_precision(WORKLOADS, labels=LABELS, jobs=2)
            assert chaotic.rows == serial.rows
        finally:
            reset_injector()
            reset_worker_cache()
