"""Telemetry subsystem: spans, metrics, cross-process collection, export.

Covers the four layers of :mod:`repro.obs` plus their integration with the
pipeline: span-tree well-formedness and attribute round-trips, the no-op
disabled mode (and its ≤2% overhead budget, checked analytically), the
façades the legacy counter surfaces became, deterministic cross-process
merging, and end-to-end runs — a traced fig8 matrix must stay bit-identical
to the untraced serial reference while producing a valid, well-attributed
Chrome trace, and a chaos run must surface its retries and injected faults
in the merged telemetry.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.faults import FaultRule
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.collect import (finalize_run, flush, merge_records, open_run,
                               read_shards, telemetry_dir)
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.metrics import Histogram, MetricsRegistry, merge_snapshots

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_REPORT = os.path.join(REPO_ROOT, "scripts", "trace_report.py")


@pytest.fixture
def traced_mode():
    """Tracing forced on for the test, buffer clean on both sides."""
    tracing.drain()
    tracing.set_enabled(True)
    yield
    tracing.drain()
    tracing.refresh()          # back to whatever the environment says


def run_trace_report(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run([sys.executable, TRACE_REPORT, *args],
                          capture_output=True, text=True, env=env)


# -- metrics registry -----------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.counter("a", 2)
        reg.gauge("g", 7.5)
        for value in (0.001, 0.002, 0.4):
            reg.observe("h", value)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 3
        assert snap["gauges"]["g"] == 7.5
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["min"] == 0.001
        assert snap["histograms"]["h"]["max"] == 0.4

    def test_histogram_quantiles(self):
        hist = Histogram()
        for _ in range(99):
            hist.observe(0.001)
        hist.observe(10.0)
        assert hist.quantile(0.5) == 0.001
        assert hist.quantile(0.99) == 0.001
        assert hist.quantile(1.0) == 10.0

    def test_child_propagates_up_but_resets_locally(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("x", 5)
        assert parent.get("x") == 5
        child.reset()
        assert child.get("x") == 0
        assert parent.get("x") == 5       # global totals survive

    def test_prefix_reset(self):
        reg = MetricsRegistry()
        reg.counter("store.hits", 3)
        reg.counter("vm.runs", 2)
        reg.reset("store")
        assert reg.get("store.hits") == 0
        assert reg.get("vm.runs") == 2

    def test_merge_snapshots(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("n", 2)
        b.counter("n", 3)
        a.observe("h", 0.001)
        b.observe("h", 5.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["n"] == 5
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["min"] == 0.001
        assert merged["histograms"]["h"]["max"] == 5.0

    def test_counted_reports_growth_inside_the_block_only(self):
        obs_metrics.counter("countedtest.before", 4)
        with obs_metrics.counted("countedtest") as grown:
            obs_metrics.counter("countedtest.before", 2)
            obs_metrics.counter("countedtest.fresh")
            obs_metrics.counter("countedtestx.other", 9)   # another prefix
        assert grown == {"before": 2, "fresh": 1}

    def test_counted_sees_instance_registry_increments(self, demo_program):
        from repro.vm.batch import VMBatch

        with obs_metrics.counted("vmbatch") as grown:
            VMBatch().run_many(demo_program, ((), ()))
        assert grown["executions"] == 2
        assert grown["interpreters"] == 1


# -- span tracing ---------------------------------------------------------------------


class TestTracing:
    def test_span_tree_wellformed(self, traced_mode):
        with tracing.span("outer", cat="measure", run=1):
            with tracing.span("inner", workload="w"):
                pass
            tracing.event("tick", n=3)
        records = tracing.drain()
        by_name = {r["name"]: r for r in records}
        inner, outer = by_name["inner"], by_name["outer"]
        tick = by_name["tick"]
        assert inner["parent"] == outer["id"]
        assert inner["cat"] == "measure"          # inherited from parent
        assert tick["cat"] == "measure"
        assert outer["parent"] is None
        assert outer["args"] == {"run": 1}
        assert inner["args"] == {"workload": "w"}
        # spans close child-first, and every record is JSON-serialisable
        assert records.index(inner) < records.index(outer)
        for record in records:
            assert json.loads(json.dumps(record)) == record
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1

    def test_error_attribute(self, traced_mode):
        with pytest.raises(ValueError):
            with tracing.span("boom"):
                raise ValueError("x")
        (record,) = tracing.drain()
        assert record["args"]["error"] == "ValueError"

    def test_traced_decorator(self, traced_mode):
        @tracing.traced(cat="verify")
        def checked():
            return 42

        assert checked() == 42
        (record,) = tracing.drain()
        assert record["cat"] == "verify"
        assert "checked" in record["name"]

    def test_disabled_is_noop(self):
        tracing.set_enabled(False)
        try:
            assert tracing.span("x") is tracing.NOOP_SPAN
            assert tracing.span("y", cat="diff") is tracing.NOOP_SPAN
            with tracing.span("z", a=1) as sp:
                sp.set(b=2)
            tracing.event("nothing")
            assert tracing.pending() == 0
        finally:
            tracing.refresh()

    @pytest.mark.parametrize("value, enabled", [
        ("", False), ("0", False), ("off", False), ("false", False),
        ("no", False), ("FALSE", False), ("1", True), ("on", True),
        ("true", True), ("yes", True), (" On ", True)])
    def test_documented_values_switch_tracing(self, monkeypatch, value,
                                              enabled):
        monkeypatch.setenv("REPRO_TRACE", value)
        try:
            tracing.refresh()
            assert tracing.active() is enabled
        finally:
            monkeypatch.undo()
            tracing.refresh()

    @pytest.mark.parametrize("value", ["flase", "2", "enabled", "onn", "y",
                                       "-1"])
    def test_junk_value_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        with pytest.raises(ValueError, match="REPRO_TRACE"):
            tracing.refresh()

    def test_disabled_overhead_within_budget(self, demo_program):
        """Analytic ≤2% bound: instrumentation cost per VM run vs run time.

        A/B wall-clock comparisons of full runs are noise-bound in CI, so
        bound the overhead analytically: measure the *per-call* cost of a
        disabled ``span()`` and a registry counter op, multiply by a
        generous estimate of calls per VM execution, and require the total
        to stay under 2% of one measured execution.
        """
        from repro.vm.machine import run_program

        tracing.set_enabled(False)
        try:
            run_program(demo_program)             # warm caches
            run_seconds = min(
                self._timed(run_program, demo_program) for _ in range(5))

            n = 50000
            started = time.perf_counter()
            for _ in range(n):
                tracing.span("x", cat="measure", a=1)
            span_cost = (time.perf_counter() - started) / n
            reg = MetricsRegistry()
            started = time.perf_counter()
            for _ in range(n):
                reg.counter("vm.steps", 17)
            counter_cost = (time.perf_counter() - started) / n
        finally:
            tracing.refresh()

        # one VM execution performs ~8 instrumentation ops (the four
        # registry ops of machine._metrics_run plus the span checks around
        # measurement, build and store I/O); 10 leaves headroom
        per_run = 10 * (span_cost + counter_cost)
        assert per_run <= 0.02 * run_seconds, (
            f"instrumentation {per_run * 1e6:.1f}us/run vs "
            f"{run_seconds * 1e6:.1f}us run: over the 2% budget")

    @staticmethod
    def _timed(fn, *args):
        started = time.perf_counter()
        fn(*args)
        return time.perf_counter() - started


# -- collection and export ------------------------------------------------------------


class TestCollect:
    def test_merge_records_is_deterministic(self):
        records = [
            {"ts": 5, "pid": 2, "seq": 1, "name": "b"},
            {"ts": 5, "pid": 1, "seq": 9, "name": "a"},
            {"ts": 1, "pid": 3, "seq": 2, "name": "c"},
            {"ts": 5, "pid": 1, "seq": 2, "name": "d"},
        ]
        merged = merge_records(list(records))
        assert [r["name"] for r in merged] == ["c", "d", "a", "b"]
        assert merge_records(list(reversed(records))) == merged

    def test_flush_and_finalize(self, tmp_path, traced_mode):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        obs_metrics.counter("test.flushed", 3)
        with tracing.span("work", cat="build"):
            tracing.event("marker", cause="test")
        path = flush(run_dir)
        assert path is not None and path.endswith("%d.jsonl" % os.getpid())
        outputs = finalize_run(run_dir)
        with open(outputs["trace"], encoding="utf-8") as fh:
            trace = json.load(fh)
        assert validate_chrome_trace(trace) == []
        names = {ev["name"] for ev in trace["traceEvents"]}
        assert {"work", "marker"} <= names
        with open(outputs["metrics"], encoding="utf-8") as fh:
            metrics = json.load(fh)
        assert metrics["merged"]["counters"]["test.flushed"] >= 3

    def test_open_run_disabled_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        with open_run(str(tmp_path), "runid") as run:
            assert run.directory is None
        assert not os.path.exists(str(tmp_path / "telemetry"))

    def test_open_run_nested_defers_to_outer(self, tmp_path, monkeypatch,
                                             traced_mode):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with open_run(str(tmp_path), "outer") as outer_run:
            outer_dir = outer_run.directory
            assert telemetry_dir() == outer_dir
            with open_run(str(tmp_path), "inner") as inner_run:
                assert inner_run.directory == outer_dir
            # inner exit must not tear down the outer run
            assert telemetry_dir() == outer_dir
        assert telemetry_dir() is None
        assert os.path.exists(os.path.join(outer_dir, "trace.json"))

    def test_chrome_trace_shapes(self):
        records = [
            {"type": "span", "name": "s", "cat": "build", "ts": 10,
             "dur": 5, "pid": 1, "tid": 2, "seq": 1, "args": {"k": "v"}},
            {"type": "event", "name": "e", "cat": "task", "ts": 12,
             "pid": 1, "tid": 2, "seq": 2, "args": {}},
        ]
        payload = chrome_trace(records)
        assert validate_chrome_trace(payload) == []
        phases = {ev["ph"] for ev in payload["traceEvents"]}
        assert phases == {"X", "i", "M"}


# -- façades over the registry --------------------------------------------------------


class TestFacades:
    def test_store_counters_and_quarantine_event(self, tmp_path, traced_mode,
                                                 monkeypatch):
        from repro.store.artifact_store import ArtifactStore

        store = ArtifactStore.attach(str(tmp_path / "store"))
        store.put("variant", ("k",), {"payload": 1})
        assert store.puts == 1
        store.get("variant", ("k",))
        assert store.memory_hits == 1
        fresh = ArtifactStore.attach(str(tmp_path / "store"))
        fresh.get("variant", ("k",))
        assert fresh.disk_hits == 1
        fresh.get_or_build("variant", ("missing",), lambda: {"built": 1})
        assert fresh.misses == 1
        fresh.reset_counters()
        assert fresh.disk_hits == 0
        # corruption must surface as both a counter and a trace event
        tracing.drain()
        damaged = ArtifactStore.attach(str(tmp_path / "store"))
        from repro.store.artifact_store import store_digest
        digest = store_digest("variant", ("k",))
        path = damaged.object_path("variant", digest)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        assert damaged.get("variant", ("k",), "gone") == "gone"
        assert damaged.quarantined == 1
        assert sum(damaged.corrupt_reads.values()) == 1
        events = [r for r in tracing.drain() if r.get("type") == "event"]
        assert any(e["name"] == "store.quarantine" for e in events)

    def test_vmbatch_counters(self, demo_program):
        from repro.vm.batch import VMBatch

        batch = VMBatch()
        batch.run(demo_program)
        batch.run_many(demo_program, ((), ()))
        assert batch.executions == 3
        assert batch.interpreters == 2

    def test_worker_cache_events(self, tmp_path, monkeypatch):
        from repro.evaluation.executor import (reset_worker_cache,
                                               worker_cache,
                                               worker_cache_events)

        # a tree stamped by an incompatible pipeline cannot be attached
        stale = str(tmp_path / "stale")
        os.makedirs(os.path.join(stale, "objects"))
        with open(os.path.join(stale, "generation.json"), "w") as fh:
            json.dump({"store_schema": 1, "key_schema": 1,
                       "generation": 1}, fh)
        monkeypatch.setenv("REPRO_STORE_DIR", stale)
        reset_worker_cache()
        try:
            worker_cache()
            assert worker_cache_events()["store_attach_failures"] == 1
            # the façade reads the process-wide registry
            assert obs_metrics.REGISTRY.get(
                "executor.cache.store_attach_failures") == 1
        finally:
            reset_worker_cache()


# -- end-to-end: traced runs stay bit-identical ---------------------------------------


def _find_seed(kind, probability, tokens, retries):
    """A seed where ≥1 token fires at attempt 0 yet every token succeeds.

    ``FaultRule.fires`` is a pure hash of (kind, seed, token, attempt), so
    the search is exact: the chosen seed guarantees the retry machinery is
    exercised and the run still completes within the retry budget.
    """
    best = None
    for seed in range(500):
        rule = FaultRule(kind=kind, probability=probability, seed=seed)
        if not any(rule.fires(token, 0) for token in tokens):
            continue
        if not all(any(not rule.fires(token, attempt)
                       for attempt in range(retries + 1))
                   for token in tokens):
            continue
        total = sum(rule.fires(token, attempt) for token in tokens
                    for attempt in range(retries + 1))
        if best is None or total < best[0]:
            best = (total, seed)       # fewest firings = fastest test
    if best is None:
        raise AssertionError("no suitable fault seed in range")
    return best[1]


class TestEndToEnd:
    def test_traced_fig8_bit_identical_and_covered(self, tmp_store,
                                                   monkeypatch):
        from repro.diffing import all_differs
        from repro.evaluation import measure_precision
        from repro.workloads.suites import spec2006_programs
        from tests import oracles

        workloads = spec2006_programs()[:1]
        labels = ("fission",)
        differs = all_differs()[:1]

        def rows(report):
            return [(r.program, r.suite, r.tool, r.label, r.precision,
                     r.similarity_score) for r in report.rows]

        reference = rows(oracles.precision(workloads, labels, differs))

        monkeypatch.setenv("REPRO_TRACE", "1")
        tracing.refresh()
        try:
            traced = rows(measure_precision(
                workloads, labels, differs, jobs=2))
        finally:
            monkeypatch.delenv("REPRO_TRACE")
            tracing.refresh()
            tracing.drain()

        assert traced == reference

        telemetry = os.path.join(tmp_store, "telemetry")
        (run_name,) = os.listdir(telemetry)
        run_dir = os.path.join(telemetry, run_name)
        with open(os.path.join(run_dir, "trace.json"),
                  encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) == []

        # two merges of the same shard files agree exactly
        records, _ = read_shards(run_dir)
        assert merge_records(list(records)) == \
            merge_records(list(reversed(records)))

        result = run_trace_report("--json", run_dir)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["coverage"] >= 0.95
        assert report["counters"].get("executor.tasks_completed", 0) >= 1
        phases = report["phases"]
        assert phases["diff"] > 0 or phases["build"] > 0
        validated = run_trace_report("--validate", run_dir)
        assert validated.returncode == 0, validated.stderr

    def test_chaos_run_events_reach_merged_trace(self, tmp_store,
                                                 monkeypatch):
        from repro.evaluation.executor import reset_worker_cache, run_tasks
        from repro.faults import reset_injector

        tokens = [f"task:{i}" for i in range(6)]
        seed = _find_seed("task_error", 0.4, tokens, retries=5)
        monkeypatch.setenv("REPRO_FAULTS",
                           f"task_error:p=0.4,seed={seed}")
        monkeypatch.setenv("REPRO_TRACE", "1")
        tracing.refresh()
        reset_injector()
        reset_worker_cache()
        try:
            with open_run(tmp_store, "chaosrun"):
                results = run_tasks(_double, list(range(6)), jobs=2,
                                    retries=5)
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            monkeypatch.delenv("REPRO_TRACE")
            tracing.refresh()
            tracing.drain()
            reset_injector()
            reset_worker_cache()

        assert results == [i * 2 for i in range(6)]
        run_dir = os.path.join(tmp_store, "telemetry", "chaosrun")
        records, snapshots = read_shards(run_dir)
        events = {r["name"] for r in records if r.get("type") == "event"}
        assert "executor.retry" in events
        with open(os.path.join(run_dir, "metrics.json"),
                  encoding="utf-8") as fh:
            counters = json.load(fh)["merged"]["counters"]
        assert counters.get("executor.retries", 0) >= 1
        assert counters.get("faults.injected.task_error", 0) >= 1

    def test_timeout_event_recorded(self, tmp_store, monkeypatch):
        from repro.evaluation.executor import reset_worker_cache, run_tasks
        from repro.faults import reset_injector

        seed = _find_seed("task_hang", 0.5, ["task:0", "task:1"],
                          retries=3)
        monkeypatch.setenv(
            "REPRO_FAULTS", f"task_hang:p=0.5,seed={seed},seconds=5")
        monkeypatch.setenv("REPRO_TRACE", "1")
        tracing.refresh()
        reset_injector()
        reset_worker_cache()
        try:
            with open_run(tmp_store, "hangrun"):
                results = run_tasks(_double, [0, 1], jobs=2, retries=3,
                                    timeout=0.5)
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            monkeypatch.delenv("REPRO_TRACE")
            tracing.refresh()
            tracing.drain()
            reset_injector()
            reset_worker_cache()

        assert results == [0, 2]
        records, _ = read_shards(
            os.path.join(tmp_store, "telemetry", "hangrun"))
        events = {r["name"] for r in records if r.get("type") == "event"}
        assert "executor.timeout" in events
        assert "executor.pool_respawn" in events

    def test_workers_flush_without_the_environment(self, tmp_store,
                                                   monkeypatch):
        """Each task's payload carries the run directory: the run adds no
        variable to any worker task's environment, yet every worker's spans
        land in the merged trace."""
        from repro.evaluation.executor import run_tasks

        monkeypatch.setenv("REPRO_TRACE", "1")
        tracing.refresh()
        before = _repro_env(None)[1]
        try:
            with open_run(tmp_store, "envfree"):
                seen = run_tasks(_repro_env, list(range(4)), jobs=2)
        finally:
            monkeypatch.delenv("REPRO_TRACE")
            tracing.refresh()
            tracing.drain()

        assert [keys for _pid, keys in seen] == [before] * 4
        workers = {pid for pid, _keys in seen}
        assert os.getpid() not in workers
        with open(os.path.join(tmp_store, "telemetry", "envfree",
                               "trace.json"), encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        task_pids = {ev["pid"] for ev in events if ev["name"] == "task"}
        assert workers <= task_pids


def _double(x: int) -> int:
    return x * 2


def _repro_env(_task):
    return os.getpid(), sorted(key for key in os.environ
                               if key.startswith("REPRO_"))
