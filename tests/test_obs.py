"""Telemetry: the counter registry and the always-on per-layer totals.

Covers :mod:`repro.obs`: counters and the façades over them, self-time
accounting of nested layer calls, the worker hand-back of the supervised
executor, and :func:`~repro.obs.measure` over real runs — its counts equal
the paper benchmark's outside tracer, every entry point that tracer wraps
charges the layer the tracer names, a quick figure 8 stays equal to the
oracle at ``jobs=1`` and ``jobs=2`` with at least 95% of its time in named
layers, the accounting stays inside its 2% budget, and forked workers hand
back their own counters only.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import time

import pytest

from repro import obs
from repro.backend import disassembler
from repro.backend.lowering import lower_program
from repro.baselines import ollvm
from repro.baselines.bintuner import BinTuner
from repro.core import obfuscator
from repro.core.config import KhaosConfig
from repro.diffing import all_differs
from repro.diffing.index import feature_index
from repro.evaluation.executor import ExecutorTaskError, run_tasks
from repro.obs import layers as obs_layers
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.opt.pass_manager import OptOptions
from repro.opt.pipelines import optimize_program
from repro.store.artifact_store import ArtifactStore, store_digest
from repro.toolchain import (ALL_LABELS, KHAOS_LABELS, build_baseline,
                             build_obfuscated, obfuscator_for)
from repro.vm.batch import VMBatch
from repro.vm.machine import Interpreter, run_program
from repro.workloads.suites import coreutils_programs
from tests.conftest import build_demo_program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- counters ---------------------------------------------------------------------------


class TestMetrics:
    def test_counters_add_up(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.counter("a", 2)
        assert reg.get("a") == 3
        assert reg.get("missing") == 0

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

    def test_counted_reports_growth_inside_the_block_only(self):
        obs_metrics.counter("countedtest.before", 4)
        with obs_metrics.counted("countedtest") as grown:
            obs_metrics.counter("countedtest.before", 2)
            obs_metrics.counter("countedtest.fresh")
            obs_metrics.counter("countedtestx.other", 9)   # another prefix
        assert grown == {"before": 2, "fresh": 1}

    def test_counted_sees_instance_registry_increments(self, demo_program):
        with obs_metrics.counted("vmbatch") as grown:
            VMBatch().run_many(demo_program, ((), ()))
        assert grown["executions"] == 2
        assert grown["interpreters"] == 1


# -- self-time accounting -------------------------------------------------------------


class TestLayers:
    def test_nested_self_time_with_a_fake_clock(self, monkeypatch):
        # outer starts at 0, inner runs from 1 to 4, outer ends at 6
        ticks = iter([0.0, 1.0, 4.0, 6.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        inner = obs.layer("test.inner")(lambda: None)
        outer = obs.layer("test.outer")(lambda: inner())
        monkeypatch.undo()
        with obs.measure() as run:
            outer()
        assert run.self_s == {"test.inner": 3.0, "test.outer": 3.0}
        assert run.calls == {"test.inner": 1, "test.outer": 1}

    def test_a_layer_named_by_its_arguments(self):
        @obs.layer(lambda args: f"test.{args[0]}")
        def work(kind):
            return kind

        with obs.measure() as run:
            work("a")
            work("b")
            work("a")
        assert run.calls == {"test.a": 2, "test.b": 1}

    def test_a_raising_call_is_charged(self):
        @obs.layer("test.raises")
        def fail():
            raise ValueError("boom")

        with obs.measure() as run:
            with pytest.raises(ValueError):
                fail()
        assert run.calls == {"test.raises": 1}
        assert run.self_s["test.raises"] >= 0
        assert obs_layers._stack == []

    def test_self_times_add_up_to_the_block(self):
        @obs.layer("test.leaf")
        def leaf():
            time.sleep(0.01)

        @obs.layer("test.root")
        def root():
            leaf()
            leaf()

        with obs.measure() as run:
            root()
        assert run.self_s["test.leaf"] >= 0.02
        assert sum(run.self_s.values()) <= run.wall_s
        assert run.coverage > 0.9

    def test_measure_reads_the_block_only(self):
        work = obs.layer("test.block")(lambda: None)
        work()
        obs.counter("test.block_counter", 7)
        with obs.measure() as run:
            work()
            obs.counter("test.block_counter")
        assert run.calls == {"test.block": 1}
        assert run.counters == {"test.block_counter": 1}

    def test_hand_back_returns_the_growth_since_the_last_one(self,
                                                             monkeypatch):
        monkeypatch.setattr(obs_layers, "_handed", {})
        obs_layers.hand_back()        # everything this process counted so far
        obs.counter("test.handed", 2)
        obs.layer("test.handed")(lambda: None)()
        delta = obs_layers.hand_back()
        delta.pop("self_s.test.handed", None)     # absent if it read 0.0
        assert delta == {"test.handed": 2, "calls.test.handed": 1}
        assert obs_layers.hand_back() == {}
        obs.counter("test.handed")
        assert obs_layers.hand_back() == {"test.handed": 1}

    @pytest.mark.parametrize("worker_s, coverage", [
        (3.0, 2.5 / (2.0 + 4.0)),    # workers idle for part of the wait
        (7.0, 6.5 / (2.0 + 7.0)),    # two workers busy for most of it
    ], ids=["under-the-wait", "over-the-wait"])
    def test_worker_time_stands_in_for_the_pool_wait(self, monkeypatch,
                                                     worker_s, coverage):
        """A 4 s wait inside a 6 s block counts as the larger of itself and
        the task time the workers hand back, of which their 0.5 s outside
        any layer stays unattributed."""
        ticks = iter([0.0, 1.0, 5.0, 6.0])    # block 0-6, wait 1-5
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        monkeypatch.setattr(obs_layers, "WORKERS", MetricsRegistry())
        wait = obs.layer(obs_layers.WAIT)(lambda: obs_layers.absorb({
            "self_s.test.worker": worker_s - 0.5, "calls.test.worker": 2,
            "self_s." + obs_layers.TASK: 0.5, "calls." + obs_layers.TASK: 2,
        }))
        with obs.measure() as run:
            wait()
        monkeypatch.undo()
        assert run.wall_s == 6.0
        assert run.self_s == {obs_layers.WAIT: 4.0, obs_layers.TASK: 0.5,
                              "test.worker": worker_s - 0.5}
        assert run.calls[obs_layers.TASK] == 2
        assert run.worker_s == worker_s
        assert run.coverage == pytest.approx(coverage)


# -- equal to the paper benchmark's outside tracer --------------------------------------


def _load_paperbench_layers():
    """``paperbench/layers.py``, loaded as the name-resolution test loads it."""
    path = os.path.join(REPO_ROOT, "paperbench", "layers.py")
    spec = importlib.util.spec_from_file_location("paperbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


#: paperbench's count -> the layer whose calls it counts.
COUNTED_LAYERS = {
    "workloads.builds": "workloads.build",
    "core.obfuscations": "core.obfuscate",
    "baselines.ollvm_runs": "baselines.ollvm",
    "baselines.tunes": "baselines.bintuner",
    "opt.optimizations": "opt.optimize",
    "backend.lowerings": "backend.lower",
}


def test_counts_equal_the_paper_benchmarks_tracer(monkeypatch):
    from repro.evaluation import (measure_bintuner, measure_overhead,
                                  measure_precision)
    from repro.workloads.suites import spec2006_programs

    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    workload = spec2006_programs()[:1]
    layers = _load_paperbench_layers()
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        with obs.measure() as run:
            measure_overhead(workload, KHAOS_LABELS, jobs=1)
            measure_precision(workload, ALL_LABELS, all_differs(), jobs=1)
            measure_bintuner(workload, tuner_iterations=1, jobs=1)
    finally:
        uninstall()

    theirs = tracer.counts
    ours = {count: run.calls.get(name, 0)
            for count, name in COUNTED_LAYERS.items()}
    ours["vm.runs"] = sum(value for name, value in run.counters.items()
                          if name.startswith("vm.runs."))
    ours["diffing.diffs"] = sum(value for name, value in run.calls.items()
                                if name.startswith("diffing.")
                                and name.endswith(".diff"))
    assert ours == {name: theirs.get(name, 0) for name in ours}
    assert all(ours.values()), ours


# -- every entry point under the paper benchmark's layer name ---------------------------


@pytest.fixture(scope="module")
def paperbench_layers():
    return _load_paperbench_layers()


@pytest.fixture(scope="module")
def demo_binaries():
    """The demo program's plain and Khaos-obfuscated binaries."""
    baseline = build_baseline(build_demo_program())
    variant = build_obfuscated(build_demo_program(), obfuscator_for("fufi.all"))
    return baseline.binary, variant.binary


def _paperbench_layer(layers, module, attribute, args):
    """The layer ``paperbench/layers.py`` charges ``module.attribute`` to."""
    for row in layers.TARGETS:
        if row[:2] == (module, attribute):
            name = row[2]
            return name if isinstance(name, str) else name(args)
    raise AssertionError(f"the paper benchmark wraps no {module}.{attribute}")


def _entry(module, attribute, layer, calls, prepare, name_args=(), id=None):
    """One entry point: ``prepare(binaries, tmp_path)`` returns a call of
    it, which charges ``calls`` calls to ``layer`` — its own and those of
    the same layer nested inside it."""
    return pytest.param(module, attribute, layer, calls, prepare, name_args,
                        id=id or attribute)


def _store(tmp_path):
    return ArtifactStore.attach(str(tmp_path / "store"))


_KEY = ("k",)

ENTRY_POINTS = [
    _entry("repro.workloads.suites", "WorkloadProgram.build",
           "workloads.build", 1,
           lambda pair, tmp: coreutils_programs()[0].build),
    _entry("repro.core.obfuscator", "Khaos.obfuscate", "core.obfuscate", 1,
           lambda pair, tmp: functools.partial(
               obfuscator.Khaos(KhaosConfig(mode="fufi.all")).obfuscate,
               build_demo_program())),
    _entry("repro.core.obfuscator", "assert_valid", "analysis.verify", 1,
           lambda pair, tmp: functools.partial(obfuscator.assert_valid,
                                               build_demo_program()),
           id="khaos-assert_valid"),
    _entry("repro.baselines.ollvm", "assert_valid", "analysis.verify", 1,
           lambda pair, tmp: functools.partial(ollvm.assert_valid,
                                               build_demo_program()),
           id="ollvm-assert_valid"),
    _entry("repro.baselines.ollvm", "OLLVMObfuscator.obfuscate",
           "baselines.ollvm", 1,
           lambda pair, tmp: functools.partial(
               ollvm.sub_obfuscator().obfuscate, build_demo_program())),
    _entry("repro.baselines.bintuner", "BinTuner.tune", "baselines.bintuner",
           1, lambda pair, tmp: functools.partial(
               BinTuner(iterations=0).tune, build_demo_program())),
    _entry("repro.opt.pipelines", "optimize_program", "opt.optimize", 1,
           lambda pair, tmp: functools.partial(
               optimize_program, build_demo_program(), OptOptions(level=2))),
    _entry("repro.backend.lowering", "lower_program", "backend.lower", 1,
           lambda pair, tmp: functools.partial(lower_program,
                                               build_demo_program())),
    _entry("repro.backend.disassembler", "normalised_distances",
           "backend.disasm", 1,
           lambda pair, tmp: functools.partial(
               disassembler.normalised_distances,
               disassembler.opcode_histogram(pair[0]),
               {"fufi.all": disassembler.opcode_histogram(pair[1])})),
    _entry("repro.backend.disassembler", "opcode_histogram_distance",
           "backend.disasm", 1,
           lambda pair, tmp: functools.partial(
               disassembler.opcode_histogram_distance, *pair)),
    # run_program -> Interpreter.run
    _entry("repro.vm.machine", "run_program", "vm.run", 2,
           lambda pair, tmp: functools.partial(run_program,
                                               build_demo_program())),
    _entry("repro.vm.machine", "Interpreter.run", "vm.run", 1,
           lambda pair, tmp: Interpreter(build_demo_program()).run),
    # run_many -> one run() per input vector
    _entry("repro.vm.machine", "Interpreter.run_many", "vm.run", 3,
           lambda pair, tmp: functools.partial(
               Interpreter(build_demo_program()).run_many, ((), ()))),
    # VMBatch.run_many -> Interpreter.run_many -> run() twice
    _entry("repro.vm.batch", "VMBatch.run_many", "vm.run", 4,
           lambda pair, tmp: functools.partial(
               VMBatch().run_many, build_demo_program(), ((), ()))),
    *(_entry("repro.diffing.base", "BinaryDiffer.diff",
             f"diffing.{differ.name.lower()}.diff", 1,
             lambda pair, tmp, differ=differ: functools.partial(
                 differ.diff, *pair),
             name_args=(differ,), id=f"{differ.name}.diff")
      for differ in all_differs()),
    _entry("repro.diffing.index", "FeatureIndex.memo", "diffing.features", 1,
           lambda pair, tmp: functools.partial(
               feature_index(pair[0]).memo, ("test.memo",), lambda: 1)),
    # get -> _read_object, on a tree without the key
    _entry("repro.store.artifact_store", "ArtifactStore.get", "store.read", 2,
           lambda pair, tmp: functools.partial(_store(tmp).get, "variant",
                                               _KEY)),
    # get_or_build -> _read_object, then the build is written
    _entry("repro.store.artifact_store", "ArtifactStore.get_or_build",
           "store.read", 2,
           lambda pair, tmp: functools.partial(
               _store(tmp).get_or_build, "variant", _KEY, lambda: 1)),
    _entry("repro.store.artifact_store", "ArtifactStore.contains",
           "store.read", 1,
           lambda pair, tmp: functools.partial(_store(tmp).contains,
                                               "variant", _KEY)),
    _entry("repro.store.artifact_store", "ArtifactStore._read_object",
           "store.read", 1,
           lambda pair, tmp: functools.partial(
               _store(tmp)._read_object, "variant",
               store_digest("variant", _KEY), _KEY)),
    # put -> _write_object
    _entry("repro.store.artifact_store", "ArtifactStore.put", "store.write", 2,
           lambda pair, tmp: functools.partial(_store(tmp).put, "variant",
                                               _KEY, 1)),
    _entry("repro.store.artifact_store", "ArtifactStore._write_object",
           "store.write", 1,
           lambda pair, tmp: functools.partial(
               _store(tmp)._write_object, "variant",
               store_digest("variant", _KEY), _KEY, 1)),
    _entry("repro.evaluation.executor", "_run_supervised", obs_layers.WAIT,
           1, lambda pair, tmp: functools.partial(run_tasks, _double, [0, 1],
                                                  jobs=2)),
]


@pytest.mark.parametrize(
    "module, attribute, name, calls, prepare, name_args", ENTRY_POINTS)
def test_each_entry_point_charges_the_paper_benchmarks_layer(
        paperbench_layers, demo_binaries, tmp_path, module, attribute, name,
        calls, prepare, name_args):
    """Each entry point the paper benchmark's tracer wraps charges its own
    calls to the layer that tracer names, so the two tables line up."""
    assert _paperbench_layer(paperbench_layers, module, attribute,
                             name_args) == name
    call = prepare(demo_binaries, tmp_path)
    with obs.measure() as run:
        call()
    assert run.calls.get(name) == calls, run.calls
    assert name in run.self_s


@pytest.mark.parametrize("differ", all_differs(), ids=lambda d: d.name)
def test_a_traced_partial_diff_counts_one_diff(paperbench_layers,
                                               demo_binaries, differ):
    """``partial_diff`` is the pair's whole ``diff()``: one diff in both
    accountings (the tracer's count of it reads ``shard_granularity``)."""
    tracer = paperbench_layers.Tracer()
    uninstall = paperbench_layers.install(tracer)
    try:
        with obs.measure() as run:
            differ.partial_diff(*demo_binaries)
    finally:
        uninstall()
    assert tracer.counts["diffing.diffs"] == 1
    assert run.calls[f"diffing.{differ.name.lower()}.diff"] == 1


# -- quick figure 8, in process and on the pool -----------------------------------------


@pytest.fixture(scope="module")
def quick_figure8():
    """Quick figure 8's rows and measurement at ``jobs=1`` and ``jobs=2``,
    and the oracle's rows."""
    from repro.evaluation import figure8
    from repro.evaluation.overhead import clear_variant_facts
    from repro.workloads.suites import spec2006_programs, spec2017_programs
    from tests import oracles

    def rows(report):
        return [(r.program, r.suite, r.tool, r.label, r.precision,
                 r.similarity_score) for r in report.rows]

    saved = os.environ.pop("REPRO_STORE_DIR", None)
    try:
        runs = {}
        for jobs in (1, 2):
            clear_variant_facts()
            with obs.measure() as run:
                report = figure8(limit_spec=2, limit_coreutils=2, jobs=jobs)
            runs[jobs] = (rows(report), run)
        workloads = ((spec2006_programs() + spec2017_programs())[:2]
                     + coreutils_programs()[:2])
        reference = rows(oracles.precision(workloads, ALL_LABELS))
    finally:
        if saved is not None:
            os.environ["REPRO_STORE_DIR"] = saved
    return runs, reference


class TestQuickFigure8:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_equal_the_oracle(self, quick_figure8, jobs):
        runs, reference = quick_figure8
        assert runs[jobs][0] == reference

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_layers_cover_the_run(self, quick_figure8, jobs):
        run = quick_figure8[0][jobs][1]
        assert run.coverage >= 0.95, (run.coverage, run.self_s)
        assert run.calls["diffing.features"] > 0
        assert run.calls["opt.optimize"] == run.calls["backend.lower"]

    def test_workers_hand_back_their_task_time(self, quick_figure8):
        serial, pooled = quick_figure8[0][1][1], quick_figure8[0][2][1]
        assert pooled.worker_s > 0
        assert pooled.calls[obs_layers.TASK] == 4        # one per workload
        assert pooled.self_s[obs_layers.WAIT] > 0
        assert pooled.counters["executor.tasks_completed"] == 4
        # the same work, wherever it ran
        for name in ("workloads.build", "opt.optimize", "backend.lower",
                     "diffing.features"):
            assert pooled.calls[name] == serial.calls[name], name

    def test_accounting_is_within_its_budget(self, quick_figure8):
        """Analytic 2% bound: what one layer call costs, times the calls
        the run made, against the run's wall time (a wall-clock A/B of
        whole runs is noise-bound on shared hosts)."""
        run = quick_figure8[0][1][1]

        def plain():
            return None

        wrapped = obs.layer("test.budget")(plain)
        n = 20000
        started = time.perf_counter()
        for _ in range(n):
            plain()
        plain_s = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(n):
            wrapped()
        per_call = max(0.0, time.perf_counter() - started - plain_s) / n
        calls = sum(run.calls.values())
        assert per_call * calls <= 0.02 * run.wall_s, (
            f"{calls} layer calls at {per_call * 1e6:.2f}us each vs a "
            f"{run.wall_s:.2f}s run: over the 2% budget")


# -- the executor's hand-back -----------------------------------------------------------


class TestHandBack:
    def test_a_forked_worker_hands_back_only_its_own_counts(self):
        """Workers start from zero and need no environment variable: what
        the parent counted before the pool started never comes back."""

        obs.counter("test.before_pool", 5)
        obs.layer("test.before_pool")(lambda: None)()
        before = _worker_view(None)[1]
        with obs.measure() as run:
            seen = run_tasks(_worker_view, list(range(4)), jobs=2)
        assert os.getpid() not in {pid for pid, _env, _names in seen}
        assert all(env == before for _pid, env, _names in seen)
        for _pid, _env, names in seen:
            assert "test.before_pool" not in names
            assert "self_s.test.before_pool" not in names
        assert "test.before_pool" not in run.counters
        assert "test.before_pool" not in run.calls
        assert run.calls[obs_layers.TASK] == 4

    def test_a_failed_runs_finished_units_hand_back_their_counts(self):
        """A run that fails fast still accounts for every unit whose result
        came back, and the parent's own registry gains none of it."""
        parent = obs.REGISTRY.get("executor.tasks_completed")
        seen = {}
        with obs.measure() as run:
            with pytest.raises(ExecutorTaskError, match="task 5 failed"):
                run_tasks(_double_unless_five, list(range(8)), jobs=2,
                          on_result=seen.__setitem__)
        assert len(seen) >= 4 and 5 not in seen
        assert run.counters["executor.tasks_completed"] == len(seen)
        assert run.calls[obs_layers.TASK] >= len(seen)
        assert obs.REGISTRY.get("executor.tasks_completed") == parent


def _double(x: int) -> int:
    return x * 2


def _double_unless_five(x: int) -> int:
    if x == 5:
        raise ValueError("unit 5 fails")
    return x * 2


def _worker_view(_task):
    """This process's pid, its ``REPRO_*`` variables and its counter names."""
    return (os.getpid(),
            sorted(key for key in os.environ if key.startswith("REPRO_")),
            sorted(obs.REGISTRY.counters))


# -- façades over the registry --------------------------------------------------------


class TestFacades:
    def test_store_counters_and_quarantine(self, tmp_path):
        store = ArtifactStore.attach(str(tmp_path / "store"))
        store.put("variant", ("k",), {"payload": 1})
        assert store.puts == 1
        store.get("variant", ("k",))
        assert store.disk_hits == 1  # no memory layer: reads go to the tree
        fresh = ArtifactStore.attach(str(tmp_path / "store"))
        fresh.get("variant", ("k",))
        assert fresh.disk_hits == 1
        fresh.get_or_build("variant", ("missing",), lambda: {"built": 1})
        assert fresh.misses == 1
        fresh.reset_counters()
        assert fresh.disk_hits == 0
        # corruption surfaces as counters in the store and the registry
        damaged = ArtifactStore.attach(str(tmp_path / "store"))
        path = damaged.object_path("variant", store_digest("variant", ("k",)))
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        with obs.measure() as run:
            assert damaged.get("variant", ("k",), "gone") == "gone"
        assert damaged.quarantined == 1
        assert sum(damaged.corrupt_reads.values()) == 1
        assert run.counters["store.quarantined"] == 1
        assert run.calls["store.read"] == 2      # get() and its object read

    def test_vmbatch_counters(self, demo_program):
        batch = VMBatch()
        batch.run(demo_program)
        batch.run_many(demo_program, ((), ()))
        assert batch.executions == 3
        assert batch.interpreters == 2

    def test_store_attach_failures(self, tmp_path, monkeypatch):
        from repro.evaluation.checkpoint import run_checkpointed

        # a regular file where the tree belongs cannot be attached
        occupied = tmp_path / "occupied"
        occupied.write_text("not a directory")
        monkeypatch.setenv("REPRO_STORE_DIR", str(occupied))
        with obs.measure() as run:
            assert run_checkpointed(abs, [-1, 2], [("k", 1), ("k", 2)],
                                    jobs=1) == [1, 2]
        assert run.counters["checkpoint.store_attach_failures"] == 1
