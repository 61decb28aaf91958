"""Performance micro-benchmarks for the obfuscate→execute→measure loop.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/run_bench.py [--quick|--smoke] [--out PATH]

or via ``scripts/bench.sh``.  Writes ``BENCH_results.json`` so subsequent PRs
can diff the perf trajectory.  Tracked metrics:

* **vm** — steps/second of the interpreter on the Figure-6 workloads,
  compiled dispatch vs. the legacy ``isinstance``-ladder path (kept in-tree
  as the reference semantics);
* **fig6_measure_loop** — the overhead-*measurement* loop of Figures 6/7:
  executing every built variant in the VM to collect dynamic cycle counts,
  compiled vs. legacy dispatch;
* **fig6_end_to_end** — the same loop including the build phases
  (obfuscate, optimize, lower), run through a shared
  :class:`~repro.core.variant_cache.VariantCache` exactly as the figure
  drivers do; reports the cache stats alongside the timings;
* **pipeline** — wall time of the *uncached* build phases alone (the raw
  cost of synthesize → obfuscate → optimize → lower as the figures build:
  one synthesis per program, each obfuscated copy optimized in place);
* **variant_cache** — cold-vs-warm build comparison plus the figure-8 reuse
  check: after the overhead loop has populated the cache, a
  figure-8-style precision run must hit it (nonzero ``fig8.hit_rate``);
* **fig8_diff_phase** — the diffing phase of the figure-8 precision matrix
  against a warm variant cache: the ``FeatureIndex`` fast path vs the legacy
  per-diff extraction (``BinaryDiffer.use_index = False``) and the process
  executor at ``jobs=2`` (its workers read the variants from a store tree
  warmed by one store-backed build and score every cell of their
  per-workload units); both alternates are asserted row-identical to the
  indexed serial run;
* **fig67_sharded** — the figure-6/7 overhead matrix over the shared
  artifact store (``REPRO_STORE_DIR``): ``jobs=1`` vs ``jobs=2``
  row-identity, cold vs warm-attach timings, and the store's hit/miss/put
  counters — a warm attach must rebuild **zero** variants;
* **verify_overhead** — full-tier IR verification (structural + types +
  dominance + dataflow lints, :mod:`repro.analysis.static`) over the fig6
  variant set: structural-tier baseline, cold full tier (fresh
  ``AnalysisManager`` per run) vs warm full tier (persistent manager —
  every function is a ``verify:full`` cache hit, the regime
  ``PassManager(verify_each=...)`` re-verification runs in), reported
  against the uncached build phase (acceptance: warm < 10% of build);
* **fig8_workload_units** — the figure-8 precision matrix through its
  per-workload units (:mod:`repro.evaluation.diff_sharding`) over a shared
  store: storeless reference vs cold run vs ``jobs=2`` vs warm re-attach
  timings, all asserted row-identical; a cold run must read **zero**
  objects back from the tree (its variants stay in memory), and the
  ``jobs=2`` and warm runs must revive every unit from its stored rows and
  execute **zero** units;
* **telemetry_overhead** — what :mod:`repro.obs` costs: VM steady-state
  steps/s with tracing enabled vs disabled, and the warm fig8 matrix at
  ``jobs=2`` (checkpointing off, so neither arm resumes from the journal)
  with ``REPRO_TRACE=1`` vs unset — the traced arm pays span recording,
  per-task flushes and the run-exit merge, and must stay row-identical to
  the untraced arm and the storeless reference (acceptance: ≤2%
  disabled-mode overhead — informational here); the traced run's merged
  telemetry is folded back in as a per-phase self-time summary
  (``scripts/trace_report.py`` is the interactive view).

``REPRO_STORE_DIR`` is where the store-backed sections create their trees
(a fresh subtree each); unset, temp directories are used.  It is taken out
of the environment at start-up, so every reference run is storeless.

Every ``measure_overhead`` call goes through :func:`overhead_run`, which
first empties the process-wide variant-facts memo: otherwise every call
after the first would read the cycles an earlier one measured, and the
sections would time memo lookups instead of builds, cache hits and store
reads.

All workloads are deterministic (profile-seeded), so the only
run-to-run variance is machine noise; every timing is a best-of-``reps``.
``--smoke`` is for CI: one rep, fewest programs, and a schema check on the
written JSON — no timing-sensitive assertions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.core.variant_cache import VariantCache      # noqa: E402
from repro.diffing.base import BinaryDiffer             # noqa: E402
from repro.diffing.index import clear_index_cache       # noqa: E402
from repro.evaluation.executor import reset_worker_cache  # noqa: E402
from repro.evaluation.overhead import (build_variant,  # noqa: E402
                                       clear_variant_facts,
                                       measure_overhead)
from repro.evaluation.precision import measure_precision  # noqa: E402
from repro.obs.metrics import counted                   # noqa: E402
from repro.opt.pipelines import optimize_program        # noqa: E402
from repro.store import KIND_VARIANT, ArtifactStore     # noqa: E402
from repro.backend.lowering import lower_program        # noqa: E402
from repro.core.obfuscator import obfuscate             # noqa: E402
from repro.vm.machine import Interpreter, run_program  # noqa: E402
from repro.workloads.suites import (spec2006_programs,  # noqa: E402
                                    spec2017_programs)

MEASURE_LABELS = ("fission", "fufi.ori")

#: Keys every result file must contain (checked by --smoke).
REQUIRED_KEYS = ("schema", "config", "vm", "fig6_measure_loop",
                 "fig6_end_to_end", "pipeline", "variant_cache",
                 "fig8_diff_phase", "fig67_sharded",
                 "fig8_workload_units", "verify_overhead",
                 "telemetry_overhead")

#: Where the store-backed sections create their trees: ``REPRO_STORE_DIR``
#: at start-up, or ``None`` for temp directories (see :func:`store_tree`).
STORE_BASE: Optional[str] = None


def _set_env(values: Dict[str, Optional[str]]) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@contextmanager
def store_tree(prefix: str, **env: Optional[str]):
    """A fresh store tree, exported as ``REPRO_STORE_DIR`` for the block,
    with ``env`` set (``None`` unsets).  Trees under :data:`STORE_BASE` are
    kept; temp trees are removed afterwards."""
    if STORE_BASE:
        os.makedirs(STORE_BASE, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{prefix}-", dir=STORE_BASE)
    env = {"REPRO_STORE_DIR": root, **env}
    saved = {name: os.environ.get(name) for name in env}
    _set_env(env)
    reset_worker_cache()
    try:
        yield root
    finally:
        reset_worker_cache()
        _set_env(saved)
        if not STORE_BASE:
            shutil.rmtree(root, ignore_errors=True)


def best_of(fn: Callable[[], object], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def overhead_run(programs, **kwargs):
    """``measure_overhead`` with an empty facts memo, so every call builds
    (or fetches) and runs its variants instead of reading the cycles an
    earlier call of this process measured."""
    clear_variant_facts()
    return measure_overhead(programs, **kwargs)


def bench_vm(programs, reps: int) -> Dict[str, object]:
    built = [wp.build() for wp in programs]
    # verify both dispatchers agree before timing anything
    steps = 0
    for program in built:
        legacy = run_program(program, dispatch="legacy")
        fast = run_program(program, dispatch="compiled")
        assert legacy.observable() == fast.observable()
        assert legacy.cycles == fast.cycles and legacy.steps == fast.steps
        steps += legacy.steps

    legacy_s = best_of(
        lambda: [run_program(p, dispatch="legacy") for p in built], reps)
    compiled_s = best_of(
        lambda: [run_program(p, dispatch="compiled") for p in built], reps)
    return {
        "programs": [wp.name for wp in programs],
        "steps": steps,
        "legacy_s": round(legacy_s, 4),
        "compiled_s": round(compiled_s, 4),
        "steps_per_sec_legacy": int(steps / legacy_s),
        "steps_per_sec_compiled": int(steps / compiled_s),
        "speedup": round(legacy_s / compiled_s, 2),
    }


def _build_variants(programs) -> List:
    """The build phase of the fig6/fig7 loop: every variant of every program,
    built as the figures build them — one synthesis per program, and each
    obfuscator's private copy optimized in place."""
    variants = []
    for wp in programs:
        source = wp.build()
        baseline = optimize_program(source)
        lower_program(baseline)
        variants.append(baseline)
        for label in MEASURE_LABELS:
            result = obfuscate(source, mode=label)
            optimized = optimize_program(result.program, in_place=True)
            lower_program(optimized)
            variants.append(optimized)
    return variants


def bench_fig6_measure_loop(programs, reps: int) -> Dict[str, object]:
    variants = _build_variants(programs)
    legacy_s = best_of(
        lambda: [run_program(v, dispatch="legacy") for v in variants], reps)
    compiled_s = best_of(
        lambda: [run_program(v, dispatch="compiled") for v in variants],
        reps)
    return {
        "programs": [wp.name for wp in programs],
        "labels": list(MEASURE_LABELS),
        "variants": len(variants),
        "legacy_s": round(legacy_s, 4),
        "compiled_s": round(compiled_s, 4),
        "speedup": round(legacy_s / compiled_s, 2),
    }


def bench_fig6_end_to_end(programs, reps: int) -> Dict[str, object]:
    cache = VariantCache()

    def loop(dispatch: str):
        os.environ["REPRO_VM_DISPATCH"] = dispatch
        try:
            overhead_run(programs, labels=MEASURE_LABELS, cache=cache)
        finally:
            os.environ.pop("REPRO_VM_DISPATCH", None)

    legacy_s = best_of(lambda: loop("legacy"), reps)
    compiled_s = best_of(lambda: loop("compiled"), reps)
    return {
        "programs": [wp.name for wp in programs],
        "labels": list(MEASURE_LABELS),
        "legacy_s": round(legacy_s, 4),
        "compiled_s": round(compiled_s, 4),
        "speedup": round(legacy_s / compiled_s, 2),
        "cache": cache.stats(),
    }


def bench_pipeline(programs, reps: int) -> Dict[str, object]:
    wall = best_of(lambda: _build_variants(programs), reps)
    return {
        "programs": [wp.name for wp in programs],
        "labels": list(MEASURE_LABELS),
        "obfuscate_optimize_lower_s": round(wall, 4),
    }


def bench_variant_cache(programs, reps: int) -> Dict[str, object]:
    """Cold vs warm build loop, plus the figure-8 cross-experiment reuse."""
    cache = VariantCache()
    gc.collect()
    start = time.perf_counter()
    overhead_run(programs, labels=MEASURE_LABELS, cache=cache)
    cold_s = time.perf_counter() - start
    warm_s = best_of(
        lambda: overhead_run(programs, labels=MEASURE_LABELS, cache=cache),
        reps)

    # figure-8 style: precision over the same workload/label matrix must
    # reuse the variants the overhead loop already built
    hits_before, misses_before = cache.hits, cache.misses
    gc.collect()
    start = time.perf_counter()
    measure_precision(programs, labels=MEASURE_LABELS, cache=cache)
    fig8_s = time.perf_counter() - start
    fig8_hits = cache.hits - hits_before
    fig8_misses = cache.misses - misses_before
    fig8_total = fig8_hits + fig8_misses
    return {
        "programs": [wp.name for wp in programs],
        "labels": list(MEASURE_LABELS),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "build_speedup": round(cold_s / warm_s, 2) if warm_s else None,
        "fig8": {
            "precision_s": round(fig8_s, 4),
            "hits": fig8_hits,
            "misses": fig8_misses,
            "hit_rate": round(fig8_hits / fig8_total, 4) if fig8_total else 0.0,
        },
        "overall": cache.stats(),
    }


def bench_fig8_diff_phase(programs, reps: int) -> Dict[str, object]:
    """The diffing phase of figure 8 (variants already built and cached).

    Compares the FeatureIndex fast path against the legacy per-diff
    extraction and the process executor at ``jobs=2``; the three reports
    must be row-identical (``identical`` — a structural check, not a timing).
    """
    cache = VariantCache()
    labels = MEASURE_LABELS
    # pin the feature path per measurement (and restore the previous one at
    # the end) so the legacy/indexed columns never mislabel each other
    previous_index = BinaryDiffer.use_index

    def run_with(indexed: bool):
        BinaryDiffer.use_index = indexed
        return measure_precision(programs, labels=labels, cache=cache)

    try:
        reference = run_with(True)
        indexed_s = best_of(lambda: run_with(True), reps)
        legacy_report = run_with(False)
        legacy_s = best_of(lambda: run_with(False), max(1, reps // 2))

        BinaryDiffer.use_index = True
        # hand the executor workers the variants through a store tree warmed
        # by one store-backed build, so jobs2_s times the diff phase + pool
        # overhead like the other columns, not variant rebuilding; the tree
        # holds no unit rows and checkpointing is off, so the timed run
        # scores every cell
        with store_tree("fig8-diff-phase", REPRO_CHECKPOINT="off") as root:
            seeded = VariantCache(store=ArtifactStore.attach(root))
            for wp in programs:
                for label in ("baseline",) + labels:
                    build_variant(wp, label, cache=seeded)
            gc.collect()
            start = time.perf_counter()
            with counted("diffunit") as jobs2_units:
                parallel_report = measure_precision(programs, labels=labels,
                                                    jobs=2)
            jobs2_s = time.perf_counter() - start

        # a cold run re-featurizes every binary once (the indexed timing
        # above amortises the index across reps, like the figure drivers do)
        clear_index_cache()
        cold_s = best_of(
            lambda: (clear_index_cache(), run_with(True)),
            max(1, reps // 2))
    finally:
        BinaryDiffer.use_index = previous_index

    return {
        "programs": [wp.name for wp in programs],
        "labels": list(labels),
        "rows": len(reference.rows),
        "legacy_s": round(legacy_s, 4),
        "indexed_s": round(indexed_s, 4),
        "indexed_cold_s": round(cold_s, 4),
        "jobs2_s": round(jobs2_s, 4),
        "jobs2_units": {"units": jobs2_units["units"],
                        "cells_scored": jobs2_units["cells_scored"],
                        "cells": len(parallel_report.rows)},
        "speedup": round(legacy_s / indexed_s, 2) if indexed_s else None,
        "identical": {
            "legacy": legacy_report.rows == reference.rows,
            "jobs2": parallel_report.rows == reference.rows,
        },
    }


def bench_fig67_sharded(programs, reps: int) -> Dict[str, object]:
    """Figures 6/7 over the shared store, in process and at ``jobs=2``.

    Times the storeless ``jobs=1`` reference, a cold store-backed run (every
    variant built and persisted), a warm re-attach (zero rebuilds — asserted
    structurally by --smoke) and a ``jobs=2`` run whose workers attach to
    the same tree; all rows must be identical.  Checkpointing is off, so no
    run resumes from another's journal.
    """
    labels = MEASURE_LABELS
    reference = overhead_run(programs, labels=labels, jobs=1)
    serial_s = best_of(
        lambda: overhead_run(programs, labels=labels, jobs=1), reps)

    with store_tree("fig67", REPRO_CHECKPOINT="off") as store_root:
        cold_cache = VariantCache(store=ArtifactStore.attach(store_root))
        gc.collect()
        start = time.perf_counter()
        cold_report = overhead_run(programs, labels=labels,
                                   cache=cold_cache)
        cold_attach_s = time.perf_counter() - start
        cold_stats = cold_cache.store_stats()

        warm_cache = VariantCache(store=ArtifactStore.attach(store_root))
        warm_rows: List = []

        def warm_run():
            report = overhead_run(programs, labels=labels, cache=warm_cache)
            if not warm_rows:
                # the first warm run is the one whose artifacts crossed the
                # disk-unpickle read path; its rows feed the identity check
                warm_rows.extend(report.rows)
            return report

        warm_attach_s = best_of(warm_run, reps)
        warm_stats = warm_cache.store_stats()
        # the first warm run answers "how many variants were rebuilt?"
        warm_rebuilds = warm_stats["misses"]

        objects_before = warm_cache.store.entry_count(KIND_VARIANT)
        reset_worker_cache()
        gc.collect()
        start = time.perf_counter()
        sharded = overhead_run(programs, labels=labels, jobs=2)
        jobs2_s = time.perf_counter() - start
        objects_after = ArtifactStore.attach(store_root).entry_count(
            KIND_VARIANT)

    # the store tree lives in a per-run temp directory; its random path
    # would be pure noise in the tracked results file
    for stats in (cold_stats, warm_stats):
        stats.pop("root", None)
    return {
        "programs": [wp.name for wp in programs],
        "labels": list(labels),
        "rows": len(reference.rows),
        "serial_s": round(serial_s, 4),
        "cold_attach_s": round(cold_attach_s, 4),
        "warm_attach_s": round(warm_attach_s, 4),
        "jobs2_s": round(jobs2_s, 4),
        "warm_attach_speedup": (round(cold_attach_s / warm_attach_s, 2)
                                if warm_attach_s else None),
        "warm_attach_rebuilds": warm_rebuilds,
        "store": {"cold": cold_stats, "warm": warm_stats,
                  "objects": objects_after},
        "identical": {
            "cold_attach": cold_report.rows == reference.rows,
            "warm_attach": warm_rows == reference.rows,
            "jobs2": sharded.rows == reference.rows,
            "jobs2_no_new_objects": objects_after == objects_before,
        },
    }


def bench_fig8_workload_units(programs, reps: int) -> Dict[str, object]:
    """Figure 8 through its per-workload units + the store.

    Times the storeless ``jobs=1`` reference, a cold run against a fresh
    store tree (every unit executed and its rows persisted), a ``jobs=2``
    run over the now-warm tree and a warm in-process re-attach — both of
    which must revive every unit and execute none (asserted structurally
    by --smoke).  ``cold_vs_serial`` is what the store costs a cold run.
    """
    labels = MEASURE_LABELS
    reference = measure_precision(programs, labels=labels, jobs=1)
    serial_s = best_of(
        lambda: measure_precision(programs, labels=labels, jobs=1), reps)

    def timed_run(jobs):
        reset_worker_cache()
        gc.collect()
        start = time.perf_counter()
        with counted("diffunit") as units, counted("checkpoint") as run, \
                counted("store") as store:
            report = measure_precision(programs, labels=labels, jobs=jobs)
        stats = {"units": units["units"], "cells_scored": units["cells_scored"],
                 "executed": run["executed"], "resumed": run["resumed"],
                 "disk_hits": store["disk_hits"], "puts": store["puts"]}
        return report, time.perf_counter() - start, stats

    with store_tree("fig8-units"):
        cold, cold_s, cold_stats = timed_run(1)
        jobs2, jobs2_s, jobs2_stats = timed_run(2)
        warm, warm_s, warm_stats = timed_run(1)

    return {
        "programs": [wp.name for wp in programs],
        "labels": list(labels),
        "rows": len(reference.rows),
        "serial_s": round(serial_s, 4),
        "cold_s": round(cold_s, 4),
        "cold_vs_serial": round(cold_s / serial_s, 3) if serial_s else None,
        "jobs2_s": round(jobs2_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s else None,
        "stats": {"cold": cold_stats, "jobs2": jobs2_stats,
                  "warm": warm_stats},
        "identical": {
            "cold": cold.rows == reference.rows,
            "jobs2": jobs2.rows == reference.rows,
            "warm": warm.rows == reference.rows,
        },
    }


def bench_telemetry_overhead(programs, reps: int) -> Dict[str, object]:
    """What the telemetry layer costs, on and off.

    Two arms.  **vm_steady**: steps/s of warmed interpreters with span
    tracing enabled vs disabled — the registry façades are always on, so
    the delta isolates the tracing flag checks and buffer appends.
    **fig8_jobs2**: the warm fig8 function-sharded matrix at ``jobs=2``
    over one store tree (checkpointing off, so neither arm resumes from
    a stored unit), with ``REPRO_TRACE=1`` vs unset: the traced arm
    additionally pays per-task worker flushes and the run-exit
    merge/export, and both arms must stay row-identical to the storeless
    reference.  The traced run's merged telemetry is summarised back into
    the results as per-phase self-time shares plus the attribution
    coverage (the fig8 acceptance wants ≥95% of busy time in named
    phases).
    """
    from repro.obs import tracing

    labels = MEASURE_LABELS
    reference = measure_precision(programs, labels=labels, jobs=1)

    # -- arm 1: VM steady state, tracing flag on vs off -------------------
    built = [wp.build() for wp in programs]
    steps = sum(run_program(p).steps for p in built)
    warm_sets = tuple(() for _ in range(8))
    timed_sets = tuple(() for _ in range(8))

    def steady(trace_on: bool) -> float:
        tracing.set_enabled(trace_on)
        try:
            interpreters = [Interpreter(program) for program in built]
            for interpreter in interpreters:
                interpreter.run_many(warm_sets)
            return best_of(
                lambda: [vm.run_many(timed_sets) for vm in interpreters],
                reps)
        finally:
            tracing.refresh()
            tracing.drain()

    vm_off_s = steady(False)
    vm_on_s = steady(True)

    # -- arm 2: warm fig8 jobs=2, REPRO_TRACE=1 vs unset ------------------
    def timed(trace_on: bool):
        _set_env({"REPRO_TRACE": "1" if trace_on else None})
        tracing.refresh()
        reset_worker_cache()
        gc.collect()
        start = time.perf_counter()
        report = measure_precision(programs, labels=labels, jobs=2)
        return report, time.perf_counter() - start

    try:
        with store_tree("telemetry", REPRO_CHECKPOINT="off",
                        REPRO_FAULTS=None, REPRO_TRACE=None) as store_root:
            tracing.refresh()
            # warm the tree once so both arms time scheduling + store reads
            measure_precision(programs, labels=labels, jobs=1)
            off_report, off_s = timed(False)
            on_report, on_s = timed(True)
            for _ in range(max(0, reps - 1)):
                off_s = min(off_s, timed(False)[1])
                on_s = min(on_s, timed(True)[1])
            trace_summary = _fold_trace_summary(store_root)
    finally:
        tracing.refresh()
        tracing.drain()

    return {
        "programs": [wp.name for wp in programs],
        "labels": list(labels),
        "rows": len(reference.rows),
        "vm_steady": {
            "steps": steps,
            "off_s": round(vm_off_s, 4),
            "on_s": round(vm_on_s, 4),
            "steps_per_sec_off": int(steps * len(timed_sets) / vm_off_s),
            "steps_per_sec_on": int(steps * len(timed_sets) / vm_on_s),
            "overhead_pct": (round((vm_on_s - vm_off_s) / vm_off_s * 100, 2)
                             if vm_off_s else None),
        },
        "fig8_jobs2": {
            "off_s": round(off_s, 4),
            "on_s": round(on_s, 4),
            "overhead_pct": (round((on_s - off_s) / off_s * 100, 2)
                             if off_s else None),
        },
        "trace": trace_summary,
        "identical": {
            "untraced": off_report.rows == reference.rows,
            "traced": on_report.rows == reference.rows,
        },
    }


def _fold_trace_summary(store_root: str) -> Dict[str, object]:
    """The traced arm's per-phase summary, via ``trace_report.py --json``."""
    import subprocess

    telemetry = os.path.join(store_root, "telemetry")
    try:
        runs = [os.path.join(telemetry, name)
                for name in os.listdir(telemetry)]
    except OSError:
        return {"valid": False, "error": "no telemetry directory"}
    runs = [run for run in runs if os.path.isdir(run)]
    if not runs:
        return {"valid": False, "error": "no telemetry run"}
    run_dir = max(runs, key=os.path.getmtime)
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "..", "..", "scripts", "trace_report.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.abspath(
        __file__)), "..", "..", "src")
    result = subprocess.run(
        [sys.executable, script, "--validate", "--json", run_dir],
        capture_output=True, text=True, env=env)
    if result.returncode != 0:
        return {"valid": False, "error": result.stderr.strip()[:500]}
    try:
        report = json.loads(result.stdout[result.stdout.index("{"):])
    except ValueError:
        return {"valid": False, "error": "unparsable trace_report output"}
    return {
        "valid": True,
        "wall_seconds": report.get("wall_seconds"),
        "busy_seconds": report.get("busy_seconds"),
        "coverage": report.get("coverage"),
        "phases": report.get("phases"),
        "processes": len(report.get("processes", [])),
    }


def bench_verify_overhead(programs, reps: int) -> Dict[str, object]:
    """Full-tier IR verification overhead on the fig6 variant set.

    ``cold_full_s`` verifies every variant with a fresh ``AnalysisManager``
    per run — paying CFG/domtree construction and the dataflow lints.
    ``warm_full_s`` re-verifies through one persistent manager, where every
    function resolves as a ``verify:full`` cache hit — the regime
    ``PassManager(verify_each=...)`` and the ``REPRO_VERIFY_IR`` post-link
    hook re-verify in.  Acceptance (checked structurally by --smoke only for
    the error count; the ratio is informational): warm full-tier
    verification stays under 10% of the uncached fig6 build phase.
    """
    from repro.analysis.manager import AnalysisManager
    from repro.analysis.static import verify

    gc.collect()
    start = time.perf_counter()
    variants = _build_variants(programs)
    build_s = time.perf_counter() - start

    def verify_all(tier: str, analyses):
        findings = []
        for variant in variants:
            findings.extend(verify(variant, tier=tier, analyses=analyses))
        return findings

    errors = sum(d.is_error for d in verify_all("full", None))

    structural_s = best_of(lambda: verify_all("structural", None), reps)
    cold_full_s = best_of(lambda: verify_all("full", AnalysisManager()), reps)
    manager = AnalysisManager()
    verify_all("full", manager)  # populate the verify:full cache entries
    warm_full_s = best_of(lambda: verify_all("full", manager), reps)

    return {
        "programs": [wp.name for wp in programs],
        "labels": list(MEASURE_LABELS),
        "variants": len(variants),
        "errors": errors,
        "build_s": round(build_s, 4),
        "structural_s": round(structural_s, 4),
        "cold_full_s": round(cold_full_s, 4),
        "warm_full_s": round(warm_full_s, 4),
        "warm_speedup": (round(cold_full_s / warm_full_s, 2)
                         if warm_full_s else None),
        "warm_vs_build_pct": (round(100.0 * warm_full_s / build_s, 2)
                              if build_s else None),
    }


def check_results(results: Dict[str, object]) -> List[str]:
    """Structural (timing-independent) sanity checks for --smoke."""
    problems = []
    for key in REQUIRED_KEYS:
        if key not in results:
            problems.append(f"missing key {key!r}")
    cache = results.get("variant_cache", {})
    if cache and cache.get("fig8", {}).get("hits", 0) <= 0:
        problems.append("variant cache saw no figure-8 hits")
    e2e = results.get("fig6_end_to_end", {})
    if e2e and e2e.get("cache", {}).get("hits", 0) <= 0:
        problems.append("fig6 end-to-end loop never hit the variant cache")
    diff_phase = results.get("fig8_diff_phase", {})
    if diff_phase:
        identical = diff_phase.get("identical", {})
        if not identical.get("legacy", False):
            problems.append("legacy diff path diverged from the FeatureIndex path")
        if not identical.get("jobs2", False):
            problems.append("jobs=2 executor diverged from the serial run")
        units = diff_phase.get("jobs2_units", {})
        if units.get("units") != len(diff_phase.get("programs", [])) or \
                not 0 < units.get("cells_scored", 0) == units.get("cells"):
            problems.append("the jobs=2 diff phase did not run one unit per "
                            "workload scoring every cell")
    sharded = results.get("fig67_sharded", {})
    if sharded:
        identical = sharded.get("identical", {})
        if not identical.get("cold_attach", False):
            problems.append("store-backed fig6/7 run diverged from the serial run")
        if not identical.get("warm_attach", False):
            problems.append("warm store attach (disk-read path) diverged "
                            "from the serial run")
        if not identical.get("jobs2", False):
            problems.append("sharded jobs=2 fig6/7 run diverged from the serial run")
        if not identical.get("jobs2_no_new_objects", False):
            problems.append("jobs=2 workers rebuilt variants a warm store already had")
        if sharded.get("warm_attach_rebuilds", -1) != 0:
            problems.append("a warm ArtifactStore attach rebuilt variants")
        store = sharded.get("store", {})
        if store.get("warm", {}).get("disk_hits", 0) <= 0:
            problems.append("warm store attach served no disk hits")
        if store.get("cold", {}).get("puts", 0) <= 0:
            problems.append("cold store run persisted no artifacts")
    fig8_units = results.get("fig8_workload_units", {})
    if fig8_units:
        identical = fig8_units.get("identical", {})
        for name in ("cold", "jobs2", "warm"):
            if not identical.get(name, False):
                problems.append(f"fig8 {name} unit run diverged from the "
                                f"serial reference")
        stats = fig8_units.get("stats", {})
        programs = len(fig8_units.get("programs", []))
        cold = stats.get("cold", {})
        if cold.get("executed", -1) != programs:
            problems.append("a cold fig8 run did not execute one unit per "
                            "workload")
        if cold.get("disk_hits", -1) != 0:
            problems.append("a cold fig8 run read its own objects back from "
                            "the store")
        for name in ("jobs2", "warm"):
            run = stats.get(name, {})
            if run.get("executed", -1) != 0 or run.get("cells_scored", -1):
                problems.append(f"a {name} fig8 run over a warm tree executed "
                                f"units the store already held")
            if run.get("resumed", 0) != programs:
                problems.append(f"a {name} fig8 run revived no stored unit")
    overhead = results.get("verify_overhead", {})
    if overhead and overhead.get("errors", -1) != 0:
        problems.append("full-tier verification found errors on the fig6 "
                        "variant set")
    telemetry = results.get("telemetry_overhead", {})
    if telemetry:
        for name in ("untraced", "traced"):
            if not telemetry.get("identical", {}).get(name, False):
                problems.append(f"telemetry_overhead {name} run diverged "
                                f"from the serial reference")
        trace = telemetry.get("trace", {})
        if not trace.get("valid", False):
            problems.append("traced run produced no valid merged trace")
        elif (trace.get("coverage") or 0) < 0.95:
            problems.append(f"trace attributed only "
                            f"{trace.get('coverage')} of busy time to "
                            f"named phases (want >= 0.95)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer programs and reps (smoke run)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: minimal work, then verify the output "
                             "file structurally (no timing assertions)")
    parser.add_argument("--out", default="BENCH_results.json",
                        help="output path (default: BENCH_results.json)")
    args = parser.parse_args(argv)
    global STORE_BASE
    STORE_BASE = os.environ.pop("REPRO_STORE_DIR", None) or None

    if args.smoke:
        vm_programs = spec2006_programs()[:1]
        loop_programs = spec2006_programs()[:1]
        reps = 1
    elif args.quick:
        vm_programs = spec2006_programs()[:2]
        loop_programs = spec2006_programs()[:1]
        reps = 2
    else:
        vm_programs = spec2006_programs()[:4] + spec2017_programs()[:2]
        loop_programs = spec2006_programs()[:3]
        reps = 5

    results = {
        "schema": 14,
        "config": {"quick": bool(args.quick or args.smoke), "reps": reps,
                   "python": sys.version.split()[0],
                   "store_dir": STORE_BASE},
        "vm": bench_vm(vm_programs, reps),
        "fig6_measure_loop": bench_fig6_measure_loop(loop_programs, reps),
        "fig6_end_to_end": bench_fig6_end_to_end(loop_programs,
                                                 max(2, reps // 2)),
        "pipeline": bench_pipeline(loop_programs, max(2, reps // 2)),
        "variant_cache": bench_variant_cache(loop_programs,
                                             max(1, reps // 2)),
        "fig8_diff_phase": bench_fig8_diff_phase(loop_programs,
                                                 max(1, reps // 2)),
        "fig67_sharded": bench_fig67_sharded(loop_programs,
                                             max(1, reps // 2)),
        "fig8_workload_units": bench_fig8_workload_units(
            loop_programs, max(1, reps // 2)),
        "verify_overhead": bench_verify_overhead(loop_programs,
                                                 max(1, reps // 2)),
        "telemetry_overhead": bench_telemetry_overhead(loop_programs,
                                                       max(1, reps // 2)),
    }

    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"vm:                {results['vm']['speedup']}x "
          f"({results['vm']['steps_per_sec_compiled']:,} steps/s compiled, "
          f"{results['vm']['steps_per_sec_legacy']:,} legacy)")
    print(f"fig6 measure loop: {results['fig6_measure_loop']['speedup']}x")
    print(f"fig6 end to end:   {results['fig6_end_to_end']['speedup']}x "
          f"(compiled {results['fig6_end_to_end']['compiled_s']}s, "
          f"cache hit rate {results['fig6_end_to_end']['cache']['hit_rate']})")
    print(f"pipeline build:    "
          f"{results['pipeline']['obfuscate_optimize_lower_s']}s (uncached)")
    vc = results["variant_cache"]
    print(f"variant cache:     cold {vc['cold_s']}s -> warm {vc['warm_s']}s "
          f"({vc['build_speedup']}x); fig8 hit rate {vc['fig8']['hit_rate']}")
    dp = results["fig8_diff_phase"]
    print(f"fig8 diff phase:   legacy {dp['legacy_s']}s -> indexed "
          f"{dp['indexed_s']}s ({dp['speedup']}x, cold {dp['indexed_cold_s']}s, "
          f"jobs=2 {dp['jobs2_s']}s, identical={dp['identical']})")
    fs = results["fig67_sharded"]
    print(f"fig67 sharded:     serial {fs['serial_s']}s, cold attach "
          f"{fs['cold_attach_s']}s -> warm attach {fs['warm_attach_s']}s "
          f"({fs['warm_attach_speedup']}x, {fs['warm_attach_rebuilds']} "
          f"rebuilds), jobs=2 {fs['jobs2_s']}s, "
          f"identical={fs['identical']}")
    f8 = results["fig8_workload_units"]
    print(f"fig8 units:        serial {f8['serial_s']}s, cold "
          f"{f8['cold_s']}s ({f8['cold_vs_serial']}x serial), jobs=2 "
          f"{f8['jobs2_s']}s -> warm {f8['warm_s']}s "
          f"({f8['warm_speedup']}x, {f8['stats']['warm']['executed']} "
          f"units executed, identical={f8['identical']})")
    vo = results["verify_overhead"]
    print(f"verify overhead:   cold full {vo['cold_full_s']}s -> warm "
          f"{vo['warm_full_s']}s ({vo['warm_speedup']}x; structural "
          f"{vo['structural_s']}s); warm = {vo['warm_vs_build_pct']}% of "
          f"the {vo['build_s']}s build phase")
    to = results["telemetry_overhead"]
    print(f"telemetry:         vm steady {to['vm_steady']['overhead_pct']}% "
          f"({to['vm_steady']['steps_per_sec_on']:,} steps/s traced); fig8 "
          f"jobs=2 {to['fig8_jobs2']['overhead_pct']}% "
          f"(off {to['fig8_jobs2']['off_s']}s -> on "
          f"{to['fig8_jobs2']['on_s']}s); trace coverage "
          f"{to['trace'].get('coverage')}, identical={to['identical']}")
    print(f"wrote {args.out}")

    if args.smoke:
        with open(args.out) as fh:
            reread = json.load(fh)
        problems = check_results(reread)
        if problems:
            for problem in problems:
                print(f"SMOKE FAIL: {problem}", file=sys.stderr)
            return 1
        print(f"smoke ok: {args.out} contains "
              f"{', '.join(REQUIRED_KEYS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
