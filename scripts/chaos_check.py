#!/usr/bin/env python
"""Seeded chaos check: the fig8 matrix under injected faults, bit-identical.

The CI chaos job's driver.  Runs the figure-8 function-sharded matrix three
times and requires all of them to agree with the fault-free in-process
run:

1. **reference** — ``measure_precision`` at ``jobs=1``: in-process, no
   store, no faults;
2. **chaos** — ``measure_precision`` with ``jobs=2`` over a fresh
   store tree, with seeded worker crashes and store corruption injected
   (``worker_crash:p=0.2,seed=7;store_corrupt:p=0.1,seed=7`` by default):
   the supervised executor must retry/respawn through the crashes and the
   store must quarantine + rebuild through the corruption, and the merged
   report must still be **bit-identical** to the reference;
3. **resume** — the same matrix again over the same tree with faults off:
   every shard must revive from the run journal (zero executed), proving
   the checkpoint layer journaled through the chaos.

Finally ``fsck_store.py --repair`` must leave the tree clean (exit 0) —
corrupt objects the run never re-read get quarantined offline, and the
ledger/journals reconcile.

``--json`` emits a machine-readable report on stdout (the human narration
moves to stderr): per-phase wall times and row counts, the supervision /
fault / quarantine counters from the run's merged telemetry
(``REPRO_TRACE`` is forced on so the counters exist), and the telemetry
run directory for ``trace_report.py``.

Exit status 0 only if every phase holds.  Runs in minutes on two
workloads × two labels × two tools; scale with the flags.

Usage:
    PYTHONPATH=src python scripts/chaos_check.py
    PYTHONPATH=src python scripts/chaos_check.py --workloads 3 --jobs 4
    PYTHONPATH=src python scripts/chaos_check.py --json > chaos.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

#: Telemetry counter prefixes worth surfacing in the ``--json`` report.
COUNTER_PREFIXES = ("executor.", "faults.", "checkpoint.",
                    "store.corrupt_reads", "store.quarantined")


def _latest_run_dir(tree: str) -> Optional[str]:
    telemetry = os.path.join(tree, "telemetry")
    try:
        runs = [os.path.join(telemetry, name)
                for name in os.listdir(telemetry)]
    except OSError:
        return None
    runs = [run for run in runs if os.path.isdir(run)]
    return max(runs, key=os.path.getmtime) if runs else None


def _merged_counters(tree: str) -> Dict[str, Any]:
    run_dir = _latest_run_dir(tree)
    if run_dir is None:
        return {}
    try:
        with open(os.path.join(run_dir, "metrics.json"),
                  encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    counters = (payload.get("merged") or {}).get("counters") or {}
    return {name: value for name, value in sorted(counters.items())
            if name.startswith(COUNTER_PREFIXES)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="seeded fig8 chaos check")
    parser.add_argument("--workloads", type=int, default=2)
    parser.add_argument("--labels", default="fission,fufi.ori")
    parser.add_argument("--tools", type=int, default=2,
                        help="how many diffing tools to include")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--faults",
                        default="worker_crash:p=0.2,seed=7;"
                                "store_corrupt:p=0.1,seed=7")
    parser.add_argument("--retries", type=int, default=10,
                        help="per-task retry budget; a pool break burns one "
                             "for every in-flight task, so chaos runs need "
                             "headroom over the nominal crash count")
    parser.add_argument("--keep-tree", action="store_true",
                        help="print and keep the store tree for inspection")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="structured report on stdout, narration on "
                             "stderr; forces REPRO_TRACE=1")
    args = parser.parse_args(argv)

    out = sys.stderr if args.as_json else sys.stdout

    def say(text: str) -> None:
        print(text, file=out)

    # chaos knobs must be in the environment before any worker spawns;
    # the reference run below explicitly clears them for itself
    os.environ["REPRO_TASK_RETRIES"] = str(args.retries)
    # keep the pool path exercised: under a 20% crash rate the default
    # serial-degradation threshold trips early by design, which is correct
    # but leaves most of the matrix un-chaosed
    os.environ["REPRO_MAX_POOL_FAILURES"] = "10"
    os.environ.pop("REPRO_JOBS", None)
    os.environ.pop("REPRO_STORE_DIR", None)
    os.environ.pop("REPRO_FAULTS", None)
    if args.as_json:
        # the structured report reads retry/quarantine/fault counters out
        # of the run's merged telemetry, so the run must produce one
        os.environ["REPRO_TRACE"] = "1"

    from repro.diffing import all_differs
    from repro.evaluation import measure_precision
    from repro.evaluation.executor import reset_worker_cache
    from repro.faults import reset_injector
    from repro.obs import tracing
    from repro.obs.metrics import counted
    from repro.workloads.suites import spec2006_programs

    if args.as_json:
        tracing.refresh()

    workloads = spec2006_programs()[:args.workloads]
    labels = tuple(label.strip() for label in args.labels.split(",")
                   if label.strip())
    differs = all_differs()[:args.tools]

    def rows(report):
        return [(r.program, r.suite, r.tool, r.label, r.precision,
                 r.similarity_score) for r in report.rows]

    say(f"chaos_check: {len(workloads)} workloads x {labels} x "
        f"{[d.name for d in differs]}, jobs={args.jobs}, "
        f"faults={args.faults!r}")

    phases: Dict[str, Dict[str, Any]] = {}
    telemetry: Dict[str, Any] = {}

    def run(jobs: int):
        """One fig8 run: its rows and the checkpoint.* / diffshard.*
        counters it bumped."""
        with counted("checkpoint") as run_counts, \
                counted("diffshard") as unit_counts:
            report = rows(measure_precision(workloads, labels, differs,
                                            jobs=jobs))
        return report, run_counts, unit_counts

    # 1. fault-free in-process reference (no store, no workers)
    reset_worker_cache()
    started = time.monotonic()
    reference, _, _ = run(jobs=1)
    phases["reference"] = {"seconds": time.monotonic() - started,
                           "rows": len(reference), "ok": True}
    say(f"  reference: {len(reference)} rows")

    tree = tempfile.mkdtemp(prefix="chaos-store-")
    failures = 0
    try:
        # 2. chaos run: crashes + corruption over a fresh shared tree
        os.environ["REPRO_STORE_DIR"] = tree
        os.environ["REPRO_FAULTS"] = args.faults
        reset_worker_cache()
        reset_injector()
        started = time.monotonic()
        chaos, chaos_run, stats = run(jobs=args.jobs)
        identical = chaos == reference
        phases["chaos"] = {"seconds": time.monotonic() - started,
                           "rows": len(chaos), "ok": identical,
                           "shards_executed": chaos_run["executed"],
                           "units_scored": stats["units_scored"]}
        telemetry["chaos_counters"] = _merged_counters(tree)
        if identical:
            say(f"  chaos run: bit-identical "
                f"({chaos_run['executed']} shards executed, "
                f"{stats['units_scored']} units scored)")
        else:
            say("  chaos run: REPORT DIVERGED FROM THE REFERENCE")
            failures += 1

        # 3. resume over the same tree, faults off: every journaled unit is
        # served from the store, zero units re-scored.  (A shard whose
        # *journal object* was itself a corruption victim re-executes as
        # pure store reads — the manifest is advisory, the store is the
        # truth — so the strict assertion is on scored units, not shards.)
        os.environ.pop("REPRO_FAULTS", None)
        reset_worker_cache()
        reset_injector()
        started = time.monotonic()
        resumed, resume_run, resumed_stats = run(jobs=args.jobs)
        ok = (resumed == reference and resumed_stats["units_scored"] == 0)
        phases["resume"] = {"seconds": time.monotonic() - started,
                            "rows": len(resumed), "ok": ok,
                            "shards_resumed": resume_run["resumed"],
                            "shards_planned": resume_run["planned"],
                            "shards_executed": resume_run["executed"],
                            "units_scored": resumed_stats["units_scored"]}
        if ok:
            say(f"  resume: {resume_run['resumed']}/{resume_run['planned']} "
                f"shards revived from the journal "
                f"({resume_run['executed']} re-read from store), "
                f"zero units re-scored")
        else:
            say(f"  resume: FAILED (executed={resume_run['executed']}, "
                f"resumed={resume_run['resumed']}/{resume_run['planned']}, "
                f"units_scored={resumed_stats['units_scored']}, "
                f"identical={resumed == reference})")
            failures += 1

        # 4. the tree must fsck clean after repairs
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "fsck_store.py")
        started = time.monotonic()
        result = subprocess.run([sys.executable, script, "--repair", tree],
                                env=dict(os.environ), capture_output=True,
                                text=True)
        phases["fsck"] = {"seconds": time.monotonic() - started,
                          "ok": result.returncode == 0}
        out.write(result.stdout)
        if result.returncode != 0:
            sys.stderr.write(result.stderr)
            say("  fsck: FAILED")
            failures += 1
        else:
            say("  fsck: clean")

        telemetry["counters"] = _merged_counters(tree)
        telemetry["run_dir"] = _latest_run_dir(tree)
    finally:
        os.environ.pop("REPRO_STORE_DIR", None)
        os.environ.pop("REPRO_FAULTS", None)
        if args.keep_tree:
            say(f"  store tree kept at {tree}")
        else:
            shutil.rmtree(tree, ignore_errors=True)
            telemetry.pop("run_dir", None)

    say("chaos_check: OK" if not failures
        else f"chaos_check: {failures} phase(s) FAILED")
    if args.as_json:
        json.dump({"schema": 1, "ok": not failures, "failures": failures,
                   "config": {"workloads": len(workloads),
                              "labels": list(labels),
                              "tools": [d.name for d in differs],
                              "jobs": args.jobs, "faults": args.faults,
                              "retries": args.retries},
                   "phases": phases, "telemetry": telemetry},
                  sys.stdout, indent=2, sort_keys=True)
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
