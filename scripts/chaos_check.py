#!/usr/bin/env python
"""Seeded chaos check: the fig8 matrix under injected faults, bit-identical.

The CI chaos job's driver.  Runs the figure-8 matrix (one unit per
workload) three times and requires all of them to agree with the
fault-free in-process run:

1. **reference** — ``measure_precision`` at ``jobs=1``: in-process, no
   store, no faults;
2. **chaos** — ``measure_precision`` with ``jobs=2`` over a fresh
   store tree, with seeded worker crashes and store corruption injected
   (``worker_crash:p=0.2,seed=7;store_corrupt:p=0.1,seed=7`` by default):
   the supervised executor must retry/respawn through the crashes and the
   store must quarantine + rebuild through the corruption, and the merged
   report must still be **bit-identical** to the reference;
3. **resume** — the same matrix again over the same tree with faults off:
   every unit must revive from its stored rows and no cell may be scored
   again, proving the checkpoint layer persisted through the chaos.

Finally ``fsck_store.py --repair`` must leave the tree clean (exit 0) —
corrupt objects the run never re-read get quarantined offline, and the
ledger/journals reconcile.

``--json`` emits a machine-readable report on stdout (the human narration
moves to stderr): per phase, its wall time, row count and the
:func:`repro.obs.measure` totals of its process and workers — the share of
its time in named layers (``coverage``) and the supervision / fault /
quarantine / checkpoint counters — plus those counters summed over the
phases and, with ``--keep-tree``, the store tree's path.

Exit status 0 only if every phase holds.  Runs in seconds on six
workloads × two labels × two tools — six units, enough for the default
seed to crash a worker and corrupt an object; scale with the flags.

Usage:
    PYTHONPATH=src python scripts/chaos_check.py
    PYTHONPATH=src python scripts/chaos_check.py --workloads 8 --jobs 4
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

#: Counter prefixes worth surfacing in the ``--json`` report.
COUNTER_PREFIXES = ("executor.", "faults.", "checkpoint.",
                    "store.corrupt_reads", "store.quarantined")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="seeded fig8 chaos check")
    parser.add_argument("--workloads", type=int, default=6)
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
                             "stderr")
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

    from repro.diffing import all_differs
    from repro.evaluation import measure_precision
    from repro.evaluation.executor import reset_worker_cache
    from repro.faults import reset_injector
    from repro.obs import measure
    from repro.workloads.suites import spec2006_programs

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
    counters: Dict[str, float] = {}

    def run(name: str, jobs: int):
        """One fig8 run as phase ``name``: its rows and its counters.

        Records the phase's seconds, rows, layer coverage and surfaced
        counters in ``phases``.
        """
        with measure() as totals:
            report = rows(measure_precision(workloads, labels, differs,
                                            jobs=jobs))
        surfaced = {key: value for key, value in sorted(totals.counters.items())
                    if key.startswith(COUNTER_PREFIXES)}
        for key, value in surfaced.items():
            counters[key] = counters.get(key, 0) + value
        phases[name] = {"seconds": totals.wall_s, "rows": len(report),
                        "coverage": totals.coverage, "counters": surfaced}
        return report, totals.counters

    # 1. fault-free in-process reference (no store, no workers)
    reset_worker_cache()
    reference, _ = run("reference", jobs=1)
    phases["reference"]["ok"] = True
    say(f"  reference: {len(reference)} rows, "
        f"{phases['reference']['coverage']:.1%} of the time in named layers")

    tree = tempfile.mkdtemp(prefix="chaos-store-")
    failures = 0
    try:
        # 2. chaos run: crashes + corruption over a fresh shared tree
        os.environ["REPRO_STORE_DIR"] = tree
        os.environ["REPRO_FAULTS"] = args.faults
        reset_worker_cache()
        reset_injector()
        chaos, chaos_run = run("chaos", jobs=args.jobs)
        identical = chaos == reference
        executed = chaos_run.get("checkpoint.executed", 0)
        scored = chaos_run.get("diffunit.cells_scored", 0)
        phases["chaos"].update(ok=identical, units_executed=executed,
                               cells_scored=scored)
        if identical:
            say(f"  chaos run: bit-identical ({executed} units executed, "
                f"{scored} cells scored)")
        else:
            say("  chaos run: REPORT DIVERGED FROM THE REFERENCE")
            failures += 1

        # 3. resume over the same tree, faults off: every unit revives from
        # its stored rows, zero cells re-scored
        os.environ.pop("REPRO_FAULTS", None)
        reset_worker_cache()
        reset_injector()
        resumed, resume_run = run("resume", jobs=args.jobs)
        stats = {name: resume_run.get(f"checkpoint.{name}", 0)
                 for name in ("resumed", "planned", "executed")}
        stats["cells_scored"] = resume_run.get("diffunit.cells_scored", 0)
        ok = resumed == reference and stats["cells_scored"] == 0
        phases["resume"].update(
            ok=ok, units_resumed=stats["resumed"],
            units_planned=stats["planned"], units_executed=stats["executed"],
            cells_scored=stats["cells_scored"])
        if ok:
            say(f"  resume: {stats['resumed']}/{stats['planned']} "
                f"units revived from the store, zero cells re-scored")
        else:
            say(f"  resume: FAILED (executed={stats['executed']}, "
                f"resumed={stats['resumed']}/{stats['planned']}, "
                f"cells_scored={stats['cells_scored']}, "
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
    finally:
        os.environ.pop("REPRO_STORE_DIR", None)
        os.environ.pop("REPRO_FAULTS", None)
        if args.keep_tree:
            say(f"  store tree kept at {tree}")
        else:
            shutil.rmtree(tree, ignore_errors=True)

    say("chaos_check: OK" if not failures
        else f"chaos_check: {failures} phase(s) FAILED")
    if args.as_json:
        json.dump({"schema": 2, "ok": not failures, "failures": failures,
                   "config": {"workloads": len(workloads),
                              "labels": list(labels),
                              "tools": [d.name for d in differs],
                              "jobs": args.jobs, "faults": args.faults,
                              "retries": args.retries},
                   "phases": phases, "counters": counters,
                   "tree": tree if args.keep_tree else None},
                  sys.stdout, indent=2, sort_keys=True)
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
