#!/usr/bin/env python
"""Interrupt-and-resume check: a killed fig8 run resumes bit-identically.

The CI resume job's driver.  Runs the figure-8 matrix on the first six
SPEC workloads (one unit each) × ``fission,fufi.ori`` × two tools and
requires a run that was killed part-way, then damaged, to resume to the
storeless serial result, executing only what it lacks:

1. **reference** — ``measure_precision`` at ``jobs=1``: in-process, no
   store;
2. **interrupt** — a child in its own session runs the matrix at
   ``jobs=2`` over a fresh store tree.  Once two of its unit (``shard``)
   objects exist, its whole process group is SIGKILLed, and the check
   waits (at most 30 s) until no process of the group remains.  A child
   that finishes before the kill fails the check;
3. **damage** — one finished unit object is overwritten with garbage;
4. **resume** — the matrix again at ``jobs=2`` over the same tree, in this
   process.  Its rows must equal the reference bit for bit, every intact
   unit must revive (``checkpoint.resumed`` = finished − 1), only the
   others may execute (``checkpoint.executed`` = planned − resumed), and the
   damaged object must be quarantined (``store.quarantined`` = 1);
5. **fsck** — ``fsck_store.py --repair`` must exit 0.

``--json`` emits a machine-readable report on stdout (the narration moves
to stderr): per phase, its seconds, its checks and, for the in-process
runs, the :func:`repro.obs.measure` coverage and counters; with
``--keep-tree``, the store tree's path.  Exit status 0 only if every phase
holds.

Usage:
    PYTHONPATH=src python scripts/resume_check.py
    PYTHONPATH=src python scripts/resume_check.py --json --keep-tree > resume.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

WORKLOADS = 6
LABELS = ("fission", "fufi.ori")
TOOLS = 2
JOBS = 2
#: Units the interrupted run finishes before it is killed.
KILL_AFTER = 2
#: Longest the killed group may take to disappear.
GONE_TIMEOUT_S = 30.0
#: Longest the child may run before the check kills it anyway.
CHILD_DEADLINE_S = 300.0

#: Counter prefixes worth surfacing in the ``--json`` report.
COUNTER_PREFIXES = ("executor.", "checkpoint.", "store.corrupt_reads",
                    "store.quarantined")


def _rows(jobs: int):
    from repro.diffing import all_differs
    from repro.evaluation import measure_precision
    from repro.workloads.suites import spec2006_programs
    report = measure_precision(spec2006_programs()[:WORKLOADS], LABELS,
                               all_differs()[:TOOLS], jobs=jobs)
    return [(r.program, r.suite, r.tool, r.label, r.precision,
             r.similarity_score) for r in report.rows]


def _shards(tree: str) -> List[str]:
    """The unit objects of ``tree``'s current generation, published ones
    only (no temp files)."""
    from repro.store import code_fingerprint
    return sorted(glob.glob(os.path.join(tree, "objects", code_fingerprint(),
                                         "shard", "*", "*.pkl")))


def _group_gone(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="fig8 interrupt-and-resume "
                                                 "check")
    parser.add_argument("--keep-tree", action="store_true",
                        help="print and keep the store tree for inspection")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="structured report on stdout, narration on "
                             "stderr")
    parser.add_argument("--child", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name in ("REPRO_JOBS", "REPRO_STORE_DIR"):
        os.environ.pop(name, None)

    if args.child:  # the run to interrupt
        os.environ["REPRO_STORE_DIR"] = args.child
        _rows(JOBS)
        return 0

    out = sys.stderr if args.as_json else sys.stdout

    def say(text: str) -> None:
        print(text, file=out)

    from repro.obs import measure
    # what the runs call, imported before the first measured phase: the
    # import (and, without cached bytecode, the compile) belongs to no layer
    import repro.diffing  # noqa: F401
    import repro.evaluation  # noqa: F401
    import repro.workloads.suites  # noqa: F401

    say(f"resume_check: {WORKLOADS} workloads x {LABELS} x {TOOLS} tools, "
        f"jobs={JOBS}, kill after {KILL_AFTER} units")
    phases: Dict[str, Dict[str, Any]] = {}

    def measured(name: str, jobs: int):
        with measure() as totals:
            rows = _rows(jobs)
        counters = {key: value for key, value in sorted(totals.counters.items())
                    if key.startswith(COUNTER_PREFIXES)}
        phases[name] = {"seconds": totals.wall_s, "rows": len(rows),
                        "coverage": totals.coverage, "counters": counters}
        return rows, totals.counters

    # 1. storeless in-process reference
    reference, _ = measured("reference", jobs=1)
    phases["reference"]["ok"] = True
    say(f"  reference: {len(reference)} rows, "
        f"{phases['reference']['coverage']:.1%} of the time in named layers")

    tree = tempfile.mkdtemp(prefix="resume-store-")
    failures = 0
    try:
        # 2. a parallel run over a fresh tree, killed part-way
        started = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", tree],
            stdout=subprocess.DEVNULL, start_new_session=True)
        while (child.poll() is None and len(_shards(tree)) < KILL_AFTER
               and time.monotonic() - started < CHILD_DEADLINE_S):
            time.sleep(0.01)
        killed = child.poll() is None
        if killed:
            os.killpg(child.pid, signal.SIGKILL)
        kill_s = time.monotonic() - started
        child.wait()
        while (not _group_gone(child.pid)
               and time.monotonic() - started - kill_s < GONE_TIMEOUT_S):
            time.sleep(0.05)
        gone = _group_gone(child.pid)
        gone_s = time.monotonic() - started - kill_s
        finished = len(_shards(tree))
        ok = killed and gone and 0 < finished < WORKLOADS
        phases["interrupt"] = {"ok": ok, "killed": killed, "kill_s": kill_s,
                               "group_gone": gone, "gone_s": gone_s,
                               "finished": finished}
        if ok:
            say(f"  interrupt: killed at {kill_s:.2f}s with {finished} "
                f"units finished; group gone {gone_s:.2f}s later")
        else:
            say(f"  interrupt: FAILED (killed={killed}, group gone={gone}, "
                f"{finished} units finished, child exit {child.returncode})")
            failures += 1

        # 3. damage one finished unit
        if finished:
            with open(_shards(tree)[0], "wb") as fh:
                fh.write(b"garbage")

        # 4. resume over the damaged tree, in-process
        os.environ["REPRO_STORE_DIR"] = tree
        resumed, counters = measured("resume", jobs=JOBS)
        counts = {name: int(counters.get(f"checkpoint.{name}", 0))
                  for name in ("planned", "resumed", "executed")}
        counts["quarantined"] = int(counters.get("store.quarantined", 0))
        ok = (resumed == reference and counts["resumed"] == finished - 1
              and counts["executed"] == counts["planned"] - counts["resumed"]
              and counts["quarantined"] == 1)
        phases["resume"].update(ok=ok, **counts)
        if ok:
            say(f"  resume: bit-identical; {counts['resumed']} units "
                f"revived, {counts['executed']} executed, "
                f"{counts['quarantined']} quarantined")
        else:
            say(f"  resume: FAILED ({counts}, "
                f"identical={resumed == reference})")
            failures += 1

        # 5. the tree must fsck clean after repairs
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "fsck_store.py")
        started = time.monotonic()
        result = subprocess.run([sys.executable, script, "--repair", tree],
                                capture_output=True, text=True)
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
        if args.keep_tree:
            say(f"  store tree kept at {tree}")
        else:
            shutil.rmtree(tree, ignore_errors=True)

    say("resume_check: OK" if not failures
        else f"resume_check: {failures} phase(s) FAILED")
    if args.as_json:
        json.dump({"schema": 1, "ok": not failures, "failures": failures,
                   "config": {"workloads": WORKLOADS, "labels": list(LABELS),
                              "tools": TOOLS, "jobs": JOBS,
                              "kill_after": KILL_AFTER},
                   "phases": phases,
                   "tree": tree if args.keep_tree else None},
                  sys.stdout, indent=2, sort_keys=True)
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
