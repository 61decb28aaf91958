"""Cross-process telemetry collection.

The coordinator (``run_checkpointed``, or any driver) opens a *telemetry
run*: a directory ``<store>/telemetry/<run_id>/`` that this module keeps as
the process's active run (:func:`telemetry_dir`).  The supervised executor
hands that path to its workers inside each task payload.  Each process —
workers at task boundaries, the coordinator at run exit — appends its
buffered spans plus a metrics snapshot to its own ``<pid>.jsonl``; nobody
ever writes another process's file, so no locking is needed.  At run exit
the coordinator merges every shard file with the stable order
``(ts, pid, seq)`` and writes the two exports (``trace.json`` Chrome
trace-event JSON + ``metrics.json``).

A run only opens when tracing is on (``REPRO_TRACE``): the default pipeline
writes no telemetry files at all.  Nested opens (a fig8 driver inside a
bench inside a test) are no-ops — the outermost run owns the directory.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from . import tracing
from .metrics import REGISTRY, merge_snapshots

#: The directory of the telemetry run this process owns, while one is open.
_run_dir: Optional[str] = None


def telemetry_dir() -> Optional[str]:
    """The active run directory this process flushes into (or None)."""
    return _run_dir


def flush(directory: Optional[str]) -> Optional[str]:
    """Append this process's buffered spans + a metrics snapshot to its
    ``<pid>.jsonl`` shard file in ``directory``.  Called by workers at task
    boundaries and by the coordinator at run exit; a no-op for ``None``."""
    if directory is None:
        return None
    records = tracing.drain() if tracing.active() else []
    path = os.path.join(directory, "%d.jsonl" % os.getpid())
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True,
                                    default=repr) + "\n")
            snap = REGISTRY.snapshot()
            if snap["counters"] or snap["gauges"] or snap["histograms"]:
                fh.write(json.dumps(
                    {"type": "metrics", "pid": os.getpid(), **snap},
                    sort_keys=True, default=repr) + "\n")
    except OSError:
        return None        # telemetry must never fail the pipeline
    return path


class TelemetryRun:
    """Context manager owning one ``telemetry/<run_id>/`` directory."""

    def __init__(self, directory: str, run_id: str) -> None:
        self.directory = directory
        self.run_id = run_id
        self.owned = False          # outermost open owns the merge

    def __enter__(self) -> "TelemetryRun":
        global _run_dir
        if _run_dir is not None:              # nested: outer run owns it
            self.directory = _run_dir
            return self
        os.makedirs(self.directory, exist_ok=True)
        _run_dir = self.directory
        self.owned = True
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        global _run_dir
        if not self.owned:
            return
        flush(self.directory)
        try:
            finalize_run(self.directory)
        except OSError:
            pass
        _run_dir = None


class _NullRun:
    directory = None
    run_id = None

    def __enter__(self) -> "_NullRun":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


def open_run(store_root: Optional[str], run_id: str):
    """Open a telemetry run under ``<store_root>/telemetry/<run_id>/``.

    Returns a no-op context when tracing is off or there is no store tree
    to put the run in.
    """
    if store_root is None or not tracing.active():
        return _NullRun()
    return TelemetryRun(os.path.join(str(store_root), "telemetry", run_id),
                        run_id)


def read_shards(directory: str) -> Tuple[List[Dict[str, Any]],
                                         List[Dict[str, Any]]]:
    """Read every per-pid shard file: (trace records, metrics snapshots)."""
    records: List[Dict[str, Any]] = []
    snapshots: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return records, snapshots
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        try:
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue          # truncated trailing line
                    if record.get("type") == "metrics":
                        snapshots.append(record)
                    else:
                        records.append(record)
        except OSError:
            continue
    return records, snapshots


def merge_records(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Deterministic global order: ``(ts, pid, seq)``.

    ``seq`` is process-local and monotonic, so two merges of the same
    shard files always agree — including ties on the microsecond clock.
    """
    return sorted(records, key=lambda r: (r.get("ts", 0), r.get("pid", 0),
                                          r.get("seq", 0)))


def finalize_run(directory: str) -> Dict[str, str]:
    """Merge shard files and write ``trace.json`` + ``metrics.json``."""
    from .export import write_chrome_trace, write_metrics
    records, snapshots = read_shards(directory)
    merged = merge_records(records)
    trace_path = os.path.join(directory, "trace.json")
    metrics_path = os.path.join(directory, "metrics.json")
    write_chrome_trace(trace_path, merged)
    # later snapshots from the same pid supersede earlier ones (counters
    # are monotonic within a process), then pids sum
    last: Dict[int, Dict[str, Any]] = {}
    for snap in snapshots:
        last[int(snap.get("pid", 0))] = snap
    write_metrics(metrics_path,
                  merge_snapshots([last[pid] for pid in sorted(last)]),
                  per_pid={str(pid): {k: last[pid].get(k, {})
                                      for k in ("counters", "gauges",
                                                "histograms")}
                           for pid in sorted(last)})
    return {"trace": trace_path, "metrics": metrics_path}
