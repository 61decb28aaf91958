#!/usr/bin/env python
"""Sweep the stale generations of an artifact-store tree.

Every object lives under its *generation*, the fingerprint of the code
that wrote it (:func:`repro.store.keys.code_fingerprint`):
``objects/<generation>/...`` and ``quarantine/<generation>/...``.  A
process reads and writes only its own generation, so the others are dead
weight once no process of their code runs any more, and ``gc_store``
deletes them whole: there is no reachability to derive.  A tree written
before objects carried their generation keeps them in ``objects/<kind>/``;
those directories are stale generations like any other.

Kept:

* the current generation, the fingerprint of the code running
  ``gc_store``;
* the newest ``--keep-generations N`` other generations (default 0),
  ranked by their newest file;
* any generation holding a file younger than ``--grace SECONDS`` (default
  3600; 0 disables), which a process of other code may still be writing.

``--dry-run`` reports the sweep without deleting anything.  Exit status: 0
on success (nothing to sweep included), 2 when ``root`` is not a store
tree.  Readers of a swept generation see its objects vanish, which reads
as a miss and rebuilds.

Usage:
    PYTHONPATH=src python scripts/gc_store.py /path/to/store --dry-run
    PYTHONPATH=src python scripts/gc_store.py /path/to/store --json
    PYTHONPATH=src python scripts/gc_store.py /path/to/store --grace 600
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.store import OBJECTS_DIR, code_fingerprint, is_store_tree
from repro.store.backend import fsync_directory, generations

#: Default grace window (seconds): a generation with a file younger than
#: this is never swept, so a concurrent run of other code keeps its tree.
DEFAULT_GRACE = 3600.0


def _scan(folders: List[str]) -> Tuple[float, int, int]:
    """The newest mtime, the file count and the bytes under ``folders``."""
    newest, files, size = 0.0, 0, 0
    for folder in folders:
        for parent, _subfolders, names in os.walk(folder):
            for name in names:
                try:
                    stat = os.stat(os.path.join(parent, name))
                except FileNotFoundError:
                    continue  # removed since the listing
                newest = max(newest, stat.st_mtime)
                files += 1
                size += stat.st_size
    return newest, files, size


def collect(root: str, dry_run: bool = False, grace: float = DEFAULT_GRACE,
            keep_generations: int = 0) -> Dict[str, object]:
    """Sweep every generation of ``root`` no protection keeps; returns the
    report dict."""
    if not is_store_tree(root):
        raise ValueError(f"{root!r} has no {OBJECTS_DIR}/ directory: not a "
                         f"store tree; refusing to sweep")
    current = code_fingerprint()
    found = generations(root)
    scans = {name: _scan(folders) for name, folders in found.items()}
    others = sorted((name for name in found if name != current),
                    key=lambda name: scans[name][0], reverse=True)
    kept = {current: "current"} if current in found else {}
    kept.update((name, "newest")
                for name in others[:max(keep_generations, 0)])
    now = time.time()
    swept: List[str] = []
    for name in others:
        if name in kept:
            continue
        if grace > 0 and now - scans[name][0] < grace:
            kept[name] = "grace"
            continue
        swept.append(name)
        if not dry_run:
            for folder in found[name]:
                shutil.rmtree(folder)
                fsync_directory(os.path.dirname(folder))
    return {
        "root": os.path.abspath(root),
        "dry_run": bool(dry_run),
        "generation": current,
        "grace_seconds": grace,
        "keep_generations": keep_generations,
        "kept": dict(sorted(kept.items())),
        "swept": sorted(swept),
        "counts": {
            "generations": len(found),
            "kept": len(kept),
            "swept": len(swept),
            "files_swept": sum(scans[name][1] for name in swept),
        },
        "bytes_reclaimed": sum(scans[name][2] for name in swept),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="sweep the stale generations of an artifact-store tree")
    parser.add_argument("root", help="store tree root (REPRO_STORE_DIR)")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be swept; delete nothing")
    parser.add_argument("--grace", type=float, default=DEFAULT_GRACE,
                        metavar="SECONDS",
                        help="keep any generation with a file younger than "
                             f"this (default {DEFAULT_GRACE:.0f}; 0 disables)")
    parser.add_argument("--keep-generations", type=int, default=0,
                        metavar="N",
                        help="keep the newest N generations besides the "
                             "current one")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full report as JSON")
    args = parser.parse_args(argv)

    try:
        report = collect(args.root, dry_run=args.dry_run, grace=args.grace,
                         keep_generations=args.keep_generations)
    except ValueError as error:
        print(f"gc_store: {error}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    counts = report["counts"]
    print(f"gc_store: {report['root']} (generation {report['generation']})")
    for name, reason in report["kept"].items():
        print(f"  kept {name} ({reason})")
    verb = "would sweep" if report["dry_run"] else "swept"
    names = ", ".join(report["swept"]) or "nothing"
    print(f"  {verb}: {counts['swept']} generations, {counts['files_swept']} "
          f"files ({report['bytes_reclaimed']} bytes) — {names}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
