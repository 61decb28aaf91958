#!/usr/bin/env python
"""Verify (and optionally repair) an on-disk artifact-store tree.

The store's runtime read path already self-heals one object at a time —
corrupt files are quarantined and rebuilt on demand.  ``fsck_store`` is the
offline complement: it walks the whole tree at once and reports everything
the runtime would eventually discover, so an operator can audit a tree
*before* pointing a matrix run at it.

It checks the current generation, the one the code running it reads and
writes (:func:`repro.store.keys.code_fingerprint`).  Per object file under
``objects/<generation>/<kind>/<aa>/<digest>.pkl``:

* the envelope unpickles and carries a matching ``kind``, a ``key`` and a
  ``payload``;
* the file's digest re-derives from the envelope's key
  (``store_digest(kind, key)``) and matches its file name and shard
  directory — a renamed or cross-linked object is corruption even when its
  pickle is pristine;
* stray files (wrong extension, temp leftovers from killed writers) are
  reported.

Other generations, written by other code, are listed as advisory and never
fail the check: nothing reads them, and ``gc_store.py`` sweeps them.

``--repair`` quarantines every damaged object through the runtime's own
move (:meth:`repro.store.backend.LocalBackend.quarantine`: same layout,
``quarantine/<generation>/<kind>/<digest>.pkl`` + ``.reason.json``, and
the same fsyncs) and deletes stale temp and stray files.

Exit status: 0 when the tree is clean (after repairs, with ``--repair``),
1 when problems remain, 2 when the tree cannot be checked at all.

Usage:
    PYTHONPATH=src python scripts/fsck_store.py /path/to/store
    PYTHONPATH=src python scripts/fsck_store.py --repair --json /path/to/store
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time
from typing import Dict, List, Optional

from repro.store import (CORRUPT_READ_ERRORS, LocalBackend, code_fingerprint,
                         store_digest)
from repro.store.backend import generations


class Finding:
    """One problem found in the tree."""

    def __init__(self, code: str, path: str, detail: str):
        self.code = code
        self.path = path
        self.detail = detail

    def as_dict(self) -> Dict[str, object]:
        return {"code": self.code, "path": self.path, "detail": self.detail}


def _check_object(path: str, kind: str, shard: str,
                  digest: str) -> Optional[Finding]:
    """Validate one object file; returns its finding, if any."""
    try:
        with open(path, "rb") as fh:
            envelope = pickle.loads(fh.read())
    except CORRUPT_READ_ERRORS as error:
        return Finding("corrupt_object", path,
                       f"{type(error).__name__}: {error}")
    if (not isinstance(envelope, dict)
            or envelope.get("kind") != kind
            or "payload" not in envelope or "key" not in envelope):
        return Finding("envelope_mismatch", path,
                       "envelope failed kind validation")
    try:
        derived = store_digest(kind, envelope["key"])
    except TypeError as error:
        return Finding("bad_key", path, str(error))
    if derived != digest or digest[:2] != shard:
        return Finding(
            "digest_mismatch", path,
            f"file named {digest} in shard {shard} but key derives {derived}")
    return None


def fsck(root: str, repair: bool = False) -> Dict[str, object]:
    """Scan ``root``'s current generation; returns the report dict."""
    backend = LocalBackend(root, code_fingerprint())
    findings: List[Finding] = []
    objects_ok = 0
    scanned = 0

    for kind in sorted(os.listdir(backend.objects)) \
            if os.path.isdir(backend.objects) else []:
        kind_dir = os.path.join(backend.objects, kind)
        if not os.path.isdir(kind_dir):
            findings.append(Finding("stray_file", kind_dir,
                                    "file where a kind directory belongs"))
            continue
        for shard in sorted(os.listdir(kind_dir)):
            shard_dir = os.path.join(kind_dir, shard)
            if not os.path.isdir(shard_dir):
                findings.append(Finding("stray_file", shard_dir,
                                        "file where a shard directory belongs"))
                continue
            for name in sorted(os.listdir(shard_dir)):
                path = os.path.join(shard_dir, name)
                if ".tmp." in name:
                    findings.append(Finding("stale_temp", path,
                                            "leftover from a killed writer"))
                    continue
                if not name.endswith(".pkl"):
                    findings.append(Finding("stray_file", path,
                                            "not an object file"))
                    continue
                scanned += 1
                finding = _check_object(path, kind, shard,
                                        name[:-len(".pkl")])
                if finding is None:
                    objects_ok += 1
                else:
                    findings.append(finding)

    repaired = 0
    remaining: List[Finding] = []
    for finding in findings:
        if not repair:
            fixed = False
        elif finding.code in ("stale_temp", "stray_file"):
            fixed = _unlink(finding.path)
        else:
            fixed = _quarantine(backend, finding)
        if fixed:
            repaired += 1
        else:
            remaining.append(finding)

    others = sorted(set(generations(root)) - {backend.generation})
    return {
        "root": os.path.abspath(root),
        "generation": backend.generation,
        "clean": not remaining,
        "counts": {
            "objects_scanned": scanned,
            "objects_ok": objects_ok,
            "problems": len(findings),
            "repaired": repaired,
            "other_generations": len(others),
        },
        "findings": [f.as_dict() for f in findings],
        "other_generations": others,
    }


def _unlink(path: str) -> bool:
    if not os.path.isfile(path):
        return False
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _quarantine(backend: LocalBackend, finding: Finding) -> bool:
    """Move one damaged object into the generation's quarantine with a
    reason record, exactly as durably as the runtime does."""
    path = finding.path
    kind = os.path.relpath(path, backend.objects).split(os.sep)[0]
    digest = os.path.basename(path)[:-len(".pkl")]
    record = {"kind": kind, "digest": digest,
              "reason": finding.detail, "cause": finding.code,
              "pid": os.getpid(), "quarantined_at": time.time(),
              "by": "fsck_store"}
    return backend.quarantine(kind, digest, record, path=path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="verify/repair an artifact-store tree")
    parser.add_argument("root", help="store tree root (REPRO_STORE_DIR)")
    parser.add_argument("--repair", action="store_true",
                        help="quarantine damage, delete temp and stray files")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full report as JSON")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.root):
        print(f"fsck_store: {args.root}: not a directory", file=sys.stderr)
        return 2
    report = fsck(args.root, repair=args.repair)
    if args.as_json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        counts = report["counts"]
        print(f"fsck_store: {report['root']} "
              f"(generation {report['generation']})")
        print(f"  objects scanned: {counts['objects_scanned']}, "
              f"ok: {counts['objects_ok']}")
        for finding in report["findings"]:
            print(f"  [{finding['code']}] {finding['path']}: "
                  f"{finding['detail']}")
        if report["other_generations"]:
            print("  other generations (advisory; gc_store.py sweeps them): "
                  + ", ".join(report["other_generations"]))
        if counts["repaired"]:
            print(f"  repaired: {counts['repaired']}")
        print("  clean" if report["clean"] else "  PROBLEMS FOUND")
    return 0 if report["clean"] else 1


if __name__ == "__main__":
    sys.exit(main())
