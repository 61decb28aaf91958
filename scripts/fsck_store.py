#!/usr/bin/env python
"""Verify (and optionally repair) an on-disk artifact-store tree.

The store's runtime read path already self-heals one object at a time —
corrupt files are quarantined and rebuilt on demand.  ``fsck_store`` is the
offline complement: it walks the whole tree at once and reports everything
the runtime would eventually discover, so an operator can audit a tree
*before* pointing a matrix run at it.

Checks, per object file under ``objects/<kind>/<aa>/<digest>.pkl``:

* the envelope unpickles and carries the pipeline's ``STORE_SCHEMA`` /
  ``KEY_SCHEMA`` stamps and a matching ``kind`` (a payload class an older
  pipeline wrote and this one retired is no damage);
* the file's digest re-derives from the envelope's key
  (``store_digest(kind, key)``) and matches its file name and shard
  directory — a renamed or cross-linked object is corruption even when its
  pickle is pristine;
* stray files (wrong extension, temp leftovers from killed writers) are
  reported.

Ledger reconciliation against the :class:`GenerationLog`:

* ledger entries whose object file is missing (``ledger_orphans``) and
  object files the ledger never heard of (``unledgered``) are drift, not
  damage — the ledger is advisory — but both are reported and repairable.

``--repair`` quarantines every damaged object (same layout the runtime
uses: ``quarantine/<kind>/<digest>.pkl`` + ``.reason.json``), deletes stale
temp files, and rewrites the ledger to match the surviving objects.  The
run manifests under ``runs/`` are checked for journaled shard digests whose
store object is gone (``manifest_orphans``): harmless for resume (the shard
just re-executes) but repaired by dropping the stale journal lines.

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
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.store import (CORRUPT_READ_ERRORS, OBJECTS_DIR, QUARANTINE_DIR,
                         STORE_SCHEMA, GenerationLog, KEY_SCHEMA,
                         store_digest)
from repro.store.artifact_store import load_envelope
from repro.evaluation.checkpoint import RUNS_DIR


class Finding:
    """One problem found in the tree."""

    def __init__(self, code: str, path: str, detail: str,
                 repairable: bool = True):
        self.code = code
        self.path = path
        self.detail = detail
        self.repairable = repairable

    def as_dict(self) -> Dict[str, object]:
        return {"code": self.code, "path": self.path, "detail": self.detail,
                "repairable": self.repairable}


def _check_object(path: str, kind: str, shard: str,
                  digest: str) -> Tuple[Optional[object], Optional[Finding]]:
    """Validate one object file; returns (key, finding)."""
    try:
        with open(path, "rb") as fh:
            envelope = load_envelope(fh.read())
    except CORRUPT_READ_ERRORS as error:
        return None, Finding("corrupt_object", path,
                             f"{type(error).__name__}: {error}")
    if (not isinstance(envelope, dict)
            or envelope.get("store_schema") != STORE_SCHEMA
            or envelope.get("key_schema") != KEY_SCHEMA
            or envelope.get("kind") != kind
            or "payload" not in envelope or "key" not in envelope):
        return None, Finding("envelope_mismatch", path,
                             "envelope failed schema/kind validation")
    key = envelope["key"]
    try:
        derived = store_digest(kind, key)
    except TypeError as error:
        return None, Finding("bad_key", path, str(error))
    if derived != digest or digest[:2] != shard:
        return key, Finding(
            "digest_mismatch", path,
            f"file named {digest} in shard {shard} but key derives {derived}")
    return key, None


def fsck(root: str, repair: bool = False) -> Dict[str, object]:
    """Scan ``root``; returns the report dict (see ``counts``)."""
    findings: List[Finding] = []
    objects: Dict[str, str] = {}  # digest -> kind, for ledger reconciliation
    scanned = 0

    log: Optional[GenerationLog] = None
    try:
        log = GenerationLog.load(root)
    except ValueError as error:
        findings.append(Finding("bad_manifest", GenerationLog.path_for(root),
                                str(error), repairable=False))
    if log is not None and (log.store_schema != STORE_SCHEMA
                            or log.key_schema != KEY_SCHEMA):
        findings.append(Finding(
            "schema_mismatch", GenerationLog.path_for(root),
            f"tree stamped {log.store_schema}/{log.key_schema}, pipeline "
            f"speaks {STORE_SCHEMA}/{KEY_SCHEMA}", repairable=False))

    objects_root = os.path.join(root, OBJECTS_DIR)
    for kind in sorted(os.listdir(objects_root)) \
            if os.path.isdir(objects_root) else []:
        kind_dir = os.path.join(objects_root, kind)
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
                digest = name[:-len(".pkl")]
                _key, finding = _check_object(path, kind, shard, digest)
                if finding is None:
                    objects[digest] = kind
                else:
                    findings.append(finding)

    ledger_orphans: List[str] = []
    unledgered = 0
    if log is not None:
        for digest, entry in sorted(log.entries.items()):
            if digest not in objects:
                ledger_orphans.append(digest)
        unledgered = sum(1 for digest in objects if digest not in log.entries)

    manifest_orphans: Dict[str, List[str]] = {}
    runs_dir = os.path.join(root, RUNS_DIR)
    if os.path.isdir(runs_dir):
        for name in sorted(os.listdir(runs_dir)):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(runs_dir, name)
            stale: List[str] = []
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    lines = fh.readlines()
            except OSError:
                continue
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail: resume already tolerates it
                digest = entry.get("digest") \
                    if isinstance(entry, dict) else None
                if isinstance(digest, str) and digest not in objects:
                    stale.append(digest)
            if stale:
                manifest_orphans[name] = stale

    repaired = 0
    remaining: List[Finding] = []
    if repair:
        for finding in findings:
            fixed = False
            if finding.code in ("corrupt_object", "envelope_mismatch",
                                "bad_key", "digest_mismatch"):
                fixed = bool(_quarantine(root, finding))
            elif finding.code in ("stale_temp", "stray_file") \
                    and os.path.isfile(finding.path):
                try:
                    os.unlink(finding.path)
                    fixed = True
                except OSError:
                    fixed = False
            if fixed:
                repaired += 1
            else:
                remaining.append(finding)
        if log is not None and (ledger_orphans or unledgered):
            # rebuild the ledger from the surviving objects: drop orphans,
            # adopt unledgered objects with an fsck note
            for digest in ledger_orphans:
                log.entries.pop(digest, None)
            for digest, kind in objects.items():
                if digest not in log.entries:
                    log.entries[digest] = {"kind": kind,
                                           "note": "adopted by fsck"}
            log.rewrite_entries(root)
            repaired += len(ledger_orphans) + unledgered
            ledger_orphans = []
            unledgered = 0
        for name, stale in list(manifest_orphans.items()):
            path = os.path.join(runs_dir, name)
            _drop_manifest_lines(path, set(stale))
            repaired += len(stale)
        manifest_orphans = {}
    else:
        remaining = list(findings)

    # drift (ledger/journal entries out of sync with the objects) is
    # advisory by design — reported, repairable, but never a failure;
    # *damage* still on disk is
    clean = not remaining
    return {
        "root": os.path.abspath(root),
        "clean": bool(clean),
        "counts": {
            "objects_scanned": scanned,
            "objects_ok": len(objects),
            "problems": len(findings),
            "ledger_orphans": len(ledger_orphans),
            "unledgered": unledgered,
            "manifest_orphans": sum(len(v)
                                    for v in manifest_orphans.values()),
            "repaired": repaired,
        },
        "findings": [f.as_dict() for f in findings],
        "ledger_orphans": ledger_orphans,
        "manifest_orphans": manifest_orphans,
    }


def _quarantine(root: str, finding: Finding) -> int:
    """Move one damaged object into quarantine/ with a reason record."""
    path = finding.path
    rel = os.path.relpath(path, os.path.join(root, OBJECTS_DIR))
    parts = rel.split(os.sep)
    kind = parts[0] if len(parts) >= 1 else "unknown"
    name = os.path.basename(path)
    destination = os.path.join(root, QUARANTINE_DIR, kind, name)
    try:
        os.makedirs(os.path.dirname(destination), exist_ok=True)
        os.replace(path, destination)
        record = {"kind": kind, "digest": name[:-len(".pkl")]
                  if name.endswith(".pkl") else name,
                  "reason": finding.detail, "cause": finding.code,
                  "pid": os.getpid(), "quarantined_at": time.time(),
                  "by": "fsck_store"}
        reason_path = destination[:-len(".pkl")] + ".reason.json" \
            if destination.endswith(".pkl") else destination + ".reason.json"
        with open(reason_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
    except OSError:
        return 0
    return 1


def _drop_manifest_lines(path: str, stale: set) -> None:
    """Rewrite one run journal without the stale digests."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return
    kept: List[str] = []
    for line in lines:
        text = line.strip()
        if not text:
            continue
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            continue
        digest = entry.get("digest") if isinstance(entry, dict) else None
        if isinstance(digest, str) and digest in stale:
            continue
        kept.append(text + "\n")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(kept)
        os.replace(tmp, path)
    except OSError:
        pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="verify/repair an artifact-store tree")
    parser.add_argument("root", help="store tree root (REPRO_STORE_DIR)")
    parser.add_argument("--repair", action="store_true",
                        help="quarantine damage, reconcile ledger + journals")
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
        print(f"fsck_store: {report['root']}")
        print(f"  objects scanned: {counts['objects_scanned']}, "
              f"ok: {counts['objects_ok']}")
        for finding in report["findings"]:
            print(f"  [{finding['code']}] {finding['path']}: "
                  f"{finding['detail']}")
        if counts["ledger_orphans"]:
            print(f"  ledger orphans: {counts['ledger_orphans']}")
        if counts["unledgered"]:
            print(f"  unledgered objects: {counts['unledgered']}")
        if counts["manifest_orphans"]:
            print(f"  run-journal orphans: {counts['manifest_orphans']}")
        if counts["repaired"]:
            print(f"  repaired: {counts['repaired']}")
        print("  clean" if report["clean"] else "  PROBLEMS FOUND")
    return 0 if report["clean"] else 1


if __name__ == "__main__":
    sys.exit(main())
