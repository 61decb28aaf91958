#!/usr/bin/env python
"""Generation-aware mark-and-sweep for an artifact-store tree.

A store tree only ever grows: every matrix run appends variants and
journaled unit results, and nothing ever deletes them.  That is the right
default — artifacts are deterministic and cheap to keep — but a
long-lived tree accumulates objects no journal references any more:
superseded matrices, abandoned label sets, interrupted runs' leftovers, the
retired kinds of older pipelines.  ``gc_store`` reclaims exactly those.

**Mark.**  The roots are the run journals under ``runs/<run_id>.jsonl``,
which list every unit a run completed or revived, so *live* means
journal-reachable:

* every journaled shard digest marks its ``shard`` object live;
* each live shard object's envelope carries its value-based key, and the
  key prefix determines which variants (kind ``variant``) that unit reads:
  ``fig67shard`` and ``diffunit`` (figs 8/10) units read the baseline and
  every label's variant, ``fig9unit`` units the baseline, its opt-level
  references and the Khaos build;
* the retired ``diffshard`` and ``fig9shard`` prefixes of older trees mark
  only their own ``shard`` object, so the variants, ``features`` and
  ``diff`` objects only they reached are swept;
* an unreadable shard envelope or an unknown key prefix flips the sweep
  **conservative**: only unreferenced ``shard`` objects are collected and
  every other kind is kept, because reachability can no longer be derived.
  Unknown *kinds* are never swept at all.

**Sweep** deletes every unmarked object, then rewrites the
:class:`~repro.store.generation_log.GenerationLog` ledger to the survivors
and prunes emptied shard directories.  Two protections soften the sweep:

* ``--grace SECONDS`` (default 3600) keeps any object younger than the
  window, whatever its reachability — a concurrent run writes objects
  *before* journaling the shard that references them, and the grace window
  is what makes that ordering safe;
* ``--keep-generations N`` keeps every object whose ledger line was written
  in the newest ``N`` tree generations (the ``gen`` stamp on each ledger
  line), journal-referenced or not — ledger lines without a stamp (older
  trees) are treated as newest, i.e. kept.

``--dry-run`` computes the full report without deleting anything.  Exit
status: 0 on success (including nothing-to-collect), 2 when the tree
cannot be scanned.  The tree stays valid for concurrent *readers*
throughout (objects vanish atomically; a vanished object reads as a miss
and rebuilds); concurrent writers are protected by the grace window.

Usage:
    PYTHONPATH=src python scripts/gc_store.py /path/to/store --dry-run
    PYTHONPATH=src python scripts/gc_store.py /path/to/store --json
    PYTHONPATH=src python scripts/gc_store.py /path/to/store --grace 600
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.evaluation.bintuner_compare import OPT_LEVELS
from repro.evaluation.checkpoint import RUNS_DIR, _parse_journal
from repro.opt.pass_manager import OptOptions
from repro.store import (CORRUPT_READ_ERRORS, KEY_SCHEMA, OBJECTS_DIR,
                         STORE_SCHEMA, GenerationLog, store_digest)
from repro.store.artifact_store import (KIND_BINARY, KIND_DIFF, KIND_FEATURES,
                                        KIND_SHARD, KIND_VARIANT,
                                        load_envelope)
from repro.store.backend import LocalBackend
from repro.store.keys import _freeze, config_cache_key
from repro.toolchain import obfuscator_for

#: The kinds this tool understands and may sweep, the retired ``binary``,
#: ``features`` and ``diff`` included.  Anything else in the tree was
#: written by a newer pipeline and is left strictly alone.
KNOWN_KINDS = (KIND_VARIANT, KIND_BINARY, KIND_FEATURES, KIND_DIFF,
               KIND_SHARD)

#: Shard key prefixes of retired unit shapes (function-sliced figs 8/10,
#: per-protection fig 9), which older trees still journal.
RETIRED_PREFIXES = ("diffshard", "fig9shard")

#: Default grace window (seconds): objects younger than this are never
#: collected, so a concurrent run's not-yet-journaled writes survive.
DEFAULT_GRACE = 3600.0


def _decode_envelope(data: bytes, kind: str) -> Optional[object]:
    """The ``key`` of one serialized envelope, or ``None`` on damage.

    GC is read-only over object payloads — damage is *not* quarantined
    here (that is ``fsck_store``'s job); it just makes the sweep
    conservative.
    """
    try:
        envelope = load_envelope(data)
    except CORRUPT_READ_ERRORS:
        return None
    if (not isinstance(envelope, dict)
            or envelope.get("store_schema") != STORE_SCHEMA
            or envelope.get("key_schema") != KEY_SCHEMA
            or envelope.get("kind") != kind
            or "key" not in envelope):
        return None
    return envelope


def _mark(live: Set[Tuple[str, str]], kind: str, key: object) -> None:
    live.add((kind, store_digest(kind, key)))


def _with_config(variant_key: Tuple, config: object) -> Tuple:
    """``variant_key`` with its configuration component replaced."""
    return variant_key[:4] + (config,) + variant_key[5:]


def _with_options(variant_key: Tuple, frozen_options: object) -> Tuple:
    """``variant_key`` with its optimization-options component replaced."""
    return variant_key[:5] + (frozen_options,)


def _derive_from_shard_key(shard_key: object,
                           live: Set[Tuple[str, str]]) -> bool:
    """Mark every variant one journaled unit reads.

    Returns ``False`` when the key shape is unknown — the caller then
    degrades the whole sweep to conservative mode.
    """
    if not isinstance(shard_key, tuple) or not shard_key:
        return False
    prefix = shard_key[0]

    if prefix in RETIRED_PREFIXES:
        return True  # the shard object itself is the only thing it roots

    if prefix == "diffunit" and len(shard_key) == 4:
        _tag, base_vk, label_configs, _differ_keys = shard_key
        if not isinstance(label_configs, tuple):
            return False
        base_vk = tuple(base_vk)
        _mark(live, KIND_VARIANT, base_vk)
        for config in label_configs:
            _mark(live, KIND_VARIANT, _with_config(base_vk, config))
        return True

    if prefix == "fig9unit" and len(shard_key) == 4:
        _tag, base_vk, khaos_config, _iterations = shard_key
        base_vk = tuple(base_vk)
        # the four opt-level references, the O2 baseline (for the overhead
        # run) and the Khaos build
        _mark(live, KIND_VARIANT, base_vk)
        for level in OPT_LEVELS:
            options = OptOptions(level=level, lto=level >= 2)
            _mark(live, KIND_VARIANT, _with_options(base_vk, _freeze(options)))
        _mark(live, KIND_VARIANT, _with_config(base_vk, khaos_config))
        return True

    if prefix == "fig67shard" and len(shard_key) == 3:
        _tag, base_vk, labels = shard_key
        base_vk = tuple(base_vk)
        _mark(live, KIND_VARIANT, base_vk)
        if not isinstance(labels, tuple):
            return False
        for label in labels:
            if not isinstance(label, str):
                return False
            if label == "baseline":
                continue
            _mark(live, KIND_VARIANT, _with_config(
                base_vk, config_cache_key(obfuscator_for(label))))
        return True

    return False


def _load_roots(root: str) -> Tuple[Dict[str, Set[str]], int]:
    """Journaled shard digests per run journal, plus the journal count."""
    roots: Dict[str, Set[str]] = {}
    runs_dir = os.path.join(root, RUNS_DIR)
    journals = 0
    if not os.path.isdir(runs_dir):
        return roots, journals
    for name in sorted(os.listdir(runs_dir)):
        if not name.endswith(".jsonl"):
            continue
        journals += 1
        try:
            with open(os.path.join(runs_dir, name), "r",
                      encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            continue
        digests = _parse_journal(text)
        if digests:
            roots[name] = digests
    return roots, journals


def _prune_empty_dirs(root: str) -> int:
    """Remove emptied ``<aa>`` shard and kind directories; count removals."""
    pruned = 0
    objects_root = os.path.join(root, OBJECTS_DIR)
    if not os.path.isdir(objects_root):
        return pruned
    for kind in sorted(os.listdir(objects_root)):
        kind_dir = os.path.join(objects_root, kind)
        if not os.path.isdir(kind_dir):
            continue
        for shard in sorted(os.listdir(kind_dir)):
            shard_dir = os.path.join(kind_dir, shard)
            if os.path.isdir(shard_dir) and not os.listdir(shard_dir):
                try:
                    os.rmdir(shard_dir)
                    pruned += 1
                except OSError:
                    pass
        if os.path.isdir(kind_dir) and not os.listdir(kind_dir):
            try:
                os.rmdir(kind_dir)
                pruned += 1
            except OSError:
                pass
    return pruned


def collect(root: str, dry_run: bool = False, grace: float = DEFAULT_GRACE,
            keep_generations: int = 0) -> Dict[str, object]:
    """Mark-and-sweep ``root``; returns the report dict."""
    log = GenerationLog.load(root)  # ValueError on damage: caller reports
    if log is None:
        raise ValueError(f"{root!r} has no generation log — not a store "
                         f"tree (or never written to); refusing to sweep")
    if log.store_schema != STORE_SCHEMA or log.key_schema != KEY_SCHEMA:
        raise ValueError(
            f"tree stamped schema {log.store_schema}/{log.key_schema} but "
            f"this pipeline speaks {STORE_SCHEMA}/{KEY_SCHEMA}; a GC built "
            f"on mismatched key derivation would sweep live objects")
    backend = LocalBackend(root)

    # -- mark ---------------------------------------------------------------------
    roots, journals = _load_roots(root)
    root_digests: Set[str] = set()
    for digests in roots.values():
        root_digests |= digests
    live: Set[Tuple[str, str]] = set()
    conservative_causes: List[str] = []
    for digest in sorted(root_digests):
        live.add((KIND_SHARD, digest))
        data = backend.get(KIND_SHARD, digest)
        if data is None:
            continue  # journaled but lost: nothing reachable through it
        envelope = _decode_envelope(data, KIND_SHARD)
        if envelope is None:
            conservative_causes.append(f"unreadable shard {digest[:12]}")
            continue
        if not _derive_from_shard_key(envelope["key"], live):
            conservative_causes.append(
                f"unknown shard key shape in {digest[:12]}")
    conservative = bool(conservative_causes)

    # -- protection windows -------------------------------------------------------
    now = time.time()
    keep_gen_floor = None
    if keep_generations > 0:
        keep_gen_floor = log.generation - keep_generations + 1

    # -- sweep --------------------------------------------------------------------
    scanned = 0
    kept_live = 0
    kept_grace = 0
    kept_generation = 0
    kept_conservative = 0
    kept_unknown_kind = 0
    swept: Dict[str, int] = {}
    swept_refs: List[Tuple[str, str]] = []
    bytes_reclaimed = 0
    for kind, digest in backend.list_refs():
        scanned += 1
        if kind not in KNOWN_KINDS:
            kept_unknown_kind += 1
            continue
        if (kind, digest) in live:
            kept_live += 1
            continue
        if conservative and kind != KIND_SHARD:
            kept_conservative += 1
            continue
        if keep_gen_floor is not None:
            entry = log.entries.get(digest)
            gen = entry.get("gen") if entry else None
            if entry is not None and (gen is None or gen >= keep_gen_floor):
                kept_generation += 1
                continue
        path = backend.object_path(kind, digest)
        try:
            stat = os.stat(path)
        except OSError:
            continue  # raced away already
        if grace > 0 and now - stat.st_mtime < grace:
            kept_grace += 1
            continue
        if not dry_run:
            if not backend.delete(kind, digest):
                continue
        swept[kind] = swept.get(kind, 0) + 1
        swept_refs.append((kind, digest))
        bytes_reclaimed += stat.st_size

    # -- compaction ---------------------------------------------------------------
    pruned_dirs = 0
    ledger_dropped = 0
    if not dry_run and swept_refs:
        for _kind, digest in swept_refs:
            if log.entries.pop(digest, None) is not None:
                ledger_dropped += 1
        log.rewrite_entries(root)
        pruned_dirs = _prune_empty_dirs(root)

    return {
        "root": os.path.abspath(root),
        "dry_run": bool(dry_run),
        "generation": log.generation,
        "grace_seconds": grace,
        "keep_generations": keep_generations,
        "conservative": conservative,
        "conservative_causes": conservative_causes,
        "counts": {
            "journals": journals,
            "roots": len(root_digests),
            "objects_scanned": scanned,
            "live": kept_live,
            "kept_grace": kept_grace,
            "kept_generation": kept_generation,
            "kept_conservative": kept_conservative,
            "kept_unknown_kind": kept_unknown_kind,
            "swept": sum(swept.values()),
            "ledger_dropped": ledger_dropped,
            "pruned_dirs": pruned_dirs,
        },
        "swept_by_kind": dict(sorted(swept.items())),
        "bytes_reclaimed": bytes_reclaimed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="mark-and-sweep GC for an artifact-store tree")
    parser.add_argument("root", help="store tree root (REPRO_STORE_DIR)")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be collected; delete nothing")
    parser.add_argument("--grace", type=float, default=DEFAULT_GRACE,
                        metavar="SECONDS",
                        help="never collect objects younger than this "
                             f"(default {DEFAULT_GRACE:.0f}; 0 disables)")
    parser.add_argument("--keep-generations", type=int, default=0,
                        metavar="N",
                        help="keep every object ledgered in the newest N "
                             "tree generations, referenced or not")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full report as JSON")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.root):
        print(f"gc_store: {args.root}: not a directory", file=sys.stderr)
        return 2
    try:
        report = collect(args.root, dry_run=args.dry_run, grace=args.grace,
                         keep_generations=args.keep_generations)
    except ValueError as error:
        print(f"gc_store: {error}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        counts = report["counts"]
        verb = "would sweep" if report["dry_run"] else "swept"
        print(f"gc_store: {report['root']} (generation "
              f"{report['generation']})")
        print(f"  roots: {counts['roots']} journaled shards across "
              f"{counts['journals']} runs")
        print(f"  objects: {counts['objects_scanned']} scanned, "
              f"{counts['live']} live, {counts['kept_grace']} in grace, "
              f"{counts['kept_generation']} generation-kept")
        if report["conservative"]:
            print(f"  CONSERVATIVE sweep "
                  f"({'; '.join(report['conservative_causes'])}): "
                  f"{counts['kept_conservative']} kept unswept")
        by_kind = ", ".join(f"{kind}: {count}" for kind, count
                            in report["swept_by_kind"].items()) or "nothing"
        print(f"  {verb}: {counts['swept']} objects "
              f"({report['bytes_reclaimed']} bytes) — {by_kind}")
        if counts["ledger_dropped"] or counts["pruned_dirs"]:
            print(f"  compacted: {counts['ledger_dropped']} ledger entries, "
                  f"{counts['pruned_dirs']} empty dirs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
