"""The store's byte layer: the on-disk object tree.

:class:`~repro.store.artifact_store.ArtifactStore` owns the *semantic*
layer — key freezing, content addressing, the pickle envelope, the LRU,
quarantine policy, counters.  :class:`LocalBackend` owns the *byte* layer
underneath it: opaque serialized envelopes addressed by ``(kind, digest)``
in an object tree (``objects/<kind>/<aa>/<digest>.pkl``) written with a
single-writer atomic protocol that is crash-durable: the payload temp file
is ``fsync``\\ ed before ``os.replace`` publishes it and the containing
directory is ``fsync``\\ ed after, so a power loss can neither publish a
torn object nor lose a published rename.  Deletes and quarantine moves
``fsync`` the directories they change, and a quarantine reason record is
``fsync``\\ ed before it is published.

The backend is deliberately *dumb about payloads*: it moves bytes and
reports what happened.  Envelope validation, corruption quarantine and
rebuild policy stay in ``ArtifactStore``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

#: A backend-level object address: ``(kind, digest)``.
ObjectRef = Tuple[str, str]

#: Subdirectory holding the content-addressed object files.
OBJECTS_DIR = "objects"

#: Subdirectory corrupt objects are moved into (with a reason record).
QUARANTINE_DIR = "quarantine"


def fsync_directory(path: str) -> None:
    """Best-effort directory fsync — makes a completed rename durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class LocalBackend:
    """The on-disk object tree, with crash-durable atomic writes."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)

    def describe(self) -> str:
        return f"local:{self.root}"

    # -- paths -------------------------------------------------------------------

    def object_path(self, kind: str, digest: str) -> str:
        return os.path.join(self.root, OBJECTS_DIR, kind, digest[:2],
                            f"{digest}.pkl")

    def quarantine_path(self, kind: str, digest: str) -> str:
        return os.path.join(self.root, QUARANTINE_DIR, kind, f"{digest}.pkl")

    # -- protocol ----------------------------------------------------------------

    def get(self, kind: str, digest: str) -> Optional[bytes]:
        """The object's bytes, or ``None`` when it does not exist."""
        try:
            with open(self.object_path(kind, digest), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def put(self, kind: str, digest: str, data: bytes,
            overwrite: bool = False) -> bool:
        """Store the bytes; ``True`` if written, ``False`` if an existing
        object was kept (first-writer-kept)."""
        path = self.object_path(kind, digest)
        if not overwrite and os.path.exists(path):
            return False  # first-writer-kept
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as fh:
                fh.write(data)
                # make the payload durable *before* the rename publishes it
                # — otherwise a power loss can keep the rename (in the
                # journaled directory) while dropping the data, i.e. a torn
                # object that only surfaces later as a quarantine
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        fsync_directory(parent)
        return True

    def contains(self, kind: str, digest: str) -> bool:
        return os.path.exists(self.object_path(kind, digest))

    def delete(self, kind: str, digest: str) -> bool:
        """Remove the object (GC sweep); ``True`` if something was removed."""
        path = self.object_path(kind, digest)
        try:
            os.unlink(path)
        except FileNotFoundError:
            return False
        fsync_directory(os.path.dirname(path))
        return True

    def quarantine(self, kind: str, digest: str,
                   record: Dict[str, object]) -> bool:
        """Move a corrupt object aside with ``record`` as the reason.
        Best-effort; ``True`` only when the object was actually moved."""
        path = self.object_path(kind, digest)
        destination = self.quarantine_path(kind, digest)
        try:
            os.makedirs(os.path.dirname(destination), exist_ok=True)
            os.replace(path, destination)
            tmp = f"{destination}.reason.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True)
                # the reason record is the evidence trail for the damage;
                # persist it as carefully as the object it explains
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, f"{destination[:-len('.pkl')]}.reason.json")
        except OSError:
            return False
        fsync_directory(os.path.dirname(destination))
        fsync_directory(os.path.dirname(path))
        return True

    def list_refs(self, kind: Optional[str] = None) -> List[ObjectRef]:
        """Every stored ``(kind, digest)`` (of one kind, if given)."""
        refs: List[ObjectRef] = []
        objects = os.path.join(self.root, OBJECTS_DIR)
        try:
            kinds = [kind] if kind is not None else sorted(os.listdir(objects))
        except OSError:
            return refs
        for one_kind in kinds:
            kind_dir = os.path.join(objects, one_kind)
            if not os.path.isdir(kind_dir):
                continue
            for shard in sorted(os.listdir(kind_dir)):
                shard_dir = os.path.join(kind_dir, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    if name.endswith(".pkl"):
                        refs.append((one_kind, name[:-len(".pkl")]))
        return refs
