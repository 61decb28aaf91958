"""Shared artifact store: compute each build artifact once per machine.

The subsystem has these pieces:

* :mod:`repro.store.keys` — freezes (workload profile, obfuscator config,
  opt options) triples into stable, value-based key tuples (re-exported by
  :mod:`repro.core.variant_cache` for backwards compatibility), and
  fingerprints the code that names a store generation;
* :mod:`repro.store.artifact_store` — the content-addressed
  :class:`ArtifactStore`: an atomic on-disk object tree that any number of
  processes attach to concurrently, each reading and writing only its
  code's generation;
* :mod:`repro.store.backend` — :class:`LocalBackend`, the byte layer of
  that tree (crash-durable atomic writes, quarantine moves, listing);
* :mod:`repro.store.feature_payloads` and :mod:`repro.store.diff_payloads`
  — the retired ``features`` and ``diff`` kinds, kept as no-ops.

``REPRO_STORE_DIR`` names the shared tree, in which a figure run stores
each finished unit's rows and nothing else; unset, every run is storeless.
"""

from .artifact_store import (CORRUPT_READ_ERRORS, KIND_SHARD, ArtifactStore,
                             canonical_key, is_store_tree, store_digest,
                             store_dir_from_env, store_from_env)
from .backend import OBJECTS_DIR, QUARANTINE_DIR, LocalBackend, ObjectRef
from .keys import code_fingerprint, config_cache_key, variant_key

__all__ = [
    "ArtifactStore", "LocalBackend", "ObjectRef",
    "KIND_SHARD",
    "OBJECTS_DIR", "QUARANTINE_DIR", "CORRUPT_READ_ERRORS", "canonical_key",
    "store_digest", "is_store_tree", "store_dir_from_env", "store_from_env",
    "code_fingerprint", "config_cache_key", "variant_key",
]
