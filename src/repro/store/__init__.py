"""Shared artifact store: compute each build artifact once per machine.

The subsystem has these pieces:

* :mod:`repro.store.keys` — freezes (workload profile, obfuscator config,
  opt options) triples into stable, value-based key tuples (re-exported by
  :mod:`repro.core.variant_cache` for backwards compatibility);
* :mod:`repro.store.artifact_store` — the content-addressed
  :class:`ArtifactStore`: in-process LRU over an atomic on-disk object tree
  that any number of executor workers attach to concurrently, validated
  cheaply through the :class:`GenerationLog` manifest;
* :mod:`repro.store.backend` — :class:`LocalBackend`, the byte layer of
  that tree (crash-durable atomic writes, quarantine moves, listing);
* :mod:`repro.store.feature_payloads` and :mod:`repro.store.diff_payloads`
  — the retired ``features`` and ``diff`` kinds, kept as no-ops.

``REPRO_STORE_DIR`` names the shared tree; unset, every run is storeless.
"""

from .artifact_store import (CORRUPT_READ_ERRORS, KIND_BINARY, KIND_DIFF,
                             KIND_FEATURES, KIND_SHARD, KIND_VARIANT,
                             STORE_SCHEMA, ArtifactStore, StoreError,
                             canonical_key, is_store_tree, store_digest,
                             store_dir_from_env, store_from_env)
from .backend import OBJECTS_DIR, QUARANTINE_DIR, LocalBackend, ObjectRef
from .generation_log import GENERATION_LOG_NAME, GenerationLog
from .keys import KEY_SCHEMA, config_cache_key, variant_key

__all__ = [
    "ArtifactStore", "StoreError", "GenerationLog", "GENERATION_LOG_NAME",
    "LocalBackend", "ObjectRef",
    "KIND_VARIANT", "KIND_BINARY", "KIND_FEATURES", "KIND_DIFF", "KIND_SHARD",
    "OBJECTS_DIR", "QUARANTINE_DIR", "CORRUPT_READ_ERRORS",
    "STORE_SCHEMA", "KEY_SCHEMA", "canonical_key",
    "store_digest", "is_store_tree", "store_dir_from_env", "store_from_env",
    "config_cache_key", "variant_key",
]
