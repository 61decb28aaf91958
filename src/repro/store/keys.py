"""Stable artifact keys, and the code fingerprint that names a generation.

The paper's pipeline compiles every workload "under O2 with LTO" once per
obfuscation configuration, and workload synthesis plus every obfuscator are
seeded, so a built variant is a pure function of ``(workload, obfuscation
config, optimization options)``.  These helpers freeze that triple into a
hashable, *value-based* tuple — the key of the in-process
:class:`~repro.core.variant_cache.VariantCache` memo and the stem of every
unit key the on-disk :class:`~repro.store.artifact_store.ArtifactStore`
content-addresses (see :func:`~repro.store.artifact_store.store_digest`).

Obfuscators advertise their configuration through a ``cache_key()`` method
(see :meth:`repro.core.config.KhaosConfig.cache_key`), so two obfuscators
with the same label but different knobs never collide.

What a key cannot say is which code built the artifact.  The on-disk store
says it with the path instead: every object lives under its *generation*,
:func:`code_fingerprint`, so a process never reads what other code wrote.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import sys
from typing import Tuple

#: The ``repro`` package directory, whose sources :func:`code_fingerprint`
#: covers.
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.cache
def code_fingerprint() -> str:
    """The store generation this process reads and writes.

    16 hex digits of a sha256 over the interpreter's bytecode tag
    (``sys.implementation.cache_tag``) and every ``*.py`` file under
    :data:`PACKAGE_DIR` — each file's relative path and bytes, in sorted
    path order, ``__pycache__`` skipped — so any edit to the package starts
    a new generation.  Computed once per process; forked workers inherit
    it.
    """
    sources = []
    for folder, subfolders, names in os.walk(PACKAGE_DIR):
        subfolders[:] = [name for name in subfolders if name != "__pycache__"]
        sources.extend(os.path.relpath(os.path.join(folder, name), PACKAGE_DIR)
                       for name in names if name.endswith(".py"))
    digest = hashlib.sha256(f"{sys.implementation.cache_tag}\0".encode())
    for relative in sorted(sources):
        with open(os.path.join(PACKAGE_DIR, relative), "rb") as fh:
            data = fh.read()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()[:16]


def _freeze(value) -> object:
    """Recursively convert ``value`` into a hashable key component.

    Mappings and sequences freeze to *tagged* tuples so different container
    kinds can never canonicalize to the same component; mapping items are
    sorted, making the frozen form insertion-order-insensitive.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _freeze(getattr(value, f.name)))
            for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted((k, _freeze(v))
                                        for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return ("seq",) + tuple(_freeze(v) for v in value)
    return value


def _value_based(frozen) -> bool:
    """True when ``frozen`` compares by value (safe inside a cache key).

    Arbitrary objects hash by identity, so embedding them in a key would
    defeat cache sharing between logically identical configurations — and
    never match again after a disk round trip.
    """
    if frozen is None or isinstance(frozen, (str, bytes, int, float, bool)):
        return True
    if isinstance(frozen, tuple):
        return all(_value_based(item) for item in frozen)
    return False


def config_cache_key(obfuscator_or_label) -> object:
    """The configuration component of a variant key.

    Accepts a plain label string (e.g. ``"baseline"``) or any obfuscator
    object; objects exposing ``cache_key()`` use it, others fall back to
    their ``label`` plus frozen public configuration.
    """
    if isinstance(obfuscator_or_label, str):
        return obfuscator_or_label
    cache_key = getattr(obfuscator_or_label, "cache_key", None)
    if callable(cache_key):
        return cache_key()
    # fallback: freeze the public configuration too, so two instances with
    # the same label but different knobs never collide
    config = []
    for name in sorted(getattr(obfuscator_or_label, "__dict__", {})):
        if name.startswith("_") or name == "label":
            continue
        value = getattr(obfuscator_or_label, name)
        if callable(value):
            continue
        frozen = _freeze(value)
        if not _value_based(frozen):
            # identity-hashed objects would never match across instances or
            # a disk round trip; fall back to their (stable-enough) repr
            frozen = repr(value)
        config.append((name, frozen))
    return (type(obfuscator_or_label).__name__,
            getattr(obfuscator_or_label, "label", "?"),
            tuple(config))


@functools.cache
def _default_options():
    # imported on first use: the store sits below the optimizer
    from ..opt.pass_manager import OptOptions
    return OptOptions()


def variant_key(workload, obfuscator_or_label, options=None) -> Tuple:
    """Cache key for one built variant.

    ``workload`` is a :class:`~repro.workloads.suites.WorkloadProgram` (its
    *whole* profile pins the synthesised IR — every knob, not just the seed);
    ``obfuscator_or_label`` identifies the obfuscation configuration incl.
    its seed; ``options`` the :class:`~repro.opt.pass_manager.OptOptions` of
    the O2+LTO pipeline.  ``None`` builds with ``OptOptions()``, so options
    equal to the default share its key.
    """
    profile = getattr(workload, "profile", None)
    if options is not None and options == _default_options():
        options = None
    return (workload.suite, workload.name,
            _freeze(profile) if profile is not None else None,
            config_cache_key(obfuscator_or_label),
            _freeze(options) if options is not None else None)
