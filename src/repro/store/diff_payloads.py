"""Retired: per-function diff payloads (store kind ``"diff"``).

A fig 8/10 unit is one workload whose reduced rows are its only persisted
form (:mod:`repro.evaluation.diff_sharding`), so nothing calls these.  They
stay as no-ops because the paper benchmark's layer tracer wraps each one
by name.
"""


def persist_roster(*_args, **_kwargs) -> None:
    """Write nothing."""


def load_roster(*_args, **_kwargs) -> None:
    """Always a miss."""


def persist_unit(*_args, **_kwargs) -> None:
    """Write nothing."""


def load_unit(*_args, **_kwargs) -> None:
    """Always a miss."""


def persist_whole(*_args, **_kwargs) -> None:
    """Write nothing."""


def load_whole(*_args, **_kwargs) -> None:
    """Always a miss."""
