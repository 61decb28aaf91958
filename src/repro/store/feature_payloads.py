"""Retired: persisted feature payloads (store kind ``"features"``).

No run ever read one back: a fig 8/10 unit builds and featurises each of
its workload's variants once, in one process.  These stay as no-ops
because the paper benchmark's layer tracer wraps them by name.
"""


def persist_features(*_args, **_kwargs) -> None:
    """Write nothing."""


def warm_features(*_args, **_kwargs) -> int:
    """Adopt nothing."""
    return 0
