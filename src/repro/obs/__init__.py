"""Telemetry: process-wide counters and always-on per-layer time totals.

- :mod:`.metrics` — the process-global :data:`~repro.obs.metrics.REGISTRY`
  of counters, the backing store of every legacy ``stats()`` façade;
- :mod:`.layers` — :func:`layer` charges an entry point's self time and
  calls to a named layer, and :func:`measure` reads the totals of this
  process and of its pool workers around any block of code.
"""

from .metrics import REGISTRY, MetricsRegistry, counted, counter
from .layers import Measurement, layer, measure

__all__ = [
    "REGISTRY", "MetricsRegistry", "counted", "counter",
    "Measurement", "layer", "measure",
]
