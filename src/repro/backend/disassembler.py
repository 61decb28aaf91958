"""Opcode histograms and histogram distances (Figure 11, `objdump`-style).

The paper disassembles every binary, builds a per-binary histogram of opcodes
and reports the (normalised) vector distance between the original and the
obfuscated binary.  :func:`opcode_histogram` builds a histogram from a
:class:`~repro.backend.binary.Binary`; :func:`opcode_histogram_distance`
compares two binaries and :func:`normalised_distances` normalises the
distances of several histograms to one original's.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List

from ..obs import layer
from .binary import Binary, BinaryFunction


def opcode_histogram(binary: Binary) -> Dict[str, int]:
    counter: Counter = Counter()
    for function in binary.functions:
        for inst in function.instructions():
            counter[inst.opcode] += 1
    return dict(counter)


def function_opcode_histogram(function: BinaryFunction) -> Dict[str, int]:
    counter: Counter = Counter()
    for inst in function.instructions():
        counter[inst.opcode] += 1
    return dict(counter)


def _histogram_distance(hist_a: Dict[str, int],
                        hist_b: Dict[str, int]) -> float:
    """Euclidean distance between two opcode histograms."""
    keys = set(hist_a) | set(hist_b)
    return math.sqrt(sum((hist_a.get(k, 0) - hist_b.get(k, 0)) ** 2
                         for k in keys))


@layer("backend.disasm")
def opcode_histogram_distance(a: Binary, b: Binary) -> float:
    """Euclidean distance between the two binaries' opcode histograms."""
    return _histogram_distance(opcode_histogram(a), opcode_histogram(b))


@layer("backend.disasm")
def normalised_distances(original: Dict[str, int],
                         obfuscated: Dict[str, Dict[str, int]]
                         ) -> Dict[str, float]:
    """Distance of each obfuscated histogram to the original's, normalised
    by the max.

    Takes :func:`opcode_histogram` results.  Mirrors the paper's
    normalisation: "we used the max distance of all obfuscated programs as
    the baseline to normalize these distances".
    """
    raw = {label: _histogram_distance(original, histogram)
           for label, histogram in obfuscated.items()}
    maximum = max(raw.values()) if raw else 0.0
    if maximum <= 0.0:
        return {label: 0.0 for label in raw}
    return {label: value / maximum for label, value in raw.items()}


def disassemble(binary: Binary) -> str:
    """A human-readable listing, mainly for the examples and debugging."""
    lines: List[str] = [f"; binary {binary.name} "
                        f"({len(binary.functions)} functions, "
                        f"{binary.total_size} bytes)"]
    for function in binary.functions:
        lines.append(f"\n{function.name}:")
        for block in function.blocks:
            lines.append(f"  {block.label}:")
            for inst in block.instructions:
                suffix = ""
                if inst.call_target:
                    suffix = f"    ; -> {inst.call_target}"
                elif inst.jump_target:
                    suffix = f"    ; -> {inst.jump_target}"
                lines.append(f"    {inst.text()}{suffix}")
    return "\n".join(lines)
