"""A BinTuner-style iterative compilation tuner (Figure 9 comparison target).

BinTuner (Ren et al., PLDI 2021) searches compiler option sequences that
maximise the binary-code difference with respect to a baseline build.  The
reproduction searches over :class:`~repro.opt.pass_manager.OptOptions`
(optimization level, inlining threshold, individual pass toggles) with a
seeded hill-climbing loop whose default objective is the opcode-histogram
distance to the baseline binary — the same signal Figure 11 visualises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from ..backend.binary import Binary
from ..backend.disassembler import opcode_histogram_distance
from ..backend.lowering import lower_program
from ..ir.module import Program
from ..opt.pass_manager import OptOptions
from ..opt.pipelines import optimize_program

Objective = Callable[[Binary, Binary], float]

_LEVELS = (0, 1, 2, 3)
_INLINE_THRESHOLDS = (0, 10, 30, 60, 120)
_ITERATION_COUNTS = (1, 2, 3)


@dataclass
class BinTunerResult:
    best_options: OptOptions
    #: The optimized program ``best_binary`` was lowered from.
    best_program: Program
    best_binary: Binary
    best_score: float
    history: List[Tuple[str, float]] = field(default_factory=list)


def _random_options(rng: random.Random) -> OptOptions:
    return OptOptions(
        level=rng.choice(_LEVELS),
        lto=rng.random() < 0.5,
        inline_threshold=rng.choice(_INLINE_THRESHOLDS),
        enable_inlining=rng.random() < 0.8,
        enable_simplify_cfg=rng.random() < 0.8,
        enable_constant_folding=rng.random() < 0.8,
        enable_dce=rng.random() < 0.8,
        enable_dead_function_elim=rng.random() < 0.8,
        iterations=rng.choice(_ITERATION_COUNTS),
    )


def _mutate(options: OptOptions, rng: random.Random) -> OptOptions:
    field_name = rng.choice([
        "level", "lto", "inline_threshold", "enable_inlining",
        "enable_simplify_cfg", "enable_constant_folding", "enable_dce",
        "enable_dead_function_elim", "iterations"])
    if field_name == "level":
        return replace(options, level=rng.choice(_LEVELS))
    if field_name == "inline_threshold":
        return replace(options, inline_threshold=rng.choice(_INLINE_THRESHOLDS))
    if field_name == "iterations":
        return replace(options, iterations=rng.choice(_ITERATION_COUNTS))
    current = getattr(options, field_name)
    return replace(options, **{field_name: not current})


class BinTuner:
    """Iteratively searches for the option set maximising binary difference."""

    def __init__(self, iterations: int = 10, seed: int = 7,
                 objective: Optional[Objective] = None):
        self.iterations = iterations
        self.seed = seed
        self.objective = objective or opcode_histogram_distance

    def compile(self, program: Program,
                options: OptOptions) -> Tuple[Program, Binary]:
        """``program`` optimized under ``options`` (a copy) and its binary."""
        optimized = optimize_program(program, options)
        return optimized, lower_program(optimized)

    def tune(self, program: Program,
             baseline_options: Optional[OptOptions] = None) -> BinTunerResult:
        """Search for options maximising the difference to the baseline build.

        Following the paper's setup, the baseline is the O0 binary unless the
        caller supplies something else.  ``program`` is only read (every
        candidate compiles a copy); the result keeps the best candidate's
        optimized program, so a caller can run it without compiling again.
        """
        rng = random.Random(self.seed)
        baseline_options = baseline_options or OptOptions(level=0, lto=False)
        baseline_binary = self.compile(program, baseline_options)[1]

        best_options = OptOptions(level=3, lto=True)
        best_program, best_binary = self.compile(program, best_options)
        best_score = self.objective(baseline_binary, best_binary)
        history: List[Tuple[str, float]] = [(best_options.label(), best_score)]

        for step in range(self.iterations):
            if step % 3 == 0:
                candidate = _random_options(rng)
            else:
                candidate = _mutate(best_options, rng)
            optimized, binary = self.compile(program, candidate)
            score = self.objective(baseline_binary, binary)
            history.append((candidate.label(), score))
            if score > best_score:
                best_options, best_score = candidate, score
                best_program, best_binary = optimized, binary
        return BinTunerResult(best_options=best_options,
                              best_program=best_program,
                              best_binary=best_binary, best_score=best_score,
                              history=history)
