"""Batched VM measurement: one interpreter per program per input batch.

The overhead experiments (Figures 6/7) execute every built variant in the
interpreter to collect dynamic cycle counts.  :class:`VMBatch` is the
measurement unit the figure-6/7 matrix (:mod:`repro.evaluation.overhead`)
hands each of its units.  Every execution goes through
:meth:`VMBatch.run_many`: one :class:`~repro.vm.machine.Interpreter` drives
all of a program's input vectors through one compiled-block cache,
resetting per input — so interpreter setup and block compilation are
amortised across the whole batch instead of paid per run.  Nothing is kept
between calls: a unit executes each of its variants exactly once, so the
batch holds no program longer than its run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..ir.module import Program
from ..obs import metrics as obs_metrics
from .costs import CostModel
from .machine import ExecutionResult, Interpreter

#: The single-run input batch: one run, no inputs — what ``run_program``
#: does for drivers that never feed the input intrinsics.
SINGLE_RUN = ((),)


class VMBatch:
    """Batched program execution under one execution configuration.

    ``cost_model``/``max_steps`` pin the execution configuration for every
    run of the batch; the dispatch tier is the interpreter default
    (``REPRO_VM_DISPATCH``).
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 max_steps: int = 5_000_000):
        self.cost_model = cost_model
        self.max_steps = max_steps
        #: Per-batch counter view chained to the process-global registry:
        #: the ``executions``/``interpreters`` attributes keep their
        #: per-instance semantics while every increment also feeds the
        #: telemetry flush (``vmbatch.*`` counters).
        self.metrics = obs_metrics.MetricsRegistry(
            parent=obs_metrics.REGISTRY)

    def run_many(self, program: Program,
                 input_sets: Sequence[Sequence[int]],
                 binary=None) -> List[ExecutionResult]:
        """Drive every input vector through one interpreter.

        Result ``i`` is bit-identical to a fresh
        :func:`~repro.vm.machine.run_program` with ``input_sets[i]`` (see
        :meth:`Interpreter.run_many`); the whole batch shares one compiled
        program.  ``binary``, the program's lowered form, is accepted for
        callers that carry one; execution needs only the program.
        """
        sets = tuple(tuple(inputs) for inputs in input_sets)
        self.metrics.counter("vmbatch.interpreters")
        self.metrics.counter("vmbatch.executions", len(sets))
        interpreter = Interpreter(program, cost_model=self.cost_model,
                                  max_steps=self.max_steps)
        return interpreter.run_many(sets)

    def run(self, program: Program) -> ExecutionResult:
        """Execute ``program`` once."""
        return self.run_many(program, SINGLE_RUN)[0]

    # -- façade counters (instance registry views) --------------------------------

    @property
    def executions(self) -> int:
        return int(self.metrics.get("vmbatch.executions"))

    @property
    def interpreters(self) -> int:
        return int(self.metrics.get("vmbatch.interpreters"))

    def cycles(self, program: Program) -> int:
        return self.run(program).cycles
