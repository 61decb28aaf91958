"""Deterministic IR interpreter and cycle cost model."""

from .batch import VMBatch
from .costs import CostModel, DEFAULT_COST_MODEL, REGISTER_ARG_SLOTS
from .machine import (DISPATCH_TIERS, ExecutionError, ExecutionResult,
                      FuncPointer, Interpreter, Pointer, StepLimitExceeded,
                      run_program)

__all__ = [
    "CostModel", "DEFAULT_COST_MODEL", "DISPATCH_TIERS", "REGISTER_ARG_SLOTS",
    "ExecutionError", "ExecutionResult", "FuncPointer", "Interpreter",
    "Pointer", "StepLimitExceeded", "VMBatch",
    "run_program",
]
