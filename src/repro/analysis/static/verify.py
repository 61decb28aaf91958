"""Tiered IR verification entry points.

Three tiers, selected per call or via ``REPRO_VERIFY_IR``:

* ``structural`` (default) — the classic shape checks: terminators, block
  membership, operand ownership, call arity (:mod:`.structural`);
* ``typed`` — structural plus full instruction/call/global type checking
  (:mod:`.typecheck`);
* ``full`` — typed plus dominance-based def-before-use (:mod:`.dominance`)
  and the dataflow lints (:mod:`.lints`; lints are warnings and never fail
  verification).

Deeper tiers only run when the structural tier is clean: type and dominance
checking assume blocks are well-formed (a dangling branch target or a null
operand would crash them, and the structural diagnostic is the actionable
one anyway).

Per-function results are cached through
:meth:`repro.analysis.manager.AnalysisManager.cached` under the pseudo-name
``verify:<tier>`` when a manager is supplied, so warm re-verification after
unrelated passes is a dictionary hit; any invalidation of the function
drops the entry (passes never list ``verify:*`` in ``preserves``).

The cost-model consistency lint (:mod:`.costcheck`) lives outside these
tiers: it checks VM execution state rather than IR, and is wired into
``scripts/lint_ir.py``.
"""

from __future__ import annotations

import os

from typing import List, Optional, Union

from ...ir.function import Function
from ...ir.module import Module, Program
from ...obs import metrics as obs_metrics
from ...obs import tracing as obs_tracing
from ..manager import AnalysisManager
from . import dominance, lints, structural, typecheck
from .diagnostics import Diagnostic, errors_only

TIERS = ("structural", "typed", "full")
DEFAULT_TIER = "structural"
ENV_VAR = "REPRO_VERIFY_IR"


def resolve_tier(tier: Union[None, bool, str] = None) -> str:
    """Resolve an explicit tier, ``True`` or ``None`` against the env var."""
    if tier is None or tier is True:
        tier = os.environ.get(ENV_VAR) or DEFAULT_TIER
    if tier not in TIERS:
        raise ValueError(
            f"unknown verify tier {tier!r}; expected one of {TIERS}")
    return tier


def verify_function(function: Function, tier: Union[None, bool, str] = None,
                    analyses: Optional[AnalysisManager] = None
                    ) -> List[Diagnostic]:
    """All diagnostics (errors and warnings) of ``function`` at ``tier``."""
    tier = resolve_tier(tier)
    obs_metrics.counter(f"verify.calls.{tier}")
    if analyses is None:
        return _verify_function_uncached(function, tier, None)
    return analyses.cached(
        function, f"verify:{tier}",
        lambda: _verify_function_uncached(function, tier, analyses))


def _verify_function_uncached(function: Function, tier: str,
                              analyses: Optional[AnalysisManager]
                              ) -> List[Diagnostic]:
    with obs_tracing.span("verify.function", cat="verify",
                          function=function.name, tier=tier):
        return _verify_tiers(function, tier, analyses)


def _verify_tiers(function: Function, tier: str,
                  analyses: Optional[AnalysisManager]) -> List[Diagnostic]:
    diagnostics = structural.check_function(function)
    if tier == "structural" or any(d.is_error for d in diagnostics):
        return diagnostics
    diagnostics.extend(typecheck.check_function(function))
    if tier == "typed" or any(d.is_error for d in diagnostics):
        return diagnostics
    local = analyses if analyses is not None else AnalysisManager()
    diagnostics.extend(dominance.check_function(function, local))
    diagnostics.extend(lints.check_function(function, local))
    return diagnostics


def verify_module(module: Module, tier: Union[None, bool, str] = None,
                  analyses: Optional[AnalysisManager] = None
                  ) -> List[Diagnostic]:
    tier = resolve_tier(tier)
    diagnostics: List[Diagnostic] = []
    if tier in ("typed", "full"):
        for variable in module.globals.values():
            typecheck._check_global(variable, diagnostics)
    for function in module.functions.values():
        diagnostics.extend(verify_function(function, tier, analyses))
    return diagnostics


def verify_program(program: Program, tier: Union[None, bool, str] = None,
                   analyses: Optional[AnalysisManager] = None
                   ) -> List[Diagnostic]:
    tier = resolve_tier(tier)
    diagnostics: List[Diagnostic] = []
    for module in program.modules:
        diagnostics.extend(verify_module(module, tier, analyses))
    return diagnostics


def verify(obj, tier: Union[None, bool, str] = None,
           analyses: Optional[AnalysisManager] = None) -> List[Diagnostic]:
    """Verify a Function, Module or Program; return all diagnostics."""
    if isinstance(obj, Function):
        return verify_function(obj, tier, analyses)
    if isinstance(obj, Module):
        return verify_module(obj, tier, analyses)
    if isinstance(obj, Program):
        return verify_program(obj, tier, analyses)
    raise TypeError(f"cannot verify {type(obj)!r}")


def verification_errors(obj, tier: Union[None, bool, str] = None,
                        analyses: Optional[AnalysisManager] = None
                        ) -> List[Diagnostic]:
    """Error-severity diagnostics only (what ``assert_valid`` raises on)."""
    return errors_only(verify(obj, tier, analyses))
