"""Deep static analysis of the IR: typed verification, dominance checks,
dataflow lints and cost-model consistency.

Public surface:

* :func:`~repro.analysis.static.verify.verify` /
  :func:`~repro.analysis.static.verify.verification_errors` — tiered
  verification (``structural`` / ``typed`` / ``full``) of a function,
  module or program;
* :class:`~repro.analysis.static.diagnostics.Diagnostic` and the baseline
  suppression helpers;
* :func:`~repro.analysis.static.costcheck.check_program` — cost-model
  consistency of the compiled tier's precomputed block totals.

``repro.ir.verifier`` remains the compatibility façade used across the
code base (``assert_valid``, string-valued ``verify_*``); it delegates
here.
"""

from .costcheck import COST_CODES, check_interpreter, check_program
from .diagnostics import (Diagnostic, SEVERITY_ERROR, SEVERITY_WARNING,
                          apply_baseline, diagnostics_to_json, errors_only,
                          load_baseline, render_all, write_baseline)
from .dominance import DOMINANCE_CODES
from .lints import LINT_CODES
from .structural import STRUCTURAL_CODES
from .typecheck import TYPECHECK_CODES
from .verify import (DEFAULT_TIER, ENV_VAR, TIERS, resolve_tier,
                     verification_errors, verify, verify_function,
                     verify_module, verify_program)

#: Every diagnostic code the subsystem can emit.
ALL_CODES = (STRUCTURAL_CODES + TYPECHECK_CODES + DOMINANCE_CODES
             + LINT_CODES + COST_CODES)

__all__ = [
    "ALL_CODES", "COST_CODES", "DEFAULT_TIER", "DOMINANCE_CODES",
    "Diagnostic", "ENV_VAR", "LINT_CODES", "SEVERITY_ERROR",
    "SEVERITY_WARNING", "STRUCTURAL_CODES", "TIERS", "TYPECHECK_CODES",
    "apply_baseline", "check_interpreter", "check_program",
    "diagnostics_to_json", "errors_only", "load_baseline", "render_all",
    "resolve_tier", "verification_errors", "verify", "verify_function",
    "verify_module", "verify_program", "write_baseline",
]
