#!/usr/bin/env python
"""Lint the workload corpus (or one suite/scheme slice) with the deep
static-analysis subsystem.

For every selected workload the tool builds the program, optionally applies
an obfuscation scheme, and runs:

* full-tier IR verification (structural + types + dominance + dataflow
  lints) on the linked program,
* the cost-model consistency check (the compiled tier's precomputed block
  totals vs a static recount from ``vm/costs.py``), and
* the same verification on the program's O2 + LTO build (the optimizer's
  output, named ``<workload>/<scheme>/O2+LTO/<function>``).

Diagnostics print as ``function:block: message [code]`` lines (or JSON with
``--json``).  A baseline file (``--baseline``) suppresses known findings by
signature; ``--write-baseline`` records the current findings as that
baseline.  Exit status is 1 only when unsuppressed *errors* remain —
warnings (dead stores in bogus-CFG junk blocks, …) never fail the run.

Usage:
    PYTHONPATH=src python scripts/lint_ir.py                  # whole corpus
    PYTHONPATH=src python scripts/lint_ir.py --suite embedded --scheme fusion
    PYTHONPATH=src python scripts/lint_ir.py --json --baseline lint_baseline.json
"""

from __future__ import annotations

import argparse
import sys

from typing import List

from repro.analysis.static import (Diagnostic, apply_baseline, check_program,
                                   diagnostics_to_json, load_baseline, verify,
                                   write_baseline)
from repro.opt import OptOptions, optimize_program
from repro.workloads import load_suite, suite_names

#: scheme name -> obfuscator factory (None = the unobfuscated build)
SCHEMES = ("none", "fission", "fusion", "fufi.sep", "fufi.ori", "fufi.all",
           "sub", "bog", "fla", "fla-10")


def _obfuscate(program, scheme: str, seed: int):
    if scheme == "none":
        return program.link()
    if scheme in ("fission", "fusion", "fufi.sep", "fufi.ori", "fufi.all"):
        from repro.core.obfuscator import Khaos, KhaosConfig
        result = Khaos(KhaosConfig(mode=scheme, seed=seed)).obfuscate(
            program, verify=False)
        return result.program
    from repro.baselines.ollvm import (bogus_obfuscator, flattening_obfuscator,
                                       sub_obfuscator)
    factory = {"sub": lambda: sub_obfuscator(seed=seed),
               "bog": lambda: bogus_obfuscator(seed=seed),
               "fla": lambda: flattening_obfuscator(1.0, seed=seed),
               "fla-10": lambda: flattening_obfuscator(0.1, seed=seed)}[scheme]
    return factory().obfuscate(program, verify=False).program


def lint_corpus(suites: List[str], schemes: List[str], seed: int,
                tier: str, with_costs: bool) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for suite in suites:
        for workload in load_suite(suite):
            for scheme in schemes:
                program = _obfuscate(workload.build(), scheme, seed)
                found = verify(program, tier=tier)
                if with_costs:
                    found = found + check_program(program)
                # the program is this loop's own copy: optimize it in place
                optimized = optimize_program(program, in_place=True)
                stages = ((scheme, found),
                          (f"{scheme}/{OptOptions().label()}",
                           verify(optimized, tier=tier)))
                diagnostics.extend(
                    Diagnostic(d.severity, d.code, d.message,
                               function=f"{workload.name}/{stage}/{d.function}",
                               block=d.block)
                    for stage, stage_found in stages for d in stage_found)
    return diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", action="append",
                        help="suite to lint (repeatable; default: all)")
    parser.add_argument("--scheme", action="append", choices=SCHEMES,
                        help="obfuscation scheme (repeatable; default: none)")
    parser.add_argument("--all-schemes", action="store_true",
                        help="lint every scheme (overrides --scheme)")
    parser.add_argument("--tier", default="full",
                        choices=("structural", "typed", "full"))
    parser.add_argument("--no-costs", action="store_true",
                        help="skip the cost-model consistency check")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true",
                        help="emit diagnostics as JSON")
    parser.add_argument("--baseline",
                        help="suppression file of known finding signatures")
    parser.add_argument("--write-baseline",
                        help="record current findings to this baseline file")
    args = parser.parse_args(argv)

    suites = args.suite or list(suite_names())
    schemes = list(SCHEMES) if args.all_schemes else (args.scheme or ["none"])
    diagnostics = lint_corpus(suites, schemes, args.seed, args.tier,
                              not args.no_costs)

    if args.write_baseline:
        write_baseline(args.write_baseline, diagnostics)
        print(f"wrote {len(diagnostics)} finding(s) to {args.write_baseline}")
        return 0

    suppressed_count = 0
    if args.baseline:
        diagnostics, suppressed = apply_baseline(
            diagnostics, load_baseline(args.baseline))
        suppressed_count = len(suppressed)

    if args.json:
        print(diagnostics_to_json(diagnostics))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.render())
        errors = sum(d.is_error for d in diagnostics)
        print(f"lint_ir: {len(diagnostics)} finding(s) "
              f"({errors} error(s), {suppressed_count} suppressed) over "
              f"{len(suites)} suite(s) x {len(schemes)} scheme(s) "
              f"at tier {args.tier}")
    return 1 if any(d.is_error for d in diagnostics) else 0


if __name__ == "__main__":
    sys.exit(main())
