"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
corresponding rows.  By default the quick configurations of
:data:`repro.evaluation.EXPERIMENTS` are used so the whole harness finishes
in minutes on a laptop, and each quick report is checked against its golden
file under ``tests/golden/``; set ``REPRO_FULL=1`` to run the full-size
experiments instead (no golden check).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, is_dataclass

import pytest

from repro.evaluation import ESCAPE_RANKS, run_experiment
from repro.evaluation.bintuner_compare import OPT_LEVELS

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "golden")


def full_mode() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")


@pytest.fixture
def experiment_scale() -> bool:
    """True when the full-size experiment was requested via REPRO_FULL=1."""
    return full_mode()


def emit(title: str, body: str) -> None:
    print(f"\n=== {title} ===")
    print(body)


def experiment(name: str):
    """The report of experiment ``name`` at the harness's scale."""
    return run_experiment(name, quick=not full_mode())


def _aggregates(name: str, report) -> object:
    """The numbers the paper plots from ``report``."""
    if name in ("figure6", "figure7"):
        return {label: report.geomean(label) for label in report.labels()}
    if name == "figure8":
        return report.matrix()
    if name == "figure9":
        return {f"{protection}/O{level}": [report.similarity(protection, level),
                                          report.geomean(protection, level)]
                for protection in ("bintuner", "khaos") for level in OPT_LEVELS}
    if name == "figure10":
        return {f"escape@{n}": report.matrix(n) for n in ESCAPE_RANKS}
    if name == "figure11":
        return {label: report.average(label) for label in report.labels()}
    if name == "table2":
        return report.as_table()
    return None


def canonical(name: str, report) -> str:
    """Canonical JSON of one report: its fields plus the plotted aggregates
    (floats by ``repr``, keys sorted)."""
    fields = asdict(report) if is_dataclass(report) else report
    return json.dumps({"report": fields, "aggregates": _aggregates(name, report)},
                      indent=1, sort_keys=True) + "\n"


def assert_golden(name: str, report) -> None:
    """Check a quick-mode report against ``tests/golden/<name>.json``.

    A missing golden is written and the test fails, so regenerating one is
    delete-and-rerun.  Full-size runs are not checked.
    """
    if full_mode():
        return
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    text = canonical(name, report)
    if not os.path.exists(path):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        pytest.fail(f"wrote the missing golden {path}; rerun to check it")
    with open(path, encoding="utf-8") as fh:
        expected = fh.read()
    assert text == expected, f"{name} report differs from {path}"
