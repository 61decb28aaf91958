"""Figure 8: Precision@1 of the five diffing tools under eight obfuscations."""

import pytest

from repro.diffing.base import BinaryDiffer
from repro.evaluation import matrix_table, run_experiment
from repro.opt.simplify_cfg import SimplifyCFG
from tests import oracles

from .conftest import assert_golden, emit, experiment


def test_figure8_precision(benchmark):
    report = benchmark.pedantic(lambda: experiment("figure8"),
                                rounds=1, iterations=1)
    emit("Figure 8: Precision@1 per tool per obfuscation",
         matrix_table(report.matrix(), row_title="tool"))
    assert_golden("figure8", report)

    # shape checks: BinDiff (symbol-assisted) resists the intra-procedural
    # baselines completely, and the strongest Khaos mode (FuFi.all) degrades
    # every tool more than instruction substitution degrades BinDiff
    assert report.average("BinDiff", "sub") > 0.95
    assert report.average("BinDiff", "fufi.all") < report.average("BinDiff", "sub")
    for tool in report.tools():
        assert 0.0 <= report.average(tool, "fufi.all") <= 1.0


def test_fixed_point_simplify_cfg_reproduces_the_golden(monkeypatch):
    monkeypatch.setattr("repro.opt.pipelines.SimplifyCFG",
                        oracles.FixedPointSimplifyCFG)
    monkeypatch.setattr(SimplifyCFG, "run_on_function", _fast_path_ran)
    _assert_quick_report_is_golden(monkeypatch)


def test_per_diff_features_reproduce_the_golden(monkeypatch):
    monkeypatch.setattr(BinaryDiffer, "use_index", False)
    monkeypatch.setattr("repro.diffing.base.feature_index", _fast_path_ran)
    _assert_quick_report_is_golden(monkeypatch)


def _assert_quick_report_is_golden(monkeypatch) -> None:
    """The quick report, computed in process, equals ``figure8.json``.

    No store tree may serve variants that the fast path built, so the
    reference under test builds every variant itself.
    """
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert_golden("figure8", run_experiment("figure8", quick=True))


def _fast_path_ran(*args):
    pytest.fail("the fast path ran instead of the reference")
