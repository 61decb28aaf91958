"""Figure 8: Precision@1 of the five diffing tools under eight obfuscations."""

from repro.evaluation import matrix_table

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
