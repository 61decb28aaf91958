"""Figure 10: escape@1/10/50 ratio of the T-III vulnerable functions."""

from repro.evaluation import ESCAPE_RANKS, matrix_table

from .conftest import assert_golden, emit, experiment


def test_figure10_escape_ratio(benchmark):
    report = benchmark.pedantic(lambda: experiment("figure10"),
                                rounds=1, iterations=1)
    for rank in ESCAPE_RANKS:
        emit(f"Figure 10: escape@{rank} (higher = better hiding)",
             matrix_table(report.matrix(rank), row_title="tool"))
    assert_golden("figure10", report)

    # escape ratio can only shrink as the rank budget grows
    for tool in sorted({row.tool for row in report.rows}):
        for label in ("sub", "fufi.all"):
            e1 = report.escape_ratio(tool, label, 1)
            e10 = report.escape_ratio(tool, label, 10)
            e50 = report.escape_ratio(tool, label, 50)
            assert e1 >= e10 >= e50
