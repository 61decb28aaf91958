"""Table 2: statistics of the fission and the fusion primitives."""

from repro.evaluation import matrix_table

from .conftest import assert_golden, emit, experiment


def test_table2_fission_fusion_statistics(benchmark):
    report = benchmark.pedantic(lambda: experiment("table2"),
                                rounds=1, iterations=1)
    emit("Table 2: statistics of the fission and the fusion",
         matrix_table(report.as_table(), row_title="suite"))
    assert_golden("table2", report)

    for suite, row in report.rows.items():
        # the paper reports fission ratios above 100% and fusion ratios of
        # 97-99%; the synthetic programs are smaller, so only the qualitative
        # properties are asserted: fission splits a substantial fraction and
        # fusion aggregates the large majority of candidates
        assert row.fission_ratio > 0.2, suite
        assert row.fusion_ratio > 0.7, suite
        assert row.avg_sepfunc_blocks >= 2.0, suite
        assert 0.0 < row.reduction_ratio <= 1.0, suite
