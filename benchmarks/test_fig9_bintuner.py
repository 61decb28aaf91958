"""Figure 9: BinDiff similarity score, BinTuner vs Khaos (FuFi.all), O0-O3."""

from repro.evaluation import format_table

from .conftest import assert_golden, emit, experiment


def test_figure9_bintuner_vs_khaos(benchmark):
    report = benchmark.pedantic(lambda: experiment("figure9"),
                                rounds=1, iterations=1)

    rows = []
    for protection in ("bintuner", "khaos"):
        for level in (0, 1, 2, 3):
            rows.append([protection, f"O{level}",
                         report.similarity(protection, level)])
    rows.append(["bintuner overhead vs O2+LTO", "",
                 f"{report.bintuner_overhead_percent:.1f}%"])
    emit("Figure 9: BinDiff similarity score (lower = better hiding)",
         format_table(["protection", "reference build", "similarity"], rows))
    assert_golden("figure9", report)

    # the paper's claim: Khaos produces binaries much less similar to any
    # optimization level than iterative compilation does
    for level in (0, 1, 2, 3):
        assert (report.similarity("khaos", level)
                <= report.similarity("bintuner", level) + 0.05)
