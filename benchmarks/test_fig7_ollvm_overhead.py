"""Figure 7: runtime overhead of O-LLVM (Sub/Bog/Fla/Fla-10) vs Khaos."""

from repro.evaluation import overhead_table

from .conftest import assert_golden, emit, experiment


def test_figure7_ollvm_vs_khaos_overhead(benchmark):
    report = benchmark.pedantic(lambda: experiment("figure7"),
                                rounds=1, iterations=1)
    emit("Figure 7: O-LLVM vs Khaos runtime overhead (percent)",
         overhead_table(report))
    assert_golden("figure7", report)
    # the defining shape of Figure 7: full flattening is far more expensive
    # than every Khaos variant, and Fla-10 sits in between
    assert report.geomean("fla") > report.geomean("fla-10")
    for label in ("fission", "fusion", "fufi.ori"):
        assert report.geomean("fla") > report.geomean(label)
