"""Figure 6: runtime overhead of the Khaos variants on SPEC CPU 2006/2017."""

from repro.evaluation import overhead_table

from .conftest import assert_golden, emit, experiment


def test_figure6_khaos_overhead(benchmark):
    report = benchmark.pedantic(lambda: experiment("figure6"),
                                rounds=1, iterations=1)
    emit("Figure 6: Khaos runtime overhead (percent, per program + GEOMEAN)",
         overhead_table(report))
    assert_golden("figure6", report)
    # the paper reports single-digit geometric means for Fission/Fusion/FuFi.ori
    for label in ("fission", "fusion", "fufi.ori"):
        assert report.geomean(label) < 60.0
    # FuFi.all trades performance for obfuscation strength
    assert report.geomean("fufi.all") >= report.geomean("fission") - 5.0
