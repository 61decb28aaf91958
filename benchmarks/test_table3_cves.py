"""Table 3: vulnerable functions of the Test Suite III programs."""

from repro.evaluation import format_table
from repro.workloads import EMBEDDED_VULNERABILITIES, embedded_programs

from .conftest import assert_golden, emit, experiment


def test_table3_vulnerable_functions(benchmark):
    workloads = benchmark.pedantic(embedded_programs, rounds=1, iterations=1)

    rows = []
    total_functions = 0
    total_cves = set()
    for program, vulns in sorted(EMBEDDED_VULNERABILITIES.items()):
        for function_name, cves in vulns:
            rows.append([program, function_name, ", ".join(cves)])
            total_functions += 1
            total_cves.update(cves)
    rows.append(["Total", f"{total_functions}", f"{len(total_cves)}"])
    emit("Table 3: vulnerable functions of Test Suite III",
         format_table(["program", "function", "CVE"], rows))
    assert_golden("table3", experiment("table3"))

    # Table 3 totals: 14 vulnerable functions, 19 CVEs, in 5 programs
    assert total_functions == 14
    assert len(total_cves) == 19
    assert len(workloads) == 5
    # every vulnerable function is actually present in the synthesised program
    for workload in workloads:
        program = workload.build()
        for name in workload.vulnerable_functions:
            assert program.find_function(name) is not None
