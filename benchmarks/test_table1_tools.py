"""Table 1: characteristics of the chosen binary diffing tools."""

from repro.evaluation import format_table

from .conftest import assert_golden, emit, experiment


def test_table1_tool_characteristics(benchmark):
    rows = benchmark.pedantic(lambda: experiment("table1"),
                              rounds=1, iterations=1)
    headers = list(rows[0])
    emit("Table 1: summarize of chosen diffing works",
         format_table(headers, [[row[h] for h in headers] for row in rows]))
    assert_golden("table1", rows)

    by_name = {row["diffing"]: row for row in rows}
    assert by_name["BinDiff"]["symbol relying"] == "Y"
    assert by_name["DeepBinDiff"]["granularity"] == "basic block"
    assert by_name["Asm2Vec"]["call-graph lacking"] == "Y"
    assert by_name["Safe"]["call-graph lacking"] == "Y"
    assert by_name["VulSeeker"]["time consuming"] == "Y"
