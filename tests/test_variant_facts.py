"""The variant-facts memo: figures 6, 7 and 11 build and run each variant once.

Figures 6 and 7 read cycle counts, and figure 11 opcode histograms, off the
same variants.  Through the memo of :mod:`repro.evaluation.overhead`, the
``overhead`` calls of the paper benchmark build and run each distinct
variant once per process, in either order, and every report still equals
its plain oracle.  Figures 6/7 also refuse a variant that prints something
other than its baseline (:class:`~repro.evaluation.SemanticsMismatch`).
"""

import pickle

import pytest

from repro.core.provenance import ProvenanceMap
from repro.core.stats import KhaosStats
from repro.core.obfuscator import ObfuscationResult
from repro.evaluation import (SemanticsMismatch, measure_opcode_distance,
                              measure_overhead)
from repro.evaluation import overhead
from repro.ir.instructions import BinaryOp, Call
from repro.ir.types import I64
from repro.ir.values import Constant
from repro.obs.metrics import counted
from repro.toolchain import KHAOS_LABELS, obfuscator_for
from repro.workloads.suites import spec2006_programs, spec2017_programs
from tests import oracles

#: Two of the cheapest SPEC programs to build and run.
SPEC = [w for w in spec2006_programs() + spec2017_programs()
        if w.name in ("462.libquantum", "620.omnetpp_s")]
FIGURE7_LABELS = ("sub", "bog", "fla", "fla-10") + KHAOS_LABELS

#: The paper benchmark's ``overhead`` calls of figures 6, 7 and 11.
CALLS = {
    "figure6": lambda: measure_overhead(SPEC, KHAOS_LABELS, jobs=1),
    "figure7": lambda: measure_overhead(SPEC, FIGURE7_LABELS, jobs=1),
    "figure11": lambda: measure_opcode_distance(SPEC),
}

#: A baseline and ten labels per program; figure 11's eight non-BinTuner
#: labels are all figure 7 labels.
DISTINCT = len(SPEC) * (1 + len(FIGURE7_LABELS))
FIGURE11_VARIANTS = len(SPEC) * (1 + 8)


@pytest.fixture(scope="module")
def oracle_reports():
    return {"figure6": oracles.overhead(SPEC, KHAOS_LABELS),
            "figure7": oracles.overhead(SPEC, FIGURE7_LABELS),
            "figure11": oracles.opcode_distance(SPEC)}


class TestExperimentOrder:
    @pytest.mark.parametrize("order, builds, executions", [
        # every distinct (workload, label) pair built and run once
        (("figure6", "figure7", "figure11"), DISTINCT, DISTINCT),
        # figure 11's entries hold histograms but no cycles, so figure 7
        # builds and runs all of its variants again
        (("figure11", "figure7"), FIGURE11_VARIANTS + DISTINCT, DISTINCT),
    ], ids=["6-7-11", "11-7"])
    def test_reports_equal_oracles_and_each_variant_runs_once(
            self, oracle_reports, order, builds, executions):
        assert len(SPEC) == 2
        with counted("build") as built, counted("vmbatch") as vm:
            reports = {name: CALLS[name]() for name in order}
        for name, report in reports.items():
            assert report == oracle_reports[name], name
        assert built["variants"] == builds
        assert vm["executions"] == executions


class _PrintsOneValueWrong:
    """A test obfuscator: flips the low bit of the last value ``main``
    prints, and changes nothing else."""

    label = "broken"

    def cache_key(self) -> tuple:
        return ("test", self.label)

    def obfuscate(self, program) -> ObfuscationResult:
        working = program.link()
        module = working.modules[0]
        prints = [(block, index, inst)
                  for block in module.get_function("main").blocks
                  for index, inst in enumerate(block.instructions)
                  if isinstance(inst, Call) and inst.is_direct
                  and inst.callee.name == "putint"]
        block, index, call = prints[-1]
        flipped = block.insert(index, BinaryOp("xor", call.args[0],
                                               Constant(I64, 1)))
        call.operands[1] = flipped
        return ObfuscationResult(
            program=working, stats=KhaosStats(), label=self.label,
            provenance=ProvenanceMap(
                f.name for f in module.defined_functions()))


class TestSemanticsCheck:
    def test_a_changed_printed_value_raises(self, monkeypatch):
        def resolve(label):
            if label == _PrintsOneValueWrong.label:
                return _PrintsOneValueWrong()
            return obfuscator_for(label)

        monkeypatch.setattr(overhead, "obfuscator_for", resolve)
        workload = SPEC[0]
        with pytest.raises(SemanticsMismatch) as raised:
            measure_overhead([workload], labels=("fission", "broken"),
                             jobs=1)
        error = raised.value
        assert (error.workload, error.label) == (workload.name, "broken")
        exit_value, printed = error.baseline
        assert error.variant[0] == exit_value
        differing = [i for i, (a, b) in enumerate(zip(printed,
                                                      error.variant[1]))
                     if a != b]
        assert len(error.variant[1]) == len(printed)
        assert differing == [len(printed) - 1]
        assert workload.name in str(error) and "'broken'" in str(error)

    def test_the_error_survives_a_worker_boundary(self):
        error = SemanticsMismatch("w", "broken", (0, (1,)), (0, (2,)))
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.workload, copy.label, copy.baseline, copy.variant) == \
            ("w", "broken", (0, (1,)), (0, (2,)))
        assert str(copy) == str(error)
