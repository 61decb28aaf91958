"""Seeded fault injection: spec parsing, deterministic firing, chaos runs.

The harness is only useful if its chaos is *reproducible*: firing decisions
must be pure functions of (kind, seed, token, attempt), the spec grammar
must reject typos loudly, and a full fig8 matrix under injected worker
crashes + store corruption must still merge bit-identical to the fault-free
oracle (the CI chaos job runs the scaled-up version through
``scripts/chaos_check.py``).
"""

import pytest

from repro.evaluation.executor import reset_worker_cache, run_tasks
from repro.evaluation.precision import measure_precision
from repro.faults import (CRASH_EXIT_CODE, DEFAULT_HANG_SECONDS,
                          FaultInjected, FaultInjector, FaultRule,
                          active_injector, parse_faults, reset_injector)
from repro.workloads.suites import spec2006_programs
from tests import oracles
from repro.obs.metrics import counted

WORKLOADS = spec2006_programs()[:1]
LABELS = ("fission",)


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_injector()
    yield
    reset_injector()


class TestSpecParsing:
    def test_full_spec(self):
        rules = parse_faults("worker_crash:p=0.2,seed=7;"
                             "store_corrupt:p=0.1,seed=7;task_hang:p=0.05")
        assert set(rules) == {"worker_crash", "store_corrupt", "task_hang"}
        assert rules["worker_crash"].probability == 0.2
        assert rules["worker_crash"].seed == 7
        assert rules["task_hang"].seed == 0  # default
        assert rules["task_hang"].seconds == DEFAULT_HANG_SECONDS

    def test_hang_seconds(self):
        rules = parse_faults("task_hang:p=1,seconds=0.25")
        assert rules["task_hang"].seconds == 0.25

    def test_empty_spec_is_empty(self):
        assert parse_faults("") == {}
        assert parse_faults(" ; ; ") == {}

    @pytest.mark.parametrize("bad, match", [
        ("disk_full:p=0.5", "unknown fault kind"),
        ("remote_fault:p=0.1", "unknown fault kind"),
        ("worker_crash:p=0.2;worker_crash:p=0.3", "duplicate"),
        ("worker_crash:p", "malformed parameter"),
        ("worker_crash:seed=3", "missing p="),
        ("worker_crash:p=1.5", r"within \[0, 1\]"),
        ("worker_crash:p=-0.1", r"within \[0, 1\]"),
        ("worker_crash:p=lots", "invalid value"),
        ("worker_crash:p=0.5,volume=11", "unknown parameter"),
        ("task_hang:p=0.5,seconds=0", "seconds must be positive"),
    ])
    def test_malformed_specs_raise(self, bad, match):
        with pytest.raises(ValueError, match=match):
            parse_faults(bad)


class TestDeterministicFiring:
    def test_same_inputs_same_decision(self):
        rule = FaultRule("worker_crash", 0.3, seed=11)
        decisions = [rule.fires(f"task:{i}", a)
                     for i in range(50) for a in range(3)]
        again = [rule.fires(f"task:{i}", a)
                 for i in range(50) for a in range(3)]
        assert decisions == again
        # a 30% rule over 150 sites fires a plausible number of times
        assert 20 < sum(decisions) < 70

    def test_seed_changes_the_plan(self):
        a = FaultRule("worker_crash", 0.3, seed=1)
        b = FaultRule("worker_crash", 0.3, seed=2)
        assert [a.fires(f"t{i}") for i in range(64)] \
            != [b.fires(f"t{i}") for i in range(64)]

    def test_attempt_rerolls(self):
        rule = FaultRule("task_error", 0.5, seed=3)
        per_attempt = [rule.fires("task:0", attempt) for attempt in range(20)]
        assert True in per_attempt and False in per_attempt

    def test_probability_extremes(self):
        assert not FaultRule("worker_crash", 0.0).fires("x")
        assert FaultRule("worker_crash", 1.0).fires("x")

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE not in (0, 1)


class TestInjector:
    def test_task_error_raises_and_counts(self):
        injector = FaultInjector(parse_faults("task_error:p=1"))
        with pytest.raises(FaultInjected):
            injector.maybe_error("task:0")
        assert injector.fired["task_error"] == 1

    def test_corrupt_payload_fires_once_per_token(self):
        injector = FaultInjector(parse_faults("store_corrupt:p=1"))
        data = b"x" * 64
        first = injector.corrupt_payload("variant:abc", data)
        assert first != data and first.endswith(b"\xde\xad\xbe\xef")
        # the second write of the same object goes through clean, so the
        # post-quarantine rebuild persists a good copy (self-healing
        # converges instead of corrupting forever)
        assert injector.corrupt_payload("variant:abc", data) == data
        assert injector.corrupt_payload("variant:other", data) != data

    def test_active_injector_tracks_env(self, monkeypatch):
        assert active_injector() is None
        monkeypatch.setenv("REPRO_FAULTS", "task_error:p=1")
        injector = active_injector()
        assert injector is not None and "task_error" in injector.rules
        assert active_injector() is injector  # cached per spec
        monkeypatch.setenv("REPRO_FAULTS", "task_error:p=0.5")
        assert active_injector() is not injector  # spec change rebuilds
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_injector() is None


def _identity(value):
    return value


class TestFaultsInTheExecutor:
    def test_serial_path_never_injects(self, monkeypatch):
        """jobs=1 runs in-process: REPRO_FAULTS must not touch it even at
        p=1."""
        monkeypatch.setenv("REPRO_FAULTS", "task_error:p=1;worker_crash:p=1")
        reset_injector()
        assert run_tasks(_identity, [1, 2, 3], jobs=1) == [1, 2, 3]

    def test_injected_task_errors_are_retried_to_success(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "task_error:p=0.4,seed=5")
        reset_injector()
        values = list(range(8))
        assert run_tasks(_identity, values, jobs=2, retries=6) == values

    def test_injected_crashes_recover_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:p=0.3,seed=7")
        reset_injector()
        values = list(range(8))
        assert run_tasks(_identity, values, jobs=2, retries=10) == values

    def test_injected_hang_trips_timeout_then_succeeds(self, monkeypatch):
        # fire-pattern: deterministic; p=0.4 over 4 tasks × attempts hangs
        # at least one task's first attempt with seed 1
        monkeypatch.setenv("REPRO_FAULTS",
                           "task_hang:p=0.4,seed=1,seconds=30")
        reset_injector()
        values = list(range(4))
        assert run_tasks(_identity, values, jobs=2, timeout=1.0,
                         retries=10) == values


class TestChaosDifferential:
    """Test-sized chaos: fig8 at jobs=2 under seeded crashes + store
    corruption stays bit-identical to the fault-free oracle."""

    def _rows(self, report):
        return [(r.program, r.suite, r.tool, r.label, r.precision,
                 r.similarity_score) for r in report.rows]

    def test_fig8_chaos_matches_fault_free_serial(self, tmp_store,
                                                  monkeypatch):
        from repro.diffing import all_differs
        differs = all_differs()[:1]
        # two workloads, so the two units really go through the pool
        workloads = spec2006_programs()[:2]
        reference = self._rows(oracles.precision(workloads, LABELS, differs))
        monkeypatch.setenv("REPRO_TASK_RETRIES", "10")
        monkeypatch.setenv("REPRO_MAX_POOL_FAILURES", "10")
        monkeypatch.setenv("REPRO_FAULTS",
                           "worker_crash:p=0.2,seed=7;"
                           "store_corrupt:p=0.1,seed=7")
        reset_injector()
        reset_worker_cache()
        try:
            with counted("diffunit") as stats:
                chaos = self._rows(measure_precision(
                    workloads, labels=LABELS, differs=differs, jobs=2))
        finally:
            reset_injector()
            reset_worker_cache()
        assert chaos == reference
        assert stats["units"] == len(workloads)
