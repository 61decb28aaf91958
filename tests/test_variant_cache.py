"""Variant memo: keying, hits and misses, evaluation-driver wiring."""

import pytest

from repro.core.variant_cache import VariantCache, config_cache_key, variant_key
from repro.evaluation.overhead import (build_variant, clear_variant_facts,
                                       measure_overhead)
from repro.evaluation.precision import measure_precision
from repro.opt.pass_manager import OptOptions
from repro.toolchain import obfuscator_for
from repro.workloads.suites import spec2006_programs

WORKLOADS = spec2006_programs()[:2]
LABELS = ("fission", "fufi.ori")


def _overhead_rows(report):
    return [(r.program, r.label, r.baseline_cycles, r.cycles)
            for r in report.rows]


def _precision_rows(report):
    return [(r.program, r.tool, r.label, r.precision, r.similarity_score)
            for r in report.rows]


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = VariantCache()
        calls = []
        key = ("k",)
        first = cache.get_or_build(key, lambda: calls.append(1) or "built")
        second = cache.get_or_build(key, lambda: calls.append(2) or "rebuilt")
        assert first == second == "built"
        assert calls == [1]
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        assert len(cache) == 1 and key in cache

    def test_stats_and_clear(self):
        cache = VariantCache()
        cache.get_or_build(("a",), lambda: 1)
        cache.get_or_build(("a",), lambda: 1)
        stats = cache.stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5}
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_takes_no_argument(self):
        with pytest.raises(TypeError):
            VariantCache(2)

    def test_a_hit_returns_the_built_object_itself(self):
        cache = VariantCache()
        built = cache.get_or_build(("k",), list)
        assert cache.get_or_build(("k",), list) is built

    def test_an_empty_memo_reports_zero(self):
        cache = VariantCache()
        assert cache.hit_rate == 0.0
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0,
                                 "hit_rate": 0.0}
        assert len(cache) == 0 and ("k",) not in cache

    def test_a_failed_build_memoises_nothing(self):
        cache = VariantCache()

        def failing():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError, match="build failed"):
            cache.get_or_build(("k",), failing)
        assert ("k",) not in cache and cache.misses == 0
        assert cache.get_or_build(("k",), lambda: "built") == "built"
        assert cache.misses == 1 and cache.hits == 0

    def test_holds_every_variant_it_built(self):
        cache = VariantCache()
        keys = [("k", index) for index in range(64)]
        for key in keys:
            cache.get_or_build(key, lambda key=key: key[1])
        assert len(cache) == 64 and all(key in cache for key in keys)
        assert [cache.get_or_build(key, lambda: None) for key in keys] == \
            list(range(64))
        assert cache.misses == cache.hits == 64

    def test_clear_makes_the_next_lookup_build(self):
        cache = VariantCache()
        calls = []
        cache.get_or_build(("k",), lambda: calls.append(1) or "first")
        cache.clear()
        assert cache.get_or_build(("k",),
                                  lambda: calls.append(2) or "second") == \
            "second"
        assert calls == [1, 2] and cache.misses == 1

    def test_keys_of_equal_configurations_share_one_entry(self):
        """Keys are values: two obfuscator objects of one configuration
        name one variant, and so hit one entry."""
        cache = VariantCache()
        wp = WORKLOADS[0]
        first = cache.get_or_build(
            variant_key(wp, obfuscator_for("fission")), object)
        again = cache.get_or_build(
            variant_key(wp, obfuscator_for("fission")), object)
        assert again is first and len(cache) == 1 and cache.hits == 1


class TestKeys:
    def test_same_configuration_same_key(self):
        wp = WORKLOADS[0]
        assert (variant_key(wp, obfuscator_for("fission"))
                == variant_key(wp, obfuscator_for("fission")))
        assert (variant_key(wp, "baseline", OptOptions())
                == variant_key(wp, "baseline", OptOptions()))

    def test_different_label_seed_options_workload_differ(self):
        wp, other = WORKLOADS
        base = variant_key(wp, obfuscator_for("fission"))
        assert base != variant_key(wp, obfuscator_for("fusion"))
        assert base != variant_key(wp, obfuscator_for("fission", seed=123))
        assert base != variant_key(other, obfuscator_for("fission"))
        assert (variant_key(wp, "baseline", OptOptions())
                != variant_key(wp, "baseline", OptOptions(level=3)))

    def test_default_options_share_one_key(self):
        """``None`` builds with ``OptOptions()``, so the two — and any
        options equal to the default, fig 9's O2 + LTO reference among
        them — name one variant."""
        wp = WORKLOADS[0]
        default = variant_key(wp, "baseline")
        assert variant_key(wp, "baseline", OptOptions()) == default
        assert variant_key(wp, "baseline",
                           OptOptions(level=2, lto=True)) == default
        assert variant_key(wp, obfuscator_for("fufi.all"), OptOptions()) \
            == variant_key(wp, obfuscator_for("fufi.all"))
        for options in (OptOptions(lto=False), OptOptions(iterations=3),
                        OptOptions(enable_dce=False)):
            assert variant_key(wp, "baseline", options) != default

    def test_default_options_build_what_none_builds(self):
        wp = WORKLOADS[0]
        cache = VariantCache()
        implicit = build_variant(wp, "baseline", None, cache)
        explicit = build_variant(wp, "baseline", OptOptions(), cache)
        assert explicit is implicit and cache.misses == 1
        fresh = build_variant(wp, "baseline", OptOptions())
        assert fresh.binary.content_digest() == \
            implicit.binary.content_digest()

    def test_profile_knobs_are_part_of_the_key(self):
        """Same (suite, name, seed) but different profile knobs must not collide."""
        import dataclasses
        from repro.workloads.suites import WorkloadProgram
        wp = WORKLOADS[0]
        longer = WorkloadProgram(wp.name, wp.suite, dataclasses.replace(
            wp.profile, iterations=wp.profile.iterations * 10))
        assert (variant_key(wp, "baseline")
                != variant_key(longer, "baseline"))

    def test_ollvm_and_khaos_keys_are_disjoint(self):
        wp = WORKLOADS[0]
        keys = {variant_key(wp, obfuscator_for(label))
                for label in ("sub", "bog", "fla-10", "fission", "fufi.all")}
        assert len(keys) == 5

    def test_config_cache_key_fallback(self):
        class Bare:
            label = "custom"
        key = config_cache_key(Bare())
        assert "Bare" in key and "custom" in key
        assert config_cache_key("baseline") == "baseline"

    def test_config_cache_key_fallback_includes_public_knobs(self):
        """Same label, different knobs, no cache_key(): keys must differ."""
        class Tool:
            label = "tool"

            def __init__(self, ratio):
                self.ratio = ratio
        assert config_cache_key(Tool(0.1)) != config_cache_key(Tool(0.9))
        assert config_cache_key(Tool(0.5)) == config_cache_key(Tool(0.5))


class TestEvaluationWiring:
    def test_build_variant_caches_and_matches_fresh_build(self):
        cache = VariantCache()
        wp = WORKLOADS[0]
        cached = build_variant(wp, "fission", cache=cache)
        again = build_variant(wp, "fission", cache=cache)
        fresh = build_variant(wp, "fission")
        assert cached is again
        assert cache.hits == 1 and cache.misses == 1
        # deterministic builds: the cached artifact equals a fresh build
        assert [f.name for f in cached.binary.functions] == \
               [f.name for f in fresh.binary.functions]

    def test_measure_overhead_report_identical_with_cache(self):
        cache = VariantCache()
        with_cache = measure_overhead(WORKLOADS, labels=LABELS, cache=cache)
        # each rerun would otherwise answer from the facts memo
        clear_variant_facts()
        without = measure_overhead(WORKLOADS, labels=LABELS)
        assert _overhead_rows(with_cache) == _overhead_rows(without)
        assert cache.misses == len(WORKLOADS) * (len(LABELS) + 1)
        assert cache.hits == 0

        clear_variant_facts()
        rerun = measure_overhead(WORKLOADS, labels=LABELS, cache=cache)
        assert _overhead_rows(rerun) == _overhead_rows(without)
        assert cache.hits == len(WORKLOADS) * (len(LABELS) + 1)

    def test_precision_reuses_overhead_variants(self):
        """The figure-8 loop must hit variants built by the figure-6/7 loop."""
        cache = VariantCache()
        measure_overhead(WORKLOADS, labels=LABELS, cache=cache)
        hits_before = cache.hits
        with_cache = measure_precision(WORKLOADS, labels=LABELS, cache=cache)
        assert cache.hits > hits_before        # nonzero figure-8 hit rate
        assert cache.misses == len(WORKLOADS) * (len(LABELS) + 1)
        without = measure_precision(WORKLOADS, labels=LABELS)
        assert _precision_rows(with_cache) == _precision_rows(without)
