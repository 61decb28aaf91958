"""Differential suite: FeatureIndex fast path vs legacy per-diff extraction.

Every tool must produce a bit-identical :class:`~repro.diffing.base.DiffResult`
(matches, candidate order, similarity scores) whether its features come from
the memoised per-binary :class:`~repro.diffing.index.FeatureIndex` or from
the legacy per-diff extraction, across obfuscated variants.  Also covers the
similarity kernel (pre-normalized vectors, heap-based top-k) and the index
memoisation itself.
"""

import gc

import pytest

from repro.diffing import BinDiff, all_differs, clear_index_cache, feature_index
from repro.diffing.base import BinaryDiffer, use_indexed_features
from repro.diffing.features import (EMBEDDING_DIM, NormalizedVector,
                                    block_tokens, cached_token_vector, cosine,
                                    embed_block, embed_tokens,
                                    instruction_bag, instruction_tokens,
                                    normalised_similarity, vector_similarity)
from repro.diffing.index import index_cache_size
from repro.toolchain import build_baseline, build_obfuscated, obfuscator_for
from repro.workloads.suites import find_program
from tests.conftest import build_demo_program

DIFF_LABELS = ("sub", "fla", "fufi.sep", "fufi.all")


@pytest.fixture(scope="module")
def demo_variants():
    baseline = build_baseline(build_demo_program())
    variants = {label: build_obfuscated(build_demo_program(),
                                        obfuscator_for(label))
                for label in DIFF_LABELS}
    return baseline, variants


def _diff_with(differ: BinaryDiffer, original, obfuscated, indexed: bool):
    previous = differ.use_index
    differ.use_index = indexed
    try:
        return differ.diff(original, obfuscated)
    finally:
        differ.use_index = previous


class TestDifferentialDiffResults:
    @pytest.mark.parametrize("differ", all_differs(), ids=lambda d: d.name)
    def test_indexed_path_bit_identical_to_legacy(self, differ, demo_variants):
        baseline, variants = demo_variants
        for label, variant in variants.items():
            fast = _diff_with(differ, baseline.binary, variant.binary, True)
            slow = _diff_with(differ, baseline.binary, variant.binary, False)
            # whole matches dict: function set, candidate order, exact scores
            assert fast.matches == slow.matches, (differ.name, label)
            assert fast.similarity_score == slow.similarity_score, \
                (differ.name, label)
            assert (fast.tool, fast.original, fast.obfuscated) == \
                   (slow.tool, slow.original, slow.obfuscated)

    @pytest.mark.parametrize("differ", all_differs(), ids=lambda d: d.name)
    def test_repeated_indexed_diffs_are_stable(self, differ, demo_variants):
        """Memoised features must not drift between diff calls."""
        baseline, variants = demo_variants
        variant = variants["fufi.all"]
        first = _diff_with(differ, baseline.binary, variant.binary, True)
        second = _diff_with(differ, baseline.binary, variant.binary, True)
        assert first.matches == second.matches
        assert first.similarity_score == second.similarity_score

    def test_workload_scale_differential(self):
        """The differential also holds on a synthesised SPEC workload."""
        workload = find_program("429.mcf")
        baseline = build_baseline(workload.build())
        variant = build_obfuscated(workload.build(), obfuscator_for("fufi.ori"))
        for differ in all_differs():
            fast = _diff_with(differ, baseline.binary, variant.binary, True)
            slow = _diff_with(differ, baseline.binary, variant.binary, False)
            assert fast.matches == slow.matches, differ.name
            assert fast.similarity_score == slow.similarity_score, differ.name

    def test_env_var_selects_legacy_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIFF_FEATURES", "legacy")
        assert not use_indexed_features()
        monkeypatch.setenv("REPRO_DIFF_FEATURES", "indexed")
        assert use_indexed_features()
        monkeypatch.setenv("REPRO_DIFF_FEATURES", "")
        assert use_indexed_features()
        monkeypatch.delenv("REPRO_DIFF_FEATURES")
        assert use_indexed_features()

    @pytest.mark.parametrize("value", [
        "legcy", "fast", "Legacy", " legacy", "legacy ", "LEGACY",
        "Indexed"])
    def test_unknown_env_value_raises(self, monkeypatch, value, demo_variants):
        """A typo in a reference run must not silently run the fast path."""
        monkeypatch.setenv("REPRO_DIFF_FEATURES", value)
        with pytest.raises(ValueError, match="REPRO_DIFF_FEATURES"):
            use_indexed_features()
        baseline, variants = demo_variants
        with pytest.raises(ValueError, match="REPRO_DIFF_FEATURES"):
            BinDiff().diff(baseline.binary, variants["sub"].binary)


class TestIndexMemoisation:
    def test_same_binary_same_index(self, demo_variants):
        baseline, _ = demo_variants
        assert feature_index(baseline.binary) is feature_index(baseline.binary)

    def test_distinct_binaries_distinct_indexes(self, demo_variants):
        baseline, variants = demo_variants
        assert feature_index(baseline.binary) is not \
            feature_index(variants["sub"].binary)

    def test_dropping_the_binary_evicts_the_entry(self):
        clear_index_cache()
        artifact = build_baseline(build_demo_program())
        feature_index(artifact.binary)
        assert index_cache_size() == 1
        del artifact
        gc.collect()
        assert index_cache_size() == 0

    def test_memo_builds_once_per_key(self, demo_variants):
        baseline, _ = demo_variants
        index = feature_index(baseline.binary)
        calls = []
        first = index.memo(("test", 1), lambda: calls.append(1) or "value")
        second = index.memo(("test", 1), lambda: calls.append(2) or "other")
        assert first == second == "value"
        assert calls == [1]


class TestSimilarityKernel:
    def test_normalized_vector_matches_cosine(self):
        a = embed_tokens(["add", "mov", "call.direct"], EMBEDDING_DIM)
        b = embed_tokens(["sub", "mov", "jmp"], EMBEDDING_DIM)
        expected = normalised_similarity(a, b)
        actual = vector_similarity(NormalizedVector(a), NormalizedVector(b))
        assert actual == pytest.approx(expected, abs=1e-12)

    def test_zero_vector_degenerate_cases(self):
        zero = NormalizedVector([0.0] * 4)
        other = NormalizedVector([1.0, 0.0, 0.0, 0.0])
        assert zero.norm == 0.0
        # matches (cosine + 1) / 2 for the zero-vector special cases
        assert vector_similarity(zero, zero) == 1.0
        assert vector_similarity(zero, other) == 0.5
        assert cosine([0.0] * 4, [0.0] * 4) == 1.0

    def test_self_similarity_close_to_one(self):
        vector = NormalizedVector(cached_token_vector("arithmetic"))
        assert vector_similarity(vector, vector) == pytest.approx(1.0)

    def test_instruction_bag_matches_token_embedding_exactly(self, demo_variants):
        """The shape-keyed bag cache is the seed per-instruction embedding."""
        baseline, _ = demo_variants
        for function in baseline.binary.functions:
            for inst in function.instructions():
                assert list(instruction_bag(inst, EMBEDDING_DIM)) == \
                    embed_tokens(instruction_tokens(inst), EMBEDDING_DIM)

    def test_embed_block_matches_seed_token_level_embedding(self, demo_variants):
        """Summing per-instruction bags only regroups the seed math: it must
        agree with the flat token-stream embedding up to FP reassociation."""
        baseline, variants = demo_variants
        for binary in (baseline.binary, variants["fufi.all"].binary):
            for function in binary.functions:
                for block in function.blocks:
                    grouped = embed_block(block, EMBEDDING_DIM)
                    flat = embed_tokens(block_tokens(block), EMBEDDING_DIM)
                    assert grouped == pytest.approx(flat, abs=1e-9)

    def test_normalized_vector_pickles(self):
        import pickle
        vector = NormalizedVector([3.0, 4.0])
        clone = pickle.loads(pickle.dumps(vector))
        assert list(clone.values) == list(vector.values)
        assert clone.norm == vector.norm

    def test_rank_by_similarity_heap_matches_full_sort(self, demo_variants):
        baseline, variants = demo_variants
        original = baseline.binary
        obfuscated = variants["fufi.all"].binary

        def similarity(a, b):
            return (len(a.name) * 31 + len(b.name)) % 7 / 7.0  # many ties

        for k in (1, 3, 50, 1000):
            heap_ranked = BinaryDiffer.rank_by_similarity(
                original, obfuscated, similarity, max_candidates=k)
            for source in original.functions:
                scored = [(t.name, similarity(source, t))
                          for t in obfuscated.functions]
                scored.sort(key=lambda pair: (-pair[1], pair[0]))
                assert heap_ranked[source.name] == scored[:k]


class TestEmbedTokensWeights:
    def test_optional_weights_annotation_and_equivalence(self):
        tokens = ["add", "mov", "mov", "jmp"]
        unweighted = embed_tokens(tokens)
        unit_weights = embed_tokens(tokens, weights=[1.0] * len(tokens))
        assert unweighted == unit_weights

    def test_weights_scale_contributions(self):
        tokens = ["add", "mov"]
        doubled = embed_tokens(tokens, weights=[2.0, 2.0])
        single = embed_tokens(tokens)
        assert doubled == pytest.approx([2.0 * x for x in single])

    def test_empty_tokens(self):
        assert embed_tokens([], dim=8) == [0.0] * 8
