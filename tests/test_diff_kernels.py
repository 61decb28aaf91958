"""The diffing kernels against their references.

DeepBinDiff's exact-pruned block vote must pick, for every source block,
the same top-k targets in the same order as the all-pairs vote in
``tests/oracles.py`` — on real binaries and on synthetic block tables
built to hit ties, zero vectors, tiny target sets and equal bounds.
:func:`~repro.diffing.features.weighted_sum` must equal the
vector-at-a-time fold bit for bit.  Both rest on CPython's left-to-right
float ``sum()``, which the last class pins.
"""

import random
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.diffing import DeepBinDiff
from repro.diffing.deepbindiff import (PREFIX_LENGTH, BlockTable, block_votes,
                                       top_blocks)
from repro.diffing.features import (EMBEDDING_DIM, NormalizedVector,
                                    weighted_sum)
from repro.obs import metrics as obs_metrics
from repro.toolchain import (ALL_LABELS, build_baseline, build_obfuscated,
                             obfuscator_for)
from repro.workloads.suites import (coreutils_programs, find_program,
                                    spec2006_programs)
from tests import oracles

K = DeepBinDiff().max_block_candidates


def _bits(values):
    return array("d", values).tobytes()


@pytest.fixture(scope="module")
def quick_fig8_pairs():
    """The first T-I and T-II programs of quick figure 8, each baseline
    with its eight labels, plus 429.mcf against fufi.ori."""
    pairs = []
    for workload in (spec2006_programs()[0], coreutils_programs()[0]):
        baseline = build_baseline(workload.build()).binary
        for label in ALL_LABELS:
            variant = build_obfuscated(workload.build(), obfuscator_for(label))
            pairs.append((f"{workload.name}/{label}", baseline, variant.binary))
    mcf = find_program("429.mcf")
    pairs.append(("429.mcf/fufi.ori", build_baseline(mcf.build()).binary,
                  build_obfuscated(mcf.build(), obfuscator_for("fufi.ori")).binary))
    return pairs


class TestPrunedVoteMatchesAllPairs:
    def test_diff_equals_the_all_pairs_vote(self, quick_fig8_pairs):
        differ = DeepBinDiff()
        for name, original, obfuscated in quick_fig8_pairs:
            pruned = differ.diff(original, obfuscated)
            reference = oracles.deepbindiff(differ, original, obfuscated)
            assert pruned.matches == reference.matches, name
            assert pruned.similarity_score == reference.similarity_score, name

    def test_a_quick_fig8_program_finishes_under_a_quarter_of_its_pairs(
            self, quick_fig8_pairs):
        """A change that silently falls back to full scans fails here."""
        differ = DeepBinDiff()
        with obs_metrics.counted("deepbindiff") as grown:
            for name, original, obfuscated in quick_fig8_pairs[:len(ALL_LABELS)]:
                differ.diff(original, obfuscated)
        assert grown["pairs"] > 0
        assert grown["pairs_finished"] < 0.25 * grown["pairs"], grown


def _unit(rng, dim=EMBEDDING_DIM):
    return [rng.uniform(-1.0, 1.0) for _ in range(dim)]


def _blocks(vectors):
    """``{(function, label): NormalizedVector}`` in list order."""
    return {(function, f"b{i}"): NormalizedVector(values)
            for i, (function, values) in enumerate(vectors)}


def _assert_votes_match(sources, targets, k=K):
    """Per source block, and over the whole vote, pruned == all pairs."""
    target_table = BlockTable(targets)
    target_items = list(targets.items())
    for (function, label), vector in sources.items():
        expected = oracles.deepbindiff_top(vector, target_items, k)
        if vector.norm == 0.0:
            continue  # block_votes keeps the all-pairs scan for these
        single = BlockTable({(function, label): vector})
        actual, finished = top_blocks(k, tuple(single.prefixes[0]),
                                      tuple(single.rests[0]),
                                      single.rest_norms[0], target_table)
        assert actual == expected, (function, label)
        assert min(k, len(targets)) <= finished <= len(targets)
    assert block_votes(BlockTable(sources), target_table, k, 3) == \
        oracles.deepbindiff_votes(sources, targets, k, 3)


class TestPrunedVoteEdgeCases:
    def test_duplicate_targets_in_different_functions_tie_in_target_order(self):
        rng = random.Random(1)
        shared = _unit(rng)
        near = [x + 1e-3 for x in shared]
        targets = _blocks([("f1", _unit(rng)), ("f2", shared), ("f3", near),
                           ("f4", shared), ("f5", shared), ("f6", _unit(rng))])
        sources = _blocks([("s", shared), ("t", near), ("u", _unit(rng))])
        for k in (1, 2, 3, 4):
            _assert_votes_match(sources, targets, k)

    def test_zero_norm_source_and_target_blocks(self):
        rng = random.Random(2)
        zero = [0.0] * EMBEDDING_DIM
        # every square underflows, so the norm is 0.0 over non-zero values
        underflow = [1e-200] * EMBEDDING_DIM
        targets = _blocks([("f1", _unit(rng)), ("z1", zero), ("f2", _unit(rng)),
                           ("z2", underflow), ("f3", _unit(rng))])
        sources = _blocks([("s", zero), ("t", _unit(rng)), ("u", underflow)])
        assert BlockTable(targets).norms.count(0.0) == 2
        _assert_votes_match(sources, targets)

    def test_no_more_targets_than_candidates(self):
        rng = random.Random(3)
        sources = _blocks([("s", _unit(rng)), ("t", _unit(rng))])
        for n in (1, 2, K):
            targets = _blocks([(f"f{i}", _unit(rng)) for i in range(n)])
            _assert_votes_match(sources, targets)

    def test_a_target_equal_to_the_source(self):
        rng = random.Random(4)
        source = _unit(rng)
        targets = _blocks([("f1", _unit(rng)), ("f2", source), ("f3", _unit(rng)),
                           ("f4", [-x for x in source]), ("f5", _unit(rng))])
        _assert_votes_match(_blocks([("s", source)]), targets)

    def test_equal_bounds_with_different_dots(self):
        """Targets sharing a prefix whose rests differ only in signs have
        bitwise-equal bounds but different dots."""
        rng = random.Random(5)
        prefix = _unit(rng, PREFIX_LENGTH)
        rest = _unit(rng, EMBEDDING_DIM - PREFIX_LENGTH)
        targets = _blocks([(f"f{i}", prefix + [-x if j % 6 == i else x
                                               for j, x in enumerate(rest)])
                           for i in range(6)])
        table = BlockTable(targets)
        assert len({p.tobytes() for p in table.prefixes}) == 1
        assert len(set(table.rest_norms)) == 1
        _assert_votes_match(_blocks([("s", prefix + rest), ("t", _unit(rng))]),
                            targets)

    def test_clustered_random_tables(self):
        """Every cosine near 1, as in real binaries, with repeats."""
        rng = random.Random(6)
        centre = _unit(rng)
        pool = [[c + rng.gauss(0.0, 0.05) for c in centre] for _ in range(12)]
        for _ in range(5):
            targets = _blocks([(f"f{rng.randrange(5)}", rng.choice(pool))
                               for _ in range(40)])
            sources = _blocks([(f"s{rng.randrange(3)}", rng.choice(pool))
                               for _ in range(10)])
            _assert_votes_match(sources, targets)


floats = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 1e16]))
weights = st.one_of(st.sampled_from([1.0, 0.5, 0.25, -1.0, 0.0]),
                    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))


@st.composite
def weighted_vectors(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=1, max_value=20))
    vectors = [draw(st.lists(floats, min_size=dim, max_size=dim))
               for _ in range(count)]
    scales = draw(st.lists(weights, min_size=count, max_size=count))
    start = draw(st.one_of(st.none(),
                           st.lists(floats, min_size=dim, max_size=dim)))
    return vectors, scales, start


class TestWeightedSum:
    @settings(max_examples=150, deadline=None)
    @given(weighted_vectors())
    def test_equals_the_vector_at_a_time_fold_bit_for_bit(self, case):
        vectors, scales, start = case
        assert _bits(weighted_sum(vectors, scales, start=start)) == \
            _bits(oracles.add_scaled_fold(vectors, scales, start=start))

    def test_start_keeps_negative_zero(self):
        for count in (1, 12):  # the row fold and the column sums
            total = weighted_sum([[0.0, -0.0]] * count, [1.0] * count,
                                 start=[-0.0, -0.0])
            assert struct.pack("<2d", *total) == struct.pack("<2d", 0.0, -0.0)
        assert _bits(weighted_sum([], [], start=[-0.0])) == _bits([-0.0])

    def test_mismatches_raise(self):
        for count in (2, 12):
            with pytest.raises(ValueError):
                weighted_sum([[1.0, 2.0]] * (count - 1) + [[1.0]], [1.0] * count)
            with pytest.raises(ValueError):
                weighted_sum([[1.0]] * count, [1.0] * (count - 1))


class TestFloatSumSemantics:
    def test_sum_adds_floats_left_to_right(self):
        """Every embedding, golden and pruned DeepBinDiff dot assumes the
        plain left-to-right float ``sum()`` of CPython 3.11 and earlier;
        CPython 3.12 compensates float sums, which moves the figure 8
        golden."""
        assert sum([1e16, 1.0, -1e16]) == 0.0, (
            "this interpreter's sum() compensates float rounding (CPython "
            ">= 3.12); the diffing features and the goldens need CPython 3.11")
