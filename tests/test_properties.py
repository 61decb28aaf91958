"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core import ProvenanceMap, obfuscate, Mode
from repro.ir import (IRBuilder, IntType, Module, Program, compatible_type,
                      compress_parameter_lists, create_function, FloatType,
                      PointerType, I64, assert_valid)
from repro.opt import optimize_program
from repro.utils import geometric_mean, stable_hash
from repro.vm import run_program


int_types = st.sampled_from([IntType(8), IntType(16), IntType(32), IntType(64)])
scalar_types = st.one_of(
    int_types,
    st.sampled_from([FloatType(32), FloatType(64)]),
    st.builds(PointerType, int_types),
)


class TestTypeProperties:
    @given(scalar_types, scalar_types)
    def test_compatible_type_is_symmetric(self, a, b):
        assert compatible_type(a, b) == compatible_type(b, a)

    @given(scalar_types)
    def test_compatible_type_is_reflexive(self, a):
        assert compatible_type(a, a) == a

    @given(st.lists(scalar_types, max_size=5), st.lists(scalar_types, max_size=5))
    def test_compression_never_grows_beyond_concatenation(self, a, b):
        merged, a_idx, b_idx = compress_parameter_lists(a, b)
        assert max(len(a), len(b)) <= len(merged) <= len(a) + len(b)
        assert len(a_idx) == len(a) and len(b_idx) == len(b)

    @given(st.lists(scalar_types, max_size=5), st.lists(scalar_types, max_size=5))
    def test_compression_mappings_are_valid_and_compatible(self, a, b):
        merged, a_idx, b_idx = compress_parameter_lists(a, b)
        for original, position in zip(a, a_idx):
            assert compatible_type(original, merged[position]) is not None
        for original, position in zip(b, b_idx):
            assert compatible_type(original, merged[position]) is not None
        # no two parameters of the same side share a slot
        assert len(set(a_idx)) == len(a_idx)
        assert len(set(b_idx)) == len(b_idx)


class TestUtilsProperties:
    @given(st.lists(st.text(max_size=20), min_size=1, max_size=4))
    def test_stable_hash_is_deterministic(self, parts):
        assert stable_hash(*parts) == stable_hash(*parts)
        assert 0 <= stable_hash(*parts) < (1 << 30)

    @given(st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
           st.sampled_from([8, 16, 32, 64]))
    def test_int_wrap_stays_in_range(self, value, bits):
        wrapped = IntType(bits).wrap(value)
        assert IntType(bits).min_value <= wrapped <= IntType(bits).max_value
        # wrapping is idempotent
        assert IntType(bits).wrap(wrapped) == wrapped

    @given(st.lists(st.floats(min_value=-0.5, max_value=3.0), max_size=6))
    def test_geometric_mean_bounds(self, values):
        mean = geometric_mean(values)
        if values:
            assert min(values) - 1e-9 <= mean <= max(values) + 1e-9
        else:
            assert mean == 0.0


class TestProvenanceProperties:
    @given(st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4),
                   min_size=1, max_size=6))
    def test_identity_provenance(self, names):
        provenance = ProvenanceMap(names)
        for name in names:
            assert provenance.is_correct_match(name, name)
            assert provenance.origins_of(name) == frozenset({name})

    @given(st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4),
                   min_size=2, max_size=6))
    def test_derivation_accumulates_origins(self, names):
        names = sorted(names)
        provenance = ProvenanceMap(names)
        provenance.record_derived("merged", names[:2])
        for name in names[:2]:
            assert provenance.is_correct_match(name, "merged")
        provenance.record_derived("merged2", ["merged"])
        for name in names[:2]:
            assert provenance.is_correct_match(name, "merged2")


class TestInterpreterProperties:
    @given(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
           st.integers(min_value=-10 ** 6, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_division_matches_c_semantics(self, lhs, rhs):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        b.ret(b.add(b.mul(b.sdiv(lhs, rhs), rhs), b.srem(lhs, rhs)))
        result = run_program(Program("p", [module]))
        # (a/b)*b + a%b == a for C truncated division (b != 0); 0 when b == 0
        assert result.exit_value == (lhs if rhs != 0 else 0)

    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=-50, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_loop_sum_matches_python(self, bound, offset):
        module = Module("m")
        f = create_function(module, "main", I64, [])
        b = IRBuilder(f.entry_block)
        acc = b.alloca(I64)
        index = b.alloca(I64)
        b.store(0, acc)
        b.store(0, index)
        loop = f.add_block("loop")
        body = f.add_block("body")
        done = f.add_block("done")
        b.br(loop)
        b.position_at_end(loop)
        i = b.load(index)
        b.cond_br(b.icmp("slt", i, bound), body, done)
        b.position_at_end(body)
        b.store(b.add(b.load(acc), b.add(i, offset)), acc)
        b.store(b.add(i, 1), index)
        b.br(loop)
        b.position_at_end(done)
        b.ret(b.load(acc))
        expected = sum(i + offset for i in range(bound))
        assert run_program(Program("p", [module])).exit_value == expected


class TestObfuscationProperties:
    """Semantic preservation across randomly chosen workloads and modes."""

    @given(st.sampled_from(["echo", "true", "wc", "factor", "seq"]),
           st.sampled_from(list(Mode.ALL)))
    @settings(max_examples=10, deadline=None)
    def test_obfuscation_preserves_observable_behaviour(self, name, mode):
        from repro.workloads import find_program
        workload = find_program(name)
        baseline = run_program(optimize_program(workload.build())).observable()
        result = obfuscate(workload.build(), mode=mode)
        assert_valid(result.program)
        obfuscated = run_program(optimize_program(result.program)).observable()
        assert obfuscated == baseline
