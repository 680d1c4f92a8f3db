"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import DEFAULT_SEED, PCG64Draws, ensure_rng


class TestEnsureRng:
    def test_none_gives_default_seeded_generator(self):
        a = ensure_rng(None)
        b = ensure_rng(None)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42)
        b = ensure_rng(42)
        assert np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 2**31, 20)
        b = ensure_rng(2).integers(0, 2**31, 20)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(7)
        assert ensure_rng(generator) is generator

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            ensure_rng(True)

    def test_default_seed_constant(self):
        assert isinstance(DEFAULT_SEED, int)



# One scalar call, spelled as ``(method, args)``: the same on a Generator and
# on a PCG64Draws.  Ranges cover one value (no draw), 2 and 3, 2**31 (never
# rejects), 2**31 + 1 (rejects about half its draws) and 2**32.
_RANGES = st.sampled_from([1, 2, 3, 50, 2**31, 2**31 + 1, 2**32]) | st.integers(1, 2**32)
_CALLS = st.one_of(
    st.just(("random", ())),
    st.tuples(st.integers(-(2**40), 2**40), _RANGES).map(
        lambda low_n: ("integers", (low_n[0], low_n[0] + low_n[1]))
    ),
    st.tuples(
        st.just("poisson"),
        st.tuples(st.sampled_from([0.0, 9.9]) | st.floats(0.0, 9.99)),
    ),
)


def _native(generator, calls):
    """The calls on the Generator itself, as Python numbers."""
    values = [getattr(generator, method)(*args) for method, args in calls]
    return [value.item() if isinstance(value, np.generic) else value for value in values]


class TestPCG64Draws:
    """The reader returns the Generator's own scalar draws, call for call."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        warm=st.booleans(),
        calls=st.lists(_CALLS, max_size=40),
    )
    def test_interleaved_calls_match_the_generator(self, seed, warm, calls):
        native, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        if warm:  # start with a buffered 32-bit half
            native.integers(0, 10)
            replay.integers(0, 10)
        expected = _native(native, calls)
        with PCG64Draws(replay) as draws:
            got = [getattr(draws, method)(*args) for method, args in calls]
        assert got == expected
        assert [type(value) for value in got] == [type(value) for value in expected]
        assert replay.bit_generator.state == native.bit_generator.state

    def test_chunk_boundaries_and_resumed_state(self):
        # Several chunks of mixed 64-bit and 32-bit draws, then the native
        # generator carries on from the state the reader left.
        calls = [("random", ()), ("integers", (0, 2**31 + 1)), ("poisson", (3.0,))] * 3_000
        native, replay = np.random.default_rng(11), np.random.default_rng(11)
        expected = _native(native, calls)
        with PCG64Draws(replay) as draws:
            assert [getattr(draws, method)(*args) for method, args in calls] == expected
        assert replay.bit_generator.state == native.bit_generator.state
        assert replay.integers(0, 2**32, size=8).tolist() == native.integers(0, 2**32, size=8).tolist()

    def test_draw_free_calls_leave_the_state_alone(self):
        generator = np.random.default_rng(3)
        generator.integers(0, 10)
        before = generator.bit_generator.state
        with PCG64Draws(generator) as draws:
            assert draws.integers(7, 8) == 7
            assert draws.poisson(0.0) == 0
        assert generator.bit_generator.state == before

    def test_seed_forms(self):
        assert PCG64Draws(5).random() == np.random.default_rng(5).random()
        assert PCG64Draws(None).random() == ensure_rng(None).random()

    def test_rejects_other_bit_generators(self):
        with pytest.raises(TypeError):
            PCG64Draws(np.random.Generator(np.random.MT19937(1)))
        with pytest.raises(TypeError):
            PCG64Draws(np.random.Generator(np.random.PCG64DXSM(1)))

    @pytest.mark.parametrize("low, high", [(0, 0), (5, 3), (0, 2**32 + 1)])
    def test_rejects_unsupported_ranges(self, low, high):
        with pytest.raises(ValueError):
            PCG64Draws(1).integers(low, high)

    @pytest.mark.parametrize("lam", [-1.0, 10.0, float("nan")])
    def test_rejects_unsupported_means(self, lam):
        with pytest.raises(ValueError):
            PCG64Draws(1).poisson(lam)
