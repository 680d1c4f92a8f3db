"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import DEFAULT_SEED, ensure_rng


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

