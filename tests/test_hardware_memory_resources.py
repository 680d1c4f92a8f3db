"""Tests for the FPGA memory model (Sec. VI-B) and resource model (Table I)."""

from __future__ import annotations

import pytest

from repro.hardware.memory_model import (
    BYTES_PER_WORD,
    FPGAMemoryModel,
    accumulated_table_bytes,
    global_score_table_bytes,
    residual_table_bytes,
    subgraph_bram_bytes,
    subgraph_table_bytes,
)
from repro.hardware.platform import KC705
from repro.hardware.resources import PAPER_TABLE_I, ResourceModel


class TestMemoryFormula:
    def test_paper_formula(self):
        """BRAM = 4 * (2|V| + 2|E| + 2|V| + |V|) — Sec. VI-B."""
        num_nodes, num_edges = 123, 456
        expected = 4 * (2 * num_nodes + 2 * num_edges + 2 * num_nodes + num_nodes)
        assert subgraph_bram_bytes(num_nodes, num_edges) == expected

    def test_component_tables(self):
        assert subgraph_table_bytes(10, 20) == 4 * (20 + 40)
        assert accumulated_table_bytes(10) == 80
        assert residual_table_bytes(10) == 40

    def test_word_size(self):
        assert BYTES_PER_WORD == 4

    def test_zero_sizes(self):
        assert subgraph_bram_bytes(0, 0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subgraph_bram_bytes(-1, 0)

    def test_global_score_table_bytes(self):
        assert global_score_table_bytes(200, 10) == 4 * 2 * 2000

    def test_global_score_table_invalid(self):
        with pytest.raises(ValueError):
            global_score_table_bytes(0, 10)


class TestFPGAMemoryModel:
    def test_total_scales_with_parallelism(self):
        small = FPGAMemoryModel(parallelism=1).total_bytes(100, 200)
        large = FPGAMemoryModel(parallelism=4).total_bytes(100, 200)
        assert large > small

    def test_fits_within_kc705(self):
        model = FPGAMemoryModel(parallelism=16)
        assert model.total_bytes(500, 1500) <= KC705.total_bram_bytes

    def test_does_not_fit_for_huge_subgraph(self):
        model = FPGAMemoryModel(parallelism=16)
        assert model.total_bytes(10**7, 10**8) > KC705.total_bram_bytes

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            FPGAMemoryModel(parallelism=0)

    def test_per_pe_bytes_matches_formula(self):
        model = FPGAMemoryModel(parallelism=2)
        assert model.per_pe_bytes(10, 20) == subgraph_bram_bytes(10, 20)


class TestPlatformSpecs:
    def test_kc705_clock(self):
        assert KC705.clock_hz == 100e6
        assert KC705.cycle_time_s == pytest.approx(1e-8)

    def test_cycles_to_seconds(self):
        assert KC705.cycles_to_seconds(100e6) == pytest.approx(1.0)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            KC705.cycles_to_seconds(-1)

class TestResourceModel:
    def test_matches_table_i_within_tolerance(self):
        model = ResourceModel()
        for parallelism, reference in PAPER_TABLE_I.items():
            usage = model.usage(parallelism)
            assert usage.lut_fraction == pytest.approx(reference["lut"], abs=0.03)
            assert usage.bram_fraction == pytest.approx(reference["bram"], abs=0.03)

    def test_dsp_usage_negligible(self):
        usage = ResourceModel().usage(16)
        assert usage.dsp_fraction < 0.001

    def test_usage_monotone_in_parallelism(self):
        model = ResourceModel()
        luts = [model.usage(p).luts for p in (1, 2, 4, 8, 16)]
        assert luts == sorted(luts)

    def test_everything_fits_up_to_16(self):
        model = ResourceModel()
        assert model.usage(16).fits()

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            ResourceModel().usage(0)

