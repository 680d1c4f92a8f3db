"""Tests for the experiment harness (one class per paper artefact).

These are shape tests: they run each experiment at reduced seed counts and
check the qualitative claims of the paper rather than exact numbers.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.experiments import harness
from repro.experiments.ablation_stage_split import format_stage_split, run_stage_split_ablation
from repro.experiments.fig5_scalability import format_fig5, run_fig5
from repro.experiments.fig6_sparsity import format_fig6, run_fig6
from repro.experiments.fig7_tradeoff import format_fig7, run_fig7
from repro.experiments.quantization_study import format_quantization, run_quantization_study
from repro.experiments.reporting import (
    format_megabytes,
    format_milliseconds,
    format_ratio,
    format_table,
)
from repro.experiments.score_table_study import format_score_table, run_score_table_study
from repro.experiments.table1_resources import format_table1, run_table1
from repro.experiments.table2_memory import format_table2, run_table2
from repro.experiments.workloads import (
    PAPER_K,
    PAPER_LENGTH,
    PAPER_ALPHA,
    make_open_loop_workload,
    make_poisson_arrivals,
    make_repeated_seed_workload,
    make_workload,
    sample_seeds,
)
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.serving import QueryEngine, SubgraphCache


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 40]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_helpers(self):
        assert format_ratio(2.5) == "2.50x"
        assert format_ratio(float("inf")) == "inf"
        assert format_megabytes(1024 * 1024) == "1.000"
        assert format_milliseconds(0.001) == "1.000"


class TestWorkloads:
    def test_make_workload_defaults(self):
        workload = make_workload("G1", num_seeds=3)
        assert workload.num_queries == 3
        assert all(q.k == PAPER_K for q in workload.queries)
        assert all(q.length == PAPER_LENGTH for q in workload.queries)

    def test_workload_deterministic(self):
        a = make_workload("G2", num_seeds=4, rng=9)
        b = make_workload("G2", num_seeds=4, rng=9)
        assert a.queries == b.queries

    def test_sample_seeds_respects_degree(self, star_graph):
        seeds = sample_seeds(star_graph, 3, rng=1, min_degree=2)
        assert list(seeds) == [0]

    def test_sample_seeds_distinct(self, small_ba_graph):
        seeds = sample_seeds(small_ba_graph, 50, rng=1)
        assert len(set(seeds.tolist())) == len(seeds)

    def test_sample_seeds_invalid_count(self, small_ba_graph):
        with pytest.raises(ValueError):
            sample_seeds(small_ba_graph, 0)

    def test_custom_graph_workload(self, small_ba_graph):
        workload = make_workload("custom", num_seeds=2, graph=small_ba_graph)
        assert workload.graph is small_ba_graph


class TestRepeatedSeedWorkload:
    def test_every_seed_is_queried_repeat_factor_times(self):
        graph, queries = make_repeated_seed_workload("G1", num_seeds=4, repeat_factor=3, k=50, rng=2)
        assert graph.num_nodes == 3_327
        assert len(queries) == 12
        counts = {}
        for query in queries:
            counts[query.seed] = counts.get(query.seed, 0) + 1
        assert len(counts) == 4
        assert set(counts.values()) == {3}

    def test_queries_carry_the_paper_shape_and_the_requested_k(self):
        _, queries = make_repeated_seed_workload("G1", num_seeds=3, repeat_factor=2, k=75, rng=4)
        for query in queries:
            assert query.k == 75
            assert query.length == PAPER_LENGTH
            assert query.alpha == PAPER_ALPHA

    def test_repeats_are_interleaved_not_seed_sorted_blocks(self):
        _, queries = make_repeated_seed_workload("G1", num_seeds=6, repeat_factor=4, k=50, rng=3)
        seeds = [query.seed for query in queries]
        blocks = [seed for index, seed in enumerate(seeds) if index == 0 or seed != seeds[index - 1]]
        # Seed-sorted blocks would give exactly one run per seed.
        assert len(blocks) > 6

    def test_seed_pool_is_the_closed_loop_workload_sample(self):
        _, queries = make_repeated_seed_workload("G1", num_seeds=5, repeat_factor=2, k=50, rng=6)
        sample = make_workload("G1", num_seeds=5, rng=6)
        assert {query.seed for query in queries} == {query.seed for query in sample.queries}

    def test_deterministic_for_fixed_rng(self):
        _, first = make_repeated_seed_workload("G1", num_seeds=3, repeat_factor=2, k=50, rng=8)
        _, second = make_repeated_seed_workload("G1", num_seeds=3, repeat_factor=2, k=50, rng=8)
        assert first == second

    def test_repeated_stream_is_served_from_the_cache_bit_identically(self):
        graph, queries = make_repeated_seed_workload("G1", num_seeds=2, repeat_factor=3, k=40, rng=5)
        config = MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)
        with QueryEngine(MeLoPPRSolver(graph, config)) as engine:
            cold = engine.solve_batch(queries)
        with QueryEngine(MeLoPPRSolver(graph, config), cache=SubgraphCache()) as engine:
            cached = engine.solve_batch(queries)
            stats = engine.stats().cache
        assert [dict(r.scores.items()) for r in cached] == [dict(r.scores.items()) for r in cold]
        assert stats.hits > 0
        assert stats.hit_rate > 0.3


class TestPoissonWorkload:
    def test_arrival_times_are_increasing(self):
        arrivals = make_poisson_arrivals(50, rate_qps=100.0, rng=7)
        assert arrivals.shape == (50,)
        assert np.all(np.diff(arrivals) > 0)
        # Mean gap of a Poisson process is 1/rate (loose bound, fixed rng).
        assert 0.2 / 100.0 < np.mean(np.diff(arrivals)) < 5.0 / 100.0

    def test_arrivals_validate_inputs(self):
        with pytest.raises(ValueError, match="num_arrivals"):
            make_poisson_arrivals(0)
        with pytest.raises(ValueError, match="rate_qps"):
            make_poisson_arrivals(5, rate_qps=0.0)

    def test_open_loop_workload_shape(self):
        workload = make_open_loop_workload("G1", num_seeds=3, num_arrivals=20, k=50, rng=5)
        assert len(workload.queries) == 20
        assert len(workload.arrival_seconds) == 20
        # Hot-seed pool: only num_seeds distinct seeds, so repeats occur.
        assert len({query.seed for query in workload.queries}) <= 3
        assert all(query.k == 50 for query in workload.queries)

    def test_deterministic_for_fixed_rng(self):
        first = make_open_loop_workload("G1", num_seeds=3, num_arrivals=10, rng=11)
        second = make_open_loop_workload("G1", num_seeds=3, num_arrivals=10, rng=11)
        assert first.queries == second.queries
        assert first.arrival_seconds == second.arrival_seconds


class TestFig5:
    @pytest.fixture(scope="class")
    def study(self):
        return run_fig5(num_seeds=3, parallelisms=(1, 2, 16))

    def test_latency_decreases_with_parallelism(self, study):
        compute = [
            p.fpga_diffusion_seconds + p.fpga_scheduling_seconds for p in study.points
        ]
        assert compute == sorted(compute, reverse=True)

    def test_meaningful_speedup_at_p16(self, study):
        assert study.speedup_from_first()[16] > 2.0

    def test_scheduling_overhead_bounds(self, study):
        for point in study.points:
            if point.parallelism == 1:
                assert point.scheduling_fraction == 0.0
            else:
                assert point.scheduling_fraction < 0.40

    def test_cpu_and_data_movement_constant(self, study):
        cpu = {point.cpu_seconds for point in study.points}
        movement = {point.fpga_data_movement_seconds for point in study.points}
        assert len(cpu) == 1
        assert len(movement) == 1

    def test_format(self, study):
        text = format_fig5(study)
        assert "Fig. 5" in text
        assert "FPGA-Diffusion" in text


class TestTable1:
    def test_model_close_to_paper(self):
        study = run_table1()
        assert study.max_lut_error() < 0.03
        assert study.max_bram_error() < 0.03

    def test_format(self):
        text = format_table1(run_table1())
        assert "Table I" in text
        assert "BRAM %" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def study(self):
        # Modelled memory keeps this test fast and deterministic.
        return run_table2(
            datasets=("G1", "G3"), num_seeds=3, use_tracemalloc=False
        )

    def test_meloppr_uses_less_memory(self, study):
        for row in study.rows:
            assert row.cpu_reduction_mean > 1.0
            assert row.fpga_reduction_mean > row.cpu_reduction_mean

    def test_denser_graph_saves_more(self, study):
        by_dataset = {row.dataset: row for row in study.rows}
        assert by_dataset["G3"].fpga_reduction_mean > by_dataset["G1"].fpga_reduction_mean * 0.5

    def test_format(self, study):
        text = format_table2(study)
        assert "Table II" in text
        assert "G1" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def study(self):
        return run_fig6(datasets=("G1", "G2"), ratios=(0.01, 0.05, 0.3), num_seeds=3)

    def test_precision_increases_with_ratio(self, study):
        precisions = [point.precision for point in study.curve]
        assert precisions[0] <= precisions[-1] + 0.02

    def test_residual_vector_is_sparse(self, study):
        distribution = study.distribution
        # Most nodes carry small scores, few carry large ones, and the top
        # decile of nodes holds a disproportionate share of the mass — the
        # property the next-stage selection exploits.
        assert distribution.near_zero_fraction > distribution.large_score_fraction
        assert distribution.large_score_fraction < 0.25
        assert distribution.top_decile_mass_fraction > 0.25

    def test_more_ratio_means_more_tasks(self, study):
        tasks = [point.mean_next_stage_tasks for point in study.curve]
        assert tasks == sorted(tasks)

    def test_format(self, study):
        text = format_fig6(study)
        assert "Fig. 6" in text
        assert "%" in text


class TestFig7:
    @pytest.fixture(scope="class")
    def study(self):
        return run_fig7(datasets=("G1", "G2"), ratios=(0.01, 0.1), num_seeds=3)

    def test_precision_rises_with_budget(self, study):
        for dataset in study.datasets():
            points = study.for_dataset(dataset)
            assert points[0].precision <= points[-1].precision + 0.05

    def test_speedup_falls_with_budget(self, study):
        for dataset in study.datasets():
            points = study.for_dataset(dataset)
            assert points[-1].fpga_speedup <= points[0].fpga_speedup * 1.2

    def test_fpga_faster_than_cpu_meloppr(self, study):
        for point in study.points:
            assert point.meloppr_fpga_seconds <= point.meloppr_cpu_seconds * 1.05

    def test_bfs_fraction_in_unit_interval(self, study):
        for point in study.points:
            assert 0.0 <= point.bfs_fraction <= 1.0

    def test_format(self, study):
        text = format_fig7(study)
        assert "Fig. 7" in text
        assert "speedup" in text


class TestQuantizationStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_quantization_study(num_seeds=3)

    def test_larger_scale_is_more_precise(self, study):
        rows = study.by_rule()
        assert rows["max"].mean_precision >= rows["average"].mean_precision - 0.02

    def test_max_scale_precision_high(self, study):
        assert study.by_rule()["max"].mean_precision > 0.85

    def test_loss_is_one_minus_precision(self, study):
        for row in study.rows:
            assert row.mean_precision_loss == pytest.approx(1.0 - row.mean_precision)

    def test_format(self, study):
        assert "Sec. V-A" in format_quantization(study)


class TestScoreTableStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_score_table_study(datasets=("G1",), factors=(2, 10), num_seeds=3)

    def test_larger_table_loses_less(self, study):
        assert study.loss_at(10) <= study.loss_at(2) + 1e-9

    def test_loss_small_at_paper_setting(self, study):
        assert study.loss_at(10) < 0.05

    def test_unknown_factor_raises(self, study):
        with pytest.raises(KeyError):
            study.loss_at(999)

    def test_format(self, study):
        assert "Sec. V-B" in format_score_table(study)


class TestStageSplitAblation:
    @pytest.fixture(scope="class")
    def study(self):
        return run_stage_split_ablation(
            dataset="G2", splits=((1, 5), (3, 3), (5, 1)), num_seeds=3
        )

    def test_all_splits_present(self, study):
        assert {row.stage_lengths for row in study.rows} == {(1, 5), (3, 3), (5, 1)}

    def test_large_l1_needs_more_memory(self, study):
        rows = {row.stage_lengths: row for row in study.rows}
        assert (
            rows[(5, 1)].mean_peak_subgraph_nodes
            >= rows[(3, 3)].mean_peak_subgraph_nodes
        )

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            run_stage_split_ablation(splits=((2, 2),), num_seeds=2)

    def test_format(self, study):
        assert "Ablation" in format_stage_split(study)


class TestHarness:
    IDS = [
        "E1_fig5",
        "E2_table1",
        "E3_table2",
        "E4_fig6",
        "E5_fig7",
        "E6_quantization",
        "E7_score_table",
        "E8_stage_split",
        "E15_soak",
    ]

    def test_runs_the_paper_artefacts_and_the_kept_serving_studies(self):
        assert [experiment_id for experiment_id, _ in harness.EXPERIMENTS] == self.IDS

    def test_only_computes_the_matching_experiments(self, monkeypatch, capsys):
        def refuse(profile):
            raise AssertionError("--only ran an experiment it did not select")

        monkeypatch.setattr(
            harness,
            "EXPERIMENTS",
            tuple(
                (experiment_id, run if "E2" in experiment_id else refuse)
                for experiment_id, run in harness.EXPERIMENTS
            ),
        )
        assert harness.main(["--only", "E2"]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line in self.IDS]
        assert printed == ["E2_table1"]

    @staticmethod
    def record_runs(monkeypatch):
        """Replace every entry with a stub that logs ``(id, profile)``."""
        calls = []

        def stub(experiment_id):
            def run(profile):
                calls.append((experiment_id, profile))
                return f"table of {experiment_id}"

            return run

        monkeypatch.setattr(
            harness,
            "EXPERIMENTS",
            tuple((experiment_id, stub(experiment_id)) for experiment_id, _ in harness.EXPERIMENTS),
        )
        return calls

    def test_only_selects_every_id_containing_the_substring(self, monkeypatch, capsys):
        calls = self.record_runs(monkeypatch)
        assert harness.main(["--only", "E1"]) == 0
        selected = ["E1_fig5", "E15_soak"]
        assert [experiment_id for experiment_id, _ in calls] == selected
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line in self.IDS] == selected
        assert "table of E15_soak" in out

    def test_only_matching_nothing_runs_nothing(self, monkeypatch, capsys):
        calls = self.record_runs(monkeypatch)
        assert harness.main(["--only", "E99"]) == 0
        assert calls == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flag, profile",
        [("quick", harness.QUICK_PROFILE), ("paper", harness.PAPER_PROFILE)],
    )
    def test_profile_flag_reaches_every_entry(self, monkeypatch, flag, profile):
        calls = self.record_runs(monkeypatch)
        assert harness.main(["--profile", flag]) == 0
        assert [experiment_id for experiment_id, _ in calls] == self.IDS
        assert {used for _, used in calls} == {profile}

    def test_unknown_profile_is_rejected(self, monkeypatch):
        calls = self.record_runs(monkeypatch)
        with pytest.raises(SystemExit):
            harness.main(["--profile", "huge"])
        assert calls == []

    def test_paper_profile_averages_over_more_seeds(self):
        quick, paper = harness.QUICK_PROFILE, harness.PAPER_PROFILE
        assert (quick.name, paper.name) == ("quick", "paper")
        assert paper.num_seeds_small > quick.num_seeds_small
        assert paper.num_seeds_large > quick.num_seeds_large
        assert paper.memory_datasets == tuple(f"G{i}" for i in range(1, 7))
        assert paper.tradeoff_datasets == paper.memory_datasets

    def test_cli_runs_without_a_runpy_warning(self):
        # ``python -m`` warns when the package import already loaded the
        # module it runs, so the package imports the profiles, not the harness.
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments.harness", "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0 and "--profile" in done.stdout
        assert "RuntimeWarning" not in done.stderr

    def test_package_re_exports_the_profiles(self):
        import repro.experiments as experiments

        assert experiments.QUICK_PROFILE is harness.QUICK_PROFILE
        assert experiments.PAPER_PROFILE is harness.PAPER_PROFILE
        assert experiments.ExperimentProfile is harness.ExperimentProfile
