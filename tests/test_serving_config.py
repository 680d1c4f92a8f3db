"""``ServingConfig``: the one config surface behind every server CLI.

The contract that matters is the round-trip: a config must survive
``to_argv()`` → ``build_parser().parse_args()`` → ``from_args()``
unchanged, because that exact path is how the replica supervisor hands
a config to its subprocesses.
"""

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import _BY_NAME, PAPER_DATASETS, get_spec
from repro.meloppr.planner import execute_stage, execute_stage_task
from repro.serving import frontend
from repro.serving.engine import QueryEngine
from repro.serving.frontend.config import (
    ServingConfig,
    build_frontend,
    build_serving_parser,
)
from repro.serving.backends import make_backend
from repro.serving.frontend.http import main as http_main
from repro.serving.frontend.router import build_router_parser
from repro.serving.frontend.router import main as router_main
from repro.serving.frontend.server import main as server_main

#: The TCP CLI's parser (the shared flags at the TCP default port, 7071).
build_parser = build_serving_parser

#: The TCP, HTTP and router CLIs' parsers.
CLI_PARSERS = {
    "tcp": build_parser,
    "http": lambda: build_serving_parser("http", default_port=7080),
    "router": build_router_parser,
}


class TestRoundTrip:
    def test_default_config_round_trips(self):
        config = ServingConfig()
        args = build_parser().parse_args(config.to_argv())
        assert ServingConfig.from_args(args) == config

    def test_non_default_config_round_trips(self):
        config = ServingConfig(
            dataset="G2",
            host="0.0.0.0",
            port=9999,
            backend="thread:3",
            max_batch=16,
            dedup=False,
            max_pending=32,
            no_cache=True,
            result_cache_bytes=1234,
            result_cache_ttl=2.5,
            trace_sample=0.25,
            trace_ring=64,
            slow_ms=10.0,
            slow_log="/tmp/slow.jsonl",
            log_level="debug",
            log_json=True,
            ready_file="/tmp/ready.json",
        )
        assert all(
            getattr(config, field.name) != field.default
            for field in dataclasses.fields(config)
        )
        args = build_parser().parse_args(config.to_argv())
        assert ServingConfig.from_args(args) == config

    def test_both_parsers_share_the_flag_surface(self):
        # The TCP and HTTP CLIs differ only in their default port.
        tcp = build_parser().parse_args([])
        http = build_serving_parser("http", default_port=7080).parse_args([])
        assert tcp.port == 7071
        assert http.port == 7080
        tcp_cfg = ServingConfig.from_args(tcp)
        http_cfg = ServingConfig.from_args(http)
        assert tcp_cfg.replace(port=0) == http_cfg.replace(port=0)

    def test_default_backend_is_serial_and_argv_names_no_kernel(self):
        config = ServingConfig()
        assert config.backend == "serial"
        assert "kernel" not in {field.name for field in dataclasses.fields(config)}
        assert "--kernel" not in config.to_argv()

    @pytest.mark.parametrize(
        "argv", [["--kernel", "csr"], ["--record", "x"], ["--max-wait-ms", "1"]]
    )
    @pytest.mark.parametrize("cli", sorted(CLI_PARSERS))
    def test_kernel_flag_is_a_usage_error(self, cli, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            CLI_PARSERS[cli]().parse_args(argv)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    def test_router_spawn_defaults_are_the_config_defaults(self):
        args = build_router_parser().parse_args(["--spawn", "1"])
        defaults = ServingConfig()
        assert (args.dataset, args.backend) == (defaults.dataset, defaults.backend)

    @pytest.mark.parametrize(
        "entry",
        [QueryEngine, execute_stage, execute_stage_task],
        ids=lambda entry: entry.__name__,
    )
    def test_no_serving_layer_takes_a_kernel(self, entry):
        # Above the diffusion layer every query runs the one production kernel.
        assert "kernel" not in inspect.signature(entry).parameters

    @pytest.mark.parametrize("name", ["AsyncBackend", "AsyncClient"])
    def test_frontend_exports_no_async_backend_or_alias(self, name):
        assert not hasattr(frontend, name)
        assert name not in frontend.__all__

    def test_replace_returns_new_frozen_config(self):
        config = ServingConfig()
        other = config.replace(max_batch=4)
        assert other.max_batch == 4 and config.max_batch == 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_batch = 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("backend", spec, "expected 'serial' or 'thread\\[:N\\]'", id=spec)
            for spec in ("process:2", "bogus", "process", "async:2", "gpu:4")
        ]
        + [
            pytest.param(
                "dataset", name, f"unknown dataset '{name}'; expected one of",
                id=f"dataset={name}",
            )
            for name in ("nope", "g1", "G7", "")
        ],
    )
    def test_a_backend_make_backend_refuses_is_refused(self, field, value, message):
        # Checked here, not in the spawned replica, whose stderr nobody reads:
        # a backend make_backend refuses, or a dataset load_dataset refuses.
        with pytest.raises(ValueError, match=message):
            ServingConfig(**{field: value})

    @pytest.mark.parametrize("dataset", sorted(PAPER_DATASETS) + sorted(_BY_NAME))
    def test_every_registered_dataset_is_accepted(self, dataset):
        # The registry check refuses only what load_dataset would: every
        # paper key and every dataset name passes and round-trips.
        config = ServingConfig(dataset=dataset)
        args = build_parser().parse_args(config.to_argv())
        assert ServingConfig.from_args(args) == config
        assert get_spec(config.dataset) in PAPER_DATASETS.values()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("thread:0", "max_workers must be > 0"),
            ("thread:-2", "max_workers must be > 0"),
            ("thread:many", "non-integer worker count"),
            ("thread:", "non-integer worker count"),
            ("serial:2", "serial backend takes no worker count"),
        ],
        ids=["thread:0", "thread:-2", "thread:many", "thread:", "serial:2"],
    )
    def test_a_malformed_worker_count_is_refused(self, spec, message):
        with pytest.raises(ValueError, match=message):
            ServingConfig(backend=spec)

    @pytest.mark.parametrize(
        "spec, name, workers",
        [
            ("serial", "serial", None),
            ("thread", "thread-pool", None),
            ("thread:1", "thread-pool", 1),
            ("thread:2", "thread-pool", 2),
            ("thread:16", "thread-pool", 16),
            ("threads:3", "thread-pool", 3),
            ("thread-pool:4", "thread-pool", 4),
            ("Thread:2", "thread-pool", 2),
        ],
        ids=[
            "serial",
            "thread",
            "thread:1",
            "thread:2",
            "thread:16",
            "threads:3",
            "thread-pool:4",
            "Thread:2",
        ],
    )
    def test_an_accepted_backend_round_trips_and_builds(self, spec, name, workers):
        config = ServingConfig(backend=spec)
        args = build_parser().parse_args(config.to_argv())
        assert ServingConfig.from_args(args) == config
        backend = make_backend(config.backend)
        try:
            assert backend.name == name
            assert getattr(backend, "max_workers", None) == workers
        finally:
            backend.close()


#: The values ``build_frontend`` refuses that a config once accepted.
BUILDER_REFUSALS = [
    pytest.param({"max_batch": 0}, "max_batch must be > 0, got 0", id="max_batch=0"),
    pytest.param({"max_pending": 0}, "max_pending must be > 0, got 0", id="max_pending=0"),
    pytest.param(
        {"trace_ring": 0, "trace_sample": 0.5},
        "trace_ring must be >= 1 when tracing, got 0",
        id="trace_ring=0,trace_sample=0.5",
    ),
    pytest.param(
        {"trace_sample": 1.5}, "trace_sample must be within \\[0, 1\\], got 1.5",
        id="trace_sample=1.5",
    ),
]


def _unchecked(**fields) -> ServingConfig:
    """A config with ``fields`` set and ``__post_init__``'s checks skipped."""
    config = object.__new__(ServingConfig)
    for field in dataclasses.fields(ServingConfig):
        object.__setattr__(config, field.name, fields.get(field.name, field.default))
    return config


class TestRefusedWhereBuilt:
    """A config is refused where it is built, not in the replica it spawns."""

    @pytest.mark.parametrize("fields, message", BUILDER_REFUSALS)
    def test_a_value_the_builder_refuses_is_refused(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ServingConfig(**fields)
        with pytest.raises(ValueError):
            build_frontend(_unchecked(**fields))

    def test_tracing_off_needs_no_ring(self):
        engine, _, _ = build_frontend(ServingConfig(trace_ring=0, trace_sample=0.0))
        try:
            assert engine.tracer is None
        finally:
            engine.close()

    @settings(max_examples=40, deadline=None)
    @given(
        max_batch=st.integers(min_value=-1, max_value=2),
        max_pending=st.integers(min_value=-1, max_value=2),
        trace_ring=st.integers(min_value=-1, max_value=2),
        trace_sample=st.one_of(
            st.sampled_from([0.0, 1.0, -0.0, 1.5, -0.5]),
            st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
            st.just(float("nan")),
        ),
    )
    def test_accepted_if_and_only_if_built(
        self, max_batch, max_pending, trace_ring, trace_sample
    ):
        fields = dict(
            max_batch=max_batch,
            max_pending=max_pending,
            trace_ring=trace_ring,
            trace_sample=trace_sample,
        )
        try:
            ServingConfig(**fields)
            accepted = True
        except ValueError:
            accepted = False
        try:
            engine, _, _ = build_frontend(_unchecked(**fields))
        except ValueError:
            built = False
        else:
            engine.close()
            built = True
        assert accepted == built


class TestCliBackendRefusal:
    """Every serving CLI refuses a bad ``--backend`` (or any value its builder
    would refuse) as a usage error."""

    MAINS = {
        "tcp": lambda argv: server_main(argv),
        "http": lambda argv: http_main(argv),
        "router": lambda argv: router_main(["--spawn", "1"] + argv),
    }

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("bogus", "unknown backend spec 'bogus'"),
            ("process:2", "unknown backend spec 'process:2'"),
            ("thread:0", "max_workers must be > 0, got 0"),
        ],
        ids=["bogus", "process:2", "thread:0"],
    )
    @pytest.mark.parametrize("cli", sorted(MAINS))
    def test_bad_backend_exits_before_serving(self, cli, spec, message, capsys):
        with pytest.raises(SystemExit) as exited:
            self.MAINS[cli](["--port", "0", "--backend", spec])
        assert exited.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-batch", "0"], "max_batch must be > 0, got 0"),
            (["--max-pending", "0"], "max_pending must be > 0, got 0"),
            (["--trace-ring", "0", "--trace-sample", "0.5"], "trace_ring must be >= 1"),
            (["--trace-sample", "1.5"], "trace_sample must be within [0, 1], got 1.5"),
        ],
        ids=["max_batch", "max_pending", "trace_ring", "trace_sample"],
    )
    @pytest.mark.parametrize("cli", ["http", "tcp"])
    def test_a_value_the_builder_refuses_exits_before_serving(self, cli, argv, message, capsys):
        with pytest.raises(SystemExit) as exited:
            self.MAINS[cli](["--port", "0"] + argv)
        assert exited.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cli", sorted(MAINS))
    def test_bad_dataset_exits_before_serving(self, cli, capsys):
        # No graph is built and no replica spawned for a key the registry lacks.
        with pytest.raises(SystemExit) as exited:
            self.MAINS[cli](["--port", "0", "--dataset", "nope"])
        assert exited.value.code == 2
        assert "error: unknown dataset 'nope'; expected one of" in capsys.readouterr().err


class TestBuildFrontend:
    def test_build(self):
        config = ServingConfig(dataset="G1", backend="serial")
        engine, policy, admission = build_frontend(config)
        try:
            assert isinstance(engine, QueryEngine)
            assert policy.max_batch_size == config.max_batch
            assert admission.max_pending == config.max_pending
        finally:
            engine.close()

    def test_namespace_and_config_build_identically(self):
        # A parsed argparse Namespace (through from_args, as the CLI main
        # does) and a ServingConfig must configure alike.
        config = ServingConfig(dataset="G1", backend="serial", max_batch=4)
        args = build_parser().parse_args(config.to_argv())
        from_ns, _, _ = build_frontend(ServingConfig.from_args(args))
        from_cfg, _, _ = build_frontend(config)
        try:
            assert from_ns.backend.name == from_cfg.backend.name
            assert (
                from_ns.solver.graph.name == from_cfg.solver.graph.name
            )
        finally:
            from_ns.close()
            from_cfg.close()

    def test_served_queries_do_not_trace_allocations(self, monkeypatch):
        # Serial backend, so the engine does not force tracking off itself:
        # a computing query must still never start tracemalloc, and its
        # peak_memory_bytes is the deterministic modelled working set.
        import tracemalloc

        from repro.ppr.base import PPRQuery

        started = []
        monkeypatch.setattr(tracemalloc, "start", lambda *args: started.append(args))
        engine, _, _ = build_frontend(ServingConfig(dataset="G1", backend="serial"))
        try:
            assert engine.solver.config.track_memory is False
            (result,) = engine.solve_batch([PPRQuery(seed=7, k=10)])
            assert started == []
            assert result.peak_memory_bytes == result.metadata["modelled_bytes"]
        finally:
            engine.close()

    def test_tracer_enabled_by_sample_rate(self):
        config = ServingConfig(
            dataset="G1", backend="serial", trace_sample=0.5, trace_ring=16
        )
        engine, _, _ = build_frontend(config)
        try:
            assert engine.tracer is not None
            assert engine.tracer.sample_rate == 0.5
        finally:
            engine.close()
