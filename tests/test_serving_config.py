"""``ServingConfig``: the one config surface behind every server CLI.

The contract that matters is the round-trip: a config must survive
``to_argv()`` → ``build_parser().parse_args()`` → ``from_args()``
unchanged, because that exact path is how the replica supervisor hands
a config to its subprocesses.
"""

import dataclasses

import pytest

from repro.serving.engine import QueryEngine
from repro.serving.frontend.config import (
    ServingConfig,
    build_frontend,
    build_serving_parser,
)
from repro.serving.frontend.server import build_parser
from repro.serving.sharding import ShardRouter


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
            max_wait_ms=7.5,
            dedup=False,
            max_pending=32,
            no_cache=True,
            result_cache_bytes=1234,
            result_cache_ttl=2.5,
            kernel="csr",
            num_shards=8,
            partition="hash",
            halo_depth=2,
            record="/tmp/trace.jsonl",
            trace_sample=0.25,
            trace_ring=64,
            slow_ms=10.0,
            slow_log="/tmp/slow.jsonl",
            log_level="debug",
            log_json=True,
            ready_file="/tmp/ready.json",
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

    def test_replace_returns_new_frozen_config(self):
        config = ServingConfig()
        other = config.replace(num_shards=4)
        assert other.num_shards == 4 and config.num_shards == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.num_shards = 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(num_shards=-1)
        with pytest.raises(ValueError):
            ServingConfig(num_shards=2, partition="nope")


class TestBuildFrontend:
    def test_unsharded_build(self):
        config = ServingConfig(dataset="G1", backend="serial")
        engine, policy, admission = build_frontend(config)
        try:
            assert isinstance(engine, QueryEngine)
            assert engine.router is None
            assert policy.max_batch_size == config.max_batch
            assert admission.max_pending == config.max_pending
        finally:
            engine.close()

    def test_sharded_build_gets_a_router(self):
        config = ServingConfig(
            dataset="G1", backend="serial", num_shards=4, halo_depth=2
        )
        engine, _, _ = build_frontend(config)
        try:
            assert isinstance(engine.router, ShardRouter)
            assert engine.router.partition.num_shards == 4
        finally:
            engine.close()

    def test_namespace_and_config_build_identically(self):
        # server.build_frontend accepts the old argparse Namespace and
        # the new ServingConfig; both paths must configure alike.
        from repro.serving.frontend.server import (
            build_frontend as server_build_frontend,
        )

        config = ServingConfig(dataset="G1", backend="serial", max_batch=4)
        args = build_parser().parse_args(config.to_argv())
        from_ns, _, _ = server_build_frontend(args)
        from_cfg, _, _ = server_build_frontend(config)
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
