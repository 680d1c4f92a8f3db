"""The TCP door's command line, run as an operator runs it.

``python -m repro.serving.frontend.server`` is started in a subprocess on a
free port, with every tracing and logging flag set; the test learns the port
from the ready file, pings, queries twice, reads the trace ring, drains over
the protocol and expects a clean exit, a slow-query log and JSON request-log
lines.  The router CLI is run the same way, attached to an HTTP CLI
replica, and routes a query to it.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.serving.frontend import HttpClient, TcpQueryClient
from repro.serving.replica import pick_free_port

SRC_ROOT = os.path.dirname(os.path.dirname(repro.__file__))


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_ROOT, env.get("PYTHONPATH")])
    )
    return env


def _default_sigint():
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def test_tcp_cli_serves_then_drains_and_exits_cleanly(tmp_path):
    ready_file = tmp_path / "ready.json"
    slow_log = tmp_path / "slow.jsonl"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving.frontend.server",
            "--dataset", "G1", "--port", "0", "--backend", "serial",
            "--ready-file", str(ready_file),
            "--trace-sample", "1", "--trace-ring", "1",
            "--slow-ms", "0", "--slow-log", str(slow_log),
            "--log-level", "info", "--log-json",
        ],
        env=cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 120
        while not ready_file.exists():
            assert process.poll() is None, process.stdout.read().decode()
            assert time.monotonic() < deadline, "no ready file in 120 s"
            time.sleep(0.05)
        ready = json.loads(ready_file.read_text())
        assert ready["transport"] == "tcp" and ready["dataset"] == "G1"

        async def session():
            client = await TcpQueryClient.connect(ready["host"], ready["port"])
            try:
                assert await client.ping()
                answer = await client.solve(seed=3, k=5)
                await client.solve(seed=4, k=5)
                traces = await client.traces()
                ack = await client.request({"op": "drain"})
            finally:
                await client.close()
            return answer, traces, ack

        answer, traces, ack = asyncio.run(session())
        assert len(answer) == 5 and answer[0][0] == 3
        assert len(traces["traces"]) == 1  # --trace-ring 1 keeps the last
        assert ack["ok"] is True and ack["draining"] is True
        assert process.wait(timeout=60) == 0
        # --slow-ms 0: every sampled query is slow, one span tree per line.
        slow = [json.loads(line) for line in slow_log.read_text().splitlines()]
        assert len(slow) == 2 and all(tree["spans"] for tree in slow)
        output = process.stdout.read().decode()
        assert "RuntimeWarning" not in output  # the CLI module is loaded once
        logged = [json.loads(line) for line in output.splitlines() if line.startswith("{")]
        assert [(line["seed"], line["status"]) for line in logged] == [
            (3, "ok"), (4, "ok"),
        ]
        assert {line["trace_id"] for line in logged} == {
            tree["trace_id"] for tree in slow
        }
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()


def test_router_cli_attaches_and_routes(tmp_path):
    # The replica (the HTTP CLI) and the router start side by side.
    ready_file = tmp_path / "ready.json"
    replica_port = pick_free_port("127.0.0.1")
    replica_stderr = tmp_path / "replica.err"
    replica = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving.frontend.http",
            "--dataset", "G1", "--port", str(replica_port),
            "--ready-file", str(ready_file),
        ],
        env=cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=replica_stderr.open("wb"),
    )
    router = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.serving.frontend.router",
            "--host", "127.0.0.1", "--port", "0",
            "--replica", f"127.0.0.1:{replica_port}",
            "--retries", "1", "--retry-backoff-ms", "0",
            "--health-interval-s", "0",
        ],
        env=cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        # The router stops on SIGINT; a shell that ignores SIGINT passes that
        # on to its children, and Python then installs no handler for it.
        preexec_fn=_default_sigint,
    )
    try:
        seen, match = [], None
        banner = re.compile(r"^routing 1 replicas on http://127\.0\.0\.1:(\d+)")
        for line in iter(router.stdout.readline, b""):
            seen.append(line.decode())
            match = banner.search(seen[-1])
            if match:
                break
        assert match, "router exited before serving:\n" + "".join(seen)
        assert "RuntimeWarning" not in "".join(seen)
        deadline = time.monotonic() + 120
        while not ready_file.exists():
            assert replica.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)

        async def query():
            async with HttpClient("127.0.0.1", int(match.group(1))) as client:
                return await client.query({"seed": 3, "k": 5})

        status, answer = asyncio.run(query())
        assert status == 200 and answer["top"][0][0] == 3
    finally:
        router.send_signal(signal.SIGINT)
        replica.send_signal(signal.SIGTERM)
        try:
            exit_codes = [router.wait(timeout=60), replica.wait(timeout=60)]
        finally:
            for process in (router, replica):  # nothing outlives the test
                if process.poll() is None:
                    process.kill()
                    process.wait()
            router.stdout.close()
    assert exit_codes == [0, 0]
    assert "RuntimeWarning" not in replica_stderr.read_text()


def test_router_cli_stops_its_spawned_fleet_on_sigterm(tmp_path):
    # The fleet's ready files go to a temporary directory under TMPDIR.
    env = dict(cli_env(), TMPDIR=str(tmp_path))
    router = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.serving.frontend.router",
            "--host", "127.0.0.1", "--port", "0", "--spawn", "1",
            "--dataset", "G1", "--health-interval-s", "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    replica = None
    try:
        seen = []
        for line in iter(router.stdout.readline, b""):
            seen.append(line.decode())
            if seen[-1].startswith("routing 1 replicas on "):
                break
        else:
            raise AssertionError("router exited before serving:\n" + "".join(seen))
        (fleet,) = tmp_path.glob("repro-replicas-*")
        replica = json.loads((fleet / "ready-0.json").read_text())["pid"]
        router.send_signal(signal.SIGTERM)
        assert router.wait(timeout=60) == 0
        assert not fleet.exists()
        deadline = time.monotonic() + 10
        while _alive(replica):
            assert time.monotonic() < deadline, f"replica {replica} outlived its router"
            time.sleep(0.02)
    finally:
        if router.poll() is None:
            router.kill()
            router.wait()
        router.stdout.close()
        if replica is not None and _alive(replica):
            os.kill(replica, signal.SIGKILL)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--backend", "bogus"], "unknown backend spec 'bogus'; expected 'serial' or 'thread[:N]'"),
        (["--dataset", "nope"], "unknown dataset 'nope'; expected one of"),
        (["--retries", "-1"], "retries must be >= 0, got -1"),
        (["--health-interval-s", "nan"], "health_interval_s must be finite and >= 0, got nan"),
        (["--retry-backoff-ms", "nan"], "retry_backoff_ms must be finite and >= 0, got nan"),
        (["--spawn", "-1"], "num_replicas must be > 0, got -1"),
    ],
    ids=["backend", "dataset", "retries", "health-interval-s", "retry-backoff-ms", "spawn"],
)
def test_router_cli_refuses_a_bad_backend_before_spawning(tmp_path, argv, message):
    # A spawned replica's stderr is discarded, so every flag is checked first.
    env = dict(cli_env(), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [
            sys.executable, "-m", "repro.serving.frontend.router",
            "--port", "0", "--spawn", "1", *argv,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr  # a usage error, not a dead fleet
    assert f"error: {message}" in done.stderr
    assert "Traceback" not in done.stderr
    assert "before becoming ready" not in done.stderr
    assert not list(tmp_path.iterdir())


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
