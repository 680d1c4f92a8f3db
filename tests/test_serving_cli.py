"""The TCP door's command line, run as an operator runs it.

``python -m repro.serving.frontend.server`` is started in a subprocess on a
free port; the test learns the port from the ready file, pings, queries,
drains over the protocol and expects a clean exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time

import repro
from repro.serving.frontend import TcpQueryClient

SRC_ROOT = os.path.dirname(os.path.dirname(repro.__file__))


def test_tcp_cli_serves_then_drains_and_exits_cleanly(tmp_path):
    ready_file = tmp_path / "ready.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_ROOT, env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving.frontend.server",
            "--dataset", "G1", "--port", "0", "--backend", "serial",
            "--ready-file", str(ready_file),
        ],
        env=env,
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
                ack = await client.request({"op": "drain"})
            finally:
                await client.close()
            return answer, ack

        answer, ack = asyncio.run(session())
        assert len(answer) == 5 and answer[0][0] == 3
        assert ack["ok"] is True and ack["draining"] is True
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
