"""The consistent-hash ring and the replica supervisor.

Ring tests are pure and fast; supervisor tests spawn one real fleet per
module (subprocess startup dominates, so the fleet is shared).
"""

import signal
import subprocess
import sys

import pytest

from repro.serving.frontend.config import ServingConfig
from repro.serving.replica import (
    ConsistentHashRing,
    ReplicaSet,
    pick_free_port,
)


# ----------------------------------------------------------------------
# ConsistentHashRing
# ----------------------------------------------------------------------


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        a = ConsistentHashRing(["replica-0", "replica-1", "replica-2"])
        b = ConsistentHashRing(["replica-2", "replica-0", "replica-1"])
        # Assignment is a pure function of (members, key) — insertion
        # order and process boundaries must not matter.
        assert [a.owner(k) for k in range(256)] == [
            b.owner(k) for k in range(256)
        ]

    def test_preference_starts_with_owner_and_covers_all(self):
        ring = ConsistentHashRing(["replica-0", "replica-1", "replica-2"])
        for key in range(64):
            prefs = ring.preference(key)
            assert prefs[0] == ring.owner(key)
            assert sorted(prefs) == ["replica-0", "replica-1", "replica-2"]

    def test_preference_count_limits(self):
        ring = ConsistentHashRing(["replica-0", "replica-1", "replica-2"])
        assert len(ring.preference(7, count=2)) == 2
        assert len(ring.preference(7, count=99)) == 3

    def test_minimal_movement_on_removal(self):
        ring = ConsistentHashRing(["replica-0", "replica-1", "replica-2"])
        before = {key: ring.owner(key) for key in range(512)}
        ring.remove("replica-1")
        after = {key: ring.owner(key) for key in range(512)}
        moved = [key for key in before if before[key] != after[key]]
        # Only keys the removed member owned may move.
        assert moved, "removal should reassign the victim's keys"
        assert all(before[key] == "replica-1" for key in moved)
        assert all(after[key] != "replica-1" for key in before)

    def test_minimal_movement_on_addition(self):
        ring = ConsistentHashRing(["replica-0", "replica-1"])
        before = {key: ring.owner(key) for key in range(512)}
        ring.add("replica-2")
        after = {key: ring.owner(key) for key in range(512)}
        moved = [key for key in before if before[key] != after[key]]
        # Every moved key must have moved *to* the new member.
        assert all(after[key] == "replica-2" for key in moved)

    def test_balance_within_tolerance(self):
        ring = ConsistentHashRing(["replica-0", "replica-1", "replica-2"])
        counts = {
            name: len(keys)
            for name, keys in ring.assignment(list(range(3000))).items()
        }
        expected = 1000
        for name, count in counts.items():
            assert abs(count - expected) < 0.25 * expected, counts

    def test_assignment_includes_empty_members(self):
        ring = ConsistentHashRing(["replica-0", "replica-1"])
        out = ring.assignment([])
        assert out == {"replica-0": [], "replica-1": []}

    def test_duplicate_add_and_missing_remove_raise(self):
        ring = ConsistentHashRing(["replica-0"])
        with pytest.raises(ValueError):
            ring.add("replica-0")
        with pytest.raises(KeyError):
            ring.remove("replica-9")

    def test_empty_ring_raises(self):
        ring = ConsistentHashRing()
        with pytest.raises(LookupError):
            ring.owner(1)
        with pytest.raises(LookupError):
            ring.preference(1)

    def test_bad_vnodes_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], vnodes=0)


def test_pick_free_port_is_bindable():
    import socket

    port = pick_free_port()
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", port))


# ----------------------------------------------------------------------
# ReplicaSet (real subprocesses)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet():
    config = ServingConfig(dataset="G1", backend="serial")
    with ReplicaSet(config, 2, startup_timeout=120.0) as replica_set:
        yield replica_set


class TestReplicaSet:
    def test_ready_records(self, fleet):
        for spec in fleet.replicas:
            info = spec.ready_info
            assert info is not None
            assert info["port"] == spec.port
            assert info["proto"] == 1
            assert "query" in info["capabilities"]
            assert info["dataset"] == "G1"
            assert spec.alive

    def test_ring_assigns_every_seed_once(self, fleet):
        owned = fleet.ring.assignment(list(range(64)))
        assert sorted(owned) == ["replica-0", "replica-1"]
        assert all(owned.values())
        assert sorted(seed for seeds in owned.values() for seed in seeds) == list(range(64))

    def test_poll_reports_running(self, fleet):
        codes = fleet.poll()
        assert codes == {"replica-0": None, "replica-1": None}

    def test_kill_and_restart(self, fleet):
        fleet.terminate(1, sig=signal.SIGKILL)
        assert fleet.poll()["replica-1"] is not None
        spec = fleet.restart(1)
        fleet.wait_ready(timeout=120.0)
        assert spec.alive
        assert spec.ready_info is not None
        # Restart reuses the original port so routers need no update.
        assert spec.ready_info["port"] == spec.port


def test_wait_ready_raises_when_replica_exits_early(tmp_path):
    # A config the replica would refuse never gets this far (ServingConfig
    # checks it), so the replica is killed before it can write its record.
    replica_set = ReplicaSet(ServingConfig(backend="serial"), 1, startup_timeout=60.0)
    try:
        replica_set.start()
        process = replica_set.replicas[0].process
        process.kill()
        process.wait(timeout=60.0)
        with pytest.raises(RuntimeError, match="before becoming ready"):
            replica_set.wait_ready(timeout=60.0)
    finally:
        replica_set.stop()


def test_replica_set_validates_count():
    with pytest.raises(ValueError):
        ReplicaSet(ServingConfig(), 0)
