"""Claims about the workloads that no optimisation should falsify.

Layer time shares are deliberately not asserted: an optimisation of a
layer is meant to change them.  Run with::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.layers import Tracer, clock_entries, stamp_entries
from perfbench.workloads import run_live_once, run_sim_once

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def city():
    return run_sim_once(workloads.CITY, seed=3)


@pytest.fixture(scope="module")
def roam():
    return run_sim_once(workloads.ROAM_LOSSY, seed=3)


def test_city_bypasses_the_reliable_transport(city):
    assert city.outputs["frames"] == 0
    assert city.outputs["link_retransmissions"] == 0


def test_roam_lossy_runs_the_reliable_transport(roam):
    assert roam.outputs["frames"] > 0
    assert roam.outputs["link_retransmissions"] > 0
    assert roam.outputs["wireless_drops"] > 0


def test_roam_lossy_hands_off_more_per_request(city, roam):
    def per_request(run):
        return run.outputs["handoffs"] / run.outputs["issued"]
    assert per_request(roam) > per_request(city)


def test_every_request_gets_exactly_one_result(city, roam):
    for run in (city, roam):
        assert run.outputs["issued"] > 0
        assert run.outputs["delivered_once"] == run.outputs["issued"]


def test_same_seed_same_outputs_other_seed_differs(roam):
    again = run_sim_once(workloads.ROAM_LOSSY, seed=3)
    assert again.outputs == roam.outputs
    other = run_sim_once(workloads.ROAM_LOSSY, seed=4)
    assert other.outputs != roam.outputs


def test_tracing_changes_no_sim_output(roam):
    tracer = Tracer()
    traced = run_sim_once(workloads.ROAM_LOSSY, seed=3, tracer=tracer)
    assert traced.outputs == roam.outputs
    assert not tracer.missing
    for layer in ("sim", "net.causal", "net.wired", "net.reliable",
                  "net.wireless", "stations", "core", "hosts", "servers",
                  "mobility", "obs"):
        assert tracer.calls[layer] > 0, layer
        assert tracer.self_s[layer] >= 0.0, layer
    # Self times partition the traced wall time: together they cannot
    # exceed the run they were measured in.
    assert sum(tracer.self_s.values()) <= traced.total_s
    assert all(span is not None for span in tracer.spans)


def test_tracer_removes_its_wrappers():
    from repro.net.causal import CausalOrdering
    from repro.sim.simulator import Simulator

    before = (Simulator.run, CausalOrdering.on_send)
    tracer = Tracer()
    tracer.install_sim()
    assert Simulator.run is not before[0]
    tracer.remove()
    assert (Simulator.run, CausalOrdering.on_send) == before


def test_stamp_entries_counts_every_clock_entry():
    from repro.net.causal import StampedMessage
    from repro.net.message import Message
    from repro.net.vectorclock import VectorClock

    stamp = VectorClock({"a": 1, "b": 2})
    constraints = {"x": VectorClock({"a": 1}), "y": VectorClock({"c": 4})}
    stamped = StampedMessage(message=Message(), stamp=stamp,
                             constraints=constraints)
    assert stamp_entries(stamped) == 4
    assert clock_entries({"n": [1, 2, 3]}) == 3


def test_small_live_cluster_delivers_exactly_once(tmp_path):
    small = dataclasses.replace(workloads.LIVE_LOOPBACK, requests=40)
    run = run_live_once(small, seed=1, scratch=str(tmp_path))
    assert run.ok
    assert run.issued == run.delivered_once == 40
    assert len(run.latencies) == 40
    assert run.setup_s > 0 and run.station_cpu_s > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "city",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_cli_prints_every_declared_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roam-lossy",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    verdict = json.loads(done.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] and verdict["failed"] == 0
    assert set(verdict["metrics"]) == {m["name"]
                                      for m in declared["end_to_end"]}
    for metric in declared["end_to_end"]:
        assert verdict["metrics"][metric["name"]]["value"] > 0
