"""Microbenchmarks of the substrates: event kernel, ordering layers,
end-to-end request throughput.

These are the only benchmarks measuring raw speed rather than
reproducing a paper artifact; they catch performance regressions in the
simulator itself.
"""

from __future__ import annotations

import random

import pytest

from repro import World, WorldConfig
from repro.config import LatencySpec
from repro.net.causal import make_ordering
from repro.net.message import Message
from repro.sim import Simulator
from repro.types import NodeId


def test_bench_kernel_event_throughput(benchmark):
    def run_events():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count

    assert benchmark(run_events) == 20_000


@pytest.mark.parametrize("n_nodes", [8, 144, 256])
def test_bench_causal_layer_throughput(benchmark, n_nodes):
    """Causal-layer cost per message against the number of endpoints
    (144 is the city workload's MSS count)."""
    from dataclasses import dataclass
    from typing import ClassVar

    @dataclass(slots=True, kw_only=True)
    class _B(Message):
        kind: ClassVar[str] = "bench_probe"

    nodes = [NodeId(f"n{i}") for i in range(n_nodes)]
    rng = random.Random(0)
    plan = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(3000)]

    def run_layer():
        layer = make_ordering("causal")
        delivered = 0

        def count(_m):
            nonlocal delivered
            delivered += 1

        for src, dst in plan:
            msg = _B()
            msg.src, msg.dst = src, dst
            stamped = layer.on_send(src, dst, msg)
            layer.on_arrival(dst, stamped, count)
        return delivered

    assert benchmark(run_layer) == 3000


def test_bench_request_roundtrip_throughput(benchmark):
    """Complete request/result/ack/proxy-delete cycles per second."""

    def run_requests():
        world = World(WorldConfig(
            n_cells=2, trace=False,
            wired_latency=LatencySpec(kind="constant", mean=0.01),
            wireless_latency=LatencySpec(kind="constant", mean=0.005)))
        world.add_server("echo")
        client = world.add_host("m", world.cells[0])
        done = []

        def chain(_p=None):
            if len(client.requests) >= 300:
                done.append(True)
                return
            client.request("echo", len(client.requests), on_result=chain)

        world.sim.schedule(0.1, chain)
        world.run_until_idle()
        return len(client.completed)

    assert benchmark(run_requests) == 300


def test_bench_handoff_throughput(benchmark):
    """Hand-offs per second with a proxy in tow."""
    from repro.net.latency import ConstantLatency

    def run_handoffs():
        world = World(WorldConfig(
            n_cells=6, topology="ring", trace=False,
            wired_latency=LatencySpec(kind="constant", mean=0.01),
            wireless_latency=LatencySpec(kind="constant", mean=0.005)))
        world.add_server("slow", service_time=ConstantLatency(500.0))
        client = world.add_host("m", world.cells[0])
        host = world.hosts["m"]
        world.sim.schedule(0.05, client.request, "slow", 1)
        for i in range(200):
            world.sim.schedule(0.2 + i * 0.2, host.migrate_to,
                               world.cells[(i + 1) % 6])
        world.run(until=45.0)
        return world.metrics.count("handoffs_completed")

    assert benchmark(run_handoffs) == 200
