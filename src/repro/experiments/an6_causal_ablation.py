"""AN6 — ablation: what causal wired delivery buys.

The exactly-once argument of Section 5 *depends* on assumption 1 (causal
order on the wired network): the Ack forwarded by the old MSS must reach
the proxy before the new MSS's ``update_currentloc``, otherwise the proxy
re-sends a result that was already acknowledged.

Ablation: the same mobile workload runs over three wired orderings —

* ``causal`` — the paper's assumption (exact causal delivery,
  :mod:`repro.net.causal`);
* ``fifo``   — per-channel FIFO only (cross-channel order may invert);
* ``raw``    — arrival order, which high latency jitter freely inverts.

Expected shape: duplicate *transmissions* (proxy retransmissions of
already-acknowledged results, observed as duplicate results at the MHs)
appear once causality is dropped, growing with reordering freedom, while
application-level exactly-once survives throughout (MH-side duplicate
detection, assumption 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import LatencySpec, WorldConfig
from ..mobility.models import ExponentialResidence, RandomNeighborWalk
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer
from ..world import World
from .harness import Table, drain

ORDERINGS = ("causal", "fifo", "raw")


@dataclass
class AblationResult:
    ordering: str
    requests: int
    delivered: int
    duplicate_transmissions: int
    retransmissions: int
    stale_proxy_messages: int
    app_duplicates: int


def run_ordering(
    ordering: str,
    n_hosts: int = 6,
    n_cells: int = 6,
    requests_per_host: int = 25,
    mean_residence: float = 0.6,
    seed: int = 0,
) -> AblationResult:
    """One ordering under a migration-heavy workload with jittery wires."""
    config = WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="ring",
        ordering=ordering,
        # Heavy jitter: wired latency uniform in [0, 0.16] — reordering is
        # frequent unless the ordering layer restores it.
        wired_latency=LatencySpec(kind="uniform", mean=0.080, spread=0.080),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        ack_delay=0.010,
        trace=False,
    )
    world = World(config)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.3))
    walk = RandomNeighborWalk(world.cell_map)
    residence = ExponentialResidence(mean_residence)

    def make_chain(client):
        def chain(_payload=None) -> None:
            if len(client.requests) >= requests_per_host:
                return
            client.request("echo", len(client.requests), on_result=chain)
        return chain

    for i in range(n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % len(world.cells)],
                                retry_interval=5.0)
        world.add_mobility(name, walk, residence)
        world.sim.schedule(0.1, make_chain(client))

    world.run(until=600.0)
    drain(world)

    hosts = world.hosts.values()
    per_request_counts = []
    app_duplicates = 0
    for host in hosts:
        seen = {}
        for _, rid, _ in host.deliveries:
            seen[rid] = seen.get(rid, 0) + 1
        app_duplicates += sum(c - 1 for c in seen.values() if c > 1)
    return AblationResult(
        ordering=ordering,
        requests=sum(len(c.requests) for c in world.clients.values()),
        delivered=sum(len(c.completed) for c in world.clients.values()),
        duplicate_transmissions=sum(h.duplicate_deliveries for h in hosts),
        retransmissions=world.metrics.count("proxy_retransmissions"),
        stale_proxy_messages=world.metrics.count("stale_proxy_messages"),
        app_duplicates=app_duplicates,
    )


def run_an6(seeds: int = 6, **kwargs) -> Table:
    """Aggregate the ablation over several seeds (single runs are noisy:
    duplicate transmissions also arise from legitimately dropped Acks,
    independent of the wired ordering)."""
    table = Table(
        title=f"AN6: wired-ordering ablation (causal vs fifo vs raw), "
              f"{seeds} seeds",
        columns=["ordering", "requests", "delivered", "retransmissions",
                 "dup transmissions", "app duplicates"],
    )
    for ordering in ORDERINGS:
        totals = [0, 0, 0, 0, 0]
        for seed in range(seeds):
            result = run_ordering(ordering, seed=seed, **kwargs)
            totals[0] += result.requests
            totals[1] += result.delivered
            totals[2] += result.retransmissions
            totals[3] += result.duplicate_transmissions
            totals[4] += result.app_duplicates
        table.add_row(ordering, *totals)
    table.notes.append(
        "app duplicates must stay 0 (MH duplicate detection); duplicate "
        "transmissions grow as ordering weakens")
    return table
