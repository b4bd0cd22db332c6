"""The benchmark's workloads and one measured iteration of each.

Two simulator workloads reuse the standing macro scenario's builder
(:func:`repro.experiments.bench.run_scenario`: a sidam city of citizens
querying a partitioned TIS network while they roam) at different sizes
and fault settings.  The live workload drives
:func:`repro.live.cluster.run_cluster` on loopback UDP.

Every iteration builds its inputs from the seed alone, runs to
quiescence and returns what it measured plus its *sim-domain outputs*:
counts and simulated latencies that depend only on the seed.  Two
iterations of one seed must produce equal outputs; the runner checks it.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.config import WiredFaultSpec, WirelessFaultSpec, WorldConfig
from repro.experiments.bench import BenchPreset, build_config, run_scenario
from repro.experiments.harness import drain
from repro.live import cluster
from repro.live.cluster import ClusterSpec, run_cluster
from repro.world import World

from .layers import Tracer


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# -- simulator workloads -------------------------------------------------------


@dataclass(frozen=True)
class SimWorkload:
    """A sidam city: citizens on a grid issuing open-loop TIS queries."""

    name: str
    citizens: int
    grid: int
    duration: float
    residence: float
    interarrival: float
    wired_faults: Optional[WiredFaultSpec] = None
    wireless_faults: Optional[WirelessFaultSpec] = None

    def preset(self, seed: int) -> BenchPreset:
        return BenchPreset(name=self.name, citizens=self.citizens,
                           grid=self.grid, duration=self.duration, seed=seed,
                           mean_interarrival=self.interarrival,
                           residence=self.residence)

    def config(self, seed: int) -> WorldConfig:
        return dataclasses.replace(build_config(self.preset(seed)),
                                   wired_faults=self.wired_faults,
                                   wireless_faults=self.wireless_faults)


@dataclass
class SimRun:
    """One simulator iteration: host timings plus sim-domain outputs."""

    setup_s: float
    loop_s: float
    cpu_s: float
    outputs: Dict[str, Any]

    @property
    def total_s(self) -> float:
        return self.setup_s + self.loop_s


def _drain_nudge_delay() -> float:
    """Simulated seconds the drain waits before its first reactivation
    nudge (the harness's ``round_window``)."""
    return float(inspect.signature(drain).parameters["round_window"].default)


def sim_outputs(world: World, workloads: List[Any],
                duration: float) -> Dict[str, Any]:
    """Seed-determined results of one finished simulator run."""
    requests = [(w.client.host, p) for w in workloads for p in w.stats.requests]
    delivered = sum(1 for host, p in requests
                    if len(p.results) == 1
                    and len(host.results_for(p.request_id)) == 1)
    latencies = sorted(p.latency for _, p in requests if p.latency is not None)
    nudge_at = duration + _drain_nudge_delay()
    metrics, monitor = world.instruments.metrics, world.monitor
    transport = world.wired.transport
    link = transport.describe() if transport is not None else {}
    return {
        "issued": len(requests),
        "delivered_once": delivered,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p90_ms": percentile(latencies, 0.90) * 1000.0,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "events": world.sim.events_executed,
        "messages": monitor.total_messages(),
        "final_time": world.sim.now,
        "wired_messages": monitor.total_messages("wired"),
        "wired_delivered": monitor.received(network="wired"),
        "wireless_messages": monitor.total_messages("wireless"),
        "wireless_drops": monitor.drops_of("wireless"),
        "frames": link.get("frames_sent", 0),
        "link_retransmissions": link.get("retransmissions", 0),
        "mss_messages": metrics.count("mss_messages_processed"),
        "handoffs": metrics.count("handoffs_completed"),
        "wireless_redeliveries": metrics.count("wireless_redeliveries"),
        "proxies_created": metrics.count("proxies_created"),
        "proxy_retransmissions": metrics.count("proxy_retransmissions"),
        "duplicates_suppressed": metrics.count("mh_duplicate_results"),
        "drain_completed": sum(1 for _, p in requests
                               if p.completed_at is not None
                               and p.completed_at > nudge_at),
        "server_requests": metrics.count("server_requests"),
        "moves": sum(driver.migrations for driver in world.drivers),
    }


def run_sim_once(workload: SimWorkload, seed: int,
                 tracer: Optional[Tracer] = None) -> SimRun:
    """Build, run and drain one world; time set-up and the event loop.

    Set-up ends at the first ``World.run`` call, when the world, its
    stations, servers, hosts and generators exist and no event has run.
    """
    preset, config = workload.preset(seed), workload.config(seed)
    first_event: List[Tuple[float, float]] = []
    original_run = World.run

    def timed_run(self: World, *args: Any, **kwargs: Any) -> None:
        if not first_event:
            first_event.append((time.perf_counter(), time.process_time()))
        original_run(self, *args, **kwargs)

    gc.collect()
    if tracer is not None:
        tracer.install_sim()
    World.run = timed_run  # type: ignore[method-assign]
    try:
        started = time.perf_counter()
        world, workloads = run_scenario(preset, config)
        ended, ended_cpu = time.perf_counter(), time.process_time()
    finally:
        World.run = original_run  # type: ignore[method-assign]
        if tracer is not None:
            tracer.remove()
    loop_started, loop_cpu = first_event[0]
    return SimRun(setup_s=loop_started - started,
                  loop_s=ended - loop_started,
                  cpu_s=ended_cpu - loop_cpu,
                  outputs=sim_outputs(world, workloads, preset.duration))


# -- the live workload ------------------------------------------------------------


@dataclass(frozen=True)
class LiveWorkload:
    """Open-loop requests from driver-hosted MHs to forked stations."""

    name: str
    stations: int
    hosts: int
    requests: int
    rate: float

    def spec(self, seed: int, trace_dir: str) -> ClusterSpec:
        return ClusterSpec(
            seed=seed, n_cells=self.stations, n_hosts=self.hosts,
            requests_per_host=self.requests // self.hosts,
            request_gap=self.hosts / self.rate,
            host_stagger=1.0 / self.rate,
            wired_loss=0.0, wireless_loss=0.0, trace_dir=trace_dir)


@dataclass
class LiveRun:
    """One live cluster run as the driver process saw it."""

    ok: bool
    setup_s: float
    wall_s: float
    issued: int
    delivered_once: int
    latencies: List[float]      # result time minus due time, seconds
    lateness: List[float]       # issue time minus due time, seconds
    active_s: float             # first due time to last result
    driver_cpu_s: float
    station_cpu_s: float
    messages: int
    retransmissions: int


class _DriverProbe:
    """Watches the live driver from outside: when its first host is
    added (set-up is over) and when each request was due."""

    def __init__(self) -> None:
        self.driver: Any = None
        self.first_host_at: Optional[float] = None
        self.due: Dict[Tuple[str, int], float] = {}
        self._original = cluster._Driver.add_host

    def __enter__(self) -> "_DriverProbe":
        probe, original = self, self._original

        def add_host(driver: Any, *args: Any, **kwargs: Any) -> Any:
            if probe.driver is None:
                probe.first_host_at = time.perf_counter()
                probe.driver = driver
                probe._watch_schedule(driver.engine)
            return original(driver, *args, **kwargs)

        cluster._Driver.add_host = add_host  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        cluster._Driver.add_host = self._original  # type: ignore[method-assign]

    def _watch_schedule(self, engine: Any) -> None:
        schedule, due = engine.schedule, self.due

        def watched(delay: float, callback: Any, *args: Any,
                    **kwargs: Any) -> Any:
            for arg in args:
                if isinstance(arg, dict) and "host" in arg and "n" in arg:
                    due[(arg["host"], arg["n"])] = engine.now + delay
            return schedule(delay, callback, *args, **kwargs)

        engine.schedule = watched


def _count_trace(driver: Any, trace_dir: str) -> Tuple[int, int]:
    """Wired plus wireless sends, and wired retransmissions, over the
    driver's trace and every station's trace file."""
    rows: List[Tuple[str, Any]] = [(rec.kind, rec.fields.get("net"))
                                   for rec in driver.recorder.records]
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    row = json.loads(line)
                    rows.append((row["kind"], row.get("fields", {}).get("net")))
    sends = sum(1 for kind, net in rows
                if kind == "send" and net in ("wired", "wireless"))
    retx = sum(1 for kind, _ in rows if kind == "wired_retx")
    return sends, retx


def run_live_once(workload: LiveWorkload, seed: int, scratch: str,
                  tracer: Optional[Tracer] = None) -> LiveRun:
    trace_dir = os.path.join(scratch, f"live-{os.getpid()}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    spec = workload.spec(seed, trace_dir)
    gc.collect()
    if tracer is not None:
        tracer.install_codec()
    self_cpu = cpu_seconds(resource.RUSAGE_SELF)
    child_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
    try:
        with _DriverProbe() as probe:
            started = time.perf_counter()
            result = run_cluster(spec)
            wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.remove()
    driver_cpu = cpu_seconds(resource.RUSAGE_SELF) - self_cpu
    station_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - child_cpu
    try:
        messages, retx = _count_trace(probe.driver, trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    issued = delivered = 0
    latencies, lateness, ends, starts = [], [], [], []
    for client in probe.driver.clients.values():
        for pending in client.requests.values():
            issued += 1
            if (len(pending.results) == 1 and
                    len(client.host.results_for(pending.request_id)) == 1):
                delivered += 1
            due = probe.due[(pending.payload["host"], pending.payload["n"])]
            starts.append(due)
            lateness.append(pending.issued_at - due)
            if pending.completed_at is not None:
                latencies.append(pending.completed_at - due)
                ends.append(pending.completed_at)
    return LiveRun(
        ok=result.ok,
        setup_s=(probe.first_host_at or started) - started,
        wall_s=wall,
        issued=issued,
        delivered_once=delivered,
        latencies=sorted(latencies),
        lateness=sorted(lateness),
        active_s=max(ends) - min(starts) if ends else 0.0,
        driver_cpu_s=driver_cpu,
        station_cpu_s=station_cpu,
        messages=messages,
        retransmissions=retx,
    )


# -- the benchmark's workloads ---------------------------------------------------

#: The macro bench's city (2000 MHs, 12x12 grid, 148 wired endpoints) on
#: the lossless causal fabric, cut to 8 simulated seconds.
CITY = SimWorkload(name="city", citizens=2000, grid=12, duration=8.0,
                   residence=20.0, interarrival=10.0)

#: Fast roaming on a 4x4 grid (20 wired endpoints) under wired and
#: wireless faults, at about 50 requests per simulated second, a load
#: the TIS servers keep up with.  The hand-off blackout outlasts the 5 ms
#: radio latency, so the first greet after every hand-off is lost and
#: retried.  The fault rates put about 2% of requests behind one client
#: retry (5 s) and under 1% behind two, which keeps the simulated p99 on
#: the one-retry plateau instead of flipping between plateaus by seed.
ROAM_LOSSY = SimWorkload(
    name="roam-lossy", citizens=600, grid=4, duration=40.0,
    residence=4.0, interarrival=12.0,
    wired_faults=WiredFaultSpec(loss=0.015, duplication=0.01, reorder=0.02),
    wireless_faults=WirelessFaultSpec(loss=0.007, burst_probability=0.0004,
                                      burst_length=0.3,
                                      handoff_blackout=0.02))

#: 1000 requests at 200 per second from 4 MHs through 2 station processes.
LIVE_LOOPBACK = LiveWorkload(name="live-loopback", stations=2, hosts=4,
                             requests=1000, rate=200.0)
