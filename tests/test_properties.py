"""Property-based tests (hypothesis).

The heart of the paper is a liveness + safety pair:

* every admitted request is eventually delivered (at-least-once), no
  matter how the MH migrates and sleeps;
* the application never sees a result twice (exactly-once at the app).

We generate arbitrary mobility/activity schedules and request timings,
replay them, drive the world to quiescence and check both properties plus
the structural invariants (single custody, pref consistency).  Further
properties cover the causal ordering layer and the vector clock algebra.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.verify import check_all
from repro.config import LatencySpec, WorldConfig
from repro.experiments.harness import drain
from repro.mobility.trace import ACTIVATE, DEACTIVATE, MIGRATE, MobilityTrace, TraceReplayer
from repro.net.causal import CausalOrdering
from repro.net.message import Message
from repro.net.vectorclock import VectorClock
from repro.servers.echo import EchoServer
from repro.net.latency import ConstantLatency
from repro.types import NodeId
from repro.world import World

N_CELLS = 4

_step = st.tuples(
    st.floats(min_value=0.01, max_value=30.0),
    st.sampled_from([MIGRATE, MIGRATE, ACTIVATE, DEACTIVATE]),
    st.integers(min_value=0, max_value=N_CELLS - 1),
)

_schedule = st.lists(_step, min_size=0, max_size=14)
_request_times = st.lists(st.floats(min_value=0.05, max_value=25.0),
                          min_size=1, max_size=5)


def _build_world(seed: int) -> World:
    config = WorldConfig(
        seed=seed,
        n_cells=N_CELLS,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        trace=True,
    )
    return World(config)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=_schedule, request_times=_request_times,
       seed=st.integers(min_value=0, max_value=3))
def test_delivery_invariants_under_arbitrary_mobility(schedule, request_times,
                                                      seed):
    world = _build_world(seed)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.4))
    client = world.add_host("m", world.cells[0], retry_interval=3.0)
    host = world.hosts["m"]

    trace = MobilityTrace()
    for at, event, cell in schedule:
        trace.add(at, event, cell=f"cell{cell}" if event == MIGRATE else None)
    replayer = TraceReplayer(world.sim, host, trace)
    replayer.start()

    issued = []

    def issue(tag: int) -> None:
        if host.state.value == "active":
            issued.append(client.request("echo", tag))

    for i, at in enumerate(sorted(request_times)):
        world.sim.schedule_at(at, issue, i)

    world.run(until=60.0)
    drain(world)

    # Liveness: everything issued was delivered.
    assert all(p.done for p in issued)
    # Safety: exactly-once at the application.
    per_request = Counter(rid for _, rid, _ in host.deliveries)
    assert all(count == 1 for count in per_request.values())
    # Structural invariants.
    report = check_all(world, expect_quiescent=True)
    assert report.ok, report.violations


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=25),
       st.randoms(use_true_random=False))
def test_causal_ordering_never_inverts_causality(pairs, rng):
    """Random send patterns + adversarial arrival order: deliveries at
    every node must respect the send/deliver partial order.

    Happens-before is derived from the harness's own history, not from
    the layer's stamps: a message's causal past is everything its sender
    had sent or delivered (transitively) before sending it.
    """
    from dataclasses import dataclass
    from typing import ClassVar

    @dataclass(slots=True, kw_only=True)
    class _P(Message):
        kind: ClassVar[str] = "p"
        uid: int = 0

    layer = CausalOrdering()
    nodes = [NodeId(f"n{i}") for i in range(4)]
    arrivals = {node: [] for node in nodes}
    # uids in each node's causal past (sent or delivered there, or in the
    # causal past of a message delivered there), and in each message's.
    node_past = {node: set() for node in nodes}
    message_past = {}
    dst_of = {}
    delivered_order = {node: [] for node in nodes}

    def deliver_at(node):
        def deliver(message):
            delivered_order[node].append(message.uid)
            node_past[node] |= message_past[message.uid] | {message.uid}
        return deliver

    # To make causality real, we interleave: half the time a random
    # pending arrival is processed at the next sender first.
    for uid, (src_i, dst_i) in enumerate(pairs):
        src, dst = nodes[src_i], nodes[dst_i]
        if arrivals[src] and rng.random() < 0.5:
            stamped = arrivals[src].pop(rng.randrange(len(arrivals[src])))
            layer.on_arrival(src, stamped, deliver_at(src))
        msg = _P(uid=uid)
        msg.src, msg.dst = src, dst
        message_past[uid] = frozenset(node_past[src])
        node_past[src].add(uid)
        dst_of[uid] = dst
        arrivals[dst].append(layer.on_send(src, dst, msg))

    for node in nodes:
        rng.shuffle(arrivals[node])
        for stamped in arrivals[node]:
            layer.on_arrival(node, stamped, deliver_at(node))

    # Liveness: everything sent was delivered, exactly once.
    assert sorted(u for uids in delivered_order.values() for u in uids) \
        == list(range(len(pairs)))
    # Safety: every causal predecessor addressed to the same node was
    # delivered there first.
    for node, uids in delivered_order.items():
        seen = set()
        for uid in uids:
            missing = {p for p in message_past[uid]
                       if dst_of[p] == node and p not in seen}
            assert not missing, (
                f"{sorted(missing)} causally precede {uid} but were "
                f"delivered after it at {node}")
            seen.add(uid)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from("abcd"), st.integers(0, 5)),
       st.dictionaries(st.sampled_from("abcd"), st.integers(0, 5)),
       st.dictionaries(st.sampled_from("abcd"), st.integers(0, 5)))
def test_vector_clock_algebra(d1, d2, d3):
    a, b, c = VectorClock(d1), VectorClock(d2), VectorClock(d3)

    def join(x, y):
        out = x.copy()
        out.merge(y)
        return out

    merged = join(a, b)
    # Merge is an upper bound of both, and leaves the copied operand alone.
    assert merged.dominates(a) and merged.dominates(b)
    assert a == VectorClock(d1)
    # Merge is commutative and idempotent.
    assert merged == join(b, a)
    assert join(a, a) == a
    # Associativity.
    assert join(join(a, b), c) == join(a, join(b, c))
    # Partial-order consistency: <= is antisymmetric up to equality.
    if a <= b and b <= a:
        assert a == b
    # Exactly one of: a<=b, b<a, concurrent.
    relations = [a <= b, b < a, a.concurrent_with(b)]
    assert sum(relations) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                min_size=1, max_size=30))
def test_jain_fairness_bounds_property(values):
    from repro.analysis.stats import jain_fairness

    fairness = jain_fairness(values)
    assert 0.0 <= fairness <= 1.0 + 1e-9
    if len(set(values)) == 1 and values[0] > 0:
        assert abs(fairness - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                min_size=1, max_size=50),
       st.floats(min_value=0.0, max_value=100.0))
def test_percentile_monotone_property(values, q):
    from repro.analysis.stats import percentile

    assert min(values) <= percentile(values, q) <= max(values)
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)
