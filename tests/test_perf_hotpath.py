"""Hot-path guarantees: zero-cost tracing when disabled, and the
direct-dependency causal layer delivering in exactly the order of the
SES reference with its classic rescan drain."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List

import pytest

from repro.net.causal import CausalOrdering
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.vectorclock import VectorClock
from repro.net.wired import WiredNetwork
from repro.net.wireless import WirelessChannel
from repro.sim import Simulator, TraceRecorder
from repro.types import CellId, MhState, NodeId


@dataclass(slots=True, kw_only=True)
class _TrackedMsg(Message):
    kind: ClassVar[str] = "tracked"
    tag: str = ""

    def describe(self) -> str:
        _DESCRIBE_CALLS.append(self.tag)
        return f"tracked {self.tag}"


_DESCRIBE_CALLS: List[str] = []


class _StaticNode:
    def __init__(self, name: str) -> None:
        self.node_id = NodeId(name)
        self.received: List[Message] = []

    def on_wired_message(self, message: Message) -> None:
        self.received.append(message)


class _Station:
    def __init__(self, name: str, cell: str) -> None:
        self.node_id = NodeId(name)
        self.cell_id = CellId(cell)
        self.received: List[Message] = []

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


class _Host:
    def __init__(self, name: str, cell: str) -> None:
        self.node_id = NodeId(name)
        self.current_cell = CellId(cell)
        self.state = MhState.ACTIVE
        self.received: List[Message] = []

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


# -- zero-cost tracing --------------------------------------------------------


def test_no_describe_on_wired_path_when_recorder_disabled(sim):
    _DESCRIBE_CALLS.clear()
    net = WiredNetwork(sim, latency=ConstantLatency(0.01),
                       recorder=TraceRecorder(enabled=False))
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _TrackedMsg(tag="w1"))
    sim.run()
    assert [m.tag for m in b.received] == ["w1"]
    assert _DESCRIBE_CALLS == []


def test_no_describe_on_wireless_path_when_recorder_disabled(sim):
    _DESCRIBE_CALLS.clear()
    channel = WirelessChannel(sim, latency=ConstantLatency(0.005),
                              recorder=TraceRecorder(enabled=False))
    station = _Station("mss:a", "cell:a")
    host = _Host("mh:m", "cell:a")
    channel.register_station(station)
    channel.register_host(host)
    channel.downlink(station, host.node_id, _TrackedMsg(tag="down"))
    channel.uplink(host, _TrackedMsg(tag="up"))
    sim.run()
    assert [m.tag for m in host.received] == ["down"]
    assert [m.tag for m in station.received] == ["up"]
    assert _DESCRIBE_CALLS == []


def test_no_describe_when_kind_filtered_out(sim):
    _DESCRIBE_CALLS.clear()
    net = WiredNetwork(sim, latency=ConstantLatency(0.01),
                       recorder=TraceRecorder(kinds={"drop"}))
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _TrackedMsg(tag="w1"))
    sim.run()
    assert _DESCRIBE_CALLS == []


def test_describe_still_evaluated_when_recording(sim):
    _DESCRIBE_CALLS.clear()
    recorder = TraceRecorder()
    net = WiredNetwork(sim, latency=ConstantLatency(0.01), recorder=recorder)
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _TrackedMsg(tag="w1"))
    sim.run()
    assert _DESCRIBE_CALLS == ["w1", "w1"]  # send + recv
    assert recorder.filter(kind="send")[0].get("detail") == "tracked w1"


# -- direct-dependency causal layer vs the SES rescan reference ---------------


@dataclass(slots=True)
class _SesStamped:
    message: Message
    stamp: VectorClock
    constraints: Dict[str, VectorClock]


class _RescanCausalOrdering:
    """Reference implementation: the Schiper–Eggli–Sandoz (SES) layer with
    the O(n^2) rescan-from-start hold-back drain.  SES holds a message
    exactly while a message to the same destination in its causal past
    is undelivered, so this is the executable spec of delivery order."""

    def __init__(self) -> None:
        self._knowledge: Dict[NodeId, VectorClock] = {}
        self._sent: Dict[NodeId, int] = {}
        self._dep: Dict[NodeId, Dict[str, VectorClock]] = {}
        self._buffers: Dict[NodeId, List[_SesStamped]] = {}

    def _endpoint(self, node: NodeId):
        if node not in self._knowledge:
            self._knowledge[node] = VectorClock()
            self._dep[node] = {}
            self._sent[node] = 0
        return self._knowledge[node], self._dep[node]

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> _SesStamped:
        knowledge, dep = self._endpoint(src)
        self._sent[src] += 1
        stamp = knowledge.copy()
        stamp.merge(VectorClock({src: self._sent[src]}))
        constraints = {node: clock.copy() for node, clock in dep.items()}
        dep[dst] = stamp.copy()
        return _SesStamped(message=message, stamp=stamp, constraints=constraints)

    def on_arrival(self, dst: NodeId, stamped: _SesStamped,
                   deliver: Callable[[Message], None]) -> None:
        self._buffers.setdefault(dst, []).append(stamped)
        buffer = self._buffers[dst]
        progressed = True
        while progressed:
            progressed = False
            for index, held in enumerate(buffer):
                knowledge, _ = self._endpoint(dst)
                constraint = held.constraints.get(dst)
                if constraint is None or knowledge.dominates(constraint):
                    buffer.pop(index)
                    self._commit(dst, held)
                    deliver(held.message)
                    progressed = True
                    break

    def _commit(self, node: NodeId, stamped: _SesStamped) -> None:
        vt, dep = self._endpoint(node)
        vt.merge(stamped.stamp)
        for other, clock in stamped.constraints.items():
            if other == node:
                continue
            if other in dep:
                dep[other].merge(clock)
            else:
                dep[other] = clock.copy()

    def retire(self, node: NodeId) -> int:
        return 0  # keeps everything: retirement must not change delivery order


def _picker(rng: random.Random, nodes: List[NodeId],
            hubs: int) -> Callable[[], NodeId]:
    """Uniform choice of an endpoint, or, with fewer *hubs* than nodes,
    one of the first *hubs* endpoints half of the time."""
    if hubs >= len(nodes):
        return lambda: rng.choice(nodes)
    return lambda: (rng.choice(nodes[:hubs]) if rng.random() < 0.5
                    else rng.choice(nodes))


def _random_traffic(seed: int, n_nodes: int, n_messages: int,
                    hubs: int = 0):
    """One randomized run: sends with random jitter per message, arrivals
    processed in (arrival time, send order) order — latency inversions
    included, exactly what the hold-back buffer exists for."""
    rng = random.Random(seed)
    nodes = [NodeId(f"n{i}") for i in range(n_nodes)]
    pick = _picker(rng, nodes, hubs or n_nodes)
    sends = []
    clock = 0.0
    for i in range(n_messages):
        clock += rng.random()
        src = pick()
        dst = pick()
        arrival = clock + rng.uniform(0.0, 8.0)
        sends.append((clock, arrival, i, src, dst))
    return sends


def _deliveries(layer, sends) -> List[tuple]:
    order: List[tuple] = []
    arrivals = []
    for send_time, arrival, i, src, dst in sorted(sends):
        msg = _TrackedMsg(tag=f"m{i}")
        stamped = layer.on_send(src, dst, msg)
        arrivals.append((arrival, i, dst, stamped))
    for _, _, dst, stamped in sorted(arrivals):
        layer.on_arrival(dst, stamped,
                         lambda m, _dst=dst: order.append((_dst, m.tag)))
    return order


def _reactive_deliveries(layer, seed: int, n_nodes: int, n_messages: int,
                         hubs: int = 4, retire: bool = False) -> List[tuple]:
    """Event-driven traffic: a delivery triggers a send from the receiver
    (inside the delivery callback, as a station's handler would) with
    probability 0.7, and 40% of sends go to one of *hubs* endpoints, so
    causal chains relay through hubs as they do through the TIS servers
    of the city workload.  Latencies are uniform in [0, 8), so arrivals
    overtake each other.  With *retire*, the first phase runs to
    quiescence, the last endpoint is retired, and the survivors carry on
    without it; retirement must not change delivery order."""
    rng = random.Random(seed)
    nodes = [NodeId(f"n{i}") for i in range(n_nodes)]
    queue: List[tuple] = []
    order: List[tuple] = []
    sent = 0
    now = 0.0

    def send(src: NodeId, alive: List[NodeId]) -> None:
        nonlocal sent
        dst = (rng.choice(alive[:hubs]) if rng.random() < 0.4
               else rng.choice(alive))
        stamped = layer.on_send(src, dst, _TrackedMsg(tag=f"m{sent}"))
        heapq.heappush(queue, (now + rng.uniform(0.0, 8.0), sent, dst,
                               stamped))
        sent += 1

    def run_phase(alive: List[NodeId], budget: int) -> None:
        nonlocal now

        def delivered(message: Message, node: NodeId) -> None:
            order.append((node, message.tag))
            if sent < budget and rng.random() < 0.7:
                send(node, alive)

        for _ in range(budget // 4):
            now += rng.random()
            send(rng.choice(alive), alive)
        while queue:
            now, _, dst, stamped = heapq.heappop(queue)
            layer.on_arrival(dst, stamped,
                             lambda m, _dst=dst: delivered(m, _dst))

    if retire:
        run_phase(nodes, n_messages // 2)
        assert layer.retire(nodes[-1]) == 0
        run_phase(nodes[:-1], n_messages)
    else:
        run_phase(nodes, n_messages)
    assert len(order) == sent
    return order


def _interleaved(layers, seed: int, n_nodes: int, n_messages: int,
                 hubs: int, arrive_p: float = 0.6) -> List[List[tuple]]:
    """Sends interleaved with arrivals (knowledge evolves between sends),
    mimicking live request/response traffic rather than batch replay.
    After each send, a random pending message arrives with probability
    *arrive_p*, repeatedly.  Every layer sees the same operations;
    returns each one's deliveries."""
    rng = random.Random(1000 + seed)
    nodes = [NodeId(f"n{i}") for i in range(n_nodes)]
    pick = _picker(rng, nodes, hubs)
    orders: List[List[tuple]] = [[] for _ in layers]
    pending: List[List[tuple]] = [[] for _ in layers]

    def arrive(take: int) -> None:
        for layer, queue, order in zip(layers, pending, orders):
            dst, stamped = queue.pop(take)
            layer.on_arrival(dst, stamped,
                             lambda m, _d=dst, _o=order: _o.append((_d, m.tag)))

    for i in range(n_messages):
        src, dst = pick(), pick()
        msg = _TrackedMsg(tag=f"m{i}")
        for layer, queue in zip(layers, pending):
            queue.append((dst, layer.on_send(src, dst, msg)))
        while pending[0] and rng.random() < arrive_p:
            arrive(rng.randrange(len(pending[0])))
    while pending[0]:
        arrive(0)
    return orders


def test_indexed_drain_matches_rescan_order_under_stress():
    _DESCRIBE_CALLS.clear()
    # (endpoints, messages, hubs, seeds); 144 is the city workload's size.
    for n_nodes, n_messages, hubs, seeds in ((6, 120, 0, 20), (144, 400, 4, 3)):
        for seed in range(seeds):
            sends = _random_traffic(seed, n_nodes, n_messages, hubs)
            fast = _deliveries(CausalOrdering(), sends)
            reference = _deliveries(_RescanCausalOrdering(), sends)
            assert len(fast) == n_messages
            assert fast == reference, f"delivery order diverged for seed {seed}"


def test_indexed_drain_interleaved_sends_and_arrivals():
    # (endpoints, messages, hubs, arrival probability, seeds)
    for n_nodes, n_messages, hubs, arrive_p, seeds in (
            (5, 200, 5, 0.6, 10), (144, 1000, 4, 0.5, 3)):
        for seed in range(seeds):
            fast, reference = _interleaved(
                [CausalOrdering(), _RescanCausalOrdering()], seed,
                n_nodes, n_messages, hubs, arrive_p)
            assert len(fast) == n_messages
            assert fast == reference


@pytest.mark.parametrize("retire", [False, True])
def test_matches_rescan_reactive_at_144_endpoints(retire):
    for seed in range(3):
        layer = CausalOrdering()
        fast = _reactive_deliveries(layer, seed, n_nodes=144, n_messages=600,
                                    retire=retire)
        assert fast == _reactive_deliveries(_RescanCausalOrdering(), seed,
                                            n_nodes=144, n_messages=600,
                                            retire=retire)
        assert all(layer.held_count(NodeId(f"n{i}")) == 0 for i in range(144))


def test_held_count_and_retire_prune_state():
    layer = CausalOrdering()
    a, b, c = NodeId("a"), NodeId("b"), NodeId("c")
    layer.on_send(a, b, _TrackedMsg(tag="first"))  # stamp never arrives
    second = layer.on_send(a, b, _TrackedMsg(tag="second"))
    got: List[str] = []
    layer.on_arrival(b, second, lambda m: got.append(m.tag))
    assert got == [] and layer.held_count(b) == 1  # held: first not seen yet
    assert layer.retire(b) == 1  # drops the held message with the endpoint
    assert layer.held_count(b) == 0
    # a's constraint table no longer references the retired endpoint...
    stamped = layer.on_send(a, c, _TrackedMsg(tag="third"))
    assert b not in stamped.constraints
    # ...and a re-created endpoint starts fresh: new sends deliver.
    refreshed = layer.on_send(a, b, _TrackedMsg(tag="fresh"))
    layer.on_arrival(b, refreshed, lambda m: got.append(m.tag))
    assert got == ["fresh"]


def test_wired_detach_retires_ordering_state(sim):
    net = WiredNetwork(sim, latency=ConstantLatency(0.01),
                       recorder=TraceRecorder(enabled=False))
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _TrackedMsg(tag="w1"))
    sim.run()
    net.detach(b.node_id)
    assert not net.knows(b.node_id)
    assert net.ordering.retire(b.node_id) == 0  # idempotent, already pruned
