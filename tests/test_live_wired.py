"""The live wired fabric: the sim's wired stack over loopback UDP.

Two :class:`~repro.live.transport.LiveWiredNetwork` instances, each on
its own loopback socket, share one asyncio loop the way two station
processes share a host.  A scripted inbound shaper reorders and drops
chosen frames, so the causal hold-back and the selective-repeat
retransmission of the shared stack are exercised on a real wire.
"""

import asyncio
import pathlib
import socket
import sys
from dataclasses import dataclass
from typing import ClassVar

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.live.channel import InboundShaper, ShapeVerdict  # noqa: E402
from repro.live.clock import LiveClock  # noqa: E402
from repro.live.codec import CodecError, decode_envelope  # noqa: E402
from repro.live.engine import AsyncioEngine  # noqa: E402
from repro.live.transport import LiveWiredNetwork  # noqa: E402
from repro.net.message import Message  # noqa: E402
from repro.sim.tracing import TraceRecorder  # noqa: E402
from repro.types import NodeId  # noqa: E402
from repro.verify.oracle import CausalWiredOrder, Oracle  # noqa: E402

X, Z, Y = NodeId("mss:x"), NodeId("mss:z"), NodeId("mss:y")


@dataclass(slots=True, kw_only=True)
class ChainMsg(Message):
    kind: ClassVar[str] = "test_live_chain"

    label: str = ""


class ScriptedShaper(InboundShaper):
    """Verdicts for the first data frames of chosen channels; every other
    frame (acks included) is delivered untouched."""

    def __init__(self, script):
        super().__init__(None)
        self.script = {channel: list(verdicts)
                       for channel, verdicts in script.items()}

    def verdict(self, src, dst, now):
        pending = self.script.get((src, dst))
        if pending:
            return pending.pop(0)
        return ShapeVerdict(deliver=True)


class Endpoint:
    def __init__(self, node_id, net, on_message=None):
        self.node_id = node_id
        self.received = []
        self.on_message = on_message
        net.attach(self)

    def on_wired_message(self, message):
        self.received.append(message.label)
        if self.on_message is not None:
            self.on_message(message)


def _bind():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    return sock


def _pump(sock, net):
    def readable():
        while True:
            try:
                data, _ = sock.recvfrom(65536)
            except BlockingIOError:
                return
            try:
                net.on_datagram(decode_envelope(data))
            except CodecError:
                pass
    return readable


def run_pair(scenario, script_b, seconds):
    """Process A hosts x and z, process B hosts y; B's inbound frames are
    shaped by *script_b*.  *scenario* gets both networks and the
    endpoints, then the loop runs for *seconds*."""
    loop = asyncio.new_event_loop()
    socks = [_bind(), _bind()]
    try:
        engine = AsyncioEngine(loop, LiveClock.start())
        recorder = TraceRecorder()
        addresses = {X: socks[0].getsockname(), Z: socks[0].getsockname(),
                     Y: socks[1].getsockname()}
        net_a = LiveWiredNetwork(engine, socks[0], addresses,
                                 recorder=recorder)
        net_b = LiveWiredNetwork(engine, socks[1], addresses,
                                 recorder=recorder,
                                 shaper=ScriptedShaper(script_b))
        for sock, net in zip(socks, (net_a, net_b)):
            loop.add_reader(sock.fileno(), _pump(sock, net))
        nodes = scenario(net_a, net_b)
        loop.run_until_complete(asyncio.sleep(seconds))
        for sock in socks:
            loop.remove_reader(sock.fileno())
        return nodes, recorder
    finally:
        loop.close()
        for sock in socks:
            sock.close()


def test_causal_chain_delivered_in_causal_order_across_processes():
    """x sends m1 to y, then m2 to z; z answers m2 by sending m3 to y.
    The shaper holds m1 back on B's wire so m3 arrives first; y must
    still deliver m1 before m3."""
    def scenario(net_a, net_b):
        def relay(message):
            net_a.send(Z, Y, ChainMsg(label="m3"))
        nodes = {"x": Endpoint(X, net_a), "z": Endpoint(Z, net_a, relay),
                 "y": Endpoint(Y, net_b)}
        net_a.send(X, Y, ChainMsg(label="m1"))
        net_a.send(X, Z, ChainMsg(label="m2"))
        return nodes

    held = ShapeVerdict(deliver=True, extra_delay=0.12)
    nodes, recorder = run_pair(scenario, {(X, Y): [held]}, seconds=0.5)
    assert nodes["z"].received == ["m2"]
    assert nodes["y"].received == ["m1", "m3"]
    oracle = Oracle([CausalWiredOrder()])
    replay = TraceRecorder()
    oracle.attach(replay)
    for rec in sorted(recorder.records, key=lambda r: r.time):
        replay.record(rec.time, rec.kind, rec.node, **rec.fields)
    oracle.finish()
    assert not oracle.violations, oracle.violations


def test_shaped_loss_is_repaired_by_one_retransmission():
    def scenario(net_a, net_b):
        nodes = {"x": Endpoint(X, net_a), "y": Endpoint(Y, net_b)}
        net_a.send(X, Y, ChainMsg(label="m4"))
        return nodes

    lost = ShapeVerdict(deliver=False, reason="loss")
    nodes, recorder = run_pair(scenario, {(X, Y): [lost]}, seconds=0.6)
    assert nodes["y"].received == ["m4"]
    kinds = [rec.kind for rec in recorder.records]
    assert kinds.count("wired_retx") == 1
    assert kinds.count("recv") == 1
    drops = [rec for rec in recorder.records if rec.kind == "wired_drop"]
    assert [(d.node, d.get("reason")) for d in drops] == [(Y, "loss")]
