"""Tests for the ordering layers (raw / fifo / causal)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.errors import NetworkError
from repro.net.causal import CausalOrdering, FifoOrdering, RawOrdering, make_ordering
from repro.net.message import Message
from repro.types import NodeId


@dataclass(slots=True, kw_only=True)
class _Probe(Message):
    kind: ClassVar[str] = "probe"
    tag: str = ""


def _msg(tag: str, src: str, dst: str) -> _Probe:
    message = _Probe(tag=tag)
    message.src = NodeId(src)
    message.dst = NodeId(dst)
    return message


def test_factory():
    assert isinstance(make_ordering("raw"), RawOrdering)
    assert isinstance(make_ordering("fifo"), FifoOrdering)
    assert isinstance(make_ordering("causal"), CausalOrdering)
    with pytest.raises(NetworkError):
        make_ordering("bogus")


def test_raw_delivers_in_arrival_order():
    layer = RawOrdering()
    out = []
    s1 = layer.on_send("a", "b", _msg("m1", "a", "b"))
    s2 = layer.on_send("a", "b", _msg("m2", "a", "b"))
    layer.on_arrival("b", s2, lambda m: out.append(m.tag))
    layer.on_arrival("b", s1, lambda m: out.append(m.tag))
    assert out == ["m2", "m1"]  # raw does not restore send order


def test_fifo_restores_per_channel_order():
    layer = FifoOrdering()
    out = []
    s1 = layer.on_send("a", "b", _msg("m1", "a", "b"))
    s2 = layer.on_send("a", "b", _msg("m2", "a", "b"))
    layer.on_arrival("b", s2, lambda m: out.append(m.tag))
    assert out == []  # m2 held until m1 arrives
    layer.on_arrival("b", s1, lambda m: out.append(m.tag))
    assert out == ["m1", "m2"]


def test_fifo_channels_are_independent():
    layer = FifoOrdering()
    out = []
    sa = layer.on_send("a", "c", _msg("from-a", "a", "c"))
    sb = layer.on_send("b", "c", _msg("from-b", "b", "c"))
    layer.on_arrival("c", sb, lambda m: out.append(m.tag))
    layer.on_arrival("c", sa, lambda m: out.append(m.tag))
    assert out == ["from-b", "from-a"]


def test_fifo_does_not_order_across_channels_causally():
    """FIFO alone misses the transitive chain a->b then b->c vs a->c."""
    layer = FifoOrdering()
    out = []
    # a sends m1 to c, then a sends to b, b relays m2 to c.
    s1 = layer.on_send("a", "c", _msg("m1", "a", "c"))
    layer.on_send("a", "b", _msg("x", "a", "b"))
    s2 = layer.on_send("b", "c", _msg("m2", "b", "c"))
    layer.on_arrival("c", s2, lambda m: out.append(m.tag))
    layer.on_arrival("c", s1, lambda m: out.append(m.tag))
    assert out == ["m2", "m1"]  # causality violated, FIFO cannot help


def test_causal_restores_fifo():
    layer = CausalOrdering()
    out = []
    s1 = layer.on_send("a", "b", _msg("m1", "a", "b"))
    s2 = layer.on_send("a", "b", _msg("m2", "a", "b"))
    layer.on_arrival("b", s2, lambda m: out.append(m.tag))
    assert out == []
    layer.on_arrival("b", s1, lambda m: out.append(m.tag))
    assert out == ["m1", "m2"]


def test_causal_transitive_chain():
    """The paper's chain: Ack@Msso -> deregack -> update@Mssn.

    a sends m1 to c, then a sends trigger to b; on delivery b sends m2 to
    c.  m2 must never be delivered before m1 even if it arrives first.
    """
    layer = CausalOrdering()
    out = []
    s_m1 = layer.on_send("a", "c", _msg("m1", "a", "c"))
    s_tr = layer.on_send("a", "b", _msg("tr", "a", "b"))
    layer.on_arrival("b", s_tr, lambda m: None)  # b delivers the trigger
    s_m2 = layer.on_send("b", "c", _msg("m2", "b", "c"))
    # m2 overtakes m1 on the wire:
    layer.on_arrival("c", s_m2, lambda m: out.append(m.tag))
    assert out == []  # held back
    layer.on_arrival("c", s_m1, lambda m: out.append(m.tag))
    assert out == ["m1", "m2"]


def test_causal_concurrent_messages_not_blocked():
    layer = CausalOrdering()
    out = []
    s1 = layer.on_send("a", "c", _msg("from-a", "a", "c"))
    s2 = layer.on_send("b", "c", _msg("from-b", "b", "c"))
    layer.on_arrival("c", s2, lambda m: out.append(m.tag))
    layer.on_arrival("c", s1, lambda m: out.append(m.tag))
    assert out == ["from-b", "from-a"]


def test_causal_long_chain_through_three_relays():
    layer = CausalOrdering()
    out = []
    s_m1 = layer.on_send("a", "z", _msg("m1", "a", "z"))
    s_ab = layer.on_send("a", "b", _msg("ab", "a", "b"))
    layer.on_arrival("b", s_ab, lambda m: None)
    s_bc = layer.on_send("b", "c", _msg("bc", "b", "c"))
    layer.on_arrival("c", s_bc, lambda m: None)
    s_m2 = layer.on_send("c", "z", _msg("m2", "c", "z"))
    layer.on_arrival("z", s_m2, lambda m: out.append(m.tag))
    assert out == []
    layer.on_arrival("z", s_m1, lambda m: out.append(m.tag))
    assert out == ["m1", "m2"]


def test_causal_held_count():
    layer = CausalOrdering()
    s1 = layer.on_send("a", "b", _msg("m1", "a", "b"))
    s2 = layer.on_send("a", "b", _msg("m2", "a", "b"))
    layer.on_arrival("b", s2, lambda m: None)
    assert layer.held_count("b") == 1
    layer.on_arrival("b", s1, lambda m: None)
    assert layer.held_count("b") == 0


def test_causal_self_send():
    layer = CausalOrdering()
    out = []
    s = layer.on_send("a", "a", _msg("self", "a", "a"))
    layer.on_arrival("a", s, lambda m: out.append(m.tag))
    assert out == ["self"]


def test_causal_many_messages_drain_in_order():
    layer = CausalOrdering()
    sent = [layer.on_send("a", "b", _msg(f"m{i}", "a", "b")) for i in range(10)]
    out = []
    for stamped in reversed(sent):  # worst-case arrival order
        layer.on_arrival("b", stamped, lambda m: out.append(m.tag))
    assert out == [f"m{i}" for i in range(10)]


def test_causal_stamp_carries_only_rows_changed_since_last_on_channel():
    layer = CausalOrdering()
    first = layer.on_send("a", "b", _msg("m1", "a", "b"))
    assert (first.src, first.stamp, first.constraints) == ("a", 1, {})
    layer.on_send("a", "c", _msg("m2", "a", "c"))
    second = layer.on_send("a", "b", _msg("m3", "a", "b"))
    # Row c changed since a's last message to b.  Row b names only a's
    # own #1 to b, which FIFO order already implies, so it is not resent.
    assert second.stamp == 2
    assert second.constraints == {"c": {"a": 1}}
    third = layer.on_send("a", "b", _msg("m4", "a", "b"))
    assert third.constraints == {}


def test_causal_delivered_entries_leave_the_log():
    layer = CausalOrdering()
    to_c = layer.on_send("a", "c", _msg("m1", "a", "c"))
    to_b = layer.on_send("a", "b", _msg("m2", "a", "b"))
    assert to_b.constraints == {"c": {"a": 1}}  # #1 to c may be undelivered
    layer.on_arrival("c", to_c, lambda m: None)
    reply = layer.on_send("c", "a", _msg("r", "c", "a"))
    assert reply.delivered == {"a": 1}  # c piggybacks its delivered count
    layer.on_arrival("a", reply, lambda m: None)
    # a now knows #1 reached c, so its next stamp no longer names it.
    to_d = layer.on_send("a", "d", _msg("m3", "a", "d"))
    assert to_d.constraints == {"b": {"a": 1}}
