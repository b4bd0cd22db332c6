"""Causal point-to-point delivery with direct-dependency stamps.

The paper's system model assumes that "communication among the MSSs is
reliable and message delivery is in causal order" (assumption 1), and the
exactly-once argument of Section 5 relies on it: the Ack forwarded by the
old MSS must reach the proxy before the ``update_currentloc`` sent by the
new MSS, because the first send causally precedes the second.

:class:`CausalOrdering` delivers a message at its destination *d* only
once every message to *d* in its causal past has been delivered there.
It tracks direct dependencies only (after Kshemkalyani & Singhal,
*Distributed Computing* 11(2), 1998, and Prakash, Raynal & Singhal,
*JPDC* 40(2), 1997) instead of a vector clock per destination:

* Every channel ``s -> d`` numbers its messages 1, 2, 3, ...
* Every endpoint keeps a *log*: one row per destination ``y``, mapping a
  sender ``x`` to the highest number ``u`` such that message #u on
  ``x -> y`` is in the endpoint's causal past and may still be
  undelivered.  One number per channel suffices because causal order
  implies FIFO order: #u delivered means #1..#u delivered.

A stamp (:class:`StampedMessage`) carries the sender, the channel
sequence number, the log rows that changed since the sender's last
message on the same channel (the receiver merged the rest when it
delivered that message, which FIFO order delivers first), and the
sender's own delivered counters that changed since then.

Entries leave a log in two ways:

* *covered*: sending to ``y`` replaces row ``y`` with the single entry
  for the new message, which has everything the old row named in its
  causal past;
* *delivered*: a message from ``y`` carries ``y``'s delivered counters.
  The receiver drops every row-``y`` entry they show delivered and keeps
  the counters, so it drops such entries from later stamps too instead
  of merging them back in.

On arrival at *d* a message is checked against its FIFO predecessor and
its row *d* only.  A blocked message parks under one channel into *d*
whose delivered count is too low and is re-checked when that count
advances; woken messages are delivered in arrival order, so the result
is the order of a rescan of the whole hold-back buffer from its start.
On delivery the stamp's rows are merged (pointwise max) into the
receiver's log, except row *d*, which the check just showed delivered.

The condition is exact.  Every entry names a real message to its row's
destination in the message's causal past, so a blocking entry is a
causal predecessor not yet delivered.  Conversely every message to *d*
in the causal past is named by an entry, or lies in the causal past of
an entry's message to *d* (which, delivered causally, implies it is
delivered too), or was pruned because *d* had delivered it.  A message
is therefore held exactly while some message to the same destination in
its causal past is undelivered, which is also the condition of the
Schiper–Eggli–Sandoz (SES) protocol this layer replaces; delivery
order is the same, at a stamp cost of the rows that changed rather than
a vector clock per destination.

The ordering layer is pluggable so the AN6 ablation can run the same
workload over FIFO-only or fully unordered delivery and measure how the
exactly-once guarantee degrades.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..types import NodeId
from .message import Message

#: One log row: sender -> highest sequence number on the channel from
#: that sender to the row's destination that may still be undelivered.
#: A row is never mutated once stored; updates rebind to a new dict, so
#: stamps and logs share rows by reference.
Row = Dict[NodeId, int]

Deliver = Callable[[Message], None]

#: Delivered counters of a destination never heard from (read-only).
_NO_COUNTS: Dict[NodeId, int] = {}


@dataclass(slots=True)
class StampedMessage:
    """A message plus the ordering metadata attached at send time.

    ``stamp`` is the message's sequence number on its channel (from 1;
    0 under ``raw``), ``constraints`` the log rows it carries (destination
    -> :data:`Row`) and ``delivered`` the sender's delivered counters
    (sender -> count) it piggybacks.
    """

    message: Message
    stamp: int
    constraints: Dict[NodeId, Row]
    src: NodeId = NodeId("")
    delivered: Optional[Dict[NodeId, int]] = None


class OrderingLayer:
    """Interface: decides when an arrived message may be delivered."""

    name = "raw"

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        return StampedMessage(message=message, stamp=0, constraints={}, src=src)

    def on_arrival(self, dst: NodeId, stamped: StampedMessage,
                   deliver: Deliver) -> None:
        """Deliver now or buffer; implementations call *deliver* for each
        message that becomes deliverable (possibly several)."""
        deliver(stamped.message)

    def retire(self, node: NodeId) -> int:
        """Forget all ordering state for a permanently detached endpoint.

        Returns the number of held-back messages dropped with it.  Only
        valid for endpoints that will never exchange messages again: a
        later re-attach starts its channels from fresh counters, so
        in-flight stamps that still reference the retired endpoint could
        block forever.
        """
        return 0


class RawOrdering(OrderingLayer):
    """No ordering guarantee: messages delivered in arrival order, which
    may invert send order when latencies vary."""

    name = "raw"


class FifoOrdering(OrderingLayer):
    """Per-(src, dst) FIFO delivery.

    A per-channel sequence number is attached at send time; arrivals are
    held back until all lower sequence numbers for that channel have been
    delivered.
    """

    name = "fifo"

    def __init__(self) -> None:
        self._sent: Dict[Tuple[NodeId, NodeId], int] = {}
        self._delivered: Dict[Tuple[NodeId, NodeId], int] = {}
        self._held: Dict[Tuple[NodeId, NodeId], Dict[int, StampedMessage]] = {}

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        channel = (src, dst)
        seq = self._sent.get(channel, 0) + 1
        self._sent[channel] = seq
        return StampedMessage(message=message, stamp=seq, constraints={}, src=src)

    def on_arrival(self, dst: NodeId, stamped: StampedMessage,
                   deliver: Deliver) -> None:
        channel = (stamped.src, dst)
        held = self._held.setdefault(channel, {})
        held[stamped.stamp] = stamped
        expected = self._delivered.get(channel, 0) + 1
        while expected in held:
            deliver(held.pop(expected).message)
            expected += 1
        self._delivered[channel] = expected - 1

    def retire(self, node: NodeId) -> int:
        dropped = 0
        for channel in [c for c in self._held if node in c]:
            dropped += len(self._held.pop(channel))
        for counters in (self._sent, self._delivered):
            for channel in [c for c in counters if node in c]:
                del counters[channel]
        return dropped


class _CausalEndpoint:
    """One endpoint's channel counters, log and hold-back buffer.

    ``row_changes`` and ``delivery_changes`` hold the version at which
    each log row and each delivered counter last grew, in version order,
    so a send collects what changed since the channel's ``shipped``
    version by walking them backwards.
    """

    __slots__ = ("sent", "delivered", "known", "log", "version", "row_changes",
                 "delivery_changes", "shipped", "waiting", "held", "arrivals")

    def __init__(self) -> None:
        self.sent: Dict[NodeId, int] = {}  # dst -> messages sent to it
        self.delivered: Dict[NodeId, int] = {}  # src -> messages delivered
        # dst -> dst's delivered counters, as of its last message here
        self.known: Dict[NodeId, Dict[NodeId, int]] = {}
        self.log: Dict[NodeId, Row] = {}  # dst -> row
        self.version = 0
        self.row_changes: Dict[NodeId, int] = {}
        self.delivery_changes: Dict[NodeId, int] = {}
        self.shipped: Dict[NodeId, int] = {}  # dst -> version at last send
        # blocking sender -> [(arrival order, stamped), ...]
        self.waiting: Dict[NodeId, List[Tuple[int, StampedMessage]]] = {}
        self.held = 0
        self.arrivals = 0


class CausalOrdering(OrderingLayer):
    """Exact causal point-to-point delivery (implies FIFO per channel);
    see the module docstring for the algorithm."""

    name = "causal"

    def __init__(self) -> None:
        self._endpoints: Dict[NodeId, _CausalEndpoint] = {}

    def _endpoint(self, node: NodeId) -> _CausalEndpoint:
        endpoint = self._endpoints.get(node)
        if endpoint is None:
            endpoint = self._endpoints[node] = _CausalEndpoint()
        return endpoint

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        endpoint = self._endpoint(src)
        seq = endpoint.sent.get(dst, 0) + 1
        endpoint.sent[dst] = seq
        mark = endpoint.shipped.get(dst, 0)
        rows: Dict[NodeId, Row] = {}
        delivered: Optional[Dict[NodeId, int]] = None
        if endpoint.version > mark:
            log = endpoint.log
            for node, version in reversed(endpoint.row_changes.items()):
                if version <= mark:
                    break
                rows[node] = log[node]
            counts = endpoint.delivered
            for node, version in reversed(endpoint.delivery_changes.items()):
                if version <= mark:
                    break
                if delivered is None:
                    delivered = {}
                delivered[node] = counts[node]
        # The new message covers every earlier one to dst in its causal
        # past: row dst shrinks to its single entry.
        endpoint.version = version = endpoint.version + 1
        endpoint.log[dst] = {src: seq}
        changes = endpoint.row_changes
        changes.pop(dst, None)
        changes[dst] = version
        endpoint.shipped[dst] = version
        return StampedMessage(message=message, stamp=seq, constraints=rows,
                              src=src, delivered=delivered)

    def on_arrival(self, dst: NodeId, stamped: StampedMessage,
                   deliver: Deliver) -> None:
        endpoint = self._endpoint(dst)
        blocker = self._blocker(endpoint, dst, stamped)
        if blocker is not None:
            # No held message is deliverable right now (each was re-checked
            # when its blocking count last advanced), so parking preserves
            # order.
            endpoint.arrivals += 1
            self._park(endpoint, blocker, endpoint.arrivals, stamped)
            return
        self._commit(endpoint, dst, stamped)
        deliver(stamped.message)
        if endpoint.held:
            self._drain(endpoint, dst, deliver, stamped.src)

    @staticmethod
    def _blocker(endpoint: _CausalEndpoint, node: NodeId,
                 stamped: StampedMessage) -> Optional[NodeId]:
        """A sender whose channel into *node* has not yet delivered a
        causal predecessor of *stamped*, or None when it is deliverable."""
        delivered = endpoint.delivered
        src = stamped.src
        if delivered.get(src, 0) < stamped.stamp - 1:
            return src
        row = stamped.constraints.get(node)
        if row is not None:
            for sender, seq in row.items():
                if delivered.get(sender, 0) < seq:
                    return sender
        return None

    @staticmethod
    def _park(endpoint: _CausalEndpoint, blocker: NodeId, order: int,
              stamped: StampedMessage) -> None:
        endpoint.waiting.setdefault(blocker, []).append((order, stamped))
        endpoint.held += 1

    def _drain(self, endpoint: _CausalEndpoint, node: NodeId,
               deliver: Deliver, advanced: NodeId) -> None:
        """Deliver every held message unblocked by the channel from
        *advanced*, cascading through the channels each delivery
        advances."""
        ready: List[Tuple[int, StampedMessage]] = []
        self._wake(endpoint, advanced, ready)
        while ready:
            order, stamped = heapq.heappop(ready)
            endpoint.held -= 1
            blocker = self._blocker(endpoint, node, stamped)
            if blocker is not None:
                # Still blocked on another channel; re-park, keeping its
                # original arrival order.
                self._park(endpoint, blocker, order, stamped)
                continue
            self._commit(endpoint, node, stamped)
            deliver(stamped.message)
            self._wake(endpoint, stamped.src, ready)

    @staticmethod
    def _wake(endpoint: _CausalEndpoint, advanced: NodeId,
              ready: List[Tuple[int, StampedMessage]]) -> None:
        if not endpoint.held:
            return
        bucket = endpoint.waiting.pop(advanced, None)
        if bucket:
            for item in bucket:
                heapq.heappush(ready, item)

    @staticmethod
    def _commit(endpoint: _CausalEndpoint, node: NodeId,
                stamped: StampedMessage) -> None:
        """Count a delivery and merge the stamp into the log."""
        src = stamped.src
        endpoint.delivered[src] = stamped.stamp
        endpoint.version = version = endpoint.version + 1
        delivery_changes = endpoint.delivery_changes
        delivery_changes.pop(src, None)
        delivery_changes[src] = version
        log = endpoint.log
        row_changes = endpoint.row_changes
        known = endpoint.known
        for dst, row in stamped.constraints.items():
            if dst == node:
                continue
            mine = log.get(dst)
            if mine is row or mine == row:
                continue
            floor = known.get(dst, _NO_COUNTS)
            if mine is None:
                fresh = {sender: seq for sender, seq in row.items()
                         if seq > floor.get(sender, 0)}
                if not fresh:
                    continue
                if len(fresh) < len(row):
                    row = fresh
            else:
                merged: Optional[Row] = None
                for sender, seq in row.items():
                    if seq > mine.get(sender, 0) and seq > floor.get(sender, 0):
                        if merged is None:
                            merged = mine.copy()
                        merged[sender] = seq
                if merged is None:
                    continue
                if merged != row:  # else share the stamp's row
                    row = merged
            log[dst] = row
            row_changes.pop(dst, None)
            row_changes[dst] = version
        counts = stamped.delivered
        if counts is not None:
            seen = known.get(src)
            if seen is None:
                known[src] = dict(counts)
            else:
                seen.update(counts)
            mine = log.get(src)
            if mine is not None:
                kept = {sender: seq for sender, seq in mine.items()
                        if seq > counts.get(sender, 0)}
                if not kept:
                    del log[src]
                    row_changes.pop(src)
                elif len(kept) < len(mine):
                    # A shrink need not be shipped: receivers that merged
                    # the larger row only hold delivered entries too.
                    log[src] = kept

    def held_count(self, node: NodeId) -> int:
        """Number of messages currently buffered for *node* (for tests)."""
        endpoint = self._endpoints.get(node)
        return endpoint.held if endpoint is not None else 0

    def retire(self, node: NodeId) -> int:
        endpoint = self._endpoints.pop(node, None)
        dropped = endpoint.held if endpoint is not None else 0
        for other in self._endpoints.values():
            for counters in (other.sent, other.shipped, other.row_changes,
                             other.delivered, other.delivery_changes):
                counters.pop(node, None)
            other.known.pop(node, None)
            for seen in other.known.values():
                seen.pop(node, None)
            log = other.log
            log.pop(node, None)
            for dst in [d for d, row in log.items() if node in row]:
                kept = {s: q for s, q in log[dst].items() if s != node}
                if kept:
                    log[dst] = kept
                else:
                    del log[dst]
                    other.row_changes.pop(dst)
        return dropped


def make_ordering(name: str) -> OrderingLayer:
    """Factory: ``raw``, ``fifo`` or ``causal``."""
    if name == "raw":
        return RawOrdering()
    if name == "fifo":
        return FifoOrdering()
    if name == "causal":
        return CausalOrdering()
    raise NetworkError(f"unknown ordering layer {name!r}")
