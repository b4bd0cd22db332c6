"""Per-layer spans, recorded from outside the program.

A :class:`Tracer` wraps the public entry points of each layer of
``src/repro`` for the length of one traced run and takes the wrappers
off again afterwards.  Every wrapped call becomes a span
``(layer, start, end, parent, request_id)`` held in memory; the spans
are written out only when the run has ended (:meth:`Tracer.write`).

A layer's *self time* is the duration of its spans minus the part of
each covered by child spans, so nested layers never count twice:
``net.causal`` delivering into ``stations`` is charged only for its own
hold-back work.  ``sim`` is the root: its self time is ``Simulator.run``
time spent outside every wrapped layer (the event kernel plus whatever
unwrapped callbacks the events run).

Hooks are looked up by class and method name.  A hook names a class;
the wrapper also goes onto every already-imported subclass that defines
the method itself, so an ordering layer or server rewritten as a new
subclass is still traced.  A hook whose class or method no longer
exists is listed in :attr:`Tracer.missing` rather than raising: the
layer then shows zero work and the run says which hook it lacked.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import importlib
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, "module:Class", method names).  A trailing ``*`` matches a
#: method-name prefix.  Where a layer's public entry point only queues
#: work (an MSS inbox push, a server request), the queued callback that
#: does the work is hooked too, so the layer is charged for it.
SIM_HOOKS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.simulator:Simulator", ("run",)),
    ("net.causal", "repro.net.causal:OrderingLayer",
     ("on_send", "on_arrival")),
    ("net.wired", "repro.net.wired:WiredNetwork", ("send",)),
    ("net.reliable", "repro.net.reliable:ReliableLink",
     ("send", "on_frame")),
    ("net.wireless", "repro.net.wireless:WirelessChannel",
     ("uplink", "downlink")),
    ("stations", "repro.stations.mss:MobileSupportStation",
     ("on_wired_message", "on_wireless_message", "_handle")),
    ("core", "repro.core.proxy:Proxy", ("handle_*",)),
    ("hosts", "repro.hosts.mobile_host:MobileHost",
     ("on_wireless_message", "migrate_to")),
    ("servers", "repro.servers.base:AppServer",
     ("on_wired_message", "_complete")),
    ("mobility", "repro.mobility.cellmap:CellMap", ("neighbors",)),
    ("mobility", "repro.mobility.driver:MobilityDriver", ("_move",)),
    ("obs", "repro.net.monitor:NetworkMonitor", ("on_send", "on_deliver")),
)

#: Module-level codec functions as the live driver process calls them.
CODEC_HOOKS: Tuple[Tuple[str, str], ...] = (
    ("repro.live.cluster", "decode_envelope"),
    ("repro.live.cluster", "encode_envelope"),
    ("repro.live.transport", "encode_envelope"),
)

LAYERS = ("sim", "net.causal", "net.wired", "net.reliable", "net.wireless",
          "stations", "core", "hosts", "servers", "mobility", "obs",
          "live.codec")


def _resolve(target: str) -> Optional[type]:
    module_name, _, class_name = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    cls = getattr(module, class_name, None)
    return cls if isinstance(cls, type) else None


def _family(cls: type) -> Iterator[type]:
    """*cls* and every subclass imported so far."""
    seen = set()
    todo = [cls]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        todo.extend(current.__subclasses__())


def _own_methods(cls: type, patterns: Tuple[str, ...]) -> List[str]:
    names = []
    for name, value in vars(cls).items():
        if not callable(value):
            continue
        for pattern in patterns:
            if (name.startswith(pattern[:-1]) if pattern.endswith("*")
                    else name == pattern):
                names.append(name)
                break
    return sorted(names)


def _request_id(args: Tuple[Any, ...]) -> Any:
    """The request id a call carries, if one of its arguments has one."""
    for arg in args:
        rid = getattr(arg, "request_id", None)
        if rid is None:
            inner = getattr(arg, "message", None)
            rid = getattr(inner, "request_id", None)
        if rid is not None and isinstance(rid, str):
            return rid
    return None


def clock_entries(value: Any) -> int:
    """Clock entries held in one piece of ordering metadata.

    Counts integers in mappings, sequences and clock objects, whatever
    their layout, so the count stays exact when the stamp format
    changes.  A clock object keeping its entries in a ``_clock`` dict is
    counted by length instead of by walking it.
    """
    if isinstance(value, (int, float)):
        return 1
    inner = getattr(value, "_clock", None)
    if isinstance(inner, dict):
        return len(inner)
    if isinstance(value, dict):
        return sum(clock_entries(v) for v in value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(clock_entries(v) for v in value)
    items = getattr(value, "items", None)
    if callable(items):
        return sum(1 for _ in items())
    return 0


def stamp_entries(stamped: Any) -> int:
    """Clock entries a stamped message carries besides the message."""
    if dataclasses.is_dataclass(stamped):
        names = [f.name for f in dataclasses.fields(stamped)]
    else:
        names = list(getattr(stamped, "__dict__", {}))
    return sum(clock_entries(getattr(stamped, name)) for name in names
               if name != "message")


class Tracer:
    """Spans and per-layer totals for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[int, float, float, int, Any]]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.queue_peak = 0
        self.held_peak = 0
        self.stamp_entries = 0
        self.stamped_sends = 0
        self.codec_s = 0.0
        self.codec_bytes = 0
        self.codec_calls = 0
        self.missing: List[str] = []
        self._layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self._stack: List[int] = []
        self._covered: List[float] = []
        self._sim: Any = None
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------

    def install_sim(self) -> None:
        for layer, target, patterns in SIM_HOOKS:
            cls = _resolve(target)
            if cls is None:
                self.missing.append(target)
                continue
            wrapped = 0
            for member in _family(cls):
                for name in _own_methods(member, patterns):
                    self._patch(member, name,
                                self._wrap(layer, vars(member)[name],
                                           self._after(layer, name)))
                    wrapped += 1
            if not wrapped:
                self.missing.append(f"{target}.{'/'.join(patterns)}")

    def install_codec(self) -> None:
        owner = os.getpid()
        for module_name, name in CODEC_HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module_name}:{name}")
                continue
            self._patch(module, name, self._wrap_codec(original, owner,
                                                       name.startswith("enc")))

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Replace an attribute *owner* defines itself, remembering it."""
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    # -- wrappers ----------------------------------------------------------

    def _after(self, layer: str,
               method: str) -> Optional[Callable[[Tuple[Any, ...], Any], None]]:
        if layer == "net.causal" and method == "on_send":
            def after_send(args: Tuple[Any, ...], result: Any) -> None:
                self.stamped_sends += 1
                self.stamp_entries += stamp_entries(result)
            return after_send
        if layer == "net.causal" and method == "on_arrival":
            def after_arrival(args: Tuple[Any, ...], result: Any) -> None:
                held = getattr(args[0], "held_count", None)
                if held is not None:
                    self.held_peak = max(self.held_peak, held(args[1]))
            return after_arrival
        if layer == "sim" and method == "run":
            def after_run(args: Tuple[Any, ...], result: Any) -> None:
                self._sim = None
            return after_run
        return None

    def _wrap(self, layer: str, fn: Callable[..., Any],
              after: Optional[Callable[[Tuple[Any, ...], Any], None]]
              ) -> Callable[..., Any]:
        layer_id = self._layer_ids[layer]
        spans, stack, covered = self.spans, self._stack, self._covered
        self_s, calls, clock = self.self_s, self.calls, time.perf_counter
        is_run = layer == "sim"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if is_run:
                self._sim = args[0]
            sim = self._sim
            if sim is not None:
                depth = sim.pending_events
                if depth > self.queue_peak:
                    self.queue_peak = depth
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            covered.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                inner = covered.pop()
                duration = end - start
                self_s[layer] += duration - inner
                if covered:
                    covered[-1] += duration
                calls[layer] += 1
                spans[index] = (layer_id, start, end, parent,
                                _request_id(args[1:]))
                if after is not None:
                    after(args, result)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _wrap_codec(self, fn: Callable[..., Any], owner: int,
                    encode: bool) -> Callable[..., Any]:
        layer_id = self._layer_ids["live.codec"]
        clock = time.perf_counter

        def wrapper(data: Any) -> Any:
            if os.getpid() != owner:  # forked station process
                return fn(data)
            start = clock()
            result = fn(data)
            end = clock()
            self.codec_s += end - start
            self.codec_calls += 1
            self.codec_bytes += len(result if encode else data)
            self.spans.append((layer_id, start, end, -1, None))
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV, one row per span; ``parent`` is
        the row index of the enclosing span, -1 for a root."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("layer", "start", "end", "parent", "request_id"))
            for layer_id, start, end, parent, rid in self.spans:
                out.writerow((LAYERS[layer_id], f"{start:.9f}", f"{end:.9f}",
                              parent, "" if rid is None else rid))
