"""The repository benchmark: one workload, one seed, one JSON verdict.

Usage (from the repository root)::

    python3 perfbench/run.py --workload city --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` of host time and
reports the end-to-end metrics named in ``BENCHMARK.json``: medians over
the iterations for host timings, seed-determined values for the
simulated ones.  ``--trace 1`` runs the workload once untraced and once
with per-layer spans, checks that both give the same sim-domain outputs,
writes the spans to ``perfbench/out/`` and reports the per-layer
metrics.  Either way the run fails (``correct`` is false) unless every
issued request got exactly one result at its mobile host.

The last line of standard output is the JSON verdict; lines before it
are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


def fingerprint() -> Dict[str, Any]:
    """Machine fingerprint printed with every result (the benchmark reads
    no file outside its checkout, so the CPU is what ``platform`` says)."""
    return {"cpu": platform.processor() or platform.machine(),
            "nproc": os.cpu_count(), "python": platform.python_version()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Verdict:
    """What one run found: correctness, attempts and metrics."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _repeat(once: Callable[[], Any], seconds: float,
            duration: Callable[[Any], float]) -> List[Any]:
    """Run *once* until another iteration would overrun *seconds*."""
    started = time.perf_counter()
    runs = [once()]
    while (time.perf_counter() - started + duration(runs[-1])) <= seconds:
        runs.append(once())
    return runs


def _write_spans(tracer: Any, workload: Any, seed: int) -> None:
    for hook in tracer.missing:
        print(f"warning: layer hook not found, layer reads zero: {hook}")
    tracer.write(str(OUT / f"spans-{workload.name}-seed{seed}.csv.gz"))


# -- simulator workloads ----------------------------------------------------------


def sim_end_to_end(workload: Any, seed: int, seconds: float,
                   verdict: Verdict) -> None:
    from perfbench.workloads import run_sim_once

    runs = _repeat(lambda: run_sim_once(workload, seed), seconds,
                   lambda run: run.total_s)
    outputs = runs[0].outputs
    verdict.check(all(run.outputs == outputs for run in runs),
                  "iterations of one seed gave different sim outputs")
    for run in runs:
        verdict.attempted += run.outputs["issued"]
        verdict.failed += run.outputs["issued"] - run.outputs["delivered_once"]
    delivered = outputs["delivered_once"] or 1
    verdict.metrics.update({
        "setup_s": statistics.median(run.setup_s for run in runs),
        "results_per_s": statistics.median(
            run.outputs["delivered_once"] / run.loop_s for run in runs),
        "cpu_ms_per_result": statistics.median(
            1000.0 * run.cpu_s / delivered for run in runs),
        "latency_p50_ms": outputs["latency_p50_ms"],
        "latency_p90_ms": outputs["latency_p90_ms"],
        "latency_p99_ms": outputs["latency_p99_ms"],
        "msgs_per_result": outputs["messages"] / delivered,
        "iterations": len(runs),
    })


def sim_per_layer(workload: Any, seed: int, verdict: Verdict) -> None:
    from perfbench.layers import Tracer
    from perfbench.workloads import run_sim_once

    plain = run_sim_once(workload, seed)
    tracer = Tracer()
    traced = run_sim_once(workload, seed, tracer)
    verdict.check(traced.outputs == plain.outputs,
                  "the traced run changed the sim-domain outputs")
    for run in (plain, traced):
        verdict.attempted += run.outputs["issued"]
        verdict.failed += run.outputs["issued"] - run.outputs["delivered_once"]
    out, self_s, calls = traced.outputs, tracer.self_s, tracer.calls
    sends = tracer.stamped_sends or 1
    frames = out["frames"]
    verdict.metrics.update({
        "sim.events": out["events"],
        "sim.events_per_s": out["events"] / plain.loop_s,
        "sim.self_s": self_s["sim"],
        "sim.queue_peak": tracer.queue_peak,
        "net.causal.calls": calls["net.causal"],
        "net.causal.self_s": self_s["net.causal"],
        "net.causal.us_per_msg": 1e6 * self_s["net.causal"] / sends,
        "net.causal.stamp_entries_per_msg": tracer.stamp_entries / sends,
        "net.causal.held_peak": tracer.held_peak,
        "net.wired.sends": calls["net.wired"],
        "net.wired.self_s": self_s["net.wired"],
        "net.reliable.frames": frames,
        "net.reliable.retransmissions": out["link_retransmissions"],
        "net.reliable.self_s": self_s["net.reliable"],
        "net.reliable.goodput_ratio": (out["wired_delivered"] / frames
                                       if frames else 0.0),
        "net.wireless.sends": calls["net.wireless"],
        "net.wireless.drops": out["wireless_drops"],
        "net.wireless.self_s": self_s["net.wireless"],
        "stations.msgs": out["mss_messages"],
        "stations.self_s": self_s["stations"],
        "stations.handoffs": out["handoffs"],
        "stations.redeliveries": out["wireless_redeliveries"],
        "core.proxies_created": out["proxies_created"],
        "core.retransmissions": out["proxy_retransmissions"],
        "core.self_s": self_s["core"],
        "hosts.self_s": self_s["hosts"],
        "hosts.duplicates_suppressed": out["duplicates_suppressed"],
        "hosts.drain_completed": out["drain_completed"],
        "servers.requests": out["server_requests"],
        "servers.self_s": self_s["servers"],
        "mobility.moves": out["moves"],
        "mobility.self_s": self_s["mobility"],
        "obs.calls": calls["obs"],
        "obs.self_s": self_s["obs"],
        "trace.overhead_s": traced.total_s - plain.total_s,
        "requests": out["issued"],
    })
    _write_spans(tracer, workload, seed)


# -- the live workload ---------------------------------------------------------------


def _check_live(run: Any, verdict: Verdict) -> None:
    verdict.attempted += run.issued
    verdict.failed += run.issued - run.delivered_once
    verdict.check(run.ok, "live cluster verdict failed (oracle, accounting "
                          "or completion)")


def live_end_to_end(workload: Any, seed: int, seconds: float,
                    verdict: Verdict) -> None:
    from perfbench.workloads import percentile, run_live_once

    runs = _repeat(lambda: run_live_once(workload, seed, str(OUT)), seconds,
                   lambda run: run.wall_s)
    for run in runs:
        _check_live(run, verdict)
    delivered = [run.delivered_once or 1 for run in runs]
    verdict.metrics.update({
        "setup_s": statistics.median(run.setup_s for run in runs),
        "results_per_s": statistics.median(
            run.delivered_once / run.active_s for run in runs),
        "cpu_ms_per_result": statistics.median(
            1000.0 * (run.driver_cpu_s + run.station_cpu_s) / n
            for run, n in zip(runs, delivered)),
        **{f"latency_p{round(100 * q)}_ms": statistics.median(
            1000.0 * percentile(run.latencies, q) for run in runs)
           for q in (0.50, 0.90, 0.99)},
        "msgs_per_result": statistics.median(
            run.messages / n for run, n in zip(runs, delivered)),
        "iterations": len(runs),
    })


def live_per_layer(workload: Any, seed: int, verdict: Verdict) -> None:
    from perfbench.layers import Tracer
    from perfbench.workloads import percentile, run_live_once

    plain = run_live_once(workload, seed, str(OUT))
    tracer = Tracer()
    traced = run_live_once(workload, seed, str(OUT), tracer)
    for run in (plain, traced):
        _check_live(run, verdict)
    calls = tracer.codec_calls or 1
    verdict.metrics.update({
        "live.codec.us_per_msg": 1e6 * tracer.codec_s / calls,
        "live.codec.bytes_per_msg": tracer.codec_bytes / calls,
        "live.retransmissions": plain.retransmissions,
        "live.station_cpu_s": plain.station_cpu_s,
        "live.driver_cpu_s": plain.driver_cpu_s,
        "live.gen_late_ms_p99": 1000.0 * percentile(plain.lateness, 0.99),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "requests": plain.issued,
    })
    _write_spans(tracer, workload, seed)


# -- entry point -----------------------------------------------------------------------


def _workloads() -> Dict[str, Tuple[Any, Any, Any]]:
    from perfbench import workloads

    return {
        "city": (workloads.CITY, sim_end_to_end, sim_per_layer),
        "roam-lossy": (workloads.ROAM_LOSSY, sim_end_to_end, sim_per_layer),
        "live-loopback": (workloads.LIVE_LOOPBACK, live_end_to_end,
                          live_per_layer),
    }


def _declared_metrics(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("city", "roam-lossy", "live-loopback"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    declared = _declared_metrics(bool(args.trace))

    workload, end_to_end, per_layer = _workloads()[args.workload]
    verdict = Verdict()
    if args.trace:
        per_layer(workload, args.seed, verdict)
        # Layers that do no work on this workload report zero.
        idle = ((lambda name: not name.startswith(("live.", "trace.")))
                if args.workload == "live-loopback"
                else (lambda name: name.startswith("live.")))
        for name in declared:
            if idle(name):
                verdict.metrics.setdefault(name, 0)
    else:
        end_to_end(workload, args.seed, args.seconds, verdict)
        verdict.metrics["peak_rss_mb"] = peak_rss_mb()
        verdict.metrics["delivered_ratio"] = (
            (verdict.attempted - verdict.failed) / verdict.attempted
            if verdict.attempted else 0.0)
    verdict.check(verdict.attempted > 0, "no request was issued")
    verdict.check(verdict.failed == 0,
                  f"{verdict.failed} requests lacked exactly one result")
    missing = sorted(set(declared) - set(verdict.metrics))
    verdict.check(not missing, f"metrics not measured: {missing}")

    for name, value in sorted(verdict.metrics.items()):
        print(f"  {name:<36} {value:,.6g} {declared.get(name, '')}")
    print(f"machine: {json.dumps(fingerprint(), sort_keys=True)}")
    for problem in verdict.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": verdict.metrics[name], "unit": unit}
                    for name, unit in declared.items()
                    if name in verdict.metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
