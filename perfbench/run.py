"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1-mote-avg --seed 1 \\
        --seconds 10 --trace 0

One run builds the container several times (``setup_s`` is the median),
fills every window and retained history, times a steady-state phase of
``--seconds`` seconds, checks that window sizes and retained row counts
did not move, checks every output against an independent computation,
and prints the metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` times half
the phase untraced and half with spans recorded around the program's
public entry points, and reports the per-layer metrics; the spans are
written to ``perfbench/out/``.

The exit code is 0 when every check passed, 1 when an output check
failed, and 2 when the program's source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Containers built per run; setup_s is the median of their set-up times.
SETUP_REPEATS = 15
#: Operations timed per phase, at least; also the size of the blocks the
#: latency percentiles are taken over (50 samples lie beyond a block's p95).
MIN_OPERATIONS = 1000
#: elements_per_s is a low percentile of the completion rates in slices
#: of this length (see Phase.elements_per_s).
SLICE_SECONDS = 1.0
SUSTAINED_SHARE = 0.10

END_TO_END_UNITS = {
    "elements_per_s": "elements/s",
    "element_latency_p75_ms": "ms",
    "element_latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "wrappers.produce_us": "us",
    "wrappers.dispatch_us": "us",
    "ism.admit_us": "us",
    "ism.elements_admitted": "ratio",
    "streams.window_append_us": "us",
    "streams.window_select_us": "us",
    "streams.window_rows": "rows",
    "sqlengine.delta_us": "us",
    "sqlengine.pipeline_query_us": "us",
    "sqlengine.standing_query_us": "us",
    "sqlengine.fast_path_share": "ratio",
    "storage.append_us": "us",
    "storage.read_us": "us",
    "storage.rows_read_per_arrival": "rows",
    "query.repository_us": "us",
    "query.execute_us": "us",
    "query.evaluations_per_arrival": "count",
    "query.plan_cache_hit_ratio": "ratio",
    "notifications.deliver_us": "us",
    "metrics.tracing_us": "us",
    "interfaces.request_rtt_us": "us",
    "interfaces.delivery_lag_us": "us",
    "interfaces.tuples_per_batch": "count",
    "interfaces.handoff_depth_max": "count",
    "vsensor.unattributed_us": "us",
    "vsensor.unattributed_share": "ratio",
    "harness.element_us": "us",
    "harness.trace_overhead_pct": "%",
}


class Phase:
    """One timed steady-state phase."""

    def __init__(self, workload, seconds: float) -> None:
        sent_from, done_from = len(workload.sent), len(workload.done)
        before = workload.counters()
        start = perf_counter()
        deadline = start + seconds
        while True:
            workload.run_round()
            now = perf_counter()
            if now >= deadline \
                    and len(workload.sent) - sent_from >= MIN_OPERATIONS:
                break
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.start = start
        self.wall = now - start
        self.elements_per_operation = workload.elements_per_operation
        after = workload.counters()
        self.sent = workload.sent[sent_from:]
        self.done = workload.done[done_from:]
        if len(self.sent) != len(self.done):
            from perfbench.workloads import CheckFailed
            raise CheckFailed(f"{len(self.sent)} inputs handed off but "
                              f"{len(self.done)} outputs notified")
        self.operations = len(self.sent)
        self.elements = self.operations * workload.elements_per_operation
        self.failed = after["failed"] - before["failed"]
        self.triggers = after["triggers"] - before["triggers"]
        self.arrivals = after["arrivals"] - before["arrivals"]
        #: Seconds from hand-off to notified, in hand-off order.
        self.latencies = [d - s for s, d in zip(self.sent, self.done)]

    @property
    def elements_per_s(self) -> float:
        """The rate sustained in nine slices of ten: the 10th percentile,
        over the phase's whole slices, of the completion rate within each
        (operations completed after the slice's first one, over the time
        from that first completion to the last).

        The machines this runs on switch between two speeds about 1.45x
        apart as their neighbours come and go; a median lands in
        whichever speed held half the phase, while every phase spends
        some slices at the slower one.
        """
        slices = int(self.wall // SLICE_SECONDS)
        if slices < 1:
            return self.elements / self.wall
        first = [0.0] * slices
        last = [0.0] * slices
        counts = [0] * slices
        for finished in self.done:
            index = int((finished - self.start) // SLICE_SECONDS)
            if index < slices:
                if not counts[index]:
                    first[index] = finished
                last[index] = finished
                counts[index] += 1
        rates = [(count - 1) / (end - begin)
                 for count, begin, end in zip(counts, first, last)
                 if count > 1 and end > begin]
        return (_nearest_rank(sorted(rates), SUSTAINED_SHARE)
                * self.elements_per_operation)

    def latency_ms(self, share: float) -> float:
        """The ``share`` percentile of each block of at least
        ``MIN_OPERATIONS`` consecutive operations, median over blocks, so
        one burst of interference sets the percentile of one block only."""
        latencies = self.latencies
        blocks = max(1, len(latencies) // MIN_OPERATIONS)
        size = len(latencies) // blocks
        return 1000.0 * statistics.median(
            _nearest_rank(sorted(latencies[block * size:(block + 1) * size]),
                          share)
            for block in range(blocks))


def _nearest_rank(ordered: List[float], share: float) -> float:
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def build(cls, seed: int, corrupt: bool):
    """Set up ``SETUP_REPEATS`` times; keep (and fill) the last one."""
    timings: List[float] = []
    for attempt in range(SETUP_REPEATS):
        keep = attempt == SETUP_REPEATS - 1
        workload = cls(ROOT, seed, corrupt)
        started = perf_counter()
        workload.deploy()
        seconds = perf_counter() - started
        if keep:
            workload.attach()
            workload.fill()
        started = perf_counter()
        workload.register()
        seconds += perf_counter() - started
        timings.append(seconds)
        if not keep:
            workload.close()
    return workload, statistics.median(timings)


def traced_phase(workload, seconds: float, trace_path: Path
                 ) -> Tuple[Phase, Dict[str, float]]:
    from perfbench import layers
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    before = layers.program_counters(workload.node)
    layers.install(recorder)
    try:
        phase = Phase(workload, seconds)
    finally:
        recorder.restore()
    after = layers.program_counters(workload.node)
    # The root span of an operation: the scheduler step that released the
    # reading, or, with no scheduler in the loop (the gateway), the
    # client's request from POST to output notified.
    root_seconds = (sum(recorder.durations("gsntime.step"))
                    or sum(phase.latencies))
    metrics = layers.layer_metrics(
        recorder, elements=phase.elements, triggers=phase.triggers,
        arrivals=phase.arrivals, root_seconds=root_seconds)
    metrics.update(layers.counter_metrics(
        workload.node, before, after, elements=phase.elements,
        arrivals=phase.arrivals))
    metrics.update(workload.interface_metrics(phase.operations))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.dump(str(trace_path))
    return phase, metrics


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-check", action="store_true",
        help="perturb one expected value, so the output check must fail "
             "(shows that the checks can fail)")
    return parser.parse_args(argv)


def report(correct: bool, attempted: int, failed: int,
           values: Dict[str, float], units: Dict[str, str]) -> None:
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    With the interpreter lock no Python work runs in parallel anyway;
    on a small shared machine, wake-ups that cross cores (the gateway's
    client, event-loop and drain threads) made latency vary several-fold
    from run to run. Platforms without affinity control run unpinned.
    """
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    except (AttributeError, OSError):
        pass


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, CheckFailed

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    workload, setup_s = build(cls, args.seed, args.corrupt_check)
    correct = True
    phases: List[Phase] = []
    try:
        # Collect the discarded set-ups' garbage before, not during, timing.
        gc.collect()
        steady = workload.sizes()
        if args.trace:
            untraced = Phase(workload, args.seconds / 2)
            trace_path = (ROOT / "perfbench" / "out"
                          / f"trace-{args.workload}-seed{args.seed}.json")
            traced, values = traced_phase(workload, args.seconds / 2,
                                          trace_path)
            values["harness.trace_overhead_pct"] = 100.0 * (
                1.0 - traced.elements_per_s / untraced.elements_per_s)
            phases = [untraced, traced]
            units = PER_LAYER_UNITS
        else:
            phase = Phase(workload, args.seconds)
            values = {
                "elements_per_s": phase.elements_per_s,
                "element_latency_p75_ms": phase.latency_ms(0.75),
                "element_latency_p95_ms": phase.latency_ms(0.95),
                "setup_s": setup_s,
                "peak_rss_mb": phase.peak_rss_mb,
            }
            phases = [phase]
            units = END_TO_END_UNITS
        if workload.sizes() != steady:
            raise CheckFailed(f"not at steady state: sizes {steady} before "
                              f"the timed phase, {workload.sizes()} after")
        workload.check()
    except CheckFailed as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}",
              file=sys.stderr)
        correct = False
        values = {}
        units = {}
    finally:
        workload.close()
    attempted = sum(phase.elements for phase in phases) or 1
    failed = sum(phase.failed for phase in phases)
    report(correct, attempted, failed, values, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
