"""Per-layer attribution for the traced run.

``install`` wraps the program's public entry points, each under the
span name of the layer it belongs to. ``layer_metrics`` turns the
recorded self times, and ``counter_metrics`` the program's own counters,
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict

import repro.query.processor as query_processor
import repro.vsensor.virtual_sensor as virtual_sensor
from repro.gsntime.scheduler import EventScheduler
from repro.metrics.tracing import PipelineTracer, Span
from repro.notifications.manager import NotificationManager
from repro.query.processor import QueryProcessor
from repro.query.repository import QueryRepository
from repro.sqlengine.incremental import (
    GroupedAggregateState, IncrementalAggregateState,
)
from repro.storage.memory import MemoryStreamTable
from repro.storage.sqlite import SQLiteStreamTable
from repro.streams.materialized import WindowRelation
from repro.streams.window import CountWindow, TimeWindow
from repro.vsensor.input_manager import InputStreamManager, SourceRuntime
from repro.vsensor.pool import WorkerPool
from repro.wrappers.base import Wrapper
from repro.wrappers.camera import CameraWrapper
from repro.wrappers.motes import MoteWrapper

from perfbench.spans import SpanRecorder

#: (owner, attribute, span name). Methods are replaced on the class that
#: defines them; ``run_plan`` is replaced in each module that imported it
#: by name, so the pipeline's and the standing queries' calls separate.
ENTRY_POINTS = (
    (EventScheduler, "step", "gsntime.step"),
    (MoteWrapper, "produce", "wrappers.produce"),
    (CameraWrapper, "produce", "wrappers.produce"),
    (Wrapper, "emit", "wrappers.dispatch"),
    (SourceRuntime, "receive", "ism.admit"),
    (InputStreamManager, "ingest_batch", "ism.admit"),
    (CountWindow, "append", "streams.window_append"),
    (TimeWindow, "append", "streams.window_append"),
    (SourceRuntime, "snapshot_state", "streams.window_select"),
    (WindowRelation, "window_appended", "sqlengine.delta"),
    (WindowRelation, "window_evicted", "sqlengine.delta"),
    (WindowRelation, "window_reset", "sqlengine.delta"),
    (IncrementalAggregateState, "snapshot", "sqlengine.delta"),
    (GroupedAggregateState, "snapshot", "sqlengine.delta"),
    (virtual_sensor, "run_plan", "sqlengine.pipeline_query"),
    (query_processor, "run_plan", "sqlengine.standing_query"),
    (SQLiteStreamTable, "append", "storage.append"),
    (MemoryStreamTable, "append", "storage.append"),
    (QueryRepository, "data_arrived", "query.repository"),
    (QueryProcessor, "execute", "query.execute"),
    (NotificationManager, "deliver", "notifications.deliver"),
    (PipelineTracer, "begin", "metrics.tracing"),
    (PipelineTracer, "finish", "metrics.tracing"),
    (PipelineTracer, "ingest_span", "metrics.tracing"),
    (PipelineTracer, "record_ingest", "metrics.tracing"),
    (Span, "child", "metrics.tracing"),
    (Span, "finish", "metrics.tracing"),
    # The pipeline run itself (steps 2-5 around the calls above). Its
    # self time is orchestration that no layer owns: it is reported as
    # vsensor.unattributed, never folded into a layer.
    (WorkerPool, "submit", "vsensor.pipeline"),
)

#: Storage reads are the table relations StorageManager.catalog builds.
READ_POINTS = (
    (SQLiteStreamTable, "relation", "storage.read"),
    (MemoryStreamTable, "relation", "storage.read"),
)

ROWS_READ = "storage.rows_read"

#: Per-element self-time metrics and the span names they sum.
PER_ELEMENT = {
    "wrappers.produce_us": ("wrappers.produce",),
    "wrappers.dispatch_us": ("wrappers.dispatch", "gsntime.step"),
    "ism.admit_us": ("ism.admit",),
    "streams.window_append_us": ("streams.window_append",),
    "streams.window_select_us": ("streams.window_select",),
    "sqlengine.delta_us": ("sqlengine.delta",),
    "storage.append_us": ("storage.append",),
    "storage.read_us": ("storage.read",),
    "query.repository_us": ("query.repository",),
    "query.execute_us": ("query.execute",),
    "notifications.deliver_us": ("notifications.deliver",),
    "metrics.tracing_us": ("metrics.tracing",),
}

#: Layer spans whose self time is reported per trigger / per arrival.
PER_TRIGGER = {"sqlengine.pipeline_query_us": "sqlengine.pipeline_query"}
PER_ARRIVAL = {"sqlengine.standing_query_us": "sqlengine.standing_query"}


def install(recorder: SpanRecorder) -> None:
    for owner, attribute, name in ENTRY_POINTS:
        recorder.patch(owner, attribute, name)
    for owner, attribute, name in READ_POINTS:
        recorder.patch(owner, attribute, name, result_counter=ROWS_READ)


def program_counters(node) -> Dict[str, int]:
    """Cumulative counters of the program, read through ``status()``."""
    counters = {"admitted": 0, "fast": 0, "slow": 0}
    for name in node.sensor_names():
        sensor = node.sensor(name)
        for stream in sensor.ism.status().values():
            counters["admitted"] += sum(source["admitted"]
                                        for source in stream["sources"])
        # Source-query evaluations answered by a fast path (temporary
        # cache, identity view, running aggregate) or by the compiled
        # or interpreted executor.
        fast_paths = sensor.status()["incremental"]["counters"]
        counters["fast"] += (fast_paths["cache_hits"]
                             + fast_paths["identity_hits"]
                             + fast_paths["aggregate_hits"])
        counters["slow"] += fast_paths["legacy_queries"]
    cache = node.processor.status()["plan_cache"]
    counters["plan_hits"] = cache["hits"]
    counters["plan_misses"] = cache["misses"]
    counters["evaluations"] = (node.repository.status()["counters"]
                               ["evaluations"])
    return counters


def counter_metrics(node, before: Dict[str, int], after: Dict[str, int], *,
                    elements: int, arrivals: int) -> Dict[str, float]:
    """Per-layer ratios from the counter deltas of one phase."""
    delta = {key: after[key] - before[key] for key in after}
    evaluations = delta["fast"] + delta["slow"]
    lookups = delta["plan_hits"] + delta["plan_misses"]
    sizes = [source["window_size"]
             for name in node.sensor_names()
             for stream in node.sensor(name).ism.status().values()
             for source in stream["sources"]]
    return {
        "ism.elements_admitted": delta["admitted"] / elements,
        "streams.window_rows": sum(sizes) / len(sizes),
        "sqlengine.fast_path_share":
            delta["fast"] / evaluations if evaluations else 0.0,
        "query.evaluations_per_arrival":
            delta["evaluations"] / arrivals if arrivals else 0.0,
        "query.plan_cache_hit_ratio":
            delta["plan_hits"] / lookups if lookups else 0.0,
    }


def layer_metrics(recorder: SpanRecorder, *, elements: int, triggers: int,
                  arrivals: int, root_seconds: float) -> Dict[str, float]:
    """Self-time metrics of one traced phase.

    ``root_seconds`` is the summed duration of the operations' root
    spans; divided by ``elements`` it is the traced cost of one element,
    of which each layer's self time is a share.
    """
    self_times = recorder.self_times()
    us = 1e6
    metrics: Dict[str, float] = {}
    attributed = 0.0
    for metric, spans in PER_ELEMENT.items():
        seconds = sum(self_times.get(span, 0.0) for span in spans)
        attributed += seconds
        metrics[metric] = seconds * us / elements
    for metric, span in PER_TRIGGER.items():
        seconds = self_times.get(span, 0.0)
        attributed += seconds
        metrics[metric] = seconds * us / triggers if triggers else 0.0
    for metric, span in PER_ARRIVAL.items():
        seconds = self_times.get(span, 0.0)
        attributed += seconds
        metrics[metric] = seconds * us / arrivals if arrivals else 0.0
    element_us = root_seconds * us / elements
    unattributed_us = element_us - attributed * us / elements
    metrics["harness.element_us"] = element_us
    metrics["vsensor.unattributed_us"] = unattributed_us
    metrics["vsensor.unattributed_share"] = (
        unattributed_us / element_us if element_us else 0.0)
    metrics["storage.rows_read_per_arrival"] = (
        recorder.counters.get(ROWS_READ, 0) / arrivals if arrivals else 0.0)
    return metrics
