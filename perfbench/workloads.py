"""The four benchmark workloads.

Each workload builds one GSN container from the paper's own
descriptors, fills every window and retained history, then runs a
closed loop: the next input is released only after the previous one has
been persisted and its consumers notified. Inputs derive from the run's
seed alone. Every output the program produces is checked afterwards
against a computation made apart from the program (``check``).

A workload exposes the same small surface to the runner:

- ``deploy()``   container build, descriptor deploys, gateway start (timed);
- ``attach()``   the benchmark's own listeners (untimed);
- ``fill()``     fill windows and histories (untimed);
- ``register()`` standing-query registration (timed);
- ``run_round()`` one whole round of operations;
- ``sizes()``    window sizes and retained row counts (steady-state guard);
- ``counters()`` cumulative trigger, arrival and failure counts;
- ``check()``    the output checks; raises :class:`CheckFailed`;
- ``interface_metrics()`` the gateway's per-layer metrics (zero elsewhere);
- ``close()``.
"""

from __future__ import annotations

import bisect
import dataclasses
import http.client
import json
import math
import random
import sqlite3
import statistics
import threading
from array import array
from itertools import accumulate
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.container import GSNContainer
from repro.descriptors.model import StorageConfig, VirtualSensorDescriptor
from repro.descriptors.xml_io import descriptor_from_file, descriptor_to_xml
from repro.interfaces.async_gateway import AsyncIngestGateway
from repro.simulation.workload import QueryWorkloadGenerator, payload_descriptor

#: The shipped Figure 1 descriptor, relative to the repository root.
FIGURE1_XML = Path("examples") / "descriptors" / "averaged-temperature.xml"

HOUR_MS = 3_600_000

INTERFACE_METRICS = (
    "interfaces.request_rtt_us",
    "interfaces.delivery_lag_us",
    "interfaces.tuples_per_batch",
    "interfaces.handoff_depth_max",
)


class CheckFailed(Exception):
    """An output differs from the independent computation."""


def _replace_source(descriptor: VirtualSensorDescriptor, **changes: Any
                    ) -> VirtualSensorDescriptor:
    """``descriptor`` with its single stream source's fields replaced;
    ``predicates`` (a dict) is merged into the source's address."""
    stream = descriptor.input_streams[0]
    source = stream.sources[0]
    predicates = changes.pop("predicates", None)
    if predicates is not None:
        merged = dict(source.address.predicates)
        merged.update(predicates)
        changes["address"] = dataclasses.replace(source.address,
                                                 predicates=merged)
    source = dataclasses.replace(source, **changes)
    stream = dataclasses.replace(stream, sources=(source,))
    return dataclasses.replace(descriptor, input_streams=(stream,))


class ValueLog:
    """``(timed, value)`` integer records in two flat arrays, so the
    benchmark's own bookkeeping stays small next to the program's."""

    __slots__ = ("timed", "values")

    def __init__(self) -> None:
        self.timed = array("q")
        self.values = array("q")

    def append(self, record: Tuple[int, int]) -> None:
        self.timed.append(record[0])
        self.values.append(record[1])

    def __len__(self) -> int:
        return len(self.timed)

    def __getitem__(self, index: int) -> Tuple[int, int]:
        return self.timed[index], self.values[index]

    def __iter__(self):
        return zip(self.timed, self.values)


def _rows_equal(got: List[Tuple], want: List[Tuple]) -> bool:
    """Multiset equality of result rows, floats to a relative 1e-9."""
    def key(row: Tuple) -> Tuple:
        return tuple((0, "") if v is None
                     else (1, round(v, 6)) if isinstance(v, float)
                     else (1, v) for v in row)
    if len(got) != len(want):
        return False
    for left, right in zip(sorted(got, key=key), sorted(want, key=key)):
        if len(left) != len(right):
            return False
        for a, b in zip(left, right):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or not math.isclose(
                        a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


class Workload:
    """Shared bookkeeping: hand-off and completion times per operation."""

    name = ""
    #: Operations per round; a run only ever stops between rounds.
    round_size = 1
    #: Input elements carried by one operation.
    elements_per_operation = 1

    def __init__(self, root: Path, seed: int, corrupt: bool = False) -> None:
        self.root = root
        self.seed = seed
        self.corrupt = corrupt
        self.node: GSNContainer
        #: perf_counter at each operation's hand-off, and at the moment
        #: its output was persisted and notified.
        self.sent = array("d")
        self.done = array("d")

    # -- runner surface ----------------------------------------------------

    def deploy(self) -> None:
        raise NotImplementedError

    def attach(self) -> None:
        """Listeners the checks need; not part of set-up time."""

    def fill(self) -> None:
        raise NotImplementedError

    def register(self) -> None:
        """Set-up that must follow the fill (standing queries)."""

    def run_round(self) -> None:
        raise NotImplementedError

    def sizes(self) -> Tuple:
        return self._window_sizes() + self._table_counts()

    def counters(self) -> Dict[str, int]:
        """Cumulative counts: ``triggers``, ``arrivals`` and ``failed``
        (failed input elements, in the same unit as operations)."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def interface_metrics(self, operations: int) -> Dict[str, float]:
        """Gateway metrics over the last ``operations`` operations."""
        return dict.fromkeys(INTERFACE_METRICS, 0.0)

    def close(self) -> None:
        self.node.shutdown()

    # -- shared helpers ------------------------------------------------------

    def _pool_failures(self) -> int:
        """Pipeline tasks that failed or were shed."""
        total = 0
        for name in self.node.sensor_names():
            status = self.node.sensor(name).lifecycle.pool.status()
            total += status["tasks_failed"] + status["tasks_shed"]
        return total

    def _notification_failures(self) -> int:
        return self.node.notifications.status()["failures"]

    def _triggers(self) -> int:
        total = 0
        for name in self.node.sensor_names():
            for stream in self.node.sensor(name).ism.status().values():
                total += stream["triggers"]
        return total

    def _window_sizes(self) -> Tuple[int, ...]:
        sizes = []
        for name in self.node.sensor_names():
            for stream in self.node.sensor(name).ism.status().values():
                sizes.extend(source["window_size"]
                             for source in stream["sources"])
        return tuple(sizes)

    def _table_counts(self) -> Tuple[int, ...]:
        return tuple(self.node.storage.get(self.node.output_table(name))
                     .count() for name in self.node.sensor_names())


class ClosedLoopContainer(Workload):
    """A simulated, synchronous container driven one scheduler event at
    a time: ``EventScheduler.step()`` releases one device reading and
    returns once its output has been persisted and notified."""

    #: How output and reading records are kept for the checks.
    log_type: Any = list

    def attach(self) -> None:
        self.outputs: Dict[str, Any] = {}
        self.readings: Dict[str, Any] = {}
        for name in self.node.sensor_names():
            sensor = self.node.sensor(name)
            outputs = self.log_type()
            readings = self.log_type()
            self.outputs[name] = outputs
            self.readings[name] = readings
            sensor.add_listener(self._output_listener(name, outputs))
            for wrapper in sensor.wrappers.values():
                wrapper.add_listener(self._reading_listener(readings))

    def _output_listener(self, name: str, outputs):
        done = self.done

        def on_output(element) -> None:
            done.append(perf_counter())
            outputs.append(self._output_record(name, element))
        return on_output

    def _reading_listener(self, readings):
        def on_reading(element) -> None:
            readings.append(self._reading_record(element))
        return on_reading

    def _reading_record(self, element) -> Tuple:
        raise NotImplementedError

    def _output_record(self, name: str, element) -> Tuple:
        return self._reading_record(element)

    def run_round(self) -> None:
        step = self.node.scheduler.step
        sent = self.sent
        for __ in range(self.round_size):
            sent.append(perf_counter())
            step()

    def counters(self) -> Dict[str, int]:
        triggers = self._triggers()
        return {"triggers": triggers, "arrivals": triggers,
                "failed": self._pool_failures()
                + self._notification_failures()}



class Fig1MoteAvg(ClosedLoopContainer):
    """A fleet of the shipped Figure 1 sensor, one per mote node id."""

    name = "fig1-mote-avg"
    sensors = 4
    round_size = sensors
    log_type = ValueLog

    def __init__(self, root: Path, seed: int, corrupt: bool = False) -> None:
        super().__init__(root, seed, corrupt)
        base = descriptor_from_file(str(root / FIGURE1_XML))
        self.interval_ms = int(base.input_streams[0].sources[0]
                               .address.predicates["interval"])
        self.window_ms = HOUR_MS
        self.retention_ms = 10_000
        self.xml = [
            descriptor_to_xml(_replace_source(
                dataclasses.replace(base, name=f"{base.name}-{index + 1}"),
                predicates={
                    "node-id": str(index + 1),
                    "seed": str(seed * 1000 + index),
                    "phase": str(index * self.interval_ms // self.sensors),
                }))
            for index in range(self.sensors)
        ]

    def deploy(self) -> None:
        self.node = GSNContainer("perfbench-fig1", seed=self.seed)
        for text in self.xml:
            self.node.deploy(text)

    def fill(self) -> None:
        self.node.run_for(self.window_ms)

    def _reading_record(self, element) -> Tuple:
        return element.timed, element.values["temperature"]

    def check(self) -> None:
        for name in self.node.sensor_names():
            readings = self.readings[name]
            outputs = self.outputs[name]
            if not outputs:
                raise CheckFailed(f"{name}: no outputs")
            times = readings.timed
            sums = [0] + list(accumulate(readings.values))
            for index, (timed, value) in enumerate(outputs):
                hi = bisect.bisect_right(times, timed)
                lo = bisect.bisect_right(times, timed - self.window_ms)
                expected = int(round((sums[hi] - sums[lo]) / (hi - lo)))
                if self.corrupt and index == 0:
                    expected += 1
                if value != expected:
                    raise CheckFailed(
                        f"{name}: output at t={timed} is {value}, the mean "
                        f"of its {hi - lo} readings rounds to {expected}")
            last = outputs[-1][0]
            want = [(value, timed) for timed, value in outputs
                    if timed > last - self.retention_ms]
            table = self.node.storage.get(self.node.output_table(name))
            got = [tuple(row) for row in table.relation().rows]
            if got != want:
                raise CheckFailed(f"{name}: persisted table holds "
                                  f"{len(got)} rows, expected the "
                                  f"{len(want)} outputs of the last 10 s")


class Fig3CameraTopN(ClosedLoopContainer):
    """Figure 3 payload cameras: 10 ms interval, 10 s window, 32 KB."""

    name = "fig3-camera-topn"
    cameras = 2
    interval_ms = 10
    payload_bytes = 32_768
    window = "10s"
    window_ms = 10_000
    history_rows = 5
    round_size = cameras

    def __init__(self, root: Path, seed: int, corrupt: bool = False) -> None:
        super().__init__(root, seed, corrupt)
        self.xml = [
            descriptor_to_xml(_replace_source(
                payload_descriptor(
                    f"camera-{index + 1}", index + 1, self.interval_ms,
                    self.payload_bytes, window=self.window,
                    phase_ms=index * self.interval_ms // self.cameras),
                predicates={"seed": str(seed * 1000 + index)}))
            for index in range(self.cameras)
        ]

    def deploy(self) -> None:
        self.node = GSNContainer("perfbench-fig3", seed=self.seed)
        for text in self.xml:
            self.node.deploy(text)

    def fill(self) -> None:
        self.node.run_for(self.window_ms)

    def _reading_record(self, element) -> Tuple:
        values = element.values
        return (element.timed, values["camera_id"], values["image"],
                values["width"], values["height"])

    def check(self) -> None:
        for name in self.node.sensor_names():
            frames = self.readings[name]
            outputs = self.outputs[name]
            if not outputs or len(frames) != len(outputs):
                raise CheckFailed(f"{name}: {len(frames)} frames but "
                                  f"{len(outputs)} outputs")
            for index, (frame, output) in enumerate(zip(frames, outputs)):
                want = frame
                if self.corrupt and index == 0:
                    want = (frame[0] + 1,) + frame[1:]
                if output[:3] != want[:3]:
                    raise CheckFailed(
                        f"{name}: output {index} (t={output[0]}, camera "
                        f"{output[1]}) is not the frame that triggered it "
                        f"(t={want[0]}, camera {want[1]})")
            want_rows = [(camera, image, width, height, timed)
                         for timed, camera, image, width, height
                         in outputs[-self.history_rows:]]
            table = self.node.storage.get(self.node.output_table(name))
            got = [tuple(row) for row in table.relation().rows]
            if got != want_rows:
                raise CheckFailed(f"{name}: persisted table does not hold "
                                  f"the last {self.history_rows} outputs")


class Fig4StandingQueries(ClosedLoopContainer):
    """Two camera output streams read by random Figure 4 client queries.

    The per-sensor pipeline is an identity over a one-element window;
    each output stream keeps a fixed time history in permanent storage.
    Every arrival re-evaluates the subscriptions on its table, each over
    its own trailing history.
    """

    name = "fig4-standing-queries"
    streams = 2
    interval_ms = 100
    payload_bytes = 1_024
    retention_s = 20
    clients = 24
    sample_size = 8
    round_size = streams

    def __init__(self, root: Path, seed: int, corrupt: bool = False) -> None:
        super().__init__(root, seed, corrupt)
        self.retention_ms = self.retention_s * 1000
        self.xml = []
        for index in range(self.streams):
            descriptor = payload_descriptor(
                f"stream-{index + 1}", index + 1, self.interval_ms,
                self.payload_bytes, window="1",
                phase_ms=index * self.interval_ms // self.streams)
            descriptor = dataclasses.replace(
                _replace_source(descriptor, query="select * from wrapper",
                                predicates={"seed": str(seed * 1000 + index)}),
                storage=StorageConfig(permanent=True,
                                      history_size=f"{self.retention_s}s"))
            self.xml.append(descriptor_to_xml(descriptor))
        self.queries = self._client_queries(random.Random(seed))

    def _client_queries(self, rng: random.Random
                        ) -> List[Tuple[str, str, int]]:
        """``(table, sql, history seconds)`` per client, in the seeded
        order the clients register.

        Queries come from QueryWorkloadGenerator. Its own absolute
        history bound reads "timed >= 0" under a zero clock; the trailing
        history is carried by the subscription instead, so the working
        set stays constant as the streams advance. Both tables get the
        same queries, and the query texts and history sizes do not depend
        on the seed: the streams hold constant-valued frames, so each
        random predicate selects all rows or none, and a seeded query mix
        changed an arrival's work by up to a third from seed to seed.
        """
        per_table = self.clients // self.streams
        queries = []
        for stream in range(self.streams):
            table = f"vs_stream_{stream + 1}"
            for k in range(per_table):
                generator = QueryWorkloadGenerator(
                    table, now_fn=lambda: 0, seed=k)
                history_s = -(-self.retention_s * (k + 1) // per_table)
                queries.append((table, generator.next_query(), history_s))
        rng.shuffle(queries)
        return queries

    def deploy(self) -> None:
        self.node = GSNContainer("perfbench-fig4", seed=self.seed)
        for text in self.xml:
            self.node.deploy(text)

    def fill(self) -> None:
        self.node.run_for(self.retention_ms)

    def register(self) -> None:
        self.subscriptions = [
            self.node.register_query(sql, channel="queue",
                                     client=f"client-{index}",
                                     name=f"client-{index}",
                                     history=f"{history_s}s")
            for index, (table, sql, history_s) in enumerate(self.queries)
        ]
        by_table: Dict[str, set] = {}
        for subscription, (table, __, ___) in zip(self.subscriptions,
                                                  self.queries):
            by_table.setdefault(table, set()).add(subscription.name)
        self.expected = {table: frozenset(names)
                         for table, names in by_table.items()}

    def attach(self) -> None:
        super().attach()
        self.channel = self.node.notifications.channel("queue")
        self.channel.drain()
        self.tables = {name: self.node.output_table(name)
                       for name in self.node.sensor_names()}
        self.last_table = ""
        self.misdelivered = 0
        self.last_payload: Dict[str, Dict[str, Any]] = {}
        self.expected: Dict[str, frozenset] = {}

    def _output_record(self, name: str, element) -> Tuple:
        self.last_table = self.tables[name]
        return element.timed, element.values["camera_id"]

    def _reading_record(self, element) -> Tuple:
        values = element.values
        return (values["camera_id"], values["width"], values["height"],
                element.timed)

    def run_round(self) -> None:
        step = self.node.scheduler.step
        sent = self.sent
        drain = self.channel.drain
        expected = self.expected
        last_payload = self.last_payload
        for __ in range(self.round_size):
            sent.append(perf_counter())
            step()
            # The notified client: drain the queue channel and confirm
            # that each subscription on the arriving table was notified
            # exactly once.
            names = []
            for payload in drain():
                names.append(payload["subscription"])
                last_payload[payload["subscription"]] = payload
            want = expected.get(self.last_table, frozenset())
            if len(names) != len(want) or set(names) != want:
                self.misdelivered += 1

    def check(self) -> None:
        if self.misdelivered:
            raise CheckFailed(f"{self.misdelivered} arrivals did not notify "
                              "each subscription on their table exactly "
                              "once")
        rng = random.Random(self.seed + 1)
        sample = rng.sample(range(self.clients), self.sample_size)
        for position, index in enumerate(sample):
            table, sql, history_s = self.queries[index]
            subscription = self.subscriptions[index]
            sensor = f"stream-{table.rsplit('_', 1)[1]}"
            now = self.outputs[sensor][-1][0]
            want = self._oracle(table, sql, sensor, now,
                                min(history_s * 1000, self.retention_ms))
            if self.corrupt and position == 0:
                want = want[1:] if want else [(-1,)]
            result = subscription.last_result
            got = [tuple(row) for row in result.rows]
            if not _rows_equal(got, want):
                raise CheckFailed(
                    f"{subscription.name}: last result ({len(got)} rows) "
                    f"differs from sqlite3 ({len(want)} rows) for {sql!r}")
            payload = self.last_payload.get(subscription.name)
            if payload is None or payload["row_count"] != len(got):
                raise CheckFailed(f"{subscription.name}: last notification "
                                  "does not carry the last result")

    def _oracle(self, table: str, sql: str, sensor: str, now: int,
                history_ms: int) -> List[Tuple]:
        """``sql`` run by sqlite3 over the frames the camera emitted in
        the subscription's trailing history at ``now``."""
        rows = [row for row in self.readings[sensor]
                if now - history_ms < row[3] <= now]
        with sqlite3.connect(":memory:") as db:
            db.execute(f"create table {table} (camera_id integer, "
                       "width integer, height integer, timed integer)")
            db.executemany(f"insert into {table} values (?, ?, ?, ?)", rows)
            found = [tuple(row) for row in db.execute(sql).fetchall()]
        db.close()
        return found


class GatewayMoteIngest(Workload):
    """The Figure 1 mote sensor fed only through the async gateway.

    One keep-alive connection; each request carries exactly ``max_batch``
    readings, so it becomes one hand-off batch and one trigger. The
    client waits for the 202 and then for that batch's output before it
    posts again.
    """

    name = "gateway-mote-ingest"
    batch = 32
    interval_ms = 500
    window_rows = 7_200
    retention_ms = 10_000
    elements_per_operation = batch

    def __init__(self, root: Path, seed: int, corrupt: bool = False) -> None:
        super().__init__(root, seed, corrupt)
        base = descriptor_from_file(str(root / FIGURE1_XML))
        # A simulated clock does not advance for gateway tuples, so the
        # 1 h time window becomes its count equivalent.
        self.xml = descriptor_to_xml(_replace_source(
            base, storage_size=str(self.window_rows)))
        self.sensor_name = base.name
        self.stream = base.input_streams[0].name
        self.alias = base.input_streams[0].sources[0].alias
        self._rng = random.Random(seed)
        self._next_timed = self.interval_ms
        self.replied = array("d")
        self.depths: List[int] = []
        #: Temperatures of accepted batches, and each one's last ``timed``.
        self.posted = array("q")
        self.batch_timed = array("q")
        self.non_202 = 0

    def deploy(self) -> None:
        self.node = GSNContainer("perfbench-gateway", seed=self.seed)
        self.node.deploy(self.xml)
        self.gateway = AsyncIngestGateway(self.node, max_batch=self.batch)
        self.gateway.start()
        host, port = self.gateway.address
        self.connection = http.client.HTTPConnection(host, port, timeout=30)
        self.connection.connect()
        self.path = f"/ingest/{self.sensor_name}/{self.stream}/{self.alias}"

    def attach(self) -> None:
        self.outputs: List[Tuple[int, int]] = []
        self._output_ready = threading.Event()
        outputs = self.outputs
        done = self.done
        ready = self._output_ready

        def on_output(element) -> None:
            done.append(perf_counter())
            outputs.append((element.timed, element.values["temperature"]))
            ready.set()
        self.node.sensor(self.sensor_name).add_listener(on_output)

    def _batch(self) -> List[Dict[str, Any]]:
        rng = self._rng
        readings = []
        for __ in range(self.batch):
            readings.append({
                "node_id": 1, "light": rng.randint(0, 1000),
                "temperature": rng.randint(10, 35),
                "accel_x": 0.0, "accel_y": 0.0,
                "timed": self._next_timed,
            })
            self._next_timed += self.interval_ms
        return readings

    def run_round(self) -> None:
        readings = self._batch()
        body = json.dumps(readings).encode("utf-8")
        ready = self._output_ready
        ready.clear()
        self.sent.append(perf_counter())
        self.connection.request("POST", self.path, body,
                                {"Content-Type": "application/json"})
        response = self.connection.getresponse()
        response.read()
        self.replied.append(perf_counter())
        self.depths.append(self.gateway.status()["handoff_depth"])
        if response.status != 202:
            self.non_202 += 1
            self.done.append(self.replied[-1])
            return
        self.posted.extend(reading["temperature"] for reading in readings)
        self.batch_timed.append(readings[-1]["timed"])
        if not ready.wait(timeout=30):
            raise CheckFailed("no output within 30 s of an accepted batch")

    def fill(self) -> None:
        for __ in range(self.window_rows // self.batch + 1):
            self.run_round()

    def interface_metrics(self, operations: int) -> Dict[str, float]:
        sent = self.sent[-operations:]
        replied = self.replied[-operations:]
        done = self.done[-operations:]
        status = self.gateway.status()
        return {
            "interfaces.request_rtt_us": 1e6 * statistics.fmean(
                r - s for s, r in zip(sent, replied)),
            "interfaces.delivery_lag_us": 1e6 * statistics.fmean(
                d - r for r, d in zip(replied, done)),
            "interfaces.tuples_per_batch":
                status["tuples_delivered"] / status["batches_delivered"],
            "interfaces.handoff_depth_max": max(self.depths[-operations:]),
        }

    def counters(self) -> Dict[str, int]:
        status = self.gateway.status()
        triggers = self._triggers()
        failed = (status["shed_tuples"] + status["tuples_shed_unknown"]
                  + (status["drain_errors"] + self.non_202
                     + self._pool_failures()) * self.batch
                  + self._notification_failures())
        return {"triggers": triggers, "arrivals": triggers,
                "failed": failed}

    def check(self) -> None:
        status = self.gateway.status()
        requests = len(self.batch_timed)
        if status["tuples_delivered"] != len(self.posted):
            raise CheckFailed(f"{status['tuples_delivered']} tuples "
                              f"delivered, {len(self.posted)} posted")
        if self._triggers() != requests or len(self.outputs) != requests:
            raise CheckFailed(f"{requests} requests gave {self._triggers()} "
                              f"triggers and {len(self.outputs)} outputs")
        sums = [0] + list(accumulate(self.posted))
        for index, (timed, value) in enumerate(self.outputs):
            if timed != self.batch_timed[index]:
                raise CheckFailed(f"output {index} is stamped {timed}, its "
                                  "batch's last reading "
                                  f"{self.batch_timed[index]}")
            hi = (index + 1) * self.batch
            lo = max(0, hi - self.window_rows)
            expected = int(round((sums[hi] - sums[lo]) / (hi - lo)))
            if self.corrupt and index == len(self.outputs) - 1:
                expected += 1
            if value != expected:
                raise CheckFailed(
                    f"output {index} is {value}; the mean of the last "
                    f"{hi - lo} posted readings rounds to {expected}")
        last = self.outputs[-1][0]
        want = [(value, timed) for timed, value in self.outputs
                if timed > last - self.retention_ms]
        table = self.node.storage.get(self.node.output_table(self.sensor_name))
        got = [tuple(row) for row in table.relation().rows]
        if got != want:
            raise CheckFailed("persisted table does not hold the outputs "
                              "of the last 10 s")

    def close(self) -> None:
        # End the connection with a request the gateway answers with
        # "Connection: close", so its handler has returned before stop().
        # A keep-alive connection still open at stop() -- or merely
        # closed by the client an instant before -- leaves the handler
        # pending: stop() then logs a destroyed pending task and
        # "RuntimeError: Event loop is closed".
        self.connection.request("GET", "/status",
                                headers={"Connection": "close"})
        self.connection.getresponse().read()
        self.connection.close()
        self.gateway.stop()
        self.node.shutdown()


WORKLOADS = {cls.name: cls for cls in (
    Fig1MoteAvg, Fig3CameraTopN, Fig4StandingQueries, GatewayMoteIngest)}
