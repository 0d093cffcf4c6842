"""service-classify: a closed loop of ``/classify`` requests against ``repro serve``.

The server is the program's own CLI front end (``repro serve``, the
asyncio server) in a child process, serving the PC RCBT model with its
discretization pipeline.  One client thread keeps one request in flight
on one keep-alive connection and alternates the two request kinds:

* ``values`` — raw expression values of one sample (parse + discretize
  + predict on the server);
* ``rows`` — the item ids of one sample (predict only).

An op is one ``values`` request followed by one ``rows`` request; the
run details give each kind its own median, tail and count.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    MIN_OPS,
    at_reference,
    describe,
    hwm_mb,
    kernel_seconds,
    median,
    more_setups,
    reset_hwm,
    rss_mb,
)
from mining import load_pc
from tracer import Tracer

MODEL = "pc"
VALUES, ROWS = "values", "rows"
READY_SECONDS = 60.0
BLOCK_SECONDS = 0.5  # ops between two runs of the calibration kernel
ROOT = Path(__file__).resolve().parent.parent


class Server:
    """``repro serve --port 0`` in a child process."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        self.pid = str(self.process.pid)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_SECONDS
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                if line.startswith("serving on "):
                    url = line.split()[2]
                    return int(url.rsplit(":", 1)[1].rstrip("/"))
        self.stop()
        raise RuntimeError("repro serve did not report its address")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Client:
    """One keep-alive connection, one request in flight."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: bytes = None):
        headers = {"Content-Type": "application/json"} if body else {}
        started = time.perf_counter()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        payload = response.read()
        seconds = time.perf_counter() - started
        return response.status, seconds, payload

    def close(self) -> None:
        self.connection.close()


@dataclasses.dataclass
class Setup:
    server: Server
    model: object
    pipeline: dict
    values: list        # raw expression values per sample (numpy rows)
    rows: list          # item ids per sample
    expected: list      # in-process predict_batch pair per sample
    bodies: dict = dataclasses.field(default_factory=dict)

    def body(self, kind: str, index: int) -> bytes:
        key = (kind, index)
        if key not in self.bodies:
            sample = (self.values[index].tolist() if kind == VALUES
                      else sorted(self.rows[index]))
            self.bodies[key] = json.dumps(
                {"model": MODEL, kind: [sample]}
            ).encode()
        return self.bodies[key]


def _prepare(tracer: Tracer) -> Setup:
    from repro.classifiers.persistence import classifier_to_payload
    from repro.classifiers.rcbt import RCBTClassifier

    train, test, discretizer, train_items, test_items = load_pc(tracer)
    model = RCBTClassifier().fit(train_items)
    pipeline = {
        "cuts": {str(gene): cuts for gene, cuts in discretizer.cuts_.items()},
        "gene_names": train.gene_names,
        "class_names": train.class_names,
    }
    body = json.dumps({
        "name": MODEL,
        "model": classifier_to_payload(model),
        "pipeline": pipeline,
    }).encode()
    server = Server()
    try:
        client = Client(server.port)
        status, _, payload = client.call("POST", "/models", body)
        client.close()
        if status != 201:
            raise RuntimeError(f"model registration answered {status}: {payload!r}")
    except BaseException:
        server.stop()
        raise
    rows = list(train_items.rows) + list(test_items.rows)
    values = list(train.values) + list(test.values)
    return Setup(server, model, pipeline, values, rows, model.predict_batch(rows))


class _Loop:
    """Closed-loop requests with per-response checks."""

    def __init__(self, setup: Setup, seed: int) -> None:
        self.setup = setup
        self.client = Client(setup.server.port)
        self.rng = random.Random(seed)
        self.latency = {VALUES: [], ROWS: []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kernel_times: list[float] = []
        self.wall_times: list[float] = []

    def request(self, kind: str) -> tuple[float, bool]:
        index = self.rng.randrange(len(self.setup.rows))
        status, seconds, payload = self.client.call(
            "POST", "/classify", self.setup.body(kind, index)
        )
        self.latency[kind].append(seconds)
        problem = None
        if status != 200:
            problem = f"{kind} sample {index}: status {status}: {payload[:200]!r}"
        else:
            answer = json.loads(payload)
            label, source = self.setup.expected[index]
            if answer["predictions"] != [label] or answer["sources"] != [source]:
                problem = (f"{kind} sample {index}: answered "
                           f"{answer['predictions']}/{answer['sources']}, "
                           f"in-process predict_batch gives {label}/{source}")
        if problem:
            self.problems.append(problem)
        return seconds, problem is None

    def run(self, seconds: float, kinds=(VALUES, ROWS), min_ops: int = MIN_OPS):
        """Ops of one request per kind until ``seconds`` pass.

        Returns the wall time of each op.
        """
        op_times = []
        started = time.perf_counter()
        while len(op_times) < min_ops or time.perf_counter() - started < seconds:
            op_times.append(self._op(kinds))
        return op_times

    def run_calibrated(self, seconds: float) -> list:
        """Blocks of ops, each between two runs of the calibration kernel.

        Returns each op's time at reference speed (``common.at_reference``).
        Per-kind latencies are kept as wall times.
        """
        op_times = []
        started = time.perf_counter()
        while len(op_times) < MIN_OPS or time.perf_counter() - started < seconds:
            before = kernel_seconds()
            block_start = time.perf_counter()
            block = []
            while time.perf_counter() - block_start < BLOCK_SECONDS:
                block.append(self._op((VALUES, ROWS)))
            after = kernel_seconds()
            self.kernel_times.append(after)
            self.wall_times.extend(block)
            op_times.extend(at_reference(op, before, after) for op in block)
        return op_times

    def _op(self, kinds) -> float:
        total, ok = 0.0, True
        for kind in kinds:
            latency, good = self.request(kind)
            total += latency
            ok = ok and good
        self.attempted += 1
        self.failed += 0 if ok else 1
        return total

    def metrics(self) -> dict:
        status, _, payload = self.client.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        snapshot = json.loads(payload)
        route = snapshot["latency"].get("route_seconds:POST /classify", {})
        batching = snapshot.get("batching", {}).get(f"{MODEL}@v1", {})
        return {
            "route_sum": route.get("sum_seconds", 0.0),
            "route_count": route.get("count", 0),
            "batch_rows": batching.get("rows", 0),
            "batches": batching.get("batches", 0),
        }


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def run_service(seed: int, seconds: float, trace: int):
    tracer = Tracer()
    details: list[str] = []
    setup_times = []
    setup_wall = []
    setup = None
    try:
        while more_setups(setup_wall, trace):
            if setup is not None:
                setup.server.stop()
                setup = None
            before = kernel_seconds()
            started = time.perf_counter()
            setup = _prepare(tracer)
            setup_wall.append(time.perf_counter() - started)
            setup_times.append(
                at_reference(setup_wall[-1], before, kernel_seconds())
            )
        pid = setup.server.pid
        resettable = reset_hwm(pid)
        loop = _Loop(setup, seed)
        rss_before = rss_mb(pid)
        if trace:
            values = _traced(loop, setup, tracer, seconds, details)
            ops = loop.attempted
            values["proc.rss_growth_mb_per_op"] = (rss_mb(pid) - rss_before) / ops
        else:
            op_times = loop.run_calibrated(seconds)
            values = {
                "setup_s": median(setup_times),
                "op_s": median(op_times),
                "peak_rss_mb": hwm_mb(pid),
            }
            details.extend([
                describe("setup_s", setup_times),
                describe("setup wall", setup_wall),
                describe("op_s (values + rows)", op_times),
                describe("op wall", loop.wall_times),
                describe("calibration kernel", loop.kernel_times),
                describe("classify values", loop.latency[VALUES]),
                describe("classify rows", loop.latency[ROWS]),
                f"server rss {rss_before:.1f} -> {rss_mb(pid):.1f} MB"
                + ("" if resettable else " (peak mark not resettable)"),
            ])
        loop.client.close()
    finally:
        if setup is not None:
            setup.server.stop()
    if loop.problems:
        details.append("check failures:")
        details.extend("  " + problem for problem in loop.problems[:20])
    details.append(f"checks: {loop.attempted} ops, {loop.failed} failed")
    return loop.failed == 0, loop.attempted, loop.failed, values, details


def _traced(loop: _Loop, setup: Setup, tracer: Tracer, seconds: float,
            details: list) -> dict:
    """Alternating plain ops, then one block per kind between /metrics scrapes.

    Route time comes from the server's own ``route_seconds`` histogram;
    the parse, discretize and predict steps of one request are timed
    here, on the same public calls the server makes.
    """
    third = seconds / 3.0
    loop.run(third)
    plain = {kind: median(loop.latency[kind]) for kind in (VALUES, ROWS)}
    blocks = {}
    for kind in (VALUES, ROWS):
        loop.latency[kind] = []
        before = loop.metrics()
        loop.run(third, kinds=(kind,))
        blocks[kind] = _delta(loop.metrics(), before)
    client = {kind: loop.latency[kind] for kind in (VALUES, ROWS)}
    route = {kind: blocks[kind]["route_sum"] / blocks[kind]["route_count"]
             for kind in (VALUES, ROWS)}
    route_total = sum(blocks[kind]["route_sum"] for kind in blocks)
    route_count = sum(blocks[kind]["route_count"] for kind in blocks)
    client_total = sum(sum(client[kind]) for kind in client)
    client_count = sum(len(client[kind]) for kind in client)
    batches = sum(blocks[kind]["batches"] for kind in blocks)
    traced_pair = median(client[VALUES]) + median(client[ROWS])
    values = {
        "service.values_s": median(client[VALUES]),
        "service.rows_s": median(client[ROWS]),
        "service.route_s": route_total / route_count,
        "service.route_values_s": route[VALUES],
        "service.route_rows_s": route[ROWS],
        "service.client_gap_s": client_total / client_count
        - route_total / route_count,
        "service.batch_rows": (
            sum(blocks[kind]["batch_rows"] for kind in blocks) / batches
        ),
        "trace.overhead_share": traced_pair / (plain[VALUES] + plain[ROWS]) - 1.0,
        "trace.uncovered_share": 1.0 - route_total / client_total,
    }
    values.update(_in_process_steps(setup))
    for span in ("data.generate", "data.discretize"):
        values[span + "_s"] = median(
            s.end - s.start for s in tracer.spans if s.name == span
        )
    details.extend([
        describe("classify values (block)", client[VALUES]),
        describe("classify rows (block)", client[ROWS]),
        f"route mean values {route[VALUES]:.6g} s, rows {route[ROWS]:.6g} s",
    ])
    return values


def _in_process_steps(setup: Setup, repeats: int = 30) -> dict:
    """Parse, discretize and predict of one request, timed in this process."""
    import numpy as np

    from repro.data import EntropyDiscretizer, GeneExpressionDataset

    pipeline = setup.pipeline
    body = setup.body(VALUES, 0)
    timings = {"service.json_decode_s": [], "service.discretize_s": [],
               "service.predict_batch_s": []}
    for _ in range(repeats):
        started = time.perf_counter()
        request = json.loads(body)
        timings["service.json_decode_s"].append(time.perf_counter() - started)
        started = time.perf_counter()
        matrix = np.asarray(request[VALUES], dtype=float)
        discretizer = EntropyDiscretizer.from_cuts(
            {int(gene): cuts for gene, cuts in pipeline["cuts"].items()},
            pipeline["gene_names"], pipeline["class_names"],
        )
        rows = discretizer.transform(GeneExpressionDataset(
            matrix, [0] * matrix.shape[0], pipeline["gene_names"],
            pipeline["class_names"],
        )).rows
        timings["service.discretize_s"].append(time.perf_counter() - started)
        started = time.perf_counter()
        setup.model.predict_batch(rows)
        timings["service.predict_batch_s"].append(time.perf_counter() - started)
    return {name: median(values) for name, values in timings.items()}
