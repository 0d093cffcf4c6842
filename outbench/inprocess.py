"""Runner for the in-process mining workloads (see mining.py)."""

from __future__ import annotations

import json
import time
from pathlib import Path

from common import (
    COUNT_OPS,
    MIN_OPS,
    MIN_TRACE_PAIRS,
    SPAN_METRICS,
    at_reference,
    describe,
    hwm_mb,
    kernel_seconds,
    median,
    more_setups,
    reset_hwm,
    rss_mb,
    settle,
)
from mining import WORKLOADS
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def load_reference(name: str) -> dict:
    path = HERE / "reference.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(name, {})


class _Checker:
    """Output checks of every op; a failed check is a failed op."""

    def __init__(self, workload, state) -> None:
        self.workload = workload
        self.state = state
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, index: int, item, result) -> None:
        key, digest, problems = self.workload.check(
            self.state, index, item, result
        )
        first = self.first.setdefault(key, digest)
        if digest != first:
            problems.append(
                f"input {key}: digest {digest} differs from its first op {first}"
            )
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_inprocess(name: str, seed: int, seconds: float, trace: int,
                  work_dir: Path):
    workload = WORKLOADS[name](load_reference(name))
    tracer = Tracer()
    details: list[str] = []
    setup_times = []
    setup_wall = []
    while more_setups(setup_wall, trace):
        state = None  # drop the previous repetition before building anew
        before = kernel_seconds()
        started = time.perf_counter()
        state = workload.prepare(seed, tracer, work_dir)
        setup_wall.append(time.perf_counter() - started)
        setup_times.append(at_reference(setup_wall[-1], before, kernel_seconds()))
    settle()
    setup_peak = hwm_mb()
    setup_rss = rss_mb()
    check = _Checker(workload, state)
    if trace:
        values = _traced_ops(workload, state, tracer, check, seconds, details)
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
    else:
        values = _timed_ops(workload, state, check, seconds, details)
        values["setup_s"] = median(setup_times)
        step = values.pop("peak_step_mb")
        values["peak_rss_mb"] = max(setup_peak, setup_rss + step)
        details[:0] = [describe("setup_s", setup_times),
                       describe("setup wall", setup_wall)]
        details.append(f"rss after setup {setup_rss:.1f} MB, "
                       f"setup peak {setup_peak:.1f} MB")
    if check.problems:
        details.append("check failures:")
        details.extend("  " + problem for problem in check.problems[:20])
    details.append(f"checks: {check.attempted} ops, {check.failed} failed")
    if tracer.unmeasured:
        details.append("unmeasured (entry point missing): "
                       + ", ".join(tracer.unmeasured))
    return check.failed == 0, check.attempted, check.failed, values, details


def _timed_ops(workload, state, check, seconds, details) -> dict:
    """Untraced ops until ``seconds`` pass; then replay the first input.

    Each op is timed between two runs of the calibration kernel and
    reported at reference speed (see ``common.at_reference``).  The peak
    step is how far RSS rises above its level at the start of an op, with
    the peak mark reset per op: a median of it does not grow with the
    number of ops even though the view cache leaks.
    """
    op_times: list[float] = []
    wall_times: list[float] = []
    kernel_times: list[float] = []
    peak_steps: list[float] = []
    index = 0
    loop_start = time.perf_counter()
    while index < MIN_OPS or time.perf_counter() - loop_start < seconds:
        item = workload.make_input(state, index)
        settle()
        kernel_before = kernel_seconds()
        resettable = reset_hwm()
        before = rss_mb()
        started = time.perf_counter()
        result = workload.run(item)
        wall_times.append(time.perf_counter() - started)
        if resettable or index == 0:
            peak_steps.append(hwm_mb() - before)
        kernel_times.append(kernel_seconds())
        op_times.append(at_reference(wall_times[-1], kernel_before,
                                     kernel_times[-1]))
        check(index, item, result)
        index += 1
    # The first input again, on a fresh object: its output must not change.
    item = workload.make_input(state, 0)
    check(0, item, workload.run(item))
    details.extend([
        describe("op_s", op_times),
        describe("op wall", wall_times),
        describe("calibration kernel", kernel_times),
        describe("peak step per op", peak_steps, "MB"),
    ])
    return {"op_s": median(op_times), "peak_step_mb": median(peak_steps)}


def _traced_ops(workload, state, tracer, check, seconds, details) -> dict:
    """Pairs of fresh copies of one input: one mined plain, one traced.

    The order alternates per pair.  Per-layer times are medians over the
    traced ops; counts are medians over the first ``COUNT_OPS`` inputs,
    which the seed fixes, so they repeat exactly.
    """
    op_times: list[float] = []
    overheads: list[float] = []
    growth: list[float] = []
    timed_rows: list[dict] = []
    exact_rows: list[dict] = []
    index = 0
    loop_start = time.perf_counter()
    while index < MIN_TRACE_PAIRS or time.perf_counter() - loop_start < seconds:
        plain_seconds = 0.0
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            item = workload.make_input(state, index)
            settle()
            before = rss_mb()
            if traced:
                tracer.install(workload.probes)
                try:
                    with tracer.op(index):
                        result = workload.run(item)
                finally:
                    tracer.uninstall()
                traced_result = result
            else:
                started = time.perf_counter()
                result = workload.run(item)
                plain_seconds = time.perf_counter() - started
            settle()
            growth.append(rss_mb() - before)
            check(index, item, result)
        op_seconds, totals, covered = tracer.op_totals(index)
        op_times.append(op_seconds)
        overheads.append(op_seconds / plain_seconds - 1.0)
        timed, exact = _layer_row(workload, tracer, index, traced_result,
                                  op_seconds, totals, covered)
        timed_rows.append(timed)
        exact_rows.append(exact)
        index += 1

    values: dict = {}
    for metric in timed_rows[0]:
        values[metric] = median(row[metric] for row in timed_rows)
    for metric in exact_rows[0]:
        values[metric] = median(row[metric] for row in exact_rows[:COUNT_OPS])
    for span, metric in SPAN_METRICS.items():
        setup_spans = [s.end - s.start for s in tracer.spans
                       if s.op is None and s.name == span]
        if setup_spans:
            values[metric] = median(setup_spans)
    values["trace.overhead_share"] = median(overheads)
    values["proc.rss_growth_mb_per_op"] = median(growth)
    details.extend([
        describe("traced op", op_times),
        describe("trace overhead share", overheads, ""),
        describe("rss growth per op", growth, "MB"),
    ])
    return values


def _layer_row(workload, tracer, index, result, op_seconds, totals,
               covered) -> tuple[dict, dict]:
    """``(timings, exact counts)`` of one traced op."""
    timed = {
        SPAN_METRICS[probe.span]: totals.get(probe.span, 0.0)
        for probe in workload.probes
        if probe.span in SPAN_METRICS
    }
    exact = workload.counts(result)
    exact.update({name: value for (op, name), value in tracer.counts.items()
                  if op == index})
    nodes = exact["enum.nodes_visited"]
    timed["enum.us_per_node"] = 1e6 * timed["enum.walk_s"] / nodes if nodes else 0.0
    exact["enum.emit_ratio"] = exact["enum.groups_emitted"] / nodes if nodes else 0.0
    timed["trace.uncovered_share"] = (op_seconds - covered) / op_seconds
    if hasattr(workload, "io"):
        # Hybrid's own time: the op minus partition mines and chunk reads.
        timed["hybrid.self_s"] = op_seconds - covered
        timed.update(workload.io(result))
    return timed, exact
