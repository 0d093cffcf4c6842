"""Helpers shared by the workloads: statistics, memory probes, digests."""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import sys
import time

# setup_s is the median of several set-ups: at least SETUP_MIN_REPEATS, and
# more (up to SETUP_MAX_REPEATS) while they have taken under
# SETUP_MIN_SECONDS of wall time, so a cheap set-up gets more samples.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 7
SETUP_MIN_SECONDS = 3.0
MIN_OPS = 5
MIN_TRACE_PAIRS = 5
COUNT_OPS = 5  # counts are per-op medians over the first COUNT_OPS inputs

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

# Span name -> per-layer metric of its inclusive time.
SPAN_METRICS = {
    "data.generate": "data.generate_s",
    "data.discretize": "data.discretize_s",
    "view.build": "view.build_s",
    "topk.init": "topk.init_s",
    "enum.walk": "enum.walk_s",
    "topk.finalize": "topk.finalize_s",
    "rank.entropy": "rank.entropy_s",
    "cba.select": "cba.select_s",
    "findlb": "findlb.s",
    "rcbt.predict": "rcbt.predict_s",
    "stream.chunk": "stream.chunk_s",
    "hybrid.partition_mine": "hybrid.partition_mine_s",
}

PER_LAYER = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "enum.nodes_visited": "count",
    "enum.loose_pruned": "count",
    "enum.tight_pruned": "count",
    "enum.backward_pruned": "count",
    "enum.groups_emitted": "count",
    "enum.us_per_node": "us",
    "enum.emit_ratio": "ratio",
    "findlb.rules": "count",
    "rcbt.rules": "count",
    "rcbt.levels": "count",
    "hybrid.self_s": "s",
    "hybrid.partitions": "count",
    "hybrid.spilled_partitions": "count",
    "hybrid.peak_resident_cells": "count",
    "hybrid.total_cells": "count",
    "hybrid.spill_write_bytes": "bytes",
    "hybrid.spill_read_bytes": "bytes",
    "service.values_s": "s",
    "service.rows_s": "s",
    "service.route_s": "s",
    "service.route_values_s": "s",
    "service.route_rows_s": "s",
    "service.client_gap_s": "s",
    "service.batch_rows": "rows",
    "service.json_decode_s": "s",
    "service.discretize_s": "s",
    "service.predict_batch_s": "s",
    "proc.rss_growth_mb_per_op": "MB",
    "trace.overhead_share": "ratio",
    "trace.uncovered_share": "ratio",
}


def more_setups(wall_times: list, trace: int) -> bool:
    """Whether to set up once more, given the wall times of those so far."""
    done = len(wall_times)
    if trace:
        return done < 1
    return done < SETUP_MIN_REPEATS or (
        done < SETUP_MAX_REPEATS and sum(wall_times) < SETUP_MIN_SECONDS
    )


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    # Index n - 11 leaves exactly 10 samples above it.
    index = n - 11
    return 100.0 * (index + 1) / n, ordered[index]


def describe(name: str, values, unit: str = "s") -> str:
    """One run-details line: median, tail and sample count."""
    if not values:
        return f"{name}: no samples"
    percentile, value = tail(values)
    return (
        f"{name}: median {median(values):.6g} {unit}, "
        f"p{percentile:.0f} {value:.6g} {unit}, n={len(values)}"
    )


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- host speed -------------------------------------------------------------------

# The host's speed drifts by up to a third within tens of seconds, with no
# CPU steal, so wall times taken minutes apart differ by more than any bound
# allows.  A fixed pure-Python kernel, owned by the benchmark, is timed right
# before and right after each measured interval on the same core.  Every
# reported time is the wall time scaled to the host speed at which the
# kernel takes REFERENCE_KERNEL_S.  The kernel never calls the program, so a
# change to the program moves the scaled time by the same factor as the
# wall time.  Raw wall times are printed in the run details.
REFERENCE_KERNEL_S = 0.05
_KERNEL_ROUNDS = 140_000
_KERNEL_MASKS = [
    (0x9E3779B97F4A7C15 << (i % 137)) | (1 << (64 + i)) for i in range(64)
]


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel.

    Big-integer and/or/popcount, dict stores and list indexing in an
    interpreter loop: the same kinds of work as the row enumeration.
    """
    masks = _KERNEL_MASKS
    seen: dict = {}
    acc = 0
    started = time.perf_counter()
    for i in range(_KERNEL_ROUNDS):
        word = (masks[i & 63] & masks[(i * 7 + 3) & 63]) | i
        acc += word.bit_count()
        seen[word & 1023] = acc
    return time.perf_counter() - started


def pin_to_one_core() -> int:
    """Keep this process, and every child it starts, on one core.

    The kernel then always runs on the core whose speed it is meant to
    gauge.  Returns the core.
    """
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by the kernel times taken around the interval."""
    return seconds * 2.0 * REFERENCE_KERNEL_S / (before + after)


# -- memory ---------------------------------------------------------------------


def _status_kb(field: str, pid: str = "self") -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def rss_mb(pid: str = "self") -> float:
    return _status_kb("VmRSS", pid) / 1024.0


def hwm_mb(pid: str = "self") -> float:
    return _status_kb("VmHWM", pid) / 1024.0


def reset_hwm(pid: str = "self") -> bool:
    """Reset the peak-RSS mark to the current RSS (Linux ``clear_refs`` 5)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def io_bytes() -> tuple[int, int]:
    """``(rchar, wchar)`` of this process: bytes passed to read/write calls."""
    fields = {}
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            fields[key] = int(value)
    return fields["rchar"], fields["wchar"]


def settle() -> None:
    """Same collector state before every op.

    Objects left from earlier ops (the view cache keeps every mined
    dataset alive) are moved to the permanent generation, so the
    collections inside an op scan only what the op itself allocates and
    op times do not grow with the number of ops already run.
    """
    gc.collect()
    gc.freeze()


# -- digests ----------------------------------------------------------------------


def topk_digest(result) -> str:
    """Digest of the per-row top-k lists of a ``TopkResult``."""
    digest = hashlib.sha256()
    for row in sorted(result.per_row):
        digest.update(f"{row}:".encode())
        for group in result.per_row[row]:
            digest.update(
                f"{sorted(group.antecedent)}|{group.consequent}|"
                f"{group.row_set:x}|{group.support}|{group.confidence!r};".encode()
            )
    return digest.hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
