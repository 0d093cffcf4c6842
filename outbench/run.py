"""Outside-in benchmark of the top-k covering rule group miner.

Run from the repository root::

    python3 outbench/run.py --workload tall-topk --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced ops and prints the end-to-end metrics;
``--trace 1`` wraps the layer entry points and prints the per-layer
metrics.  Run details (medians, tails, sample counts, checks) go to
stderr; the last stdout line is one JSON object.  See README.md for the
workloads and why they were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tall-topk", "paper-rcbt", "tall-stream", "service-classify")


def _clean_environment(work_dir: Path) -> None:
    """Private empty cache dir; no backend, audit or fault overrides."""
    for name in ("REPRO_BITSET_BACKEND", "REPRO_CHECK", "REPRO_FAULT"):
        os.environ.pop(name, None)
    cache = work_dir / "cache"
    cache.mkdir()
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    # One compute thread per process: numpy's BLAS pool would otherwise
    # contend for the same cores as the measured work.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def _result_line(correct: bool, attempted: int, failed: int,
                 values: dict, units: dict, details: list[str]) -> str:
    missing = [name for name in units if name not in values]
    if missing:
        details.append("not exercised by this workload (reported as 0): "
                       + ", ".join(missing))
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work_root = HERE / ".run"
    work_root.mkdir(exist_ok=True)
    work_dir = work_root / uuid.uuid4().hex
    work_dir.mkdir()
    try:
        _clean_environment(work_dir)
        try:
            import repro
        except ImportError as error:
            print(f"cannot import the program from {ROOT / 'src'}: {error}",
                  file=sys.stderr)
            return 3
        if ROOT / "src" not in Path(repro.__file__).resolve().parents:
            print(f"refusing to measure repro imported from {repro.__file__}, "
                  f"not from {ROOT / 'src'}", file=sys.stderr)
            return 3
        from common import END_TO_END, PER_LAYER, log, pin_to_one_core
        from mining import SeedRefused

        core = pin_to_one_core()

        started = time.perf_counter()
        try:
            if args.workload == "service-classify":
                from serving import run_service

                outcome = run_service(args.seed, args.seconds, args.trace)
            else:
                from inprocess import run_inprocess

                outcome = run_inprocess(args.workload, args.seed, args.seconds,
                                        args.trace, work_dir)
        except SeedRefused as refusal:
            log(f"seed refused: {refusal}")
            return 4
        correct, attempted, failed, values, details = outcome
        units = PER_LAYER if args.trace else END_TO_END
        line = _result_line(correct, attempted, failed, values, units, details)
        details.append(f"wall: {time.perf_counter() - started:.1f} s on core {core}")
        for detail in details:
            log(detail)
        print(line, flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
