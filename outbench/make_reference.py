"""Write reference.json: output digests for the default seed.

Run from the repository root after a change that is meant to alter
mining output (none should: results are bit-identical by contract)::

    python3 outbench/make_reference.py

The tall workloads mine a different cohort per op, so the reference
lists one digest per input index; runs longer than that are checked
against the invariant catalog only.  The PC model digest holds for
every seed, because the fitted data does not depend on it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mining import PaperRcbt, TallStream, TallTopk  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 0
INPUTS = {TallTopk: 96, TallStream: 48}


def main() -> int:
    reference: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for cls, count in INPUTS.items():
            workload = cls({})
            state = workload.prepare(SEED, Tracer(), Path(work))
            digests = {}
            for index in range(count):
                item = workload.make_input(state, index)
                _, digest, problems = workload.check(
                    state, index, item, workload.run(item)
                )
                if problems:
                    raise SystemExit(f"{cls.name} input {index}: {problems}")
                digests[str(index)] = digest
            reference[cls.name] = {"seed": SEED, "digests": digests}
            print(f"{cls.name}: {count} inputs", file=sys.stderr)
        workload = PaperRcbt({})
        state = workload.prepare(SEED, Tracer(), Path(work))
        item = workload.make_input(state, 0)
        _, digest, problems = workload.check(state, 0, item, workload.run(item))
        if problems:
            raise SystemExit(f"paper-rcbt: {problems}")
        model, predictions = digest.split("/")
        reference[PaperRcbt.name] = {
            "seed": SEED, "model": model, "digests": {"0": predictions},
        }
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
