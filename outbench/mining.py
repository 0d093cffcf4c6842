"""In-process mining workloads: tall-topk, paper-rcbt and tall-stream.

Each workload is a small object with the same surface:

* ``prepare(seed, tracer)`` — one set-up repetition, returns the state;
* ``make_input(state, index)`` — a freshly built input for op ``index``
  (never an object an earlier op mined, so the view cache never turns
  an op into a warm mine);
* ``run(input)`` — the timed call into the program's public API;
* ``check(state, index, input, result)`` — output checks, returning the
  input key, the output digest and a list of problems;
* ``counts(result)`` — per-op counters read from public results.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import uuid
from pathlib import Path

from common import io_bytes, text_digest, topk_digest
from tracer import Probe

# Layer entry points every mine reaches (Figure 3: view, single-item
# init, enumeration walk, finalize).
MINING_PROBES = [
    Probe("view.build", "repro.core.view:MiningView.cached"),
    Probe("topk.init", "repro.core.topk_miner:TopkPolicy.__init__"),
    Probe("enum.walk", "repro.core.topk_miner:run_enumeration"),
    Probe("topk.finalize", "repro.core.topk_miner:TopkPolicy.finalize"),
]


class SeedRefused(Exception):
    """The seed gives a workload that mines nothing."""


def _stats_counts(stats_list) -> dict:
    counts = dict.fromkeys(
        ("nodes_visited", "loose_pruned", "tight_pruned",
         "backward_pruned", "groups_emitted"), 0,
    )
    for stats in stats_list:
        for name in counts:
            counts[name] += getattr(stats, name)
    return {f"enum.{name}": value for name, value in counts.items()}


def _input_seed(seed: int, index: int) -> int:
    # Every op mines its own cohort: the run's median then averages over
    # many inputs instead of resting on one draw.
    return seed * 100_000 + index


def _check_reference(reference: dict, seed: int, key: int, digest: str,
                     problems: list) -> None:
    if seed != reference.get("seed"):
        return
    expected = reference.get("digests", {}).get(str(key))
    if expected is not None and expected != digest:
        problems.append(
            f"input {key}: digest {digest} != reference {expected}"
        )


@dataclasses.dataclass
class TallState:
    seed: int
    work_dir: Path
    inputs: dict
    tracer: object


class TallTopk:
    """``mine_topk(k=2)`` on a fresh 128-row cohort prefix per op."""

    name = "tall-topk"
    probes = MINING_PROBES
    pool = 48
    rows = 128
    k = 2
    minsup_fraction = 0.7

    def __init__(self, reference: dict) -> None:
        self.reference = reference

    def _build(self, state: TallState, index: int):
        from repro.data import TALL_COHORTS, generate_tall_cohort

        spec = dataclasses.replace(
            TALL_COHORTS["tall-1k"], n_rows=self.rows,
            seed=_input_seed(state.seed, index),
        )
        with state.tracer.span("data.generate"):
            dataset = generate_tall_cohort(spec)
        minsup = math.ceil(self.minsup_fraction * dataset.class_counts()[1])
        return dataset, minsup

    def prepare(self, seed: int, tracer, work_dir: Path) -> TallState:
        state = TallState(seed, work_dir, {}, tracer)
        for index in range(self.pool):
            state.inputs[index] = self._build(state, index)
        return state

    def make_input(self, state: TallState, index: int):
        built = state.inputs.pop(index, None)
        return built if built is not None else self._build(state, index)

    def run(self, item):
        from repro import mine_topk

        dataset, minsup = item
        return mine_topk(dataset, 1, minsup, k=self.k)

    def check(self, state: TallState, index: int, item, result):
        from repro.audit.invariants import InvariantViolation, check_topk_result

        dataset, _ = item
        if result.stats.nodes_visited == 0:
            raise SeedRefused(f"input {index} of seed {state.seed} visits no node")
        problems = []
        try:
            check_topk_result(dataset, result)
        except InvariantViolation as error:
            problems.append(f"input {index}: {error}")
        digest = topk_digest(result)
        _check_reference(self.reference, state.seed, index, digest, problems)
        return index, digest, problems

    def counts(self, result) -> dict:
        return _stats_counts([result.stats])


class TallStream:
    """Streamed hybrid mine of a fresh ``tall-4k`` cohort per op, all spilled."""

    name = "tall-stream"
    probes = MINING_PROBES + [
        Probe("stream.chunk", "repro.data.streaming:iter_tall_chunks",
              kind="iter"),
        Probe("hybrid.partition_mine", "repro.core.hybrid:mine_hybrid_partition"),
    ]
    pool = 24
    k = 1
    minsup_fraction = 0.86

    def __init__(self, reference: dict) -> None:
        self.reference = reference

    def _build(self, state: TallState, index: int):
        from repro.data import TALL_COHORTS, TallChunkSource

        spec = dataclasses.replace(
            TALL_COHORTS["tall-4k"], seed=_input_seed(state.seed, index)
        )
        with state.tracer.span("data.generate"):
            positives = sum(
                sum(labels) for _, labels in TallChunkSource(spec).chunks()
            )
        return spec, math.ceil(self.minsup_fraction * positives)

    def prepare(self, seed: int, tracer, work_dir: Path) -> TallState:
        state = TallState(seed, work_dir, {}, tracer)
        for index in range(self.pool):
            state.inputs[index] = self._build(state, index)
        return state

    def make_input(self, state: TallState, index: int):
        from repro.data import TallChunkSource

        if index not in state.inputs:
            state.inputs[index] = self._build(state, index)
        spec, minsup = state.inputs[index]
        spill_dir = state.work_dir / f"spill-{uuid.uuid4().hex}"
        spill_dir.mkdir()
        return spec, TallChunkSource(spec), minsup, spill_dir

    def run(self, item):
        from repro.core.hybrid import mine_topk_hybrid

        _, source, minsup, spill_dir = item
        read0, write0 = io_bytes()
        result = mine_topk_hybrid(
            source=source, consequent=1, minsup=minsup, k=self.k,
            spill_dir=str(spill_dir),
        )
        read1, write1 = io_bytes()
        result.spill_io = (read1 - read0, write1 - write0)
        return result

    def check(self, state: TallState, index: int, item, result):
        from repro.audit.invariants import InvariantViolation, check_topk_result
        from repro.data import generate_tall_cohort

        spec, _, _, spill_dir = item
        if result.hybrid_stats.n_partitions == 0:
            raise SeedRefused(f"input {index} of seed {state.seed} has no partition")
        problems = []
        if not result.stats.completed:
            problems.append(f"input {index}: hybrid mine not completed")
        leftovers = os.listdir(spill_dir)
        if leftovers:
            problems.append(f"input {index}: spill dir not empty: {leftovers}")
        else:
            spill_dir.rmdir()
        try:
            check_topk_result(generate_tall_cohort(spec), result)
        except InvariantViolation as error:
            problems.append(f"input {index}: {error}")
        digest = topk_digest(result)
        _check_reference(self.reference, state.seed, index, digest, problems)
        return index, digest, problems

    def counts(self, result) -> dict:
        stats = result.hybrid_stats
        counts = _stats_counts([result.stats])
        counts.update({
            "hybrid.partitions": stats.n_partitions,
            "hybrid.spilled_partitions": stats.spilled_partitions,
            "hybrid.peak_resident_cells": stats.peak_resident_cells,
            "hybrid.total_cells": stats.total_cells,
        })
        return counts

    @staticmethod
    def io(result) -> dict:
        read, write = result.spill_io
        return {"hybrid.spill_read_bytes": read, "hybrid.spill_write_bytes": write}


@dataclasses.dataclass
class PaperState:
    seed: int
    train: object
    predict_rows: list


def load_pc(tracer):
    """The paper-shaped PC data, generated and discretized.

    Returns ``(train, test, discretizer, train_items, test_items)``.
    """
    from repro.data import PAPER_DATASETS, EntropyDiscretizer, generate_dataset

    with tracer.span("data.generate"):
        train, test = generate_dataset(PAPER_DATASETS["PC"])
    with tracer.span("data.discretize"):
        discretizer = EntropyDiscretizer().fit(train)
        train_items = discretizer.transform(train)
        test_items = discretizer.transform(test)
    return train, test, discretizer, train_items, test_items


def _count_rules(found) -> dict:
    return {"findlb.rules": sum(len(rules) for rules in found.values())}


class PaperRcbt:
    """Default ``RCBTClassifier`` fit on the PC train items, then predict.

    The fitted data is the paper-shaped PC dataset (``DatasetSpec`` seed
    as shipped); the run seed orders the predicted test rows.  See the
    README for why the training rows are not re-drawn per seed.
    """

    name = "paper-rcbt"
    probes = MINING_PROBES + [
        Probe("rank.entropy", "repro.classifiers.rcbt:gene_entropy_scores"),
        Probe("rank.entropy", "repro.classifiers.rcbt:item_scores"),
        Probe("topk.mine", "repro.classifiers.rcbt:mine_topk"),
        Probe("cba.select", "repro.classifiers.rcbt:cba_select_groups"),
        Probe("findlb", "repro.classifiers.rcbt:find_lower_bounds_batch",
              on_result=_count_rules),
        Probe("rcbt.predict", "repro.classifiers.rcbt:RCBTClassifier.predict_batch"),
    ]

    def __init__(self, reference: dict) -> None:
        self.reference = reference

    def prepare(self, seed: int, tracer, work_dir: Path) -> PaperState:
        _, _, _, train_items, test_items = load_pc(tracer)
        order = list(range(test_items.n_rows))
        random.Random(seed).shuffle(order)
        return PaperState(seed, train_items, [test_items.rows[i] for i in order])

    def make_input(self, state: PaperState, index: int):
        from repro import DiscretizedDataset

        train = state.train
        fresh = DiscretizedDataset(
            list(train.rows), list(train.labels), train.items,
            class_names=list(train.class_names), name=train.name,
        )
        return fresh, state.predict_rows

    def run(self, item):
        from repro.classifiers.rcbt import RCBTClassifier

        dataset, rows = item
        model = RCBTClassifier().fit(dataset)
        return model, model.predict_batch(rows)

    def check(self, state: PaperState, index: int, item, result):
        from repro.classifiers.persistence import classifier_to_payload

        model, predictions = result
        _, rows = item
        problems = []
        if predictions != [model.predict_row(row) for row in rows]:
            problems.append("predict_batch disagrees with predict_row")
        model_digest = text_digest(
            json.dumps(classifier_to_payload(model), sort_keys=True)
        )
        # The fitted data does not depend on the seed, so neither may the
        # model; the predictions follow the seeded row order.
        expected = self.reference.get("model")
        if expected is not None and model_digest != expected:
            problems.append(f"model digest {model_digest} != reference {expected}")
        predict_digest = text_digest(repr(predictions))
        _check_reference(self.reference, state.seed, 0, predict_digest, problems)
        return 0, f"{model_digest}/{predict_digest}", problems

    def counts(self, result) -> dict:
        model, _ = result
        counts = _stats_counts(
            [mined.stats for mined in model.topk_results_.values()]
        )
        counts["rcbt.rules"] = sum(len(level.rules) for level in model.levels_)
        counts["rcbt.levels"] = model.n_levels_
        return counts


WORKLOADS = {cls.name: cls for cls in (TallTopk, PaperRcbt, TallStream)}
