"""The iterative enumeration kernels vs the recursive reference walkers.

The hot-path rewrite turned the three recursive engine walkers into
explicit-stack kernels with incremental closure/rest-mask maintenance
and a per-view ``SupportIndex``.  The contract is *total* equivalence:
for every engine and every §4.1.1 optimization-flag combination the
kernels must visit the same nodes in the same order, fire the same
pruning rules, and emit the same groups — so both the finalized results
and every ``MinerStats`` counter must match exactly.

The reference implementations below are the pre-rewrite recursive
walkers, kept verbatim (minus the hot-path local bindings) as executable
specification.  They charge every node through the one-at-a-time
``_Budget.charge_node``, so a node budget or a cancel trips in them
where the specification says it does.  Cases come from the audit generator, so the comparison
covers the same degenerate shapes (duplicates, empty rows, single class,
tie-heavy lists) the differential audit sweeps.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left
from itertools import product
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.generator import generate_cases
from repro.baselines.farmer import FarmerPolicy
from repro.core.backends import available_backends
from repro.core.bitset import iter_indices, mask_below
from repro.core.enumeration import (
    ENGINES,
    POLL_STRIDE,
    MinerStats,
    _Budget,
    run_enumeration,
)
from repro.core.prefix_tree import PrefixTree
from repro.core.topk_miner import TopkPolicy
from repro.core.view import MiningView
from repro.data import TALL_COHORTS, generate_tall_cohort
from repro.errors import MiningBudgetExceeded

# The 2^3 combinations of the paper's §4.1.1 optimizations.
FLAG_COMBOS = tuple(
    {
        "initialize_single_items": init,
        "dynamic_minsup": dynamic,
        "use_topk_pruning": pruning,
    }
    for init, dynamic, pruning in product((False, True), repeat=3)
)

CASES = generate_cases(seed=7, n_cases=8)


# ---------------------------------------------------------------------------
# Reference implementations: the recursive walkers the kernels replaced.
# ---------------------------------------------------------------------------


def _reference_bitset(view, policy, budget, first_rows=None) -> None:
    stats = budget.stats
    item_rows = view.item_rows
    row_items = view.row_items
    positive_mask = view.positive_mask
    bit_count = int.bit_count

    def recurse(x_bits, x_p, x_n, items, cand_bits, allowed) -> None:
        remaining = cand_bits
        rem_p = bit_count(cand_bits & positive_mask)
        rem_n = bit_count(cand_bits) - rem_p
        for r in iter_indices(cand_bits):
            r_bit = 1 << r
            remaining &= ~r_bit
            if r_bit & positive_mask:
                rem_p -= 1
                seed_p, seed_n = x_p + 1, x_n
            else:
                rem_n -= 1
                seed_p, seed_n = x_p, x_n + 1
            if allowed is not None and not allowed & r_bit:
                continue
            budget.charge_node()
            threshold_bits = ((x_bits | r_bit) | remaining) & positive_mask
            if policy.loose_prunable(seed_p, seed_n, rem_p, rem_n,
                                     threshold_bits):
                stats.loose_pruned += 1
                continue
            present = row_items[r]
            new_items = [i for i in items if i in present]
            if not new_items:
                continue
            closure = item_rows[new_items[0]]
            union = closure
            for item in new_items[1:]:
                rows = item_rows[item]
                closure &= rows
                union |= rows
            if closure & (r_bit - 1) & ~x_bits:
                stats.backward_pruned += 1
                continue
            new_cand = remaining & union & ~closure
            new_x_p = bit_count(closure & positive_mask)
            new_x_n = bit_count(closure) - new_x_p
            m_p = bit_count(new_cand & positive_mask)
            new_r_n = bit_count(new_cand) - m_p
            new_threshold = (closure | new_cand) & positive_mask
            if policy.tight_prunable(new_x_p, new_x_n, m_p, new_r_n,
                                     new_threshold):
                stats.tight_pruned += 1
                continue
            stats.groups_emitted += 1
            policy.emit(new_items, closure, new_x_p, new_x_n)
            if new_cand:
                recurse(closure, new_x_p, new_x_n, new_items, new_cand, None)

    recurse(0, 0, 0, list(view.frequent_items), mask_below(view.n_rows),
            first_rows)


def _reference_table(view, policy, budget, first_rows=None) -> None:
    stats = budget.stats
    positive_mask = view.positive_mask
    n_positive = view.n_positive
    bit_count = int.bit_count

    root_tuples = [
        (item, sorted(iter_indices(view.item_rows[item])))
        for item in view.frequent_items
    ]

    def recurse(x_bits, x_p, x_n, tuples, cand, allowed) -> None:
        rest_p = 0
        rest_pos_bits = 0
        for row in cand:
            if row < n_positive:
                rest_p += 1
                rest_pos_bits |= 1 << row
        rest_n = len(cand) - rest_p
        for r in cand:
            r_bit = 1 << r
            if r < n_positive:
                rest_p -= 1
                rest_pos_bits &= ~r_bit
                seed_p, seed_n = x_p + 1, x_n
            else:
                rest_n -= 1
                seed_p, seed_n = x_p, x_n + 1
            if allowed is not None and not allowed & r_bit:
                continue
            budget.charge_node()
            threshold_bits = ((x_bits | r_bit) & positive_mask) | rest_pos_bits
            if policy.loose_prunable(seed_p, seed_n, rest_p, rest_n,
                                     threshold_bits):
                stats.loose_pruned += 1
                continue
            kept = []
            for item, rows in tuples:
                position = bisect_left(rows, r)
                if position < len(rows) and rows[position] == r:
                    kept.append((item, rows))
            if not kept:
                continue
            freq: dict = {}
            for _item, rows in kept:
                for row in rows:
                    freq[row] = freq.get(row, 0) + 1
            n_tuples = len(kept)
            closure = 0
            backward = False
            for row, count in freq.items():
                if count == n_tuples:
                    if row < r and not x_bits >> row & 1:
                        backward = True
                        break
                    closure |= 1 << row
            if backward:
                stats.backward_pruned += 1
                continue
            new_cand = sorted(
                row for row, count in freq.items()
                if row > r and count < n_tuples
            )
            new_x_p = bit_count(closure & positive_mask)
            new_x_n = bit_count(closure) - new_x_p
            m_p = 0
            new_cand_pos_bits = 0
            for row in new_cand:
                if row < n_positive:
                    m_p += 1
                    new_cand_pos_bits |= 1 << row
            new_r_n = len(new_cand) - m_p
            new_threshold = (closure & positive_mask) | new_cand_pos_bits
            if policy.tight_prunable(new_x_p, new_x_n, m_p, new_r_n,
                                     new_threshold):
                stats.tight_pruned += 1
                continue
            stats.groups_emitted += 1
            policy.emit([item for item, _rows in kept], closure, new_x_p,
                        new_x_n)
            if new_cand:
                recurse(closure, new_x_p, new_x_n, kept, new_cand, None)

    recurse(0, 0, 0, root_tuples, list(range(view.n_rows)), first_rows)


def _reference_tree(view, policy, budget, first_rows=None) -> None:
    stats = budget.stats
    positive_mask = view.positive_mask
    n_positive = view.n_positive
    item_rows = view.item_rows
    bit_count = int.bit_count

    root_tree = PrefixTree.from_items(
        (item, sorted(iter_indices(view.item_rows[item])))
        for item in view.frequent_items
    )

    def recurse(x_bits, x_p, x_n, tree, allowed) -> None:
        cand = [row for row in tree.rows_present() if not x_bits >> row & 1]
        rest_p = 0
        rest_pos_bits = 0
        for row in cand:
            if row < n_positive:
                rest_p += 1
                rest_pos_bits |= 1 << row
        rest_n = len(cand) - rest_p
        for r in cand:
            r_bit = 1 << r
            if r < n_positive:
                rest_p -= 1
                rest_pos_bits &= ~r_bit
                seed_p, seed_n = x_p + 1, x_n
            else:
                rest_n -= 1
                seed_p, seed_n = x_p, x_n + 1
            if allowed is not None and not allowed & r_bit:
                continue
            budget.charge_node()
            threshold_bits = ((x_bits | r_bit) & positive_mask) | rest_pos_bits
            if policy.loose_prunable(seed_p, seed_n, rest_p, rest_n,
                                     threshold_bits):
                stats.loose_pruned += 1
                continue
            projected = tree.project(r)
            if projected.n_items == 0:
                continue
            new_items = projected.all_items()
            closure = item_rows[new_items[0]]
            for item in new_items[1:]:
                closure &= item_rows[item]
            if closure & (r_bit - 1) & ~x_bits:
                stats.backward_pruned += 1
                continue
            freq = projected.row_frequencies()
            new_cand_rows = [row for row in freq if not closure >> row & 1]
            new_x_p = bit_count(closure & positive_mask)
            new_x_n = bit_count(closure) - new_x_p
            m_p = 0
            new_cand_pos_bits = 0
            for row in new_cand_rows:
                if row < n_positive:
                    m_p += 1
                    new_cand_pos_bits |= 1 << row
            new_r_n = len(new_cand_rows) - m_p
            new_threshold = (closure & positive_mask) | new_cand_pos_bits
            if policy.tight_prunable(new_x_p, new_x_n, m_p, new_r_n,
                                     new_threshold):
                stats.tight_pruned += 1
                continue
            stats.groups_emitted += 1
            policy.emit(new_items, closure, new_x_p, new_x_n)
            if new_cand_rows:
                recurse(closure, new_x_p, new_x_n, projected, None)

    recurse(0, 0, 0, root_tree, first_rows)


REFERENCE_WALKERS = {
    "bitset": _reference_bitset,
    "table": _reference_table,
    "tree": _reference_tree,
}

COUNTERS = (
    "nodes_visited",
    "groups_emitted",
    "loose_pruned",
    "tight_pruned",
    "backward_pruned",
)


def _run_reference(view, policy, engine: str,
                   first_rows: Optional[int] = None,
                   node_budget: Optional[int] = None,
                   cancel=None) -> MinerStats:
    """Run a reference walker; on a budget trip return the partial stats."""
    stats = MinerStats(engine=engine)
    budget = _Budget(stats, node_budget, None, cancel)
    try:
        REFERENCE_WALKERS[engine](view, policy, budget, first_rows)
    except MiningBudgetExceeded:
        pass
    return stats


def _run_kernel(view, policy, engine: str, **kwargs) -> MinerStats:
    """``run_enumeration``; on a budget trip return the partial stats."""
    try:
        return run_enumeration(view, policy, engine=engine, **kwargs)
    except MiningBudgetExceeded as overrun:
        return overrun.stats


def _snapshot(policy: TopkPolicy) -> list:
    return [
        [
            (g.antecedent, g.consequent, g.row_set, g.support, g.confidence)
            for g in topk.groups
        ]
        for topk in policy.lists
    ]


def _counters(stats: MinerStats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


class TestKernelsMatchReference:
    """Iterative kernels == recursive walkers, counter for counter."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flags", FLAG_COMBOS,
        ids=["".join("ft"[v] for v in combo.values()) for combo in FLAG_COMBOS],
    )
    def test_topk_flag_combos(self, engine, flags):
        for case in CASES:
            view = MiningView(case.dataset, case.consequent, case.minsup)

            reference_policy = TopkPolicy(view, case.k, **flags)
            reference_stats = _run_reference(view, reference_policy, engine)

            kernel_policy = TopkPolicy(view, case.k, **flags)
            kernel_stats = run_enumeration(view, kernel_policy, engine=engine)

            label = f"case {case.index} ({case.shape}), engine {engine}"
            assert _counters(kernel_stats) == _counters(reference_stats), label
            assert _snapshot(kernel_policy) == _snapshot(reference_policy), label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_farmer(self, engine):
        for case in CASES:
            view = MiningView(case.dataset, case.consequent, case.minsup)

            reference_policy = FarmerPolicy(view, minconf=0.5)
            reference_stats = _run_reference(view, reference_policy, engine)

            kernel_policy = FarmerPolicy(view, minconf=0.5)
            kernel_stats = run_enumeration(view, kernel_policy, engine=engine)

            label = f"case {case.index} ({case.shape}), engine {engine}"
            assert _counters(kernel_stats) == _counters(reference_stats), label
            assert [
                (g.antecedent, g.consequent, g.row_set, g.support, g.confidence)
                for g in kernel_policy.groups
            ] == [
                (g.antecedent, g.consequent, g.row_set, g.support, g.confidence)
                for g in reference_policy.groups
            ], label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_rows_sharding(self, engine):
        """The root-level `allowed` filter behaves identically (the
        contract the parallel shard workers rely on): filtered roots are
        skipped before being charged, deeper levels are never filtered."""
        case = CASES[0]
        view = MiningView(case.dataset, case.consequent, case.minsup)
        n_rows = view.n_rows
        if n_rows < 2:
            pytest.skip("case too small to shard")
        shard = mask_below((n_rows + 1) // 2)  # first half of the roots

        reference_policy = TopkPolicy(view, case.k)
        reference_stats = _run_reference(view, reference_policy, engine,
                                         first_rows=shard)

        kernel_policy = TopkPolicy(view, case.k)
        kernel_stats = run_enumeration(view, kernel_policy, engine=engine,
                                       first_rows=shard)

        assert _counters(kernel_stats) == _counters(reference_stats)
        assert _snapshot(kernel_policy) == _snapshot(reference_policy)


class TestKernelsAcrossBackends:
    """Engines × §4.1.1 flags × bitset backends: every backend must
    reproduce the ``int`` backend's groups *and* MinerStats exactly.

    The comparison is per engine across backends — engines legitimately
    differ from each other in counters (the tree engine only enumerates
    rows present in the prefix tree, so it visits fewer nodes), but a
    backend swap must be invisible: same nodes, same prunes, same
    groups, counter for counter.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flags", FLAG_COMBOS,
        ids=["".join("ft"[v] for v in combo.values()) for combo in FLAG_COMBOS],
    )
    def test_topk_backend_identity(self, engine, flags):
        alternates = [
            name for name in available_backends() if name != "int"
        ]
        assert alternates, "packed backend must always be registered"
        for case in CASES:
            view = MiningView(
                case.dataset, case.consequent, case.minsup, backend="int"
            )
            policy = TopkPolicy(view, case.k, **flags)
            stats = run_enumeration(view, policy, engine=engine)
            expected = (_counters(stats), _snapshot(policy))

            for backend in alternates:
                other_view = MiningView(
                    case.dataset, case.consequent, case.minsup,
                    backend=backend,
                )
                other_policy = TopkPolicy(other_view, case.k, **flags)
                other_stats = run_enumeration(
                    other_view, other_policy, engine=engine
                )
                label = (
                    f"case {case.index} ({case.shape}), engine {engine}, "
                    f"backend {backend}"
                )
                assert (
                    _counters(other_stats), _snapshot(other_policy)
                ) == expected, label


class TestSupportIndex:
    """The per-view SupportIndex must be pure memoization: shared across
    runs without leaking any run's pruning decisions into the next."""

    def test_repeat_runs_identical(self):
        case = CASES[1]
        view = MiningView(case.dataset, case.consequent, case.minsup)
        outcomes = []
        for _ in range(3):
            policy = TopkPolicy(view, case.k)
            stats = run_enumeration(view, policy, engine="bitset")
            outcomes.append((_counters(stats), _snapshot(policy)))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_cached_view_reused(self):
        case = CASES[1]
        first = MiningView.cached(case.dataset, case.consequent, case.minsup)
        second = MiningView.cached(case.dataset, case.consequent, case.minsup)
        assert first is second
        assert first.support_index() is second.support_index()

    def test_support_mass(self):
        case = CASES[1]
        view = MiningView(case.dataset, case.consequent, case.minsup)
        index = view.support_index()
        expected = sum(
            int.bit_count(view.item_rows[item]) for item in view.frequent_items
        )
        assert index.support_mass == expected


# ---------------------------------------------------------------------------
# Budgets under the bulk sibling-suffix skip
# ---------------------------------------------------------------------------
#
# The kernels charge a frame's trailing support-bound prunes in one
# ``_Budget.charge_nodes`` step; the reference walkers above charge one
# node at a time through ``_Budget.charge_node``.  A node budget, a
# cancel token or a deadline that trips inside a skipped suffix must
# leave exactly the partial stats and lists of the one-at-a-time walk.


def _tall_view() -> MiningView:
    """A 64-row tall cohort: hundreds of frames end in a run of
    support-bound prunes, and about half of those runs cross a poll."""
    dataset = generate_tall_cohort(
        dataclasses.replace(TALL_COHORTS["tall-1k"], n_rows=64, seed=1)
    )
    minsup = math.ceil(0.7 * dataset.class_counts()[1])
    return MiningView(dataset, 1, minsup)


TALL_VIEW = _tall_view()

POLICIES = {
    "topk": lambda view: TopkPolicy(view, 2),
    "farmer": lambda view: FarmerPolicy(view, minconf=0.5),
}


def _outcome(stats: MinerStats, policy) -> tuple:
    if isinstance(policy, TopkPolicy):
        groups = _snapshot(policy)
    else:
        groups = [(g.antecedent, g.row_set, g.support) for g in policy.groups]
    return _counters(stats), stats.completed, groups


def _skipped_suffixes(monkeypatch, view, policy_kind, engine,
                      first_rows=None) -> list[tuple[int, int]]:
    """``(nodes_visited before, n)`` of every bulk charge of a full run."""
    calls = []
    charge_nodes = _Budget.charge_nodes

    def recording(self, n):
        calls.append((self.stats.nodes_visited, n))
        return charge_nodes(self, n)

    with monkeypatch.context() as patch:
        patch.setattr(_Budget, "charge_nodes", recording)
        run_enumeration(view, POLICIES[policy_kind](view), engine=engine,
                        first_rows=first_rows)
    return calls


class _CancelAtPoll:
    """A token that reads as set from its ``poll``-th check on."""

    def __init__(self, poll: int) -> None:
        self.poll = poll
        self.checks = 0

    def is_set(self) -> bool:
        self.checks += 1
        return self.checks >= self.poll


class TestBudgetsUnderSiblingSkip:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("policy_kind", sorted(POLICIES))
    def test_node_budget_partial_stats_match(self, monkeypatch, engine,
                                             policy_kind):
        view = TALL_VIEW
        suffixes = _skipped_suffixes(monkeypatch, view, policy_kind, engine)
        long_runs = [(start, n) for start, n in suffixes if n >= 4]
        assert long_runs, "the cohort must exercise the sibling skip"
        first_start, first_n = long_runs[0]
        last_start, last_n = long_runs[-1]
        total = run_enumeration(
            view, POLICIES[policy_kind](view), engine=engine
        ).nodes_visited
        budgets = sorted({
            1, 2, POLL_STRIDE - 1, POLL_STRIDE, POLL_STRIDE + 1,
            first_start,                  # trips on the node that skips
            first_start + 1,              # trips on the suffix's first node
            first_start + first_n // 2,   # trips inside the suffix
            first_start + first_n - 1,    # trips on the suffix's last node
            first_start + first_n,        # the suffix fits exactly
            last_start + last_n // 2,
            total - 1, total, total + 1,
        })
        for node_budget in budgets:
            reference_policy = POLICIES[policy_kind](view)
            reference = _run_reference(view, reference_policy, engine,
                                       node_budget=node_budget)
            kernel_policy = POLICIES[policy_kind](view)
            kernel = _run_kernel(view, kernel_policy, engine,
                                 node_budget=node_budget)
            label = f"engine {engine}, node_budget {node_budget}"
            assert _outcome(kernel, kernel_policy) == _outcome(
                reference, reference_policy
            ), label
            assert kernel.completed == (node_budget >= total), label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cancel_at_a_poll_inside_a_suffix_matches(self, monkeypatch,
                                                      engine):
        view = TALL_VIEW
        suffixes = _skipped_suffixes(monkeypatch, view, "topk", engine)
        # Poll j runs at node j * POLL_STRIDE; keep the polls a skipped
        # suffix crosses, so the cancel lands inside one bulk charge.
        inside = sorted({
            crossing // POLL_STRIDE
            for start, n in suffixes
            for crossing in range(
                (start // POLL_STRIDE + 1) * POLL_STRIDE,
                start + n + 1,
                POLL_STRIDE,
            )
        })
        assert inside, "some suffix must cross a poll"
        for poll in [1, *inside[:3], inside[-1]]:
            reference_token = _CancelAtPoll(poll)
            reference_policy = TopkPolicy(view, 2)
            reference = _run_reference(view, reference_policy, engine,
                                       cancel=reference_token)
            kernel_token = _CancelAtPoll(poll)
            kernel_policy = TopkPolicy(view, 2)
            kernel = _run_kernel(view, kernel_policy, engine,
                                 cancel=kernel_token)
            label = f"engine {engine}, cancel at poll {poll}"
            assert kernel.nodes_visited == poll * POLL_STRIDE, label
            assert kernel_token.checks == reference_token.checks == poll
            assert _outcome(kernel, kernel_policy) == _outcome(
                reference, reference_policy
            ), label

    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_rows_sharding_matches(self, monkeypatch, engine):
        """Root-frame skips count only the rows of the shard."""
        view = TALL_VIEW
        n_rows = view.n_rows
        shards = {
            "first half": mask_below(n_rows // 2),
            "second half": mask_below(n_rows) & ~mask_below(n_rows // 2),
            "odd rows": sum(1 << row for row in range(1, n_rows, 2)),
        }
        for name, shard in shards.items():
            suffixes = _skipped_suffixes(monkeypatch, view, "topk", engine,
                                         first_rows=shard)
            start, n = max(suffixes, key=lambda call: call[1])
            for node_budget in (None, start + n // 2 + 1):
                reference_policy = TopkPolicy(view, 2)
                reference = _run_reference(view, reference_policy, engine,
                                           first_rows=shard,
                                           node_budget=node_budget)
                kernel_policy = TopkPolicy(view, 2)
                kernel = _run_kernel(view, kernel_policy, engine,
                                     first_rows=shard,
                                     node_budget=node_budget)
                label = f"engine {engine}, {name}, budget {node_budget}"
                assert _outcome(kernel, kernel_policy) == _outcome(
                    reference, reference_policy
                ), label


class TestChargeNodes:
    """``charge_nodes(n)`` == ``n`` x ``charge_node()``, raise for raise."""

    @staticmethod
    def _charge(bulk, start, n, node_budget, cancel_poll, expired):
        stats = MinerStats(nodes_visited=start)
        token = _CancelAtPoll(cancel_poll) if cancel_poll else None
        budget = _Budget(stats, node_budget, None, token)
        if expired:
            budget.deadline = float("-inf")
        error = None
        try:
            if bulk:
                budget.charge_nodes(n)
            else:
                for _ in range(n):
                    budget.charge_node()
        except MiningBudgetExceeded as overrun:
            error = str(overrun)
        return (error, stats.nodes_visited, stats.completed,
                token.checks if token else None)

    @given(
        start=st.integers(0, 300),
        n=st.integers(0, 300),
        headroom=st.one_of(st.none(), st.integers(0, 400)),
        cancel_poll=st.one_of(st.none(), st.integers(1, 8)),
        expired=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bulk_equals_one_at_a_time(self, start, n, headroom,
                                       cancel_poll, expired):
        node_budget = None if headroom is None else start + headroom
        args = (start, n, node_budget, cancel_poll, expired)
        assert self._charge(True, *args) == self._charge(False, *args)
