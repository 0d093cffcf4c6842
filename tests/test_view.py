"""Tests for the MiningView preparation step."""

import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro.core.bitset import iter_indices, popcount, to_indices
from repro.core.view import MiningView
from repro.data.dataset import DiscretizedDataset
from repro.data.synthetic import random_discretized_dataset


class TestOrdering:
    def test_class_dominant_order(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        labels = [figure1.labels[row] for row in view.order]
        assert labels == [1, 1, 1, 0, 0]

    def test_positive_positions_are_low(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        assert view.n_positive == 3
        assert to_indices(view.positive_mask) == [0, 1, 2]

    def test_other_consequent_flips(self, figure1):
        view = MiningView(figure1, consequent=0, minsup=1)
        labels = [figure1.labels[row] for row in view.order]
        assert labels == [0, 0, 1, 1, 1]

    def test_rows_sorted_by_frequent_item_count(self):
        ds = random_discretized_dataset(12, 10, density=0.5, seed=3)
        view = MiningView(ds, consequent=1, minsup=2)
        lengths = [len(view.row_items[p]) for p in range(view.n_positive)]
        assert lengths == sorted(lengths)
        negative = [
            len(view.row_items[p])
            for p in range(view.n_positive, view.n_rows)
        ]
        assert negative == sorted(negative)

    def test_position_of_inverts_order(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        for position, row in enumerate(view.order):
            assert view.position_of[row] == position


class TestFrequentItems:
    def test_infrequent_items_removed(self, figure1):
        # With minsup=2 and consequent C, items f, g, h, o, p appear in
        # fewer than 2 class-C rows.
        view = MiningView(figure1, consequent=1, minsup=2)
        assert set(view.frequent_items) == {0, 1, 2, 3, 4}

    def test_minsup_one_keeps_all_class_items(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        # p appears only in r2 (class C) so it stays; h only in r5 (not C).
        assert 9 in view.frequent_items
        assert 7 not in view.frequent_items

    def test_row_items_restricted(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        for items in view.row_items:
            assert items <= set(view.frequent_items)

    def test_item_rows_match_dataset(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        for item in view.frequent_items:
            positions = set(iter_indices(view.item_rows[item]))
            rows = {view.order[p] for p in positions}
            expected = {
                r for r, row in enumerate(figure1.rows) if item in row
            }
            assert rows == expected


class TestValidation:
    def test_minsup_zero_rejected(self, figure1):
        with pytest.raises(ValueError, match="minsup"):
            MiningView(figure1, consequent=1, minsup=0)

    def test_bad_consequent_rejected(self, figure1):
        with pytest.raises(ValueError, match="consequent"):
            MiningView(figure1, consequent=5, minsup=1)


class TestClosures:
    def test_closure_rows_roundtrip(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        for item in view.frequent_items:
            rows = view.closure_rows([item])
            assert rows == view.item_rows[item]

    def test_closed_items_of_closure(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        # cde in item ids is {2, 3, 4}; its support set closes to itself.
        rows = view.closure_rows([2, 3, 4])
        assert view.closed_items(rows) >= {2, 3, 4}

    def test_positions_to_rows(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        bits = view.positions_to_rows(0b101)
        rows = to_indices(bits)
        assert rows == sorted(view.order[p] for p in (0, 2))

    def test_positive_count(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=1)
        assert view.positive_count(view.positive_mask) == 3
        assert view.positive_count(0) == 0


class TestSingleItemGroups:
    def test_groups_keyed_by_support_set(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        groups = view.single_item_groups()
        for row_bits, items in groups.items():
            for item in items:
                assert view.item_rows[item] == row_bits

    def test_items_with_same_support_share_group(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        groups = view.single_item_groups()
        # a and b always co-occur in Figure 1 (rows r1, r2).
        shared = [items for items in groups.values() if 0 in items]
        assert shared and 1 in shared[0]

    def test_all_frequent_items_covered(self, figure1):
        view = MiningView(figure1, consequent=1, minsup=2)
        groups = view.single_item_groups()
        covered = {item for items in groups.values() for item in items}
        assert covered == set(view.frequent_items)


def _live_datasets() -> int:
    return sum(
        isinstance(obj, DiscretizedDataset) for obj in gc.get_objects()
    )


class TestCachedViewLifetime:
    """``MiningView.cached`` views live on their dataset and die with it."""

    @pytest.mark.parametrize("mine", ["topk", "farmer", "hybrid"])
    def test_mined_dataset_is_collected(self, mine):
        from repro.baselines.farmer import mine_farmer
        from repro.core.hybrid import mine_topk_hybrid
        from repro.core.topk_miner import mine_topk

        miners = {
            "topk": lambda ds: mine_topk(ds, 1, 2, k=2),
            "farmer": lambda ds: mine_farmer(ds, 1, 2),
            "hybrid": lambda ds: mine_topk_hybrid(ds, 1, 2, k=2),
        }
        gc.collect()
        before = _live_datasets()
        ds = random_discretized_dataset(24, 12, density=0.5, seed=4)
        miners[mine](ds)
        ref = weakref.ref(ds)
        del ds
        gc.collect()
        assert ref() is None
        # Hybrid mines build a dataset per partition; none may outlive
        # the mine either.
        assert _live_datasets() == before

    def test_concurrent_misses_share_one_view(self):
        ds = random_discretized_dataset(40, 20, density=0.5, seed=6)
        views = []
        barrier = threading.Barrier(8)

        def build():
            barrier.wait(timeout=10)
            views.append(MiningView.cached(ds, 1, 2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(views) == 8
        assert all(view is views[0] for view in views)
        assert list(ds._mining_views.values()) == [views[0]]

    def test_pickled_dataset_carries_no_views(self):
        ds = random_discretized_dataset(12, 10, density=0.5, seed=3)
        view = MiningView.cached(ds, 1, 2)
        clone = pickle.loads(pickle.dumps(ds))
        assert clone._mining_views == {}
        assert MiningView.cached(clone, 1, 2) is not view
        assert MiningView.cached(ds, 1, 2) is view
