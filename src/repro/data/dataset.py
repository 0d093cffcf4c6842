"""Dataset containers for continuous and discretized gene expression data.

The paper's pipeline is: a continuous expression matrix (rows = clinical
samples, columns = genes) is discretized with the entropy-minimized MDL
partitioning, every resulting (gene, interval) pair becomes an *item*, and
the miners work on the itemized rows.  Two containers mirror that split:

* :class:`GeneExpressionDataset` — the raw continuous matrix plus labels.
* :class:`DiscretizedDataset` — rows as frozensets of item ids, a catalog
  mapping each item back to its gene and interval, and class metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..core.bitset import from_indices

__all__ = ["Item", "GeneExpressionDataset", "DiscretizedDataset"]


@dataclass(frozen=True)
class Item:
    """A discretized item: one expression interval of one gene.

    Attributes:
        item_id: dense integer id used by the miners.
        gene_index: column index of the gene in the continuous matrix.
        gene_name: accession-style name of the gene.
        low: inclusive lower edge of the interval (``-inf`` allowed).
        high: exclusive upper edge of the interval (``+inf`` allowed).
    """

    item_id: int
    gene_index: int
    gene_name: str
    low: float
    high: float

    def contains(self, value: float) -> bool:
        """Return True iff ``value`` falls in this interval."""
        return self.low <= value < self.high

    def label(self) -> str:
        """Paper-style rendering, e.g. ``X95735_at[-inf,994]``.

        An unbounded interval (a gene that was never cut) renders as the
        bare gene name.
        """
        if self.low == float("-inf") and self.high == float("inf"):
            return self.gene_name
        low = "-inf" if self.low == float("-inf") else f"{self.low:.4g}"
        high = "inf" if self.high == float("inf") else f"{self.high:.4g}"
        return f"{self.gene_name}[{low},{high}]"


class GeneExpressionDataset:
    """A continuous expression matrix with class labels.

    Args:
        values: float matrix of shape (n_samples, n_genes).
        labels: integer class label per sample.
        gene_names: one name per gene; synthesised if omitted.
        class_names: display names per class id; synthesised if omitted.
        name: optional dataset name for reports.
    """

    def __init__(
        self,
        values: np.ndarray,
        labels: Sequence[int],
        gene_names: Optional[Sequence[str]] = None,
        class_names: Optional[Sequence[str]] = None,
        name: str = "dataset",
    ) -> None:
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d matrix (samples x genes)")
        self.labels = np.asarray(labels, dtype=int)
        if self.labels.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"{self.labels.shape[0]} labels for {self.values.shape[0]} samples"
            )
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        n_genes = self.values.shape[1]
        if gene_names is None:
            gene_names = [f"G{i:05d}" for i in range(n_genes)]
        if len(gene_names) != n_genes:
            raise ValueError(f"{len(gene_names)} names for {n_genes} genes")
        self.gene_names = list(gene_names)
        n_classes = int(self.labels.max()) + 1 if self.labels.size else 0
        if class_names is None:
            class_names = [f"class{i}" for i in range(n_classes)]
        if len(class_names) < n_classes:
            raise ValueError("fewer class names than classes present")
        self.class_names = list(class_names)
        self.name = name

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_genes(self) -> int:
        return self.values.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> list[int]:
        """Number of samples per class id."""
        counts = [0] * self.n_classes
        for label in self.labels:
            counts[label] += 1
        return counts

    def select_genes(self, gene_indices: Sequence[int]) -> "GeneExpressionDataset":
        """Return a copy restricted to the given gene columns."""
        indices = list(gene_indices)
        return GeneExpressionDataset(
            self.values[:, indices],
            self.labels.copy(),
            [self.gene_names[i] for i in indices],
            list(self.class_names),
            name=self.name,
        )

    def subset(self, row_indices: Sequence[int]) -> "GeneExpressionDataset":
        """Return a copy restricted to the given sample rows."""
        indices = list(row_indices)
        return GeneExpressionDataset(
            self.values[indices],
            self.labels[indices],
            list(self.gene_names),
            list(self.class_names),
            name=self.name,
        )

    def __repr__(self) -> str:
        return (
            f"GeneExpressionDataset(name={self.name!r}, samples={self.n_samples}, "
            f"genes={self.n_genes}, classes={self.n_classes})"
        )


class DiscretizedDataset:
    """Itemized rows produced by discretization.

    Args:
        rows: one frozenset of item ids per sample.
        labels: integer class label per sample.
        items: catalog of :class:`Item`, indexed by item id.
        class_names: display names per class id.
        name: dataset name for reports.
    """

    def __init__(
        self,
        rows: Sequence[Iterable[int]],
        labels: Sequence[int],
        items: Sequence[Item],
        class_names: Optional[Sequence[str]] = None,
        name: str = "dataset",
    ) -> None:
        self.rows: list[frozenset[int]] = [frozenset(row) for row in rows]
        self.labels = list(int(label) for label in labels)
        if len(self.labels) != len(self.rows):
            raise ValueError(
                f"{len(self.labels)} labels for {len(self.rows)} rows"
            )
        self.items = list(items)
        for index, item in enumerate(self.items):
            if item.item_id != index:
                raise ValueError("item catalog must be dense and ordered by id")
        n_classes = (max(self.labels) + 1) if self.labels else 0
        if class_names is None:
            class_names = [f"class{i}" for i in range(n_classes)]
        if len(class_names) < n_classes:
            raise ValueError("fewer class names than classes present")
        self.class_names = list(class_names)
        self.name = name
        self._item_rows: Optional[list[int]] = None
        self._class_masks: Optional[list[int]] = None
        # MiningView.cached's slot: (consequent, minsup, backend) -> view.
        self._mining_views: dict = {}

    def __getstate__(self) -> dict:
        # Mining views are process-local derived state; a pickled dataset
        # (shipped to a pool worker) starts with an empty view cache.
        state = self.__dict__.copy()
        state["_mining_views"] = {}
        return state

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_genes(self) -> int:
        """Number of distinct genes represented in the item catalog."""
        return len({item.gene_index for item in self.items})

    def class_counts(self) -> list[int]:
        counts = [0] * self.n_classes
        for label in self.labels:
            counts[label] += 1
        return counts

    def item_row_sets(self) -> list[int]:
        """Bitset of rows containing each item (cached).

        ``item_row_sets()[j]`` is the item support set ``R({j})`` as a row
        bitset — the basic building block of every miner.
        """
        if self._item_rows is None:
            sets = [0] * self.n_items
            for row_index, row in enumerate(self.rows):
                mark = 1 << row_index
                for item in row:
                    sets[item] |= mark
            self._item_rows = sets
        return self._item_rows

    def class_mask(self, class_id: int) -> int:
        """Bitset of rows labelled ``class_id`` (cached)."""
        if self._class_masks is None:
            masks = [0] * self.n_classes
            for row_index, label in enumerate(self.labels):
                masks[label] |= 1 << row_index
            self._class_masks = masks
        return self._class_masks[class_id]

    def item_label(self, item_id: int) -> str:
        """Paper-style label of an item."""
        return self.items[item_id].label()

    def rows_of_class(self, class_id: int) -> list[int]:
        """Row indices labelled ``class_id``, in row order."""
        return [i for i, label in enumerate(self.labels) if label == class_id]

    def support_set(self, itemset: Iterable[int]) -> int:
        """``R(itemset)`` as a row bitset (empty itemset -> all rows)."""
        row_sets = self.item_row_sets()
        result = from_indices(range(self.n_rows))
        for item in itemset:
            result &= row_sets[item]
        return result

    def common_items(self, row_bits: int) -> frozenset[int]:
        """``I(row set)`` — the largest itemset shared by the given rows."""
        common: Optional[frozenset[int]] = None
        bits = row_bits
        while bits:
            low = bits & -bits
            row_index = low.bit_length() - 1
            bits ^= low
            row = self.rows[row_index]
            common = row if common is None else common & row
            if not common:
                return frozenset()
        return common if common is not None else frozenset()

    def subset(self, row_indices: Sequence[int]) -> "DiscretizedDataset":
        """Return a copy restricted to the given rows (same item catalog)."""
        indices = list(row_indices)
        return DiscretizedDataset(
            [self.rows[i] for i in indices],
            [self.labels[i] for i in indices],
            self.items,
            list(self.class_names),
            name=self.name,
        )

    def __repr__(self) -> str:
        return (
            f"DiscretizedDataset(name={self.name!r}, rows={self.n_rows}, "
            f"items={self.n_items}, genes={self.n_genes}, "
            f"classes={self.n_classes})"
        )
