"""Dataset serialization and the named benchmark registry.

Two concerns live here:

* plain-text persistence of continuous and discretized datasets (TSV and a
  small JSON sidecar), so workloads can be inspected, versioned, and
  shared between processes;
* :func:`load_benchmark`, the one-call entry point used by the examples,
  experiments and benchmarks: it generates the requested paper-shaped
  dataset, runs the entropy-MDL discretization (with an on-disk cut cache,
  since discretizing 15k genes is the slow step), and returns everything
  bundled in a :class:`Benchmark`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset import DiscretizedDataset, GeneExpressionDataset, Item
from .discretize import EntropyDiscretizer
from .synthetic import PAPER_DATASETS, DatasetSpec, generate_dataset

__all__ = [
    "save_expression",
    "load_expression",
    "save_discretized",
    "load_discretized",
    "discretized_to_payload",
    "discretized_from_payload",
    "Benchmark",
    "load_benchmark",
    "default_cache_dir",
]


def save_expression(dataset: GeneExpressionDataset, path: str | Path) -> None:
    """Write a continuous dataset as TSV (one sample per line).

    The first column is the class *name*; remaining columns are expression
    values in gene order.  A JSON header line carries names and metadata.
    """
    path = Path(path)
    header = {
        "name": dataset.name,
        "gene_names": dataset.gene_names,
        "class_names": dataset.class_names,
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write("#" + json.dumps(header) + "\n")
        for row, label in zip(dataset.values, dataset.labels):
            cells = "\t".join(f"{value:.6g}" for value in row)
            handle.write(f"{dataset.class_names[label]}\t{cells}\n")


def load_expression(path: str | Path) -> GeneExpressionDataset:
    """Read a dataset written by :func:`save_expression`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing JSON header line")
        header = json.loads(first[1:])
        class_ids = {name: i for i, name in enumerate(header["class_names"])}
        labels: list[int] = []
        values: list[list[float]] = []
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            labels.append(class_ids[cells[0]])
            values.append([float(cell) for cell in cells[1:]])
    return GeneExpressionDataset(
        np.array(values, dtype=float),
        labels,
        header["gene_names"],
        header["class_names"],
        name=header.get("name", path.stem),
    )


def discretized_to_payload(dataset: DiscretizedDataset) -> dict:
    """JSON-safe payload of a discretized dataset.

    The same structure :func:`save_discretized` writes to disk; the
    service's ``/mine`` endpoint accepts it as a request body.
    """
    return {
        "name": dataset.name,
        "class_names": list(dataset.class_names),
        "labels": list(dataset.labels),
        "rows": [sorted(row) for row in dataset.rows],
        "items": [
            {
                "item_id": item.item_id,
                "gene_index": item.gene_index,
                "gene_name": item.gene_name,
                "low": None if item.low == float("-inf") else item.low,
                "high": None if item.high == float("inf") else item.high,
            }
            for item in dataset.items
        ],
    }


def discretized_from_payload(payload: dict) -> DiscretizedDataset:
    """Rebuild a dataset from a :func:`discretized_to_payload` payload.

    Raises:
        ValueError: a row carries an item id that is not a JSON integer
            (bools included) in ``[0, len(items))``.  Mining sizes its
            per-item tables by the largest id, so an unchecked id would
            fail deep inside a mine or allocate a table of that length.
    """
    items = [
        Item(
            entry["item_id"],
            entry["gene_index"],
            entry["gene_name"],
            float("-inf") if entry["low"] is None else entry["low"],
            float("inf") if entry["high"] is None else entry["high"],
        )
        for entry in payload["items"]
    ]
    n_items = len(items)
    for index, row in enumerate(payload["rows"]):
        for item_id in row:
            if type(item_id) is not int or not 0 <= item_id < n_items:
                raise ValueError(
                    f"row {index}: item id {item_id!r} is not an integer "
                    f"in [0, {n_items})"
                )
    return DiscretizedDataset(
        payload["rows"],
        payload["labels"],
        items,
        class_names=payload["class_names"],
        name=payload.get("name", "dataset"),
    )


def save_discretized(dataset: DiscretizedDataset, path: str | Path) -> None:
    """Write a discretized dataset as JSON."""
    payload = discretized_to_payload(dataset)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_discretized(path: str | Path) -> DiscretizedDataset:
    """Read a dataset written by :func:`save_discretized`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    dataset = discretized_from_payload(payload)
    if "name" not in payload:
        dataset.name = Path(path).stem
    return dataset


def default_cache_dir() -> Path:
    """Directory for cached discretization cuts (overridable via env)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro-topkrgs"


@dataclass
class Benchmark:
    """A fully prepared workload: raw splits plus their discretized forms."""

    spec: DatasetSpec
    train: GeneExpressionDataset
    test: GeneExpressionDataset
    discretizer: EntropyDiscretizer
    train_items: DiscretizedDataset
    test_items: DiscretizedDataset

    @property
    def name(self) -> str:
        return self.spec.name


def load_benchmark(
    name: str,
    scale: float = 1.0,
    cache_dir: Optional[str | Path] = None,
    use_cache: bool = True,
) -> Benchmark:
    """Generate, discretize and bundle a paper-shaped dataset.

    Args:
        name: dataset code (``ALL``, ``LC``, ``OC``, ``PC``).
        scale: gene-count scale factor (1.0 = Table 1 shape).
        cache_dir: where to cache MDL cuts; defaults to
            :func:`default_cache_dir`.
        use_cache: disable to force re-discretization.
    """
    try:
        spec = PAPER_DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(PAPER_DATASETS))
        raise KeyError(f"unknown dataset {name!r}; expected one of: {known}")
    if scale != 1.0:
        spec = spec.scaled(scale)
    train, test = generate_dataset(spec)

    discretizer = EntropyDiscretizer()
    cache_path: Optional[Path] = None
    if use_cache:
        directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        cache_path = directory / f"{spec.name}_s{scale:g}_seed{spec.seed}.cuts.json"
    if cache_path is not None and cache_path.exists():
        cuts = json.loads(cache_path.read_text(encoding="utf-8"))
        discretizer = EntropyDiscretizer.from_cuts(
            {int(g): c for g, c in cuts.items()},
            train.gene_names,
            train.class_names,
        )
    else:
        discretizer.fit(train)
        if cache_path is not None:
            cache_path.write_text(
                json.dumps({str(g): c for g, c in discretizer.cuts_.items()}),
                encoding="utf-8",
            )
    return Benchmark(
        spec=spec,
        train=train,
        test=test,
        discretizer=discretizer,
        train_items=discretizer.transform(train),
        test_items=discretizer.transform(test),
    )
