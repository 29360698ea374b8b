"""Non-iid synthetic shard generation, refresh, and the dataset file.

Devices hold samples from a small subset of classes (label skew). Classes are
Gaussian clusters around unit-sphere centroids, so the global problem stays
learnable by the small models while per-device distributions differ sharply.
The centroids are the generator's only state: a device's classes, and how
many samples it holds of each, are its shard's labels, and a refresh redraws
the features around the centroids of those labels.

A dataset file (`save_dataset`, `load_shards`) is one JSON object:

    {"num_classes": 3, "input_dim": 2,
     "devices": [{"features": [[0.1, -0.4], ...], "labels": [0, ...]}, ...],
     "test": {"features": [...], "labels": [...]}}

`devices` holds one shard per device, in device order, and `test` the global
test set, shaped as a device's shard. The file holds only what a run reads:
a loaded dataset has no generator `centroids`, so it cannot refresh its
shards. The loader ignores any other key, such as the per-device class lists
that older files carry. Floats are written with `repr`, so a saved dataset
loads bit for bit. The loader reads the file as `network.load_topology`
reads a topology: `read_json` opens it, every number
goes through `integer_field` or `float_field` named by its JSON path, and an
error names the file and the field or shard it was raised at
(`devices[1].labels[2] must be an integer (2.5)`, `test.features[7][0] must
be a finite number (nan)`, `devices[0]: shard needs >= 1 sample ...`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError, DatasetFormatError, check_count, float_field, integer_field, read_json,
)
from .learning import Shard

TEST_SAMPLES_PER_CLASS = 100


@dataclass(frozen=True)
class DataSpec:
    num_devices: int
    num_classes: int
    classes_per_device: int = 2
    samples_per_device: int = 100
    input_dim: int = 2
    cluster_spread: float = 0.3
    refresh: bool = False

    def __post_init__(self):
        for name in (
            "num_devices", "num_classes", "classes_per_device", "samples_per_device", "input_dim"
        ):
            check_count(getattr(self, name), name)
        if self.classes_per_device > self.num_classes:
            raise ConfigurationError("classes_per_device must be in [1, num_classes]")
        # Chained, so that NaN fails it as inf does.
        if not 0 < self.cluster_spread < np.inf:
            raise ConfigurationError("cluster_spread must be finite and > 0")


@dataclass
class FederatedDataset:
    shards: list[Shard]
    test: Shard
    # The generator's state, the class centroids; a device's classes are its
    # shard's labels. None for datasets loaded from disk, which cannot refresh.
    centroids: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_devices(self) -> int:
        return len(self.shards)


def _draw_samples(rng, labels: np.ndarray, spread: float, centroids: np.ndarray) -> Shard:
    """One sample around the centroid of each of `labels`, in order.

    One normal draw covers every sample: the generator's stream is sequential,
    so it yields the same numbers as one draw per class, and each entry is the
    same `centroid + spread * z` sum. The draw is scaled and shifted in place.
    """
    feats = rng.standard_normal((len(labels), centroids.shape[1]))
    feats *= spread
    feats += centroids.take(labels, axis=0)
    return Shard(feats, labels)


def gen_synthetic(spec: DataSpec, seed: int) -> FederatedDataset:
    """Generate per-device label-skewed shards plus a class-balanced global test set."""
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    k, dim, spread = spec.num_classes, spec.input_dim, spec.cluster_spread

    centroids = rng.standard_normal((k, dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    # A device's samples split as evenly as possible over its classes, in class order.
    base, extra = divmod(spec.samples_per_device, spec.classes_per_device)
    counts = [base + (j < extra) for j in range(spec.classes_per_device)]
    shards = []
    for _ in range(spec.num_devices):
        classes = np.sort(rng.choice(k, spec.classes_per_device, replace=False))
        shards.append(_draw_samples(rng, np.repeat(classes, counts), spread, centroids))

    test_labels = np.repeat(np.arange(k), TEST_SAMPLES_PER_CLASS)
    return FederatedDataset(shards, _draw_samples(rng, test_labels, spread, centroids), centroids)


def refresh_shard(
    shard: Shard, spread: float, rng: np.random.Generator, centroids: np.ndarray | None
) -> Shard:
    """`shard` with fresh features drawn from `rng` around the centroids of its labels.

    The new shard keeps `shard`'s labels array. The caller decides when a
    shard refreshes, and seeds `rng`: the simulator sets it to the device
    round's refresh stream (`streams.RoundStreams`). `DataSpec.refresh` is
    not read here.
    """
    if centroids is None:
        raise ConfigurationError("refresh requires generator centroids (synthetic data)")
    return _draw_samples(rng, shard.labels, spread, centroids)


def save_dataset(ds: FederatedDataset, path: str | Path) -> None:
    """Write `ds` to `path` as one JSON document (see the module docstring)."""

    def shard_to_json(shard: Shard) -> dict:
        return {"features": shard.features.tolist(), "labels": shard.labels.tolist()}

    doc = {
        "num_classes": int(ds.test.labels.max()) + 1,
        "input_dim": ds.test.features.shape[1],
        "devices": [shard_to_json(s) for s in ds.shards],
        "test": shard_to_json(ds.test),
    }
    Path(path).write_text(json.dumps(doc))


def _shard_from_json(doc: dict, where: str, dim: int, num_classes: int) -> Shard:
    """The shard at JSON path `where`, each of its numbers read and checked by its path."""
    feats = []
    for r, row in enumerate(doc["features"]):
        if len(row) != dim:
            raise DatasetFormatError(f"{where}.features[{r}] must hold {dim} numbers ({row!r})")
        feats.append([float_field(v, f"{where}.features[{r}][{c}]") for c, v in enumerate(row)])
    labels = [integer_field(v, f"{where}.labels[{k}]") for k, v in enumerate(doc["labels"])]
    for k, label in enumerate(labels):
        if not 0 <= label < num_classes:
            raise DatasetFormatError(f"{where}.labels[{k}] must be in [0, {num_classes}) ({label})")
    # Shard rejects an empty shard and a label count that differs from the rows'.
    features = np.array(feats, dtype=np.float64).reshape(len(feats), dim)
    return Shard(features, np.array(labels, dtype=np.int64))


def load_shards(path: str | Path) -> FederatedDataset:
    """The dataset in the JSON file at `path`, as `save_dataset` writes it.

    Every error is a `DatasetFormatError` that names the file, and the field
    or shard it was raised at (see the module docstring).
    """
    p = Path(path)
    doc = read_json(p)
    where = ""  # the shard or section being read, which a message raised there names
    try:
        dim = integer_field(doc["input_dim"], "input_dim")
        num_classes = integer_field(doc["num_classes"], "num_classes")
        devices, test = doc["devices"], doc["test"]
        if not isinstance(devices, list) or not devices:
            raise DatasetFormatError(f"devices must be a non-empty list ({devices!r})")
        shards = []
        for k, entry in enumerate(devices):
            where = f"devices[{k}]: "
            shards.append(_shard_from_json(entry, f"devices[{k}]", dim, num_classes))
        where = "test: "
        test = _shard_from_json(test, "test", dim, num_classes)
        if len(set(test.labels.tolist())) != num_classes:
            raise DatasetFormatError("test set must cover all classes")
        return FederatedDataset(shards, test)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{p.name}: {exc}") from exc
    except KeyError as exc:
        raise DatasetFormatError(f"{p.name}: {where}missing field {exc}") from exc
    except (ConfigurationError, TypeError) as exc:
        raise DatasetFormatError(f"{p.name}: {where}{exc}") from exc
