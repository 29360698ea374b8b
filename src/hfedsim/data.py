"""Non-iid synthetic shard generation, refresh, and shard file I/O.

Devices hold samples from a small subset of classes (label skew). Classes are
Gaussian clusters around unit-sphere centroids, so the global problem stays
learnable by the small models while per-device distributions differ sharply.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DatasetFormatError, integer_field, read_json
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
        if self.num_devices < 1:
            raise ConfigurationError("num_devices must be >= 1")
        if not 1 <= self.classes_per_device <= self.num_classes:
            raise ConfigurationError(
                "classes_per_device must be in [1, num_classes]"
            )
        if self.samples_per_device < 1 or self.input_dim < 1:
            raise ConfigurationError("samples_per_device and input_dim must be >= 1")
        if self.cluster_spread <= 0:
            raise ConfigurationError("cluster_spread must be > 0")


@dataclass
class FederatedDataset:
    shards: list[Shard]
    test: Shard
    class_map: list[list[int]]
    # Class centroids used by the generator; None for datasets loaded from disk
    # (refresh is only possible when these are known).
    centroids: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_devices(self) -> int:
        return len(self.shards)


def _draw_samples(rng, classes, counts, spread: float, centroids: np.ndarray) -> Shard:
    """`counts[k]` samples around centroid `classes[k]`, in class order.

    One normal draw covers every class: the generator's stream is sequential,
    so it yields the same numbers as one draw per class, and each entry is the
    same `centroid + spread * z` sum. The draw is scaled and shifted in place.
    """
    labels = np.repeat(np.asarray(classes, dtype=np.int64), counts)
    feats = rng.standard_normal((len(labels), centroids.shape[1]))
    feats *= spread
    feats += centroids[labels]
    return Shard(feats, labels)


def _draw_shard(rng, classes, spec: DataSpec, centroids: np.ndarray) -> Shard:
    """One device's shard: its samples split as evenly as possible over its classes, in order."""
    base, extra = divmod(spec.samples_per_device, spec.classes_per_device)
    counts = [base + (1 if k < extra else 0) for k in range(spec.classes_per_device)]
    return _draw_samples(
        rng, classes[: spec.classes_per_device], counts, spec.cluster_spread, centroids
    )


def gen_synthetic(spec: DataSpec, seed: int) -> FederatedDataset:
    """Generate per-device label-skewed shards plus a class-balanced global test set."""
    rng = np.random.default_rng(seed)
    k, dim = spec.num_classes, spec.input_dim

    centroids = rng.standard_normal((k, dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    shards, class_map = [], []
    for _ in range(spec.num_devices):
        classes = sorted(int(c) for c in rng.choice(k, spec.classes_per_device, replace=False))
        shards.append(_draw_shard(rng, classes, spec, centroids))
        class_map.append(classes)

    test = _draw_samples(rng, range(k), TEST_SAMPLES_PER_CLASS, spec.cluster_spread, centroids)

    return FederatedDataset(shards, test, class_map, centroids)


def refresh_shard(
    class_map_entry: list[int],
    spec: DataSpec,
    round_seed: int,
    centroids: np.ndarray | None,
) -> Shard:
    """Redraw a shard from its device's class distribution.

    The caller decides when a shard refreshes; `spec.refresh` is not read here.
    """
    if centroids is None:
        raise ConfigurationError("refresh requires generator centroids (synthetic data)")
    return _draw_shard(np.random.default_rng(round_seed), class_map_entry, spec, centroids)


def save_dataset(ds: FederatedDataset, out_dir: str | Path) -> Path:
    """Write one CSV per device plus test.csv and a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = ds.test.features.shape[1]
    num_classes = int(ds.test.labels.max()) + 1

    def write_shard(name: str, shard: Shard):
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"f{j}" for j in range(dim)] + ["label"])
            for row, lab in zip(shard.features, shard.labels):
                w.writerow([repr(float(v)) for v in row] + [int(lab)])

    device_files = []
    for i, shard in enumerate(ds.shards):
        name = f"device_{i}.csv"
        write_shard(name, shard)
        device_files.append(name)
    write_shard("test.csv", ds.test)

    manifest = {
        "num_classes": num_classes,
        "input_dim": dim,
        "devices": device_files,
        "test": "test.csv",
        "class_map": ds.class_map,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def _read_shard_file(path: Path, dim: int, num_classes: int) -> Shard:
    if not path.is_file():
        raise DatasetFormatError(f"{path.name}: shard file not found")
    feats, labels = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != dim + 1 or header[-1] != "label":
            raise DatasetFormatError(f"{path.name}: bad or missing header")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise DatasetFormatError(
                    f"{path.name} line {lineno}: expected {dim + 1} fields, got {len(row)}"
                )
            try:
                feats.append([float(v) for v in row[:-1]])
                label = int(row[-1])
            except ValueError as exc:
                raise DatasetFormatError(f"{path.name} line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, feats[-1])):
                raise DatasetFormatError(f"{path.name} line {lineno}: non-finite feature")
            if not 0 <= label < num_classes:
                raise DatasetFormatError(
                    f"{path.name} line {lineno}: label {label} outside [0, {num_classes})"
                )
            labels.append(label)
    if not feats:
        raise DatasetFormatError(f"{path.name}: shard has no samples")
    return Shard(np.asarray(feats, dtype=np.float64), np.asarray(labels, dtype=np.int64))


def load_shards(path: str | Path) -> FederatedDataset:
    """Load a dataset from a manifest file (or a directory containing manifest.json)."""
    p = Path(path)
    if p.is_dir():
        p = p / "manifest.json"
    manifest = read_json(p)

    for key in ("num_classes", "input_dim", "devices", "test"):
        if key not in manifest:
            raise DatasetFormatError(f"{p.name}: missing field {key!r}")
    devices = manifest["devices"]
    if not isinstance(devices, list):
        raise DatasetFormatError(f"{p.name}: devices must be a list of file names ({devices!r})")
    if not devices:
        raise DatasetFormatError(f"{p.name}: at least one device required")
    files = [(f"devices[{k}]", name) for k, name in enumerate(devices)]
    for where, name in [*files, ("test", manifest["test"])]:
        if not isinstance(name, str):
            raise DatasetFormatError(f"{p.name}: {where} must be a file name ({name!r})")

    dim = integer_field(manifest["input_dim"], f"{p.name}: input_dim")
    num_classes = integer_field(manifest["num_classes"], f"{p.name}: num_classes")
    base = p.parent
    shards = [_read_shard_file(base / name, dim, num_classes) for name in devices]
    test = _read_shard_file(base / manifest["test"], dim, num_classes)

    if len(set(test.labels.tolist())) != num_classes:
        raise DatasetFormatError(f"{p.name}: test set must cover all classes")

    class_map = manifest.get("class_map")
    if class_map is None:
        class_map = [sorted(set(s.labels.tolist())) for s in shards]
    else:
        try:
            class_map = [
                [integer_field(c, f"{p.name}: class_map[{i}][{k}]") for k, c in enumerate(entry)]
                for i, entry in enumerate(class_map)
            ]
        except TypeError as exc:
            raise DatasetFormatError(f"{p.name}: class_map must list integers ({exc})") from exc
        if len(class_map) != len(shards):
            raise DatasetFormatError(
                f"{p.name}: class_map has {len(class_map)} entries for {len(shards)} devices"
            )
        for i, (shard, allowed) in enumerate(zip(shards, class_map)):
            extra = set(shard.labels.tolist()) - set(allowed)
            if extra:
                raise DatasetFormatError(
                    f"{p.name}: device {i} ({devices[i]}): labels {sorted(extra)} not in class_map"
                )
    return FederatedDataset(shards, test, class_map, centroids=None)
