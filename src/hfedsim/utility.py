"""Learning-utility metric over device gradients, plus PCA gradient compression.

A device's utility combines how well its latest gradient aligns with the
averaged gradient of the cohort (affinity) and how much it disagrees with the
other devices pairwise (diversity). Both terms are plain dot products, so the
whole computation reduces to one Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class GradientRecord:
    device_id: int
    vec: np.ndarray
    compressed: bool


@dataclass(frozen=True)
class UtilityRecord:
    device_id: int
    u: float
    eta: float  # affinity with the cohort-average gradient
    nu: float  # mean pairwise dissimilarity with the other devices


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray  # [d]
    components: np.ndarray  # [p, d], orthonormal rows

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    @property
    def full_dim(self) -> int:
        return self.components.shape[1]


def _stack(records: list[GradientRecord]) -> np.ndarray:
    if not records:
        raise ConfigurationError("need at least one gradient record")
    lengths = {len(r.vec) for r in records}
    if len(lengths) != 1:
        raise ConfigurationError(f"mixed gradient lengths: {sorted(lengths)}")
    flags = {r.compressed for r in records}
    if len(flags) != 1:
        raise ConfigurationError("mixed compressed/uncompressed gradient records")
    return np.stack([r.vec for r in records])


def global_gradient(records: list[GradientRecord]) -> np.ndarray:
    """Arithmetic mean of the latest per-device gradients."""
    return _stack(records).mean(axis=0)


def learning_utility(records: list[GradientRecord]) -> list[UtilityRecord]:
    """Per-device utility u = eta + nu.

    eta_i is the dot product of gradient i with the cohort mean gradient;
    nu_i is minus the average dot product with every other device's gradient.
    """
    if len(records) < 2:
        raise ConfigurationError("learning utility needs >= 2 devices")
    g = _stack(records)
    n = len(records)
    gram = g @ g.T
    row_sums = gram.sum(axis=1)
    eta = row_sums / n
    nu = -(row_sums - np.diag(gram)) / (n - 1)
    return [
        UtilityRecord(r.device_id, float(eta[i] + nu[i]), float(eta[i]), float(nu[i]))
        for i, r in enumerate(records)
    ]


def pca_fit(warmup_grads: list[np.ndarray], p: int) -> PcaModel:
    """Top-p principal directions of the warmup gradients.

    Components are ordered by descending singular value, with each row's sign
    fixed so its largest-magnitude entry is positive (reproducible traces).
    """
    if len(warmup_grads) < 2:
        raise ConfigurationError("PCA fit needs >= 2 gradient vectors")
    g = np.stack(warmup_grads)
    d = g.shape[1]
    if not 1 <= p <= min(len(warmup_grads), d):
        raise ConfigurationError(
            f"PCA dim {p} must be in [1, min(n_vectors={len(warmup_grads)}, d={d})]"
        )
    mean = g.mean(axis=0)
    _, _, vt = np.linalg.svd(g - mean, full_matrices=False)
    components = vt[:p].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1
    return PcaModel(mean=mean, components=components)


def pca_project(model: PcaModel, g: np.ndarray) -> np.ndarray:
    """Compress a full gradient to its principal-component coordinates."""
    if g.shape != model.mean.shape:
        raise ConfigurationError(
            f"gradient length {g.shape} does not match PCA dim {model.mean.shape}"
        )
    return model.components @ (g - model.mean)


def pca_reconstruct(model: PcaModel, coords: np.ndarray) -> np.ndarray:
    """Map component coordinates back to the full gradient space."""
    if coords.shape != (model.dim,):
        raise ConfigurationError("coordinate length does not match component count")
    return model.mean + model.components.T @ coords


def pca_bytes(model: PcaModel) -> int:
    """Wire size of the compressor: mean vector plus component matrix, f64 entries."""
    return 8 * (model.dim + 1) * model.full_dim
