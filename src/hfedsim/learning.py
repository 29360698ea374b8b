"""Small trainable models, the regularized local objective, local SGD, evaluation.

Model parameters are flat float64 vectors of length ``arch.param_count``;
every function here is pure and deterministic given its inputs and seed.

There is one SGD loop, `local_train_cohort`. It trains K devices in lockstep,
holding their parameters as one [K, param_count] array: each step gathers a
[K, b, d] stack of batches, every device in its own seeded order, and runs the
forward and backward passes as stacked matmuls. np.matmul runs one gemm per
slice and every other operation acts on each slice alone, so each row is
bit-identical to training that device by itself. `local_train` is the K = 1
case plus the full-shard gradient at the final point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericDivergenceError

MODEL_KINDS = ("logistic", "mlp")


@dataclass(frozen=True)
class ModelArch:
    """Architecture descriptor: logistic regression or a 1-hidden-layer tanh MLP."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ConfigurationError("input_dim must be >= 1 and num_classes >= 2")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ConfigurationError("mlp requires hidden_dim >= 1")

    @property
    def layers(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer; each layer holds fan_in*fan_out weights + fan_out biases."""
        if self.kind == "logistic":
            return [(self.input_dim, self.num_classes)]
        return [(self.input_dim, self.hidden_dim), (self.hidden_dim, self.num_classes)]

    @property
    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layers)


@dataclass(frozen=True)
class Shard:
    """One device's local dataset: feature matrix [n, input_dim] and int labels [n]."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ConfigurationError("features must be [n, d], labels must be [n]")
        if len(self.features) != len(self.labels) or len(self.labels) == 0:
            raise ConfigurationError("shard needs >= 1 sample with matching labels")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TrainConfig:
    gamma: float  # learning rate
    rho: float  # proximal weight toward the downloaded anchor model
    epochs: int  # local passes per round
    batch_size: int

    def __post_init__(self):
        if self.gamma < 0 or self.rho < 0:
            raise ConfigurationError("gamma and rho must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")


def init_params(arch: ModelArch, seed: int) -> np.ndarray:
    """Glorot-uniform init: each layer drawn from U(-a, a), a = sqrt(6/(fan_in+fan_out))."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in arch.layers:
        a = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-a, a, size=fan_in * fan_out + fan_out))
    return np.concatenate(chunks)


def unpack(arch: ModelArch, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W [..., fan_in, fan_out], b [..., 1, fan_out]) views of params [..., P].

    A flat vector gives one model's layers; a [K, P] stack gives K models' layers.
    """
    if params.ndim > 2 or params.shape[-1:] != (arch.param_count,):
        raise ConfigurationError(
            f"expected {arch.param_count} parameters per model, got shape {params.shape}"
        )
    lead = params.shape[:-1]
    out = []
    pos = 0
    for fan_in, fan_out in arch.layers:
        w = params[..., pos : pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        pos += fan_in * fan_out
        b = params[..., None, pos : pos + fan_out]
        pos += fan_out
        out.append((w, b))
    return out


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]], arch: ModelArch, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Logits [K, b, C] of K models, each on its own batch x [K, b, d]; and the
    tanh hidden layer (None for logistic). ``layers`` come from `unpack` of a [K, P] stack.
    """
    if x.shape[-1] != arch.input_dim:
        raise ConfigurationError(
            f"features have dim {x.shape[-1]}, arch expects {arch.input_dim}"
        )
    if arch.kind == "logistic":
        (w, b), = layers
        return x @ w + b, None
    (w1, b1), (w2, b2) = layers
    h = np.tanh(x @ w1 + b1)
    return h @ w2 + b2, h


def _softmax_terms(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted logits, their exponentials, and the sums of those over classes."""
    shifted = logits - logits.max(axis=2, keepdims=True)
    probs = np.exp(shifted)
    return shifted, probs, probs.sum(axis=2)


def _mean_nll(shifted: np.ndarray, norm: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy [K] of each model on its labels y [K, b]."""
    k, n = y.shape
    return (np.log(norm) - shifted[np.arange(k)[:, None], np.arange(n), y]).mean(axis=1)


def _loss_grad_stacked(
    layers: list[tuple[np.ndarray, np.ndarray]],
    arch: ModelArch,
    x: np.ndarray,
    y: np.ndarray,
    with_loss: bool = False,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Mean cross-entropy and its gradient for K models, each on its own batch.

    ``layers`` come from `unpack` of a [K, P] stack; x is [K, b, d] and y is
    [K, b]. Every operation acts on each [b, ...] slice alone (np.matmul runs
    one gemm per slice), so row k is bit-identical to the same model on the
    same batch computed with K = 1. Returns (loss [K] or None, grad [K, P]).
    """
    k, n = y.shape
    logits, h = _forward(layers, arch, x)
    shifted, probs, norm = _softmax_terms(logits)
    loss = _mean_nll(shifted, norm, y) if with_loss else None

    dlogits = probs / norm[:, :, None]
    dlogits[np.arange(k)[:, None], np.arange(n), y] -= 1.0
    dlogits /= n

    xt = x.transpose(0, 2, 1)
    if arch.kind == "logistic":
        parts = (xt @ dlogits, dlogits.sum(axis=1))
    else:
        w2 = layers[1][0]
        dh = (dlogits @ w2.transpose(0, 2, 1)) * (1.0 - h * h)
        parts = (xt @ dh, dh.sum(axis=1), h.transpose(0, 2, 1) @ dlogits, dlogits.sum(axis=1))
    return loss, np.concatenate([p.reshape(k, -1) for p in parts], axis=1)


def loss_and_grad(
    params: np.ndarray, arch: ModelArch, batch: Shard
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its analytic gradient."""
    loss, grad = _loss_grad_stacked(
        unpack(arch, params[None]), arch,
        batch.features[None], batch.labels[None], with_loss=True,
    )
    return float(loss[0]), grad[0]


def grad_regularized(
    params: np.ndarray,
    anchor: np.ndarray,
    arch: ModelArch,
    batch: Shard,
    rho: float,
) -> np.ndarray:
    """Gradient of the proximal local objective: grad(loss) + rho * (params - anchor)."""
    if params.shape != anchor.shape:
        raise ConfigurationError("params and anchor lengths differ")
    _, grad = loss_and_grad(params, arch, batch)
    if rho != 0.0:
        grad = grad + rho * (params - anchor)
    return grad


def _batches(rngs: list[np.random.Generator], n: int, batch_size: int) -> list[np.ndarray]:
    """One epoch of batch indices [K, b]: row k is a seeded permutation from rngs[k],
    cut into batches and sorted within each batch.

    Sorting inside a batch keeps summation order independent of the shuffle, so
    a full-batch step is bit-identical to an unshuffled gradient step.
    """
    perms = np.stack([rng.permutation(n) for rng in rngs])
    return [np.sort(perms[:, k : k + batch_size], axis=1) for k in range(0, n, batch_size)]


def local_train_cohort(
    start: np.ndarray,
    anchor: np.ndarray,
    arch: ModelArch,
    shards: list[Shard],
    cfg: TrainConfig,
    seeds: list[int],
) -> np.ndarray:
    """Run ``cfg.epochs`` of mini-batch SGD for K devices in lockstep.

    Row k starts from ``start``, is anchored at ``anchor``, trains on
    ``shards[k]`` and draws its batch order from ``seeds[k]``. All shards hold
    the same number of samples, so every step moves all K rows at once. Returns
    the final parameters [K, P]; row k is bit-identical to training device k
    alone.

    A row that diverges keeps running: the update never turns a non-finite
    weight finite again, so `raise_if_diverged` on a final row tells whether
    that device diverged at any step.
    """
    if start.shape != anchor.shape:
        raise ConfigurationError("start and anchor lengths differ")
    if not shards or len(shards) != len(seeds):
        raise ConfigurationError("need one seed per shard and at least one shard")
    n = shards[0].n
    for shard in shards:
        if shard.n != n:
            raise ConfigurationError("cohort shards must hold the same number of samples")
        if shard.features.shape[1] != arch.input_dim:
            raise ConfigurationError("shard input_dim does not match architecture")
    k = len(shards)
    rows = np.arange(k)[:, None]
    features = np.stack([s.features for s in shards])
    labels = np.stack([s.labels for s in shards])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    params = np.repeat(start[None, :], k, axis=0)
    layers = unpack(arch, params)  # views: they follow the in-place updates
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            for idx in _batches(rngs, n, cfg.batch_size):
                _, grad = _loss_grad_stacked(layers, arch, features[rows, idx], labels[rows, idx])
                if cfg.rho != 0.0:
                    grad += cfg.rho * (params - anchor)
                params -= cfg.gamma * grad
    return params


def raise_if_diverged(params: np.ndarray, device_id: int | None = None) -> None:
    """Raise NumericDivergenceError if a trained parameter vector is not all finite."""
    if not np.isfinite(params).all():
        who = "device" if device_id is None else f"device {device_id}"
        raise NumericDivergenceError(f"non-finite weights while training {who}")


def local_train(
    start: np.ndarray,
    anchor: np.ndarray,
    arch: ModelArch,
    shard: Shard,
    cfg: TrainConfig,
    seed: int,
    device_id: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``cfg.epochs`` of mini-batch SGD on the anchored objective for one device.

    Returns the final parameter vector and the full-shard gradient of the
    anchored objective at that final point (the gradient reported upstream).
    """
    params = local_train_cohort(start, anchor, arch, [shard], cfg, [seed])[0]
    raise_if_diverged(params, device_id)
    return params, grad_regularized(params, anchor, arch, shard, cfg.rho)


def evaluate(params: np.ndarray, arch: ModelArch, test: Shard) -> tuple[float, float]:
    """Accuracy (argmax-correct fraction) and mean cross-entropy on a test shard.

    The forward pass and the loss are `loss_and_grad`'s at K = 1, without the gradient.
    """
    logits, _ = _forward(unpack(arch, params[None]), arch, test.features[None])
    shifted, _, norm = _softmax_terms(logits)
    acc = float((logits[0].argmax(axis=1) == test.labels).mean())
    return acc, float(_mean_nll(shifted, norm, test.labels[None])[0])
