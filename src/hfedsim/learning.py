"""Small trainable models, the regularized local objective, local SGD, evaluation.

Model parameters are flat float64 vectors of length ``arch.param_count``;
every function here is deterministic given its inputs. `init_params` draws
from its seed, and `local_train` draws each device's batch orders from a
generator it is passed and advances, the one input a function here changes.

There is one SGD entry point, `local_train`. It trains K devices in lockstep,
holding their parameters as one [K, param_count] array: row k has its own start
(given as a [K, param_count] stack), which is also its proximal anchor, so one
block can mix devices sent different models. Each step takes a [K, b, d] stack
of batches, every device in the order its own generator drew, and runs the
forward and backward passes as stacked matmuls. np.matmul runs one gemm per
slice and every other operation acts on each slice alone, so each row is
bit-identical to training that device by itself. One device alone is the K = 1 call, with
``start[None]``; `raise_if_diverged` checks a trained row (and the simulator's
aggregates). `grad_regularized` is stacked the same way: for a block of
trained rows it gives the full-shard gradient each device reports, anchored at
the start it trained from, each row bit-identical to its own K = 1 call.

Four things keep a step lean without changing a bit of it. Each epoch sorts
its shuffled order within every batch with one sort, and a step gathers its
batch with one flat `take` each from the block's [K·n, d] features and its
[K·n, C] one-hot labels, both stacked once per call: the batch holds the same
values in the same [b, d] layout as a batch gathered alone, so every gemm
sees the same operands. The softmax takes its max over classes from a
class-major copy of the logits, one pass per class across every row; a max is
exact in any order. The softmax
gradient subtracts the gathered one-hot instead of subtracting 1.0 at each
label: x - 0.0 is x, so only the label's entry moves, by the same 1.0. And
the gradient is written through `unpack` views into one [K, P] buffer that
lives for the whole call, in place of a concatenation per step: a gemm or a
sum computes the same values wherever its output lies. The one stacked
gradient function, `_grad_stacked`, serves the training step and
`grad_regularized`, and both stack their shards with `_stack_shards`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericDivergenceError, check_count

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
        check_count(self.input_dim, "input_dim")
        check_count(self.num_classes, "num_classes", 2)
        check_count(self.hidden_dim, "hidden_dim", 1 if self.kind == "mlp" else 0)
        if self.kind == "logistic" and self.hidden_dim:
            # A logistic model has no hidden layer, so the value would go unused.
            raise ConfigurationError(f"a logistic model needs hidden_dim 0 ({self.hidden_dim!r})")

    @property
    def layers(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer; each layer holds fan_in*fan_out weights + fan_out biases."""
        if self.kind == "logistic":
            return [(self.input_dim, self.num_classes)]
        return [(self.input_dim, self.hidden_dim), (self.hidden_dim, self.num_classes)]

    @property
    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layers)


@dataclass(frozen=True, eq=False)
class Shard:
    """One device's local dataset: feature matrix [n, input_dim] and int labels [n]."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ConfigurationError("features must be [n, d], labels must be [n]")
        if len(self.features) != len(self.labels) or len(self.labels) == 0:
            raise ConfigurationError("shard needs >= 1 sample with matching labels")
        # Labels index the one-hot rows and the centroids: a float label fails
        # that mid-run, and a bool one reads as a mask. Kinds "i" and "u" are
        # numpy's signed and unsigned integers; a bool is kind "b".
        if self.labels.dtype.kind not in "iu":
            raise ConfigurationError(f"labels must be integers (dtype {self.labels.dtype})")

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
        # Chained comparisons, so that NaN fails them as inf does.
        if not (0 <= self.gamma < math.inf and 0 <= self.rho < math.inf):
            raise ConfigurationError("gamma and rho must be >= 0 and finite")
        check_count(self.epochs, "epochs")
        check_count(self.batch_size, "batch_size")


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
        return _affine(x, w, b), None
    (w1, b1), (w2, b2) = layers
    h = _affine(x, w1, b1)
    np.tanh(h, out=h)
    return _affine(h, w2, b2), h


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, adding the bias in place."""
    out = x @ w
    out += b
    return out


def _softmax_terms(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted logits, their exponentials, and the sums of those over classes.

    The shift is made in place: the shifted logits are ``logits`` itself. Its
    max over classes reduces a class-major copy across rows, one pass per
    class, where a reduce along the short class axis runs one loop per row; a
    max is exact in any order, so the shift is the same.
    """
    c = logits.shape[-1]
    shift = np.maximum.reduce(logits.reshape(-1, c).T.copy(), axis=0)
    logits -= shift.reshape(*logits.shape[:-1], 1)
    probs = np.exp(logits)
    return logits, probs, np.add.reduce(probs, axis=2)


def _mean_nll(shifted: np.ndarray, norm: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy [K] of each model on its labels y [K, b]."""
    k, n = y.shape
    return (np.log(norm) - shifted[np.arange(k)[:, None], np.arange(n), y]).mean(axis=1)


def _grad_stacked(
    layers: list[tuple[np.ndarray, np.ndarray]],
    arch: ModelArch,
    x: np.ndarray,
    onehot: np.ndarray,
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Gradient of the mean cross-entropy of K models, each on its own batch.

    ``layers`` and ``grad_layers`` come from `unpack` of two [K, P] stacks, the
    parameters and a gradient buffer; x is [K, b, d] and onehot [K, b, C], the
    batch's labels one-hot. The gradient is written into ``grad_layers``, which
    cover every entry of the buffer. Every operation acts on each [b, ...]
    slice alone (np.matmul runs one gemm per slice), so row k is bit-identical
    to the same model on the same batch computed with K = 1.
    """
    logits, h = _forward(layers, arch, x)
    _, dlogits, norm = _softmax_terms(logits)
    dlogits /= norm[:, :, None]
    dlogits -= onehot  # x - 0.0 is x: only the label's entry moves, by exactly 1.0
    dlogits /= x.shape[1]
    if arch.kind == "logistic":
        deltas = [(x, dlogits)]
    else:
        dh = dlogits @ layers[1][0].transpose(0, 2, 1)
        slope = h * h
        np.subtract(1.0, slope, out=slope)
        dh *= slope
        deltas = [(x, dh), (h, dlogits)]
    for (inputs, delta), (gw, gb) in zip(deltas, grad_layers):
        np.matmul(inputs.transpose(0, 2, 1), delta, out=gw)
        np.add.reduce(delta, axis=1, keepdims=True, out=gb)


def _stack_shards(arch: ModelArch, shards: list[Shard]) -> tuple[np.ndarray, np.ndarray]:
    """Features [K·n, d] and integer labels [K·n] of K shards of one size, shard
    after shard: sample i of shard k is row k·n + i."""
    for shard in shards:
        if shard.n != shards[0].n:
            raise ConfigurationError("cohort shards must hold the same number of samples")
        if shard.features.shape[1] != arch.input_dim:
            raise ConfigurationError("shard input_dim does not match architecture")
    return np.concatenate([s.features for s in shards]), np.concatenate([s.labels for s in shards])


def grad_regularized(
    params: np.ndarray,
    anchors: np.ndarray,
    arch: ModelArch,
    shards: list[Shard],
    rho: float,
) -> np.ndarray:
    """Full-shard gradients [K, P] of K proximal local objectives, one per row:
    grad(loss of params[k] on shards[k]) + rho * (params[k] - anchors[k]).

    ``params`` and ``anchors`` are [K, P] and the shards hold the same number
    of samples. As in `local_train`, every operation acts on each row's
    slice alone, so row k is bit-identical to the K = 1 call on its own row.
    A non-finite row gives a non-finite gradient row and no warning.
    """
    k = len(shards)
    if not shards or params.shape != (k, arch.param_count) or anchors.shape != params.shape:
        raise ConfigurationError(f"params and anchors must be [{k}, {arch.param_count}]")
    features, labels = _stack_shards(arch, shards)
    x = features.reshape(k, -1, arch.input_dim)
    onehots = np.eye(arch.num_classes).take(labels.reshape(k, -1), axis=0)
    grad = np.empty_like(params)
    with np.errstate(over="ignore", invalid="ignore"):
        _grad_stacked(unpack(arch, params), arch, x, onehots, unpack(arch, grad))
        if rho != 0.0:
            pull = params - anchors
            pull *= rho
            grad += pull
    return grad


def local_train(
    start: np.ndarray,
    arch: ModelArch,
    shards: list[Shard],
    cfg: TrainConfig,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Run ``cfg.epochs`` of mini-batch SGD for K devices in lockstep.

    ``start`` is [K, P]: row k starts from ``start[k]``, is anchored there
    (the proximal term pulls it back toward its own start), trains on
    ``shards[k]`` and draws its batch order from ``rngs[k]``. All shards hold
    the same number of samples, so every step moves all K rows at once.
    Returns the final parameters [K, P], a new array; row k is bit-identical to
    training device k alone, i.e. to the K = 1 call on ``start[k][None]`` with
    ``[rngs[k]]``, and leaves ``rngs[k]`` in the state that call leaves it. The
    simulator sets each generator to its device round's stream
    (`streams.RoundStreams`) just before the call.

    Each epoch draws a permutation per device and sorts it within each batch
    of ``cfg.batch_size`` consecutive entries, with one sort for the whole
    epoch. Sorting inside a batch keeps summation order independent of the
    shuffle, so a full-batch step is bit-identical to an unshuffled gradient
    step. The sorted order, offset by k·n in row k, indexes the block's
    stacked rows: a step gathers its batch's features with one flat `take`,
    and its one-hot labels with one more from a [K·n, C] table of every
    stacked row's one-hot label, built once per call. These are the same
    values in the same [b, d] layout as a batch gathered alone, so each gemm
    sees the same operands.
    (A gather of the whole epoch at once is a fresh [K, n, d] block each
    epoch, whose new pages cost more than the step's small takes.) The step
    subtracts the one-hot where it used to subtract 1.0 at each label; x - 0.0
    is x, so no other entry moves. It writes its gradient through `unpack`
    views into one [K, P] buffer, and the update computes its terms in a
    second one: a gemm, a sum or a product gives the same values wherever its
    output lies.

    A row that diverges keeps running: the update never turns a non-finite
    weight finite again, so `raise_if_diverged` on a final row tells whether
    that device diverged at any step.
    """
    k = len(shards)
    if not shards or k != len(rngs):
        raise ConfigurationError("need one generator per shard and at least one shard")
    if start.shape != (k, arch.param_count):
        raise ConfigurationError(f"start must be [{k}, {arch.param_count}]")
    features, labels = _stack_shards(arch, shards)
    n, b = shards[0].n, cfg.batch_size
    # Entry p of an epoch's order is keyed by its sample plus n·(p // b): batch
    # j's keys fill [j·n, (j+1)·n), so one sort of a row sorts each batch in
    # place. Subtracting that again and adding k·n gives stacked row numbers.
    samples = np.arange(n)
    batch_keys = samples // b * n
    to_rows = np.arange(k)[:, None] * n - batch_keys
    order = np.empty((k, n), dtype=samples.dtype)
    onehots = np.eye(arch.num_classes).take(labels, axis=0)  # stacked row r's one-hot label
    params = start.copy()
    grad, step = np.empty_like(params), np.empty_like(params)
    # Views: they follow the in-place updates of params and grad.
    layers, grad_layers = unpack(arch, params), unpack(arch, grad)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            # Shuffling a row of 0..n-1 draws what rng.permutation(n) draws.
            order[:] = samples
            for rng, row in zip(rngs, order):
                rng.shuffle(row)
            order += batch_keys
            order.sort(axis=1)
            order += to_rows
            for s in range(0, n, b):
                rows = order[:, s : s + b]
                onehot = onehots.take(rows, axis=0)
                _grad_stacked(layers, arch, features.take(rows, axis=0), onehot, grad_layers)
                if cfg.rho != 0.0:
                    np.subtract(params, start, out=step)
                    step *= cfg.rho
                    grad += step
                np.multiply(grad, cfg.gamma, out=step)
                params -= step
    return params


def raise_if_diverged(params: np.ndarray, where: str) -> None:
    """Raise NumericDivergenceError if `params` is not all finite; `where` names the step
    that made them, e.g. "while training device 3" or "after aggregation at cloud"."""
    if not np.isfinite(params).all():
        raise NumericDivergenceError(f"non-finite parameters {where}")


def evaluate(params: np.ndarray, arch: ModelArch, test: Shard) -> tuple[float, float]:
    """Accuracy (argmax-correct fraction) and mean cross-entropy on a test shard.

    The forward pass and the softmax are the training step's at K = 1.
    """
    logits, _ = _forward(unpack(arch, params[None]), arch, test.features[None])
    acc = float((logits[0].argmax(axis=1) == test.labels).mean())
    shifted, _, norm = _softmax_terms(logits)
    return acc, float(_mean_nll(shifted, norm, test.labels[None])[0])
