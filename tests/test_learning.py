import numpy as np
import pytest

from hfedsim.errors import ConfigurationError, NumericDivergenceError
from hfedsim.learning import (
    ModelArch,
    Shard,
    TrainConfig,
    _softmax_terms,
    evaluate,
    grad_regularized,
    init_params,
    local_train,
    raise_if_diverged,
)


def random_instance(rng, kind=None):
    """Random (arch, params, shard) triple with small dimensions."""
    kind = kind or rng.choice(["logistic", "mlp"])
    input_dim, num_classes = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    hidden_dim = int(rng.integers(2, 5))  # drawn for both kinds, so the stream is the same
    arch = ModelArch(kind, input_dim, num_classes, hidden_dim if kind == "mlp" else 0)
    params = rng.normal(0, 0.8, arch.param_count)
    n = int(rng.integers(1, 8))
    shard = Shard(
        rng.normal(0, 1, (n, arch.input_dim)),
        rng.integers(0, arch.num_classes, n),
    )
    return arch, params, shard


def fd_grad(f, params, h=1e-5):
    """Central finite differences of a scalar function, componentwise."""
    g = np.zeros_like(params)
    for k in range(len(params)):
        ek = np.zeros_like(params)
        ek[k] = h
        g[k] = (f(params + ek) - f(params - ek)) / (2 * h)
    return g


def plain_grad(params, arch, shard):
    """Gradient of one model's mean cross-entropy on a shard: the K = 1 call at rho = 0."""
    return grad_regularized(params[None], params[None], arch, [shard], 0.0)[0]


def mean_loss(params, arch, shard):
    """One model's mean cross-entropy on a shard."""
    return evaluate(params, arch, shard)[1]


def assert_grad_close(analytic, numeric, rel=1e-4):
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < rel


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TrainConfig(0.1, 0.1, 2.5, 8), r"^epochs must be an integer >= 1 \(2\.5\)$"),
        (lambda: TrainConfig(0.1, 0.1, 2, True), r"^batch_size must be an integer >= 1 \(True\)$"),
        (lambda: ModelArch("mlp", 3.5, 4, 2), r"^input_dim must be an integer >= 1 \(3\.5\)$"),
        (lambda: ModelArch("logistic", 3, 4.0), r"^num_classes must be an integer >= 2 \(4\.0\)$"),
        (lambda: ModelArch("mlp", 3, 4, 2.5), r"^hidden_dim must be an integer >= 1 \(2\.5\)$"),
        (lambda: ModelArch("logistic", 3, 4, 5), r"^a logistic model needs hidden_dim 0 \(5\)$"),
    ],
    ids=["epochs-fraction", "batch_size-bool", "input_dim-fraction", "num_classes-float",
         "hidden_dim-fraction", "logistic-hidden_dim"],
)
def test_records_refuse_a_count_that_is_not_an_integer(build, message):
    with pytest.raises(ConfigurationError, match=message):
        build()


class TestInitParams:
    def test_deterministic(self):
        arch = ModelArch("logistic", input_dim=2, num_classes=2)
        a = init_params(arch, seed=7)
        b = init_params(arch, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, init_params(arch, seed=8))

    def test_param_count_mlp(self):
        arch = ModelArch("mlp", input_dim=4, num_classes=2, hidden_dim=3)
        assert arch.param_count == 4 * 3 + 3 + 3 * 2 + 2 == 23
        assert init_params(arch, 0).shape == (23,)

    def test_bounded_and_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            arch, _, _ = random_instance(rng)
            p = init_params(arch, int(rng.integers(0, 1000)))
            assert np.isfinite(p).all()
            a_max = max(np.sqrt(6.0 / (fi + fo)) for fi, fo in arch.layers)
            assert np.abs(p).max() <= a_max


class TestLossAndGrad:
    """The loss `evaluate` reports and the gradient `grad_regularized` gives at rho = 0."""

    def test_zero_weights_uniform_softmax(self):
        arch = ModelArch("logistic", input_dim=3, num_classes=2)
        shard = Shard(np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]]), np.array([0, 1]))
        loss = mean_loss(np.zeros(arch.param_count), arch, shard)
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            arch, params, shard = random_instance(rng)
            grad = plain_grad(params, arch, shard)
            num = fd_grad(lambda p: mean_loss(p, arch, shard), params)
            assert_grad_close(grad, num)

    def test_duplication_invariant(self):
        rng = np.random.default_rng(3)
        arch, params, shard = random_instance(rng)
        doubled = Shard(
            np.concatenate([shard.features, shard.features]),
            np.concatenate([shard.labels, shard.labels]),
        )
        assert mean_loss(params, arch, shard) == pytest.approx(
            mean_loss(params, arch, doubled), rel=1e-12
        )
        np.testing.assert_allclose(
            plain_grad(params, arch, shard), plain_grad(params, arch, doubled),
            rtol=1e-12, atol=1e-15,
        )

    def test_dimension_mismatch(self):
        arch = ModelArch("logistic", input_dim=3, num_classes=2)
        shard = Shard(np.zeros((2, 4)), np.array([0, 1]))
        with pytest.raises(ConfigurationError):
            plain_grad(np.zeros(arch.param_count), arch, shard)
        with pytest.raises(ConfigurationError):
            mean_loss(np.zeros(arch.param_count), arch, shard)


class TestGradRegularized:
    """The stacked reported gradient: [K, P] params and anchors, one shard per row."""

    def test_anchor_identity(self):
        rng = np.random.default_rng(5)
        arch, params, shard = random_instance(rng)
        plain = plain_grad(params, arch, shard)
        reg = grad_regularized(params[None], params[None].copy(), arch, [shard], rho=0.7)
        np.testing.assert_array_equal(reg[0], plain)

    def test_rho_zero_identity(self):
        rng = np.random.default_rng(6)
        arch, params, shard = random_instance(rng)
        plain = plain_grad(params, arch, shard)
        reg = grad_regularized(params[None], params[None] + 1.0, arch, [shard], rho=0.0)
        np.testing.assert_array_equal(reg[0], plain)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            arch, params, shard = random_instance(rng)
            anchor = params + rng.normal(0, 0.5, params.shape)
            rho = float(rng.uniform(0.01, 2.0))

            def objective(p):
                return mean_loss(p, arch, shard) + 0.5 * rho * np.sum((p - anchor) ** 2)

            grad = grad_regularized(params[None], anchor[None], arch, [shard], rho)[0]
            assert_grad_close(grad, fd_grad(objective, params))

    def test_length_mismatch(self):
        arch = ModelArch("logistic", input_dim=2, num_classes=2)
        shard = Shard(np.zeros((1, 2)), np.array([0]))
        p = arch.param_count
        for params, anchors, shards in [
            (np.zeros((1, p)), np.zeros((1, p + 1)), [shard]),  # anchor length
            (np.zeros(p), np.zeros(p), [shard]),  # one flat vector
            (np.zeros((2, p)), np.zeros((2, p)), [shard]),  # two rows, one shard
        ]:
            with pytest.raises(ConfigurationError, match=r"must be \["):
                grad_regularized(params, anchors, arch, shards, 0.1)

    def test_unequal_shard_sizes_rejected(self):
        arch = ModelArch("logistic", input_dim=2, num_classes=2)
        shards = [
            Shard(np.zeros((2, 2)), np.array([0, 1])), Shard(np.zeros((1, 2)), np.array([0]))
        ]
        with pytest.raises(ConfigurationError, match="same number of samples"):
            grad_regularized(np.zeros((2, 6)), np.zeros((2, 6)), arch, shards, 0.1)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("k", [1, 2, 9, 17])
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_rows_match_their_own_call(self, kind, k, rho):
        # Every row has its own params, anchor and shard, as in a training block
        # of flights sent different gateway models. Each equals the K = 1 call
        # on its own row, which equals the reference gradient plus the proximal pull.
        rng = np.random.default_rng(300 + k)
        arch = ModelArch(kind, input_dim=4, num_classes=3, hidden_dim=5 if kind == "mlp" else 0)
        n = 13
        shards = [Shard(rng.normal(0, 1, (n, 4)), rng.integers(0, 3, n)) for _ in range(k)]
        params = rng.normal(0, 0.8, (k, arch.param_count))
        anchors = params + rng.normal(0, 0.5, params.shape)
        assert len({a.tobytes() for a in anchors}) == k
        grads = grad_regularized(params, anchors, arch, shards, rho)
        assert grads.shape == (k, arch.param_count)
        for r in range(k):
            alone = grad_regularized(params[r][None], anchors[r][None], arch, [shards[r]], rho)
            assert np.array_equal(grads[r], alone[0])
            plain = reference_grad(params[r], arch, shards[r].features, shards[r].labels)
            expected = plain + rho * (params[r] - anchors[r]) if rho != 0.0 else plain
            assert np.array_equal(grads[r], expected)

    def test_non_finite_row_warns_nothing_and_spares_the_others(self):
        # A diverged row reaches the gradient pass before its upload raises;
        # with warnings as errors, the pass itself must stay silent.
        rng = np.random.default_rng(8)
        arch = ModelArch("mlp", input_dim=3, num_classes=2, hidden_dim=4)
        shards = [Shard(rng.normal(0, 1, (6, 3)), rng.integers(0, 2, 6)) for _ in range(3)]
        params = rng.normal(0, 0.8, (3, arch.param_count))
        params[1, :4] = [np.inf, -np.inf, np.nan, 1e308]
        grads = grad_regularized(params, params + 1.0, arch, shards, 0.5)
        assert not np.isfinite(grads[1]).all()
        for r in (0, 2):
            row = params[r][None]
            alone = grad_regularized(row, row + 1.0, arch, [shards[r]], 0.5)
            assert np.array_equal(grads[r], alone[0])


class TestLocalTrain:
    """One device trained alone: a cohort of K = 1."""

    def _setup(self, seed=0, n=12):
        rng = np.random.default_rng(seed)
        arch = ModelArch("mlp", input_dim=3, num_classes=2, hidden_dim=4)
        shard = Shard(rng.normal(0, 1, (n, 3)), rng.integers(0, 2, n))
        start = init_params(arch, seed)
        return arch, shard, start

    def test_zero_lr_is_identity(self):
        arch, shard, start = self._setup()
        cfg = TrainConfig(gamma=0.0, rho=0.1, epochs=3, batch_size=4)
        final = local_train(start[None], arch, [shard], cfg, _rngs([1]))[0]
        np.testing.assert_array_equal(final, start)

    def test_two_full_batch_steps(self):
        # The proximal term is zero at the start and pulls back toward it in
        # the second step.
        arch, shard, start = self._setup(seed=2)
        cfg = TrainConfig(gamma=0.05, rho=0.2, epochs=2, batch_size=shard.n)
        final = local_train(start[None], arch, [shard], cfg, _rngs([9]))[0]
        first = start - 0.05 * grad_regularized(start[None], start[None], arch, [shard], 0.2)[0]
        assert not np.array_equal(first, start)
        expected = first - 0.05 * grad_regularized(first[None], start[None], arch, [shard], 0.2)[0]
        np.testing.assert_array_equal(final, expected)

    def test_loss_improves_on_separable_shard(self):
        rng = np.random.default_rng(11)
        arch = ModelArch("logistic", input_dim=2, num_classes=2)
        n = 40
        labels = rng.integers(0, 2, n)
        centers = np.where(labels[:, None] == 0, -2.0, 2.0)
        shard = Shard(centers + rng.normal(0, 0.3, (n, 2)), labels)
        start = init_params(arch, 1)
        cfg = TrainConfig(gamma=0.2, rho=0.0, epochs=5, batch_size=8)
        final = local_train(start[None], arch, [shard], cfg, _rngs([3]))[0]
        assert mean_loss(final, arch, shard) < mean_loss(start, arch, shard)

    def test_deterministic(self):
        arch, shard, start = self._setup(seed=4)
        cfg = TrainConfig(gamma=0.1, rho=0.1, epochs=2, batch_size=5)
        a = local_train(start[None], arch, [shard], cfg, _rngs([5]))[0]
        b = local_train(start[None], arch, [shard], cfg, _rngs([5]))[0]
        assert np.array_equal(a, b)
        reported = grad_regularized(a[None], start[None], arch, [shard], cfg.rho)
        again = grad_regularized(b[None], start[None], arch, [shard], cfg.rho)
        assert np.array_equal(reported, again)

    def test_divergence_names_device(self):
        arch, shard, start = self._setup(seed=6)
        cfg = TrainConfig(gamma=1e12, rho=1.0, epochs=30, batch_size=4)
        final = local_train(start[None], arch, [shard], cfg, _rngs([0]))[0]
        with pytest.raises(NumericDivergenceError, match="device 17"):
            raise_if_diverged(final, "while training device 17")


class TestEvaluate:
    def test_constant_predictor_accuracy(self):
        arch = ModelArch("logistic", input_dim=2, num_classes=2)
        feats = np.random.default_rng(0).normal(0, 1, (40, 2))
        labels = np.array([0, 1] * 20)
        acc, loss = evaluate(np.zeros(arch.param_count), arch, Shard(feats, labels))
        assert acc == 0.5
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_pure(self):
        rng = np.random.default_rng(8)
        arch, params, shard = random_instance(rng)
        assert evaluate(params, arch, shard) == evaluate(params, arch, shard)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_matches_2d_log_softmax_bit_for_bit(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(200):
            arch, params, _ = random_instance(rng, kind)
            n = int(rng.integers(1, 300))
            test = Shard(
                rng.normal(0, 3, (n, arch.input_dim)), rng.integers(0, arch.num_classes, n)
            )
            acc, loss = evaluate(params, arch, test)
            assert (acc, loss) == reference_evaluate(params, arch, test)

    def test_uniform_loss_many_classes(self):
        k = 7
        arch = ModelArch("mlp", input_dim=3, num_classes=k, hidden_dim=2)
        shard = Shard(np.random.default_rng(1).normal(0, 1, (10, 3)),
                      np.arange(10) % k)
        _, loss = evaluate(np.zeros(arch.param_count), arch, shard)
        assert loss == pytest.approx(np.log(k), abs=1e-12)


@pytest.mark.parametrize("shape", [(1, 1, 2), (3, 7, 10), (16, 16, 10), (2, 5, 3)])
def test_softmax_shift_is_the_max_over_classes(shape):
    # The class-major max gives the shift a reduce along the class axis gives,
    # on rows that hold NaN, +-inf, all -inf and tied maxima too.
    rng = np.random.default_rng(sum(shape))
    logits = rng.normal(0, 3, shape)
    rows = logits.reshape(-1, shape[-1])
    specials = [np.nan, np.inf, -np.inf]
    for r in range(len(rows)):
        kind = r % 6
        if kind < 3:
            rows[r, rng.integers(shape[-1])] = specials[kind]
        elif kind == 3:
            rows[r] = -np.inf
        elif kind == 4:
            rows[r] = rows[r, rng.integers(shape[-1])]  # every entry ties
        else:
            rows[r, rng.integers(shape[-1])] = rows[r].max()  # the max ties, or is doubled
    with np.errstate(invalid="ignore"):
        expected = logits - np.maximum.reduce(logits, axis=2, keepdims=True)
        shifted, probs, norm = _softmax_terms(logits.copy())
    assert np.array_equal(shifted, expected, equal_nan=True)
    assert np.array_equal(probs, np.exp(expected), equal_nan=True)
    assert np.array_equal(norm, np.add.reduce(np.exp(expected), axis=2), equal_nan=True)


def reference_forward(params, arch, x):
    """2-D forward pass of one model: (logits, hidden layer or None, output weights)."""
    bounds = np.cumsum([fi * fo + fo for fi, fo in arch.layers])[:-1]
    layers = [
        (c[: fi * fo].reshape(fi, fo), c[fi * fo :])
        for c, (fi, fo) in zip(np.split(params, bounds), arch.layers)
    ]
    if arch.kind == "logistic":
        (w, b), = layers
        return x @ w + b, None, w
    (w1, b1), (w2, b2) = layers
    h = np.tanh(x @ w1 + b1)
    return h @ w2 + b2, h, w2


def reference_evaluate(params, arch, test):
    """Accuracy and loss through a 2-D log-softmax: the path `evaluate` replaced."""
    logits, _, _ = reference_forward(params, arch, test.features)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    acc = float((logits.argmax(axis=1) == test.labels).mean())
    return acc, float(-logp[np.arange(test.n), test.labels].mean())


def reference_grad(params, arch, x, y):
    """Gradient of one model's mean cross-entropy on the batch (x, y), with 2-D arrays only."""
    logits, h, w2 = reference_forward(params, arch, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    dlogits = probs / probs.sum(axis=1)[:, None]
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    if arch.kind == "logistic":
        return np.concatenate([(x.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    dh = (dlogits @ w2.T) * (1.0 - h * h)
    return np.concatenate([
        (x.T @ dh).ravel(), dh.sum(axis=0), (h.T @ dlogits).ravel(), dlogits.sum(axis=0),
    ])


def reference_sgd(start, anchor, arch, shard, cfg, seed):
    """One device's SGD with 2-D arrays only: the unbatched loop the cohort trainer replaces."""
    rng = np.random.default_rng(seed)
    params = start.copy()
    for _ in range(cfg.epochs):
        perm = rng.permutation(shard.n)
        for k in range(0, shard.n, cfg.batch_size):
            idx = np.sort(perm[k : k + cfg.batch_size])
            grad = reference_grad(params, arch, shard.features[idx], shard.labels[idx])
            if cfg.rho != 0.0:
                grad += cfg.rho * (params - anchor)
            params -= cfg.gamma * grad
    return params


class TestLocalTrainCohort:
    """Each row of the lockstep trainer equals that device trained alone, bit for bit."""

    def _cohort(self, kind, k, n, seed=0):
        rng = np.random.default_rng(seed)
        arch = ModelArch(kind, input_dim=4, num_classes=3, hidden_dim=5 if kind == "mlp" else 0)
        shards = [
            Shard(rng.normal(0, 1, (n, 4)), rng.integers(0, 3, n)) for _ in range(k)
        ]
        seeds = [int(s) for s in rng.integers(0, 2**32, k)]
        return arch, shards, seeds, init_params(arch, seed)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("k", [1, 2, 8, 9, 20])
    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(gamma=0.1, rho=0.0, epochs=2, batch_size=5),
            TrainConfig(gamma=0.1, rho=0.3, epochs=2, batch_size=5),
            TrainConfig(gamma=0.0, rho=0.3, epochs=1, batch_size=4),
            # The batch edges of the epoch's one sort: one sample per batch,
            # and one batch that holds the whole shard with room to spare.
            TrainConfig(gamma=0.1, rho=0.3, epochs=2, batch_size=1),
            TrainConfig(gamma=0.1, rho=0.3, epochs=2, batch_size=20),
        ],
        ids=["rho0", "rho", "gamma0", "b1", "b_over_n"],
    )
    def test_rows_match_sequential(self, kind, k, cfg):
        n = 13  # not a multiple of 4 or 5: those epochs end on a short batch
        arch, shards, seeds, start = self._cohort(kind, k, n, seed=k)
        self._assert_rows_match_sequential(start, arch, shards, cfg, seeds)

    def test_bench_shaped_block_matches_sequential(self):
        # The benchmark's block: MLP 20-32-10, 16 rows of 100 samples, b = 16.
        rng = np.random.default_rng(30)
        k, n = 16, 100
        arch = ModelArch("mlp", input_dim=20, num_classes=10, hidden_dim=32)
        shards = [
            Shard(rng.normal(0, 1, (n, 20)), rng.integers(0, 10, n)) for _ in range(k)
        ]
        seeds = [int(s) for s in rng.integers(0, 2**32, k)]
        cfg = TrainConfig(gamma=0.05, rho=0.1, epochs=2, batch_size=16)
        self._assert_rows_match_sequential(init_params(arch, 30), arch, shards, cfg, seeds)

    @staticmethod
    def _assert_rows_match_sequential(start, arch, shards, cfg, seeds):
        rows = local_train(_rows(start, len(shards)), arch, shards, cfg, _rngs(seeds))
        assert rows.shape == (len(shards), arch.param_count)
        for row, shard, seed in zip(rows, shards, seeds):
            alone = local_train(start[None], arch, [shard], cfg, _rngs([seed]))[0]
            assert np.array_equal(row, alone)
            assert np.array_equal(row, reference_sgd(start, start, arch, shard, cfg, seed))

    def test_diverging_row_leaves_the_others_intact(self):
        arch, shards, seeds, start = self._cohort("logistic", 5, 12, seed=3)
        bad = 2
        shards[bad] = Shard(shards[bad].features * 1e200, shards[bad].labels)
        cfg = TrainConfig(gamma=0.1, rho=0.1, epochs=3, batch_size=4)
        rows = local_train(_rows(start, 5), arch, shards, cfg, _rngs(seeds))
        with pytest.raises(NumericDivergenceError, match="device 42"):
            raise_if_diverged(rows[bad], "while training device 42")
        alone = local_train(start[None], arch, [shards[bad]], cfg, _rngs([seeds[bad]]))[0]
        with pytest.raises(NumericDivergenceError, match="device 42"):
            raise_if_diverged(alone, "while training device 42")
        for k in range(5):
            if k != bad:
                raise_if_diverged(rows[k], f"while training device {k}")
                alone = local_train(start[None], arch, [shards[k]], cfg, _rngs([seeds[k]]))[0]
                assert np.array_equal(rows[k], alone)

    def test_each_generator_ends_where_its_row_alone_leaves_it(self):
        # So the stream a row draws from does not depend on the block it trains in.
        arch, shards, seeds, start = self._cohort("mlp", 5, 13, seed=7)
        cfg = TrainConfig(gamma=0.1, rho=0.1, epochs=3, batch_size=4)
        rngs = _rngs(seeds)
        local_train(_rows(start, 5), arch, shards, cfg, rngs)
        for rng, shard, seed in zip(rngs, shards, seeds):
            alone = np.random.default_rng(seed)
            local_train(start[None], arch, [shard], cfg, [alone])
            assert rng.bit_generator.state == alone.bit_generator.state
            assert rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state

    def test_unequal_shard_sizes_rejected(self):
        arch, shards, seeds, start = self._cohort("logistic", 2, 6)
        shards[1] = Shard(shards[1].features[:5], shards[1].labels[:5])
        cfg = TrainConfig(gamma=0.1, rho=0.0, epochs=1, batch_size=2)
        with pytest.raises(ConfigurationError, match="same number of samples"):
            local_train(_rows(start, 2), arch, shards, cfg, _rngs(seeds))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("k", [1, 2, 8, 9])
    def test_rows_with_their_own_start_and_anchor(self, kind, k):
        # Every row starts somewhere else and is anchored at its own start, as
        # when one block trains flights that different gateway models were sent to.
        arch, shards, seeds, _ = self._cohort(kind, k, 13, seed=100 + k)
        starts = np.stack([init_params(arch, 200 + r) for r in range(k)])
        cfg = TrainConfig(gamma=0.1, rho=0.4, epochs=2, batch_size=5)
        rows = local_train(starts, arch, shards, cfg, _rngs(seeds))
        assert len({r.tobytes() for r in starts}) == k
        for r in range(k):
            alone = local_train(starts[r][None], arch, [shards[r]], cfg, _rngs([seeds[r]]))[0]
            assert np.array_equal(rows[r], alone)
            expected = reference_sgd(starts[r], starts[r], arch, shards[r], cfg, seeds[r])
            assert np.array_equal(rows[r], expected)

    def test_one_start_and_anchor_per_row_required(self):
        arch, shards, seeds, start = self._cohort("logistic", 3, 6)
        cfg = TrainConfig(gamma=0.1, rho=0.1, epochs=1, batch_size=2)
        for bad_start in [
            start,  # one flat vector for the whole block
            start[None],  # one row for three shards
        ]:
            with pytest.raises(ConfigurationError, match=r"must be \[3, "):
                local_train(bad_start, arch, shards, cfg, _rngs(seeds))


def _rows(v, k):
    """k copies of one parameter vector as a [k, P] stack."""
    return np.repeat(v[None], k, axis=0)


def _rngs(seeds):
    """One generator per seed, as `default_rng` seeds it."""
    return [np.random.default_rng(seed) for seed in seeds]
