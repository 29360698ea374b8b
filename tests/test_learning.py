import numpy as np
import pytest

from hfedsim.errors import ConfigurationError, NumericDivergenceError
from hfedsim.learning import (
    ModelArch,
    Shard,
    TrainConfig,
    evaluate,
    grad_regularized,
    init_params,
    local_train,
    local_train_cohort,
    loss_and_grad,
    raise_if_diverged,
)


def random_instance(rng, kind=None):
    """Random (arch, params, shard) triple with small dimensions."""
    kind = kind or rng.choice(["logistic", "mlp"])
    arch = ModelArch(
        kind=kind,
        input_dim=int(rng.integers(2, 6)),
        num_classes=int(rng.integers(2, 5)),
        hidden_dim=int(rng.integers(2, 5)),
    )
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


def assert_grad_close(analytic, numeric, rel=1e-4):
    scale = np.maximum(np.abs(numeric), 1.0)
    assert np.max(np.abs(analytic - numeric) / scale) < rel


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
    def test_zero_weights_uniform_softmax(self):
        arch = ModelArch("logistic", input_dim=3, num_classes=2)
        shard = Shard(np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]]), np.array([0, 1]))
        loss, _ = loss_and_grad(np.zeros(arch.param_count), arch, shard)
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            arch, params, shard = random_instance(rng)
            _, grad = loss_and_grad(params, arch, shard)
            num = fd_grad(lambda p: loss_and_grad(p, arch, shard)[0], params)
            assert_grad_close(grad, num)

    def test_duplication_invariant(self):
        rng = np.random.default_rng(3)
        arch, params, shard = random_instance(rng)
        doubled = Shard(
            np.concatenate([shard.features, shard.features]),
            np.concatenate([shard.labels, shard.labels]),
        )
        l1, g1 = loss_and_grad(params, arch, shard)
        l2, g2 = loss_and_grad(params, arch, doubled)
        assert l1 == pytest.approx(l2, rel=1e-12)
        np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch(self):
        arch = ModelArch("logistic", input_dim=3, num_classes=2)
        shard = Shard(np.zeros((2, 4)), np.array([0, 1]))
        with pytest.raises(ConfigurationError):
            loss_and_grad(np.zeros(arch.param_count), arch, shard)


class TestGradRegularized:
    def test_anchor_identity(self):
        rng = np.random.default_rng(5)
        arch, params, shard = random_instance(rng)
        _, plain = loss_and_grad(params, arch, shard)
        reg = grad_regularized(params, params.copy(), arch, shard, rho=0.7)
        np.testing.assert_array_equal(reg, plain)

    def test_rho_zero_identity(self):
        rng = np.random.default_rng(6)
        arch, params, shard = random_instance(rng)
        _, plain = loss_and_grad(params, arch, shard)
        reg = grad_regularized(params, params + 1.0, arch, shard, rho=0.0)
        np.testing.assert_array_equal(reg, plain)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            arch, params, shard = random_instance(rng)
            anchor = params + rng.normal(0, 0.5, params.shape)
            rho = float(rng.uniform(0.01, 2.0))

            def objective(p):
                loss, _ = loss_and_grad(p, arch, shard)
                return loss + 0.5 * rho * np.sum((p - anchor) ** 2)

            grad = grad_regularized(params, anchor, arch, shard, rho)
            assert_grad_close(grad, fd_grad(objective, params))

    def test_length_mismatch(self):
        arch = ModelArch("logistic", input_dim=2, num_classes=2)
        with pytest.raises(ConfigurationError):
            grad_regularized(
                np.zeros(arch.param_count),
                np.zeros(arch.param_count + 1),
                arch,
                Shard(np.zeros((1, 2)), np.array([0])),
                0.1,
            )


class TestLocalTrain:
    def _setup(self, seed=0, n=12):
        rng = np.random.default_rng(seed)
        arch = ModelArch("mlp", input_dim=3, num_classes=2, hidden_dim=4)
        shard = Shard(rng.normal(0, 1, (n, 3)), rng.integers(0, 2, n))
        start = init_params(arch, seed)
        return arch, shard, start

    def test_zero_lr_is_identity(self):
        arch, shard, start = self._setup()
        cfg = TrainConfig(gamma=0.0, rho=0.1, epochs=3, batch_size=4)
        final, last_grad = local_train(start, start.copy(), arch, shard, cfg, seed=1)
        np.testing.assert_array_equal(final, start)
        expected = grad_regularized(start, start, arch, shard, 0.1)
        np.testing.assert_array_equal(last_grad, expected)

    def test_single_full_batch_step(self):
        arch, shard, start = self._setup(seed=2)
        anchor = start + 0.3
        cfg = TrainConfig(gamma=0.05, rho=0.2, epochs=1, batch_size=shard.n)
        final, _ = local_train(start, anchor, arch, shard, cfg, seed=9)
        expected = start - 0.05 * grad_regularized(start, anchor, arch, shard, 0.2)
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
        final, _ = local_train(start, start.copy(), arch, shard, cfg, seed=3)
        loss0, _ = loss_and_grad(start, arch, shard)
        loss1, _ = loss_and_grad(final, arch, shard)
        assert loss1 < loss0

    def test_deterministic(self):
        arch, shard, start = self._setup(seed=4)
        cfg = TrainConfig(gamma=0.1, rho=0.1, epochs=2, batch_size=5)
        a = local_train(start, start.copy(), arch, shard, cfg, seed=5)
        b = local_train(start, start.copy(), arch, shard, cfg, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_divergence_names_device(self):
        arch, shard, start = self._setup(seed=6)
        cfg = TrainConfig(gamma=1e12, rho=1.0, epochs=30, batch_size=4)
        with pytest.raises(NumericDivergenceError, match="device 17"):
            local_train(start, start.copy(), arch, shard, cfg, seed=0, device_id=17)


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
    def test_matches_2d_log_softmax_and_loss_and_grad_bit_for_bit(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(200):
            arch, params, _ = random_instance(rng, kind)
            n = int(rng.integers(1, 300))
            test = Shard(
                rng.normal(0, 3, (n, arch.input_dim)), rng.integers(0, arch.num_classes, n)
            )
            acc, loss = evaluate(params, arch, test)
            assert (acc, loss) == reference_evaluate(params, arch, test)
            assert loss == loss_and_grad(params, arch, test)[0]

    def test_uniform_loss_many_classes(self):
        k = 7
        arch = ModelArch("mlp", input_dim=3, num_classes=k, hidden_dim=2)
        shard = Shard(np.random.default_rng(1).normal(0, 1, (10, 3)),
                      np.arange(10) % k)
        _, loss = evaluate(np.zeros(arch.param_count), arch, shard)
        assert loss == pytest.approx(np.log(k), abs=1e-12)


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


def reference_sgd(start, anchor, arch, shard, cfg, seed):
    """One device's SGD with 2-D arrays only: the unbatched loop the cohort trainer replaces."""
    rng = np.random.default_rng(seed)
    params = start.copy()
    for _ in range(cfg.epochs):
        perm = rng.permutation(shard.n)
        for k in range(0, shard.n, cfg.batch_size):
            idx = np.sort(perm[k : k + cfg.batch_size])
            x, y = shard.features[idx], shard.labels[idx]
            logits, h, w2 = reference_forward(params, arch, x)
            rows = np.arange(len(y))
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            dlogits = probs / probs.sum(axis=1)[:, None]
            dlogits[rows, y] -= 1.0
            dlogits /= len(y)
            if arch.kind == "logistic":
                grad = np.concatenate([(x.T @ dlogits).ravel(), dlogits.sum(axis=0)])
            else:
                dh = (dlogits @ w2.T) * (1.0 - h * h)
                grad = np.concatenate([
                    (x.T @ dh).ravel(), dh.sum(axis=0),
                    (h.T @ dlogits).ravel(), dlogits.sum(axis=0),
                ])
            if cfg.rho != 0.0:
                grad += cfg.rho * (params - anchor)
            params -= cfg.gamma * grad
    return params


class TestLocalTrainCohort:
    """Each row of the lockstep trainer equals that device trained alone, bit for bit."""

    def _cohort(self, kind, k, n, seed=0):
        rng = np.random.default_rng(seed)
        arch = ModelArch(kind, input_dim=4, num_classes=3, hidden_dim=5)
        shards = [
            Shard(rng.normal(0, 1, (n, 4)), rng.integers(0, 3, n)) for _ in range(k)
        ]
        seeds = [int(s) for s in rng.integers(0, 2**32, k)]
        start = init_params(arch, seed)
        return arch, shards, seeds, start, start + rng.normal(0, 0.2, start.shape)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("k", [1, 2, 8, 9, 20])
    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(gamma=0.1, rho=0.0, epochs=2, batch_size=5),
            TrainConfig(gamma=0.1, rho=0.3, epochs=2, batch_size=5),
            TrainConfig(gamma=0.0, rho=0.3, epochs=1, batch_size=4),
        ],
        ids=["rho0", "rho", "gamma0"],
    )
    def test_rows_match_sequential(self, kind, k, cfg):
        n = 13  # not a multiple of either batch size: every epoch ends on a short batch
        arch, shards, seeds, start, anchor = self._cohort(kind, k, n, seed=k)
        rows = local_train_cohort(start, anchor, arch, shards, cfg, seeds)
        assert rows.shape == (k, arch.param_count)
        for row, shard, seed in zip(rows, shards, seeds):
            final, _ = local_train(start, anchor, arch, shard, cfg, seed)
            assert np.array_equal(row, final)
            assert np.array_equal(row, reference_sgd(start, anchor, arch, shard, cfg, seed))

    def test_diverging_row_leaves_the_others_intact(self):
        arch, shards, seeds, start, anchor = self._cohort("logistic", 5, 12, seed=3)
        bad = 2
        shards[bad] = Shard(shards[bad].features * 1e200, shards[bad].labels)
        cfg = TrainConfig(gamma=0.1, rho=0.1, epochs=3, batch_size=4)
        rows = local_train_cohort(start, anchor, arch, shards, cfg, seeds)
        with pytest.raises(NumericDivergenceError, match="device 42"):
            raise_if_diverged(rows[bad], device_id=42)
        with pytest.raises(NumericDivergenceError, match="device 42"):
            local_train(start, anchor, arch, shards[bad], cfg, seeds[bad], device_id=42)
        for k in range(5):
            if k != bad:
                raise_if_diverged(rows[k], device_id=k)
                final, _ = local_train(start, anchor, arch, shards[k], cfg, seeds[k])
                assert np.array_equal(rows[k], final)

    def test_unequal_shard_sizes_rejected(self):
        arch, shards, seeds, start, _ = self._cohort("logistic", 2, 6)
        shards[1] = Shard(shards[1].features[:5], shards[1].labels[:5])
        cfg = TrainConfig(gamma=0.1, rho=0.0, epochs=1, batch_size=2)
        with pytest.raises(ConfigurationError, match="same number of samples"):
            local_train_cohort(start, start, arch, shards, cfg, seeds)
