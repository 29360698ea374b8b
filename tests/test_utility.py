import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfedsim.errors import ConfigurationError
from hfedsim.utility import (
    GradientRecord,
    PcaModel,
    global_gradient,
    learning_utility,
    pca_bytes,
    pca_fit,
    pca_project,
    pca_reconstruct,
)


def recs(vectors, compressed=False):
    return [
        GradientRecord(i, np.asarray(v, dtype=np.float64), compressed)
        for i, v in enumerate(vectors)
    ]


def utility_oracle(vectors):
    """Literal double-loop evaluation of the affinity/diversity definitions."""
    g = [np.asarray(v, dtype=np.float64) for v in vectors]
    n = len(g)
    mean = sum(g) / n
    out = []
    for i in range(n):
        eta = float(g[i] @ mean)
        nu = -sum(float(g[i] @ g[j]) for j in range(n) if j != i) / (n - 1)
        out.append((eta, nu, eta + nu))
    return out


class TestGlobalGradient:
    def test_single_record(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(global_gradient(recs([v])), v)

    def test_opposite_vectors_cancel(self):
        g = np.array([0.5, -1.5])
        np.testing.assert_array_equal(global_gradient(recs([g, -g])), np.zeros(2))

    def test_matches_elementwise_average(self):
        rng = np.random.default_rng(0)
        vs = [rng.normal(size=7) for _ in range(5)]
        np.testing.assert_allclose(
            global_gradient(recs(vs)), np.mean(vs, axis=0), rtol=1e-15
        )

    def test_mixed_lengths_rejected(self):
        bad = recs([np.zeros(3)]) + recs([np.zeros(4)])
        with pytest.raises(ConfigurationError, match="mixed gradient lengths"):
            global_gradient(bad)

    def test_mixed_compression_rejected(self):
        bad = recs([np.zeros(3)]) + recs([np.zeros(3)], compressed=True)
        with pytest.raises(ConfigurationError, match="compressed"):
            global_gradient(bad)


class TestLearningUtility:
    def test_identical_gradients_cancel_exactly(self):
        g = np.array([0.3, -0.7, 1.1])
        out = learning_utility(recs([g, g.copy()]))
        s = float(g @ g)
        for r in out:
            assert r.eta == s
            assert r.nu == -s
            assert r.u == 0.0

    def test_orthogonal_unit_pair(self):
        out = learning_utility(recs([[1.0, 0.0], [0.0, 1.0]]))
        for r in out:
            assert r.eta == pytest.approx(0.5, abs=1e-15)
            assert r.nu == 0.0
            assert r.u == pytest.approx(0.5, abs=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vs = [rng.normal(size=9) for _ in range(6)]
            out = learning_utility(recs(vs))
            for r, (eta, nu, u) in zip(out, utility_oracle(vs)):
                assert r.eta == pytest.approx(eta, abs=1e-10)
                assert r.nu == pytest.approx(nu, abs=1e-10)
                assert r.u == pytest.approx(u, abs=1e-10)

    def test_single_device_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 2"):
            learning_utility(recs([np.ones(3)]))

    def test_u_is_eta_plus_nu(self):
        rng = np.random.default_rng(2)
        out = learning_utility(recs([rng.normal(size=4) for _ in range(5)]))
        for r in out:
            assert r.u == r.eta + r.nu

    def test_diversity_sum_identity(self):
        # sum_i nu_i == -(|sum_j g_j|^2 - sum_j |g_j|^2) / (N-1)
        rng = np.random.default_rng(3)
        vs = [rng.normal(size=6) for _ in range(7)]
        out = learning_utility(recs(vs))
        total = np.sum(vs, axis=0)
        expected = -(float(total @ total) - sum(float(v @ v) for v in vs)) / (len(vs) - 1)
        assert sum(r.nu for r in out) == pytest.approx(expected, abs=1e-10)
        oracle_nu = sum(nu for _, nu, _ in utility_oracle(vs))
        assert sum(r.nu for r in out) == pytest.approx(oracle_nu, abs=1e-10)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_positive_scaling_preserves_ranking(self, c):
        rng = np.random.default_rng(4)
        vs = [rng.normal(size=5) for _ in range(6)]
        base = learning_utility(recs(vs))
        scaled = learning_utility(recs([c * v for v in vs]))
        for rb, rs in zip(base, scaled):
            assert rs.u == pytest.approx(c * c * rb.u, rel=1e-9)
        assert np.array_equal(
            np.argsort([r.u for r in base]), np.argsort([r.u for r in scaled])
        )


class TestPca:
    def test_line_data_first_component(self):
        rng = np.random.default_rng(5)
        direction = np.array([2.0, -1.0, 0.5])
        direction /= np.linalg.norm(direction)
        grads = [float(t) * direction for t in rng.normal(size=10)]
        model = pca_fit(grads, p=1)
        cos = abs(float(model.components[0] @ direction))
        assert cos > 1 - 1e-8

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(6)
        grads = [rng.normal(size=4) for _ in range(10)]
        model = pca_fit(grads, p=4)
        for g in grads:
            back = pca_reconstruct(model, pca_project(model, g))
            np.testing.assert_allclose(back, g, atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=12) for _ in range(9)]
        model = pca_fit(grads, p=5)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(8)
        grads = [rng.normal(size=6) for _ in range(8)]
        a = pca_fit(grads, p=3)
        b = pca_fit([g.copy() for g in grads], p=3)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_p_too_large(self):
        with pytest.raises(ConfigurationError, match="PCA dim"):
            pca_fit([np.zeros(3), np.ones(3)], p=3)

    def test_project_mean_is_zero(self):
        rng = np.random.default_rng(9)
        grads = [rng.normal(size=5) for _ in range(8)]
        model = pca_fit(grads, p=2)
        np.testing.assert_allclose(
            pca_project(model, model.mean), np.zeros(2), atol=1e-15
        )

    def test_length_mismatch(self):
        model = PcaModel(mean=np.zeros(4), components=np.eye(2, 4))
        with pytest.raises(ConfigurationError):
            pca_project(model, np.zeros(5))

    def test_full_rank_projection_preserves_utilities(self):
        rng = np.random.default_rng(10)
        d, n = 5, 12
        raw = [rng.normal(size=d) for _ in range(n)]
        centered = [g - np.mean(raw, axis=0) for g in raw]
        model = pca_fit(centered, p=d)
        projected = [pca_project(model, g) for g in centered]
        u_raw = learning_utility(recs(centered))
        u_proj = learning_utility(recs(projected, compressed=True))
        for a, b in zip(u_raw, u_proj):
            assert b.u == pytest.approx(a.u, abs=1e-8)
        assert np.array_equal(
            np.argsort([r.u for r in u_raw]), np.argsort([r.u for r in u_proj])
        )

    def test_wire_size(self):
        model = PcaModel(mean=np.zeros(100), components=np.eye(30, 100))
        assert pca_bytes(model) == 8 * 31 * 100
