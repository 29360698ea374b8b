import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfedsim.errors import ConfigurationError
from hfedsim.utility import (
    PcaModel,
    learning_utility,
    pca_bytes,
    pca_fit,
    pca_project,
)


def pca_reconstruct(model, coords):
    """Map component coordinates back to the full gradient space."""
    return model.mean + model.components.T @ coords


def svd_pca_components(grads, p):
    """Reference PCA fit: the top p right singular vectors of the centred stack,
    with the sign rule of `pca_fit`."""
    g = np.stack(grads)
    g -= g.mean(axis=0)
    components = np.linalg.svd(g, full_matrices=False)[2][:p].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1
    return components


def utilities(vectors):
    """learning_utility on the vectors stacked as rows, as (u, eta, nu) arrays."""
    return learning_utility(np.array(vectors, dtype=np.float64))


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


class TestLearningUtility:
    def test_identical_gradients_cancel_exactly(self):
        g = np.array([0.3, -0.7, 1.1])
        u, eta, nu = utilities([g, g.copy()])
        s = float(g @ g)
        assert np.all(eta == s)
        assert np.all(nu == -s)
        assert np.all(u == 0.0)

    def test_orthogonal_unit_pair(self):
        u, eta, nu = utilities([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(eta, 0.5, rtol=0, atol=1e-15)
        assert np.all(nu == 0.0)
        np.testing.assert_allclose(u, 0.5, rtol=0, atol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vs = [rng.normal(size=9) for _ in range(6)]
            u, eta, nu = utilities(vs)
            want = np.array(utility_oracle(vs))
            np.testing.assert_allclose(eta, want[:, 0], rtol=0, atol=1e-10)
            np.testing.assert_allclose(nu, want[:, 1], rtol=0, atol=1e-10)
            np.testing.assert_allclose(u, want[:, 2], rtol=0, atol=1e-10)

    def test_single_device_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 2"):
            utilities([np.ones(3)])

    def test_u_is_eta_plus_nu(self):
        rng = np.random.default_rng(2)
        u, eta, nu = utilities([rng.normal(size=4) for _ in range(5)])
        for ui, ei, ni in zip(u.tolist(), eta.tolist(), nu.tolist()):
            assert ui == ei + ni

    def test_diversity_sum_identity(self):
        # sum_i nu_i == -(|sum_j g_j|^2 - sum_j |g_j|^2) / (N-1)
        rng = np.random.default_rng(3)
        vs = [rng.normal(size=6) for _ in range(7)]
        _, _, nu = utilities(vs)
        total = np.sum(vs, axis=0)
        expected = -(float(total @ total) - sum(float(v @ v) for v in vs)) / (len(vs) - 1)
        assert float(nu.sum()) == pytest.approx(expected, abs=1e-10)
        oracle_nu = sum(nu for _, nu, _ in utility_oracle(vs))
        assert float(nu.sum()) == pytest.approx(oracle_nu, abs=1e-10)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_positive_scaling_preserves_ranking(self, c):
        rng = np.random.default_rng(4)
        vs = [rng.normal(size=5) for _ in range(6)]
        base, _, _ = utilities(vs)
        scaled, _, _ = utilities([c * v for v in vs])
        np.testing.assert_allclose(scaled, c * c * base, rtol=1e-9, atol=1e-12)
        assert np.array_equal(np.argsort(base), np.argsort(scaled))

    @pytest.mark.parametrize("offset", ["none", "common", "alternating"])
    @pytest.mark.parametrize("p", [1, 30])
    @pytest.mark.parametrize("m", [2, 60, 500])
    def test_row_sums_within_rounding_bound_of_exact(self, m, p, offset):
        # Row i's exact Gram sum R_i = sum_j g_i.g_j and its diagonal D_i = |g_i|^2,
        # as Fractions. Any summation order of the m + p terms behind R_i errs by at
        # most (m + p) * eps * B_i, B_i = |g_i|.sum_j |g_j| taken elementwise. A
        # common offset of 100 makes the terms large; an alternating one of +-100
        # also makes the column sum cancel, so R_i is small against B_i.
        rng = np.random.default_rng(m * 100 + p)
        g = rng.normal(size=(m, p))
        if offset == "common":
            g += 100.0
        elif offset == "alternating":
            g += np.where(np.arange(m) % 2 == 0, 100.0, -100.0)[:, None]
        _, eta, nu = learning_utility(g)
        exact = [[Fraction(x) for x in row] for row in g.tolist()]
        col_sum = [sum(col, Fraction(0)) for col in zip(*exact)]
        bound = (m + p) * np.finfo(np.float64).eps * (np.abs(g) @ np.abs(g).sum(axis=0))
        for i, row in enumerate(exact):
            r = sum((a * s for a, s in zip(row, col_sum)), Fraction(0))
            d = sum((a * a for a in row), Fraction(0))
            assert abs(Fraction(eta[i]) - r / m) <= Fraction(bound[i]) / m
            assert abs(Fraction(nu[i]) + (r - d) / (m - 1)) <= Fraction(bound[i]) / (m - 1)

    def test_memory_is_linear_in_devices(self):
        # A Gram matrix of 4000 rows alone would be 128 MB; the refresh may
        # allocate only a few copies of `g`'s own size.
        g = np.random.default_rng(11).normal(size=(4000, 30))
        tracemalloc.start()
        try:
            learning_utility(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.nbytes


class TestPca:
    def test_line_data_first_component(self):
        rng = np.random.default_rng(5)
        direction = np.array([2.0, -1.0, 0.5])
        direction /= np.linalg.norm(direction)
        grads = [float(t) * direction for t in rng.normal(size=10)]
        model = pca_fit(np.stack(grads), p=1)
        cos = abs(float(model.components[0] @ direction))
        assert cos > 1 - 1e-8

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(6)
        grads = [rng.normal(size=4) for _ in range(10)]
        model = pca_fit(np.stack(grads), p=4)
        for g in grads:
            back = pca_reconstruct(model, pca_project(model, g))
            np.testing.assert_allclose(back, g, atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=12) for _ in range(9)]
        model = pca_fit(np.stack(grads), p=5)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(8)
        grads = [rng.normal(size=6) for _ in range(8)]
        a = pca_fit(np.stack(grads), p=3)
        b = pca_fit(np.stack(grads), p=3)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_centres_its_input_in_place_and_fits_as_on_a_copy(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(7, 9))
        kept = rows.copy()
        a = pca_fit(rows, p=3)
        b = pca_fit(kept.copy(), p=3)
        np.testing.assert_array_equal(rows, kept - a.mean)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.components, b.components)
        # So a centred row projects to the floats `pca_project` gives its original.
        for centred, row in zip(rows, kept):
            assert np.array_equal(a.components @ centred, pca_project(a, row))

    def test_fit_allocates_no_copy_of_a_wide_stack(self):
        # m << d: the Gram, the mean and the p components are far smaller than
        # the [m, d] stack, so only a copy of the stack could reach half its size.
        rng = np.random.default_rng(11)
        g = rng.normal(size=(50, 4000))
        tracemalloc.start()
        try:
            pca_fit(g, p=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes / 2

    @pytest.mark.parametrize(
        "g",
        [[np.zeros(3), np.ones(3)], np.zeros((2, 3), dtype=np.float32), np.zeros(3)],
        ids=["list", "float32", "one-dimensional"],
    )
    def test_input_must_be_a_float64_stack(self, g):
        with pytest.raises(ConfigurationError, match=r"\[m, d\] float64 array"):
            pca_fit(g, p=1)

    def test_p_too_large(self):
        with pytest.raises(ConfigurationError, match="PCA dim"):
            pca_fit(np.stack([np.zeros(3), np.ones(3)]), p=3)

    def test_project_mean_is_zero(self):
        rng = np.random.default_rng(9)
        grads = [rng.normal(size=5) for _ in range(8)]
        model = pca_fit(np.stack(grads), p=2)
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
        model = pca_fit(np.stack(centered), p=d)
        projected = [pca_project(model, g) for g in centered]
        u_raw, _, _ = utilities(centered)
        u_proj, _, _ = utilities(projected)
        np.testing.assert_allclose(u_proj, u_raw, rtol=0, atol=1e-8)
        assert np.array_equal(np.argsort(u_raw), np.argsort(u_proj))

    @pytest.mark.parametrize("m,d,p", [(9, 12, 5), (60, 200, 30), (500, 1002, 30)])
    def test_gram_path_matches_svd_oracle(self, m, d, p, monkeypatch):
        # Columns of unequal scale give the spread spectrum of real gradients.
        rng = np.random.default_rng(m + d)
        grads = list(rng.normal(size=(m, d)) * rng.uniform(0.1, 3.0, size=d))
        want = svd_pca_components(grads, p)

        def no_svd(*args, **kwargs):
            raise AssertionError("a full-rank stack must not take the SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        model = pca_fit(np.stack(grads), p)
        np.testing.assert_allclose(model.components, want, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            model.components @ model.components.T, np.eye(p), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("case", ["p-equals-m", "duplicated", "all-equal", "tall"])
    def test_svd_cases_match_the_oracle_bitwise(self, case):
        # A rank-deficient stack's p-th Gram eigenvalue is zero up to rounding, so
        # the Gram defines no component there, and a tall stack (m > d) has no
        # Gram path; the fit must be the SVD's, bit for bit.
        rng = np.random.default_rng(21)
        if case == "p-equals-m":  # centring leaves rank m - 1
            grads, p = list(rng.normal(size=(6, 10))), 6
        elif case == "duplicated":
            grads, p = list(rng.normal(size=(4, 20))) * 2, 5
        elif case == "all-equal":
            grads, p = [np.full(8, 0.25)] * 5, 2
        else:
            grads, p = list(rng.normal(size=(12, 6))), 4
        # pytest turns warnings into errors (pyproject.toml); errstate does the same
        # for numpy's floating-point checks, such as a square root of a negative.
        with np.errstate(all="raise"):
            model = pca_fit(np.stack(grads), p)
        assert np.array_equal(model.components, svd_pca_components(grads, p))

    @pytest.mark.parametrize(
        "ratio,atol,gram",
        [(1e-2, 1e-10, True), (1e-3, 1e-8, True), (1e-4, 1e-12, False), (1e-5, 1e-12, False)],
    )
    def test_geometric_spectrum(self, ratio, atol, gram, monkeypatch):
        # sigma_p / sigma_1 = ratio. The Gram path's error grows with
        # lambda_1 / lambda_p = ratio**-2, so it is taken only while that stays
        # below 1 / sqrt(eps) (ratios 1e-2 and 1e-3); below, the fit is the SVD's.
        m, d, p, r = 40, 100, 10, 15
        rng = np.random.default_rng(5)
        u = rng.normal(size=(m, r))
        u = np.linalg.qr(u - u.mean(axis=0))[0]  # zero-mean columns: centring keeps the spectrum
        v = np.linalg.qr(rng.normal(size=(d, r)))[0]
        sigma = ratio ** (np.arange(r) / (p - 1))
        grads = list((u * sigma) @ v.T + 0.1 * rng.normal(size=d))
        want = svd_pca_components(grads, p)
        if gram:

            def no_svd(*args, **kwargs):
                raise AssertionError("a resolved spectrum must not take the SVD")

            monkeypatch.setattr(np.linalg, "svd", no_svd)
        model = pca_fit(np.stack(grads), p)
        if not gram:
            assert np.array_equal(model.components, want)
        np.testing.assert_allclose(model.components, want, rtol=0, atol=atol)
        np.testing.assert_allclose(
            model.components @ model.components.T, np.eye(p), rtol=0, atol=atol
        )

    def test_wire_size(self):
        model = PcaModel(mean=np.zeros(100), components=np.eye(30, 100))
        assert pca_bytes(model) == 8 * 31 * 100
