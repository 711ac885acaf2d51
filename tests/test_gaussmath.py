import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchvi.errors import MalformedParamsError
from branchvi.gaussmath import (
    LOG_2PI,
    GaussianSpec,
    UnconstrainedChol,
    diag_transform,
    diag_transform_grad,
    diag_transform_inv,
    mvn_draw_batch,
    mvn_logpdf,
    packed_diag_indices,
    spec_from_moments,
    tril_map,
    tril_map_backward,
    tril_size,
    tril_solve,
    tril_unmap,
)
from branchvi.rng import RngStream


def gaussian_entropy(spec: GaussianSpec) -> float:
    """Closed-form entropy of N(mean, L L^T): the reference for Monte Carlo
    estimates of E[-log q]."""
    L = tril_map(spec.chol)
    return 0.5 * spec.dim * (1.0 + LOG_2PI) + float(np.sum(np.log(np.diag(L))))


class TestDiagTransform:
    def test_at_zero(self):
        assert diag_transform(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_at_three(self):
        # direct formula evaluation: (3 + sqrt(13)) / 2
        assert diag_transform(3.0, 1.0) == pytest.approx(0.5 * (3 + np.sqrt(13)), rel=1e-14)
        assert diag_transform(3.0, 1.0) == pytest.approx(3.302775637731995, rel=1e-12)

    @given(st.floats(-50, 50), st.sampled_from([0.25, 1.0, 4.0]))
    def test_product_identity(self, x, gamma):
        assert diag_transform(x, gamma) * diag_transform(-x, gamma) == pytest.approx(
            gamma, rel=1e-9, abs=1e-12)

    def test_bulk_positivity_and_monotonicity(self):
        x = RngStream(1).generator().uniform(-50, 50, size=10_000)
        y = diag_transform(x, 1.0)
        assert np.all(y > 0)
        assert np.allclose(y * diag_transform(-x, 1.0), 1.0, rtol=1e-9)
        xs = np.sort(x)
        assert np.all(np.diff(diag_transform(xs, 1.0)) > 0)

    def test_asymptotes(self):
        assert diag_transform(1e8, 1.0) == pytest.approx(1e8, rel=1e-7)
        assert diag_transform(-1e8, 1.0) == pytest.approx(1e-8, rel=1e-6)

    def test_grad_values(self):
        assert diag_transform_grad(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert diag_transform_grad(3.0, 1.0) == pytest.approx(
            0.5 * (1 + 3 / np.sqrt(13)), rel=1e-14)

    def test_grad_matches_central_differences(self):
        h = 1e-6
        for x in (-5.0, -1.0, 0.0, 1.0, 5.0):
            fd = (diag_transform(x + h, 1.0) - diag_transform(x - h, 1.0)) / (2 * h)
            assert diag_transform_grad(x, 1.0) == pytest.approx(fd, rel=1e-5)

    def test_grad_in_unit_interval(self):
        x = np.linspace(-40, 40, 401)
        g = diag_transform_grad(x, 1.0)
        assert np.all(g > 0) and np.all(g < 1)

    @given(st.floats(-30, 30), st.sampled_from([0.5, 1.0, 2.0]))
    def test_inverse(self, x, gamma):
        y = diag_transform(x, gamma)
        assert diag_transform_inv(y, gamma) == pytest.approx(x, rel=1e-9, abs=1e-9)


class TestTrilMap:
    def test_dim1(self):
        L = tril_map(UnconstrainedChol(np.array([0.0]), 1))
        assert np.allclose(L, [[1.0]])

    def test_dim2_order(self):
        # packing order (0,0), (1,0), (1,1); off-diagonals copied verbatim
        L = tril_map(UnconstrainedChol(np.array([0.0, 5.0, 0.0]), 2))
        assert np.allclose(L, [[1.0, 0.0], [5.0, 1.0]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MalformedParamsError):
            UnconstrainedChol(np.zeros(4), 2)

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, d, seed):
        gen = RngStream(seed).generator()
        L = np.tril(gen.standard_normal((d, d)))
        L[np.arange(d), np.arange(d)] = np.abs(L[np.arange(d), np.arange(d)]) + 0.1
        back = tril_map(tril_unmap(L, 1.0))
        assert np.allclose(back, L, atol=1e-12)

    def test_extreme_raw_entries_stay_usable(self):
        gen = RngStream(2).generator()
        for _ in range(50):
            d = 4
            raw = gen.uniform(-30, 30, size=tril_size(d))
            spec = GaussianSpec(np.zeros(d), UnconstrainedChol(raw, d))
            val = mvn_logpdf(spec, gen.standard_normal(d))
            assert np.isfinite(val)

    def test_backward_matches_central_differences(self):
        gen = RngStream(3).generator()
        d = 3
        u = UnconstrainedChol(gen.standard_normal(tril_size(d)), d)
        G = np.tril(gen.standard_normal((d, d)))  # arbitrary upstream gradient
        graw = tril_map_backward(u, G)
        h = 1e-6
        for j in range(u.raw.size):
            up = UnconstrainedChol(u.raw.copy(), d)
            um = UnconstrainedChol(u.raw.copy(), d)
            up.raw[j] += h
            um.raw[j] -= h
            fd = float(np.sum(G * (tril_map(up) - tril_map(um)))) / (2 * h)
            assert graw[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_packed_diag_indices(self):
        assert packed_diag_indices(3).tolist() == [0, 2, 5]


class TestMvn:
    def test_draw_at_mode_dim1(self):
        spec = GaussianSpec(np.zeros(1), UnconstrainedChol(np.zeros(1), 1))
        (x,), (logq,), _ = mvn_draw_batch(spec, np.zeros((1, 1)))
        assert np.allclose(x, 0.0)
        assert logq == pytest.approx(-0.5 * LOG_2PI)
        assert logq == pytest.approx(-0.918939, abs=1e-6)

    def test_draw_affine_dim1(self):
        # mean 2, L = [[3]], eps = 1: sample 5, logpdf -1/2 - log 3 - log(2 pi)/2
        spec = GaussianSpec(np.array([2.0]), tril_unmap(np.array([[3.0]])))
        (x,), (logq,), _ = mvn_draw_batch(spec, np.ones((1, 1)))
        assert x[0] == pytest.approx(5.0)
        assert logq == pytest.approx(-0.5 - np.log(3.0) - 0.5 * LOG_2PI)
        assert logq == pytest.approx(-2.517551, abs=1e-6)

    def test_sample_density_cross_check(self):
        gen = RngStream(4).generator()
        for d in range(1, 6):
            spec = GaussianSpec(gen.standard_normal(d),
                                UnconstrainedChol(gen.standard_normal(tril_size(d)), d))
            for k in range(20):
                (x,), (logq,), _ = mvn_draw_batch(spec, RngStream(4, 100 * d + k).normal((1, d)))
                assert logq == pytest.approx(mvn_logpdf(spec, x), abs=1e-10)

    def test_logpdf_standard(self):
        s1 = GaussianSpec(np.zeros(1), UnconstrainedChol(np.zeros(1), 1))
        assert mvn_logpdf(s1, np.zeros(1)) == pytest.approx(-0.918939, abs=1e-6)
        s2 = GaussianSpec(np.zeros(2), UnconstrainedChol(np.zeros(3), 2))
        assert mvn_logpdf(s2, np.zeros(2)) == pytest.approx(-1.837877, abs=1e-6)

    def test_logpdf_against_dense_inverse(self):
        gen = RngStream(5).generator()
        for _ in range(10):
            d = 3
            A = gen.standard_normal((d, d))
            cov = A @ A.T + 0.5 * np.eye(d)
            mean = gen.standard_normal(d)
            spec = spec_from_moments(mean, cov)
            x = gen.standard_normal(d)
            r = x - mean
            direct = (-0.5 * r @ np.linalg.inv(cov) @ r
                      - 0.5 * np.linalg.slogdet(cov)[1] - 0.5 * d * LOG_2PI)
            assert mvn_logpdf(spec, x) == pytest.approx(direct, abs=1e-9)

    def test_batched_draw_rows_are_single_draws(self):
        gen = RngStream(8).generator()
        d = 4
        spec = GaussianSpec(gen.standard_normal(d),
                            UnconstrainedChol(gen.standard_normal(tril_size(d)), d))
        EPS = gen.standard_normal((6, d))
        X, logqs, L = mvn_draw_batch(spec, EPS)
        assert np.array_equal(L, tril_map(spec.chol))
        for eps, x, logq in zip(EPS, X, logqs):
            assert np.allclose(x, spec.mean + L @ eps, rtol=0, atol=1e-12)
            assert logq == pytest.approx(mvn_logpdf(spec, x), abs=1e-10)

    def test_dimension_mismatch(self):
        spec = GaussianSpec(np.zeros(2), UnconstrainedChol(np.zeros(3), 2))
        with pytest.raises(MalformedParamsError):
            mvn_logpdf(spec, np.zeros(3))

    def test_entropy_matches_monte_carlo(self):
        gen = RngStream(6).generator()
        d = 3
        spec = GaussianSpec(gen.standard_normal(d),
                            UnconstrainedChol(gen.standard_normal(tril_size(d)), d))
        g = RngStream(7).generator()
        neg_logq = -mvn_draw_batch(spec, g.standard_normal((20_000, d)))[1]
        se = neg_logq.std() / np.sqrt(neg_logq.size)
        assert abs(neg_logq.mean() - gaussian_entropy(spec)) < 3 * se


class TestTrilSolve:
    @pytest.mark.parametrize("trans", [False, True])
    def test_matches_dense_solve(self, trans):
        gen = RngStream(9).generator()
        M, B, d = 3, 4, 5
        L = np.tril(gen.standard_normal((M, d, d)))
        L[:, np.arange(d), np.arange(d)] = np.abs(L[:, np.arange(d), np.arange(d)]) + 0.5
        R = gen.standard_normal((M, B, d))
        T = tril_solve(L, R, trans=trans)
        for m in range(M):
            A = L[m].T if trans else L[m]
            assert np.allclose(T[m], np.linalg.solve(A, R[m].T).T, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("trans", [False, True])
    def test_row_alone_equals_row_in_batch(self, trans):
        gen = RngStream(10).generator()
        L = np.tril(gen.standard_normal((2, 4, 4))) + 3.0 * np.eye(4)
        R = gen.standard_normal((2, 7, 4))
        T = tril_solve(L, R, trans=trans)
        for j in range(R.shape[1]):
            assert np.array_equal(tril_solve(L, R[:, j:j + 1], trans=trans)[:, 0], T[:, j])
