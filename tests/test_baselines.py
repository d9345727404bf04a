import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eof.baselines import (RandomFeatureMap, eerf_select, kernel_estimate,
                           lkrf_select, orf_map, rf_embed, rks_map)
from eof.errors import DimError, InvalidData, InvalidM, InvalidPoint


class TestRksMap:
    def test_deterministic_under_seed(self):
        a = rks_map(3, 20, 1.5, seed=9)
        b = rks_map(3, 20, 1.5, seed=9)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_phases_in_range(self):
        m = rks_map(2, 500, 1.0, seed=0)
        assert np.all(m.phases >= 0.0) and np.all(m.phases < 2.0 * np.pi)

    def test_invalid_m(self):
        with pytest.raises(InvalidM):
            rks_map(2, 0, 1.0, seed=0)

    def test_feature_values_bounded(self):
        m = rks_map(2, 64, 2.0, seed=1)
        z = rf_embed(m, np.random.default_rng(0).uniform(0, 1, (50, 2)))
        assert np.all(np.abs(z) <= 1.0 / 8.0 + 1e-15)  # 1/sqrt(64)

    def test_monte_carlo_matches_laplace_kernel(self):
        sigma = 1.5
        rng = np.random.default_rng(4)
        pairs = rng.uniform(0.0, 1.0, (20, 2, 2))
        errs = []
        for seed in range(10):
            m = rks_map(2, 5000, sigma, seed)
            for x, xp in pairs:
                want = np.exp(-sigma * np.abs(x - xp).sum())
                errs.append(abs(kernel_estimate(m, x, xp) - want))
        assert np.median(errs) < 0.02


class TestOrfMap:
    def test_block_rows_orthogonal(self):
        sigma = 2.0
        m = orf_map(4, 8, sigma, seed=3)
        for b in range(2):
            block = m.frequencies[4 * b:4 * (b + 1)] / sigma
            # remove the chi row scaling, then rows must be orthonormal
            Q = block / np.linalg.norm(block, axis=1, keepdims=True)
            np.testing.assert_allclose(Q @ Q.T, np.eye(4), atol=1e-10)

    def test_truncation_to_m(self):
        m = orf_map(3, 7, 1.0, seed=0)
        assert m.frequencies.shape == (7, 3)

    def test_m_equals_d_equals_one(self):
        m = orf_map(1, 1, 2.5, seed=11)
        assert m.frequencies.shape == (1, 1)
        assert np.isfinite(m.frequencies[0, 0])

    def test_monte_carlo_matches_gaussian_kernel(self):
        sigma = 2.0
        rng = np.random.default_rng(5)
        pairs = rng.uniform(0.0, 1.0, (20, 2, 2))
        errs = []
        for seed in range(10):
            m = orf_map(2, 5000, sigma, seed)
            for x, xp in pairs:
                want = np.exp(-sigma ** 2 * ((x - xp) ** 2).sum() / 2.0)
                errs.append(abs(kernel_estimate(m, x, xp) - want))
        assert np.median(errs) < 0.02

    def test_variance_no_worse_than_iid_gaussian_frequencies(self):
        # the orthogonal construction should not hurt kernel-approximation
        # MSE relative to iid Gaussian frequencies at equal M
        sigma, M, D = 2.0, 32, 2
        rng = np.random.default_rng(6)
        pairs = rng.uniform(0.0, 1.0, (30, 2, D))
        want = np.array([np.exp(-sigma ** 2 * ((x - xp) ** 2).sum() / 2.0)
                         for x, xp in pairs])
        mse_orf, mse_iid = [], []
        for seed in range(50):
            orf = orf_map(D, M, sigma, seed)
            g = np.random.default_rng(seed + 10 ** 6)
            iid = RandomFeatureMap(g.standard_normal((M, D)) * sigma,
                                   g.uniform(0, 2 * np.pi, M))
            got_o = np.array([kernel_estimate(orf, x, xp) for x, xp in pairs])
            got_i = np.array([kernel_estimate(iid, x, xp) for x, xp in pairs])
            mse_orf.append(np.mean((got_o - want) ** 2))
            mse_iid.append(np.mean((got_i - want) ** 2))
        assert np.median(mse_orf) <= np.median(mse_iid)


class TestRfEmbed:
    def test_zero_frequencies_give_constant(self):
        M = 16
        m = RandomFeatureMap(np.zeros((M, 2)), np.zeros(M))
        z = rf_embed(m, np.array([0.3, 0.9]))
        np.testing.assert_allclose(z, np.full(M, 0.25))  # 1/sqrt(16)

    def test_spot_value_cos_pi(self):
        m = RandomFeatureMap(np.array([[np.pi]]), np.zeros(1))
        assert rf_embed(m, np.array([1.0]))[0] == pytest.approx(-1.0)

    def test_dim_mismatch(self):
        m = rks_map(3, 4, 1.0, seed=0)
        with pytest.raises(DimError):
            rf_embed(m, np.array([0.1, 0.2]))

    def test_points_outside_the_cube_are_not_clipped(self):
        m = rks_map(2, 6, 1.0, seed=4)
        x = np.array([2.5, -1.0])
        want = np.cos(m.frequencies @ x + m.phases) / np.sqrt(6)
        np.testing.assert_allclose(rf_embed(m, x), want, rtol=1e-14)

    def test_batch_matches_single(self):
        m = rks_map(2, 10, 1.0, seed=2)
        X = np.random.default_rng(1).uniform(0, 1, (5, 2))
        Z = rf_embed(m, X)
        for r, x in enumerate(X):
            np.testing.assert_allclose(Z[r], rf_embed(m, x), atol=1e-15)

    def test_peak_memory_is_one_output(self):
        m = rks_map(2, 500, 1.0, seed=3)
        X = np.random.default_rng(3).uniform(0, 1, (2000, 2))
        tracemalloc.start()
        try:
            Z = rf_embed(m, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * Z.nbytes, (peak, Z.nbytes)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_raise_invalid_point(bad):
    fmap = rks_map(2, 8, 1.0, seed=0)
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (20, 2))
    X[3, 1] = bad
    y = rng.standard_normal(20)
    calls = [lambda: rf_embed(fmap, X), lambda: rf_embed(fmap, X[3]),
             lambda: kernel_estimate(fmap, X[0], X[3]),
             lambda: kernel_estimate(fmap, X[3], X[0]),
             lambda: lkrf_select(fmap, y, X, 4),
             lambda: eerf_select(fmap, y, X, 4)]
    for call in calls:
        with pytest.raises(InvalidPoint):
            call()


@pytest.mark.parametrize("select", [lkrf_select, eerf_select])
def test_labels_checked_before_scoring(select):
    pool = rks_map(2, 40, 1.0, seed=0)
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (30, 2))
    y = rng.standard_normal(30)
    for bad in (np.nan, np.inf):
        y_bad = y.copy()
        y_bad[4] = bad
        with pytest.raises(InvalidData):
            select(pool, y_bad, X, 5)
    with pytest.raises(DimError):
        select(pool, y[:29], X, 5)


class TestSelection:
    def _pool(self, seed=0, M0=40, D=2):
        return rks_map(D, M0, 1.0, seed)

    def test_zero_labels_tie_break_keeps_first(self):
        pool = self._pool()
        X = np.random.default_rng(0).uniform(0, 1, (30, 2))
        y = np.zeros(30)
        for select in (lkrf_select, eerf_select):
            got = select(pool, y, X, 5)
            np.testing.assert_array_equal(got.frequencies, pool.frequencies[:5])

    def test_zero_labels_tie_break_across_blocks_keeps_first(self):
        # candidates are scored M at a time; a pool of 10 blocks of equal
        # scores must still keep the lowest M indices
        X = np.random.default_rng(0).uniform(0, 1, (30, 2))
        for M in (1, 5, 7):
            pool = self._pool(M0=10 * M)
            for select in (lkrf_select, eerf_select):
                got = select(pool, np.zeros(30), X, M)
                np.testing.assert_array_equal(got.frequencies,
                                              pool.frequencies[:M])

    @staticmethod
    def _full_matrix_keep(pool, y, X, M, select):
        """The float64 top-M over the whole N x M0 cosine matrix."""
        a = y @ np.cos(X @ pool.frequencies.T + pool.phases)
        score = a ** 2 if select is lkrf_select else np.abs(a) / len(y)
        return np.sort(np.argsort(-score, kind="stable")[:M])

    def _assert_full_matrix_choice(self, pool, y, X, M):
        for select in (lkrf_select, eerf_select):
            keep = self._full_matrix_keep(pool, y, X, M, select)
            got = select(pool, y, X, M)
            np.testing.assert_array_equal(got.frequencies,
                                          pool.frequencies[keep])
            np.testing.assert_array_equal(got.phases, pool.phases[keep])

    @pytest.mark.parametrize("M", [1, 4, 9])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_blocks_keep_the_full_matrix_choice(self, M, k, extra):
        M0 = k * M + extra
        pool = self._pool(seed=M0, M0=M0)
        rng = np.random.default_rng(M0)
        X = rng.uniform(0, 1, (80, 2))
        y = rng.standard_normal(80)
        self._assert_full_matrix_choice(pool, y, X, M)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_screen_keeps_the_full_matrix_choice(self, seed):
        # random shapes, pool sizes, bandwidths and label scales, points
        # partly outside the cube
        rng = np.random.default_rng(seed)
        D, M = int(rng.integers(1, 4)), int(rng.integers(1, 20))
        M0 = M * int(rng.integers(1, 12)) + int(rng.integers(0, M))
        N = int(rng.integers(8 * M, 400))
        pool = rks_map(D, M0, float(10.0 ** rng.uniform(-1, 2)), seed)
        X = rng.uniform(-0.5, 1.5, (N, D))
        y = rng.standard_normal(N) * 10.0 ** rng.uniform(-3, 3)
        self._assert_full_matrix_choice(pool, y, X, M)

    def test_near_tie_across_blocks_follows_float64(self):
        # candidates 4 and 25 share a float32 frequency, so their float32
        # scores are equal; in float64 they differ by ~1e-9 relative, and
        # the two nudges put the higher one on either side of the cut
        # (M = 3 keeps 0, 15 and one of the pair; 4 and 25 lie in blocks
        # 1 and 8)
        kept = set()
        for nudge in (1e-9, -1e-9):
            rng = np.random.default_rng(3)
            X = rng.uniform(0.0, 1.0, (500, 1))
            freqs = 10.0 * (np.arange(30) + 1.0)[:, None]
            freqs[25] = freqs[4] * (1.0 + nudge)
            assert np.float32(freqs[25, 0]) == np.float32(freqs[4, 0])
            phases = rng.uniform(0, 2 * np.pi, 30)
            phases[25] = phases[4]
            pool = RandomFeatureMap(freqs, phases)
            Z = np.cos(X @ freqs[[0, 15, 4]].T + phases[[0, 15, 4]])
            y = Z @ np.array([3.0, 2.0, 1.0])
            y -= y.mean()
            keep = self._full_matrix_keep(pool, y, X, 3, lkrf_select)
            assert {0, 15} < set(keep) and len({4, 25} & set(keep)) == 1
            kept.add(tuple(keep))
            self._assert_full_matrix_choice(pool, y, X, 3)
        assert len(kept) == 2   # the float64 choice moves with the nudge

    @pytest.mark.parametrize("x_scale, g_scale, y_scale", [
        (1e20, 1.0, 1.0),      # points far outside the cube
        (1e20, 1e30, 1.0),     # arguments near 1e50: float32 overflows
        (1.0, 1e39, 1.0),      # frequencies beyond float32's range
        (1.0, 1.0, 1e39),      # labels beyond float32's range
        (1e-40, 1.0, 1e-42),   # points and labels that underflow float32
    ])
    def test_extreme_inputs_keep_the_float64_choice(self, x_scale, g_scale,
                                                    y_scale):
        rng = np.random.default_rng(8)
        N, M = 60, 4
        pool = rks_map(2, 10 * M, 1.0, seed=8)
        pool = RandomFeatureMap(pool.frequencies * g_scale, pool.phases)
        X = rng.uniform(-1.0, 1.0, (N, 2)) * x_scale
        y = rng.standard_normal(N) * y_scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._assert_full_matrix_choice(pool, y, X, M)

    def test_selection_memory_bounded_by_blocks(self):
        N, M0, M = 2000, 4000, 8
        pool = self._pool(M0=M0)
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (N, 2))
        y = rng.standard_normal(N)
        tracemalloc.start()
        try:
            lkrf_select(pool, y, X, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole N x M0 cosine pool would be N * M0 * 8 bytes (64 MB)
        assert peak < N * M0 * 8 / 4, peak

    def test_m_equals_pool_returns_everything(self):
        pool = self._pool()
        X = np.random.default_rng(0).uniform(0, 1, (30, 2))
        y = np.random.default_rng(1).standard_normal(30)
        for select in (lkrf_select, eerf_select):
            got = select(pool, y, X, pool.M)
            np.testing.assert_array_equal(got.frequencies, pool.frequencies)

    def test_m_exceeding_pool_rejected(self):
        pool = self._pool()
        for select in (lkrf_select, eerf_select):
            for M in (pool.M + 1, 0, -1):
                with pytest.raises(InvalidM):
                    select(pool, np.zeros(3), np.zeros((3, 2)), M)

    def test_survivors_are_verbatim_pool_rows(self):
        pool = self._pool(seed=7)
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (50, 2))
        y = rng.standard_normal(50)
        for select in (lkrf_select, eerf_select):
            got = select(pool, y, X, 12)
            pool_rows = {tuple(r) for r in np.column_stack(
                [pool.frequencies, pool.phases])}
            got_rows = {tuple(r) for r in np.column_stack(
                [got.frequencies, got.phases])}
            assert got_rows <= pool_rows

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_perfectly_aligned_candidate_always_selected(self, seed):
        # plant one feature whose centered cosine values are the labels;
        # frequency magnitudes spaced far apart (cosine is even, so near
        # +/- mirrors would correlate) keep the noise scores at O(sqrt(N))
        # against the planted O(N)
        rng = np.random.default_rng(seed)
        N, M0, planted = 500, 10, 6
        X = rng.uniform(0.0, 1.0, (N, 1))
        signs = np.sign(rng.standard_normal((M0, 1)))
        freqs = (10.0 * (np.arange(M0)[:, None] + 1.0)
                 + rng.uniform(-1.0, 1.0, (M0, 1))) * signs
        pool = RandomFeatureMap(freqs, rng.uniform(0, 2 * np.pi, M0))
        z = np.cos(X[:, 0] * pool.frequencies[planted, 0] + pool.phases[planted])
        y = z - z.mean()
        for select in (lkrf_select, eerf_select):
            got = select(pool, y, X, 1)
            assert got.frequencies[0, 0] == pool.frequencies[planted, 0]
