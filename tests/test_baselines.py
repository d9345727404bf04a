import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eof import baselines
from eof.baselines import (RandomFeatureMap, eerf_select, kernel_estimate,
                           lkrf_select, orf_map, rf_embed, rks_map)
from eof.errors import InvalidData


class TestRksMap:
    def test_deterministic_under_seed(self):
        a = rks_map(3, 20, 1.5, seed=9)
        b = rks_map(3, 20, 1.5, seed=9)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_phases_in_range(self):
        m = rks_map(2, 500, 1.0, seed=0)
        assert np.all(m.phases >= 0.0) and np.all(m.phases < 2.0 * np.pi)

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


    @staticmethod
    def _per_block_orf(D, M, sigma, seed):
        """The orthogonal blocks built one QR at a time."""
        rng = np.random.default_rng(seed)
        blocks = []
        for _ in range(-(-M // D)):
            Q, R = np.linalg.qr(rng.standard_normal((D, D)))
            Q = Q * np.sign(np.diag(R))
            chi = np.sqrt(rng.chisquare(D, size=D))
            blocks.append(sigma * chi[:, None] * Q)
        return np.vstack(blocks)[:M], rng.uniform(0.0, 2.0 * np.pi, M)

    @pytest.mark.parametrize("D", [1, 2, 3, 8])
    def test_stacked_qr_matches_per_block_qr(self, D):
        for M, seed, sigma in product((1, D, D + 1, 129), (0, 17), (0.5, 3.0)):
            freqs, phases = self._per_block_orf(D, M, sigma, seed)
            m = orf_map(D, M, sigma, seed)
            assert m.frequencies.tobytes() == freqs.tobytes()
            assert m.phases.tobytes() == phases.tobytes()


class TestRfEmbed:
    def test_zero_frequencies_give_constant(self):
        M = 16
        m = RandomFeatureMap(np.zeros((M, 2)), np.zeros(M))
        z = rf_embed(m, np.array([0.3, 0.9]))
        np.testing.assert_allclose(z, np.full(M, 0.25))  # 1/sqrt(16)

    def test_spot_value_cos_pi(self):
        m = RandomFeatureMap(np.array([[np.pi]]), np.zeros(1))
        assert rf_embed(m, np.array([1.0]))[0] == pytest.approx(-1.0)

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

    def test_float32_map_is_its_float64_copy(self):
        m = rks_map(3, 7, 1.0, seed=5)
        m32 = RandomFeatureMap(m.frequencies.astype(np.float32),
                               m.phases.astype(np.float32))
        m64 = RandomFeatureMap(m32.frequencies.astype(float), m32.phases.astype(float))
        X = np.random.default_rng(5).uniform(0, 1, (20, 3))
        np.testing.assert_array_equal(rf_embed(m32, X), rf_embed(m64, X))

    def test_map_from_nested_lists_is_its_array_map(self):
        m = rks_map(2, 12, 1.0, seed=8)
        listed = RandomFeatureMap(m.frequencies.tolist(), m.phases.tolist())
        X = np.random.default_rng(8).uniform(0, 1, (30, 2))
        y = np.random.default_rng(9).standard_normal(30)
        np.testing.assert_array_equal(rf_embed(listed, X), rf_embed(m, X))
        assert kernel_estimate(listed, X[0], X[1]) == kernel_estimate(m, X[0], X[1])
        kept, want = lkrf_select(listed, y, X, 4), lkrf_select(m, y, X, 4)
        np.testing.assert_array_equal(kept.frequencies, want.frequencies)
        np.testing.assert_array_equal(kept.phases, want.phases)

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

    @pytest.mark.parametrize("D", [1, 2, 7, 33])
    def test_within_its_bound_of_np_cos_of_the_same_gemm(self, D):
        # the GEMM with [G | b] / 2 gives exactly half of t = X1 Gb^T, so only
        # the cosine, the scale and the reference's own roundings differ;
        # M = 1 and one point take numpy's matrix-vector paths
        rng = np.random.default_rng(D)
        for M, N in product((1, 2, 129), (1, 2000)):
            m = rks_map(D, M, 2.0, seed=M)
            Gb = np.column_stack([m.frequencies, m.phases])
            X = rng.uniform(-0.5, 1.5, (N, D))
            for x in (X, X[0]):
                t = np.append(x, np.ones(x.shape[:-1] + (1,)), axis=-1) @ Gb.T
                np.testing.assert_allclose(
                    rf_embed(m, x), np.cos(t) / np.sqrt(M), rtol=0,
                    atol=RF_ATOL / np.sqrt(M))


# the float64 tangent-formula cosine against np.cos, absolutely: 6 u64 by
# _cosines' derivation, 3 u64 measured
COS_ATOL = 2.0 ** -50
# rf_embed against np.cos(t) / sqrt(M), in units of 1/sqrt(M): 13/2 u64 for
# _cosines at s = fl(1 / fl(sqrt(M))), 2 u64 for s against 1/sqrt(M), and
# 4 u64 for the reference (np.cos within 1 ulp, fl(sqrt(M)) and the
# quotient); 12.5 u64 to first order, 13 u64 with the second
RF_ATOL = 13 * 2.0 ** -53


def _cos_of(t):
    """``_cosines`` of the arguments t, as one column: [t | 1] times [1 | -0]
    (t + -0 is t)."""
    t = np.asarray(t)
    X1 = np.stack([t, np.ones_like(t)], axis=1)
    return baselines._cosines(X1, np.array([[1.0, -0.0]], t.dtype))[:, 0]


class TestRandomFeatureMap:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "a"],
                             ids=["nan", "inf", "-inf", "string"])
    @pytest.mark.parametrize("field", ["frequencies", "phases"])
    def test_value_that_is_not_a_finite_real_raises(self, field, bad):
        values = {"frequencies": [[0.5, 1.0], [2.0, -1.0]], "phases": [0.5, 1.5]}
        if field == "frequencies":
            values[field][1][0] = bad
        else:
            values[field][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidData, match=field):
                RandomFeatureMap(**values)

    def test_fields_are_float_arrays(self):
        m = RandomFeatureMap([[1, 2]], [True])
        assert (m.frequencies.dtype, m.phases.dtype) == (np.float64, np.float64)
        assert m.frequencies.tolist() == [[1.0, 2.0]] and m.phases.tolist() == [1.0]


class TestCosines:
    @pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (10.0, 1e5),
                                        (1e5, 1e15), (1e15, 1e300)])
    def test_float64_within_atol_of_np_cos(self, lo, hi):
        rng = np.random.default_rng(int(np.log10(hi)))
        if lo == 0.0:
            t = rng.uniform(lo, hi, 100_000)
        else:   # log-uniform, so every decade is sampled
            t = np.exp(rng.uniform(np.log(lo), np.log(hi), 100_000))
        t *= rng.choice([-1.0, 1.0], t.size)
        np.testing.assert_allclose(_cos_of(t), np.cos(t), rtol=0, atol=COS_ATOL)

    def test_special_values_match_np_cos(self):
        t = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(_cos_of(t), np.cos(t))

    def test_finite_arguments_raise_no_warning(self):
        t = np.array([0.0, 5e-324, 1e-300, np.pi / 2, np.pi, 2 * np.pi,
                      1e20, 1e300, np.finfo(float).max, -np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = _cos_of(t)
        np.testing.assert_allclose(z, np.cos(t), rtol=0, atol=COS_ATOL)

    def test_float32_is_np_cos(self):
        t = np.random.default_rng(5).uniform(-1e4, 1e4, 10_000).astype(np.float32)
        z = _cos_of(t)
        assert z.dtype == np.float32
        np.testing.assert_array_equal(z, np.cos(t))


class TestSelection:
    def _pool(self, seed=0, M0=40, D=2):
        return rks_map(D, M0, 1.0, seed)

    def test_zero_labels_tie_break_keeps_first(self):
        pool = self._pool()
        X = np.random.default_rng(0).uniform(0, 1, (30, 2))
        got = eerf_select(pool, np.zeros(30), X, 5)
        np.testing.assert_array_equal(got.frequencies, pool.frequencies[:5])

    def test_zero_labels_tie_break_across_blocks_keeps_first(self):
        # candidates are scored M at a time; a pool of 10 blocks of equal
        # scores must still keep the lowest M indices
        X = np.random.default_rng(0).uniform(0, 1, (30, 2))
        for M in (1, 5, 7):
            pool = self._pool(M0=10 * M)
            got = eerf_select(pool, np.zeros(30), X, M)
            np.testing.assert_array_equal(got.frequencies, pool.frequencies[:M])

    def test_lkrf_runs_the_eerf_rule(self):
        assert lkrf_select is eerf_select

    @staticmethod
    def _full_matrix_keep(pool, y, X, M):
        """The float64 top-M over the whole N x M0 cosine matrix."""
        a = y @ np.cos(X @ pool.frequencies.T + pool.phases)
        return np.sort(np.argsort(-np.abs(a), kind="stable")[:M])

    def _assert_full_matrix_choice(self, pool, y, X, M):
        keep = self._full_matrix_keep(pool, y, X, M)
        got = eerf_select(pool, y, X, M)
        np.testing.assert_array_equal(got.frequencies, pool.frequencies[keep])
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
            keep = self._full_matrix_keep(pool, y, X, 3)
            assert {0, 15} < set(keep) and len({4, 25} & set(keep)) == 1
            kept.add(tuple(keep))
            self._assert_full_matrix_choice(pool, y, X, 3)
        assert len(kept) == 2   # the float64 choice moves with the nudge

    def test_screen_bound_is_infinite_past_its_row_limit(self):
        # (N + D + 4) u > 1/2 at N = 2^23 rows; a broadcast view holds them
        pool = self._pool(M0=6)
        y = np.broadcast_to(1.0, (2 ** 23,))
        err = baselines._screen_error(pool.frequencies, pool.phases,
                                      np.zeros((1, 2)), y)
        assert err.tolist() == [np.inf] * 6

    def test_unbounded_screen_rescores_every_candidate(self, monkeypatch):
        # an infinite bound (here from a large u) decides no candidate, so
        # all are scored in float64 and float64 chooses
        monkeypatch.setattr(baselines, "U32", 0.5)
        columns = []
        cosines = baselines._cosines

        def counted(X1, Gb):
            if Gb.dtype == np.float64:
                columns.append(len(Gb))
            return cosines(X1, Gb)

        monkeypatch.setattr(baselines, "_cosines", counted)
        pool = self._pool(M0=40)
        rng = np.random.default_rng(4)
        X, y = rng.uniform(0, 1, (50, 2)), rng.standard_normal(50)
        self._assert_full_matrix_choice(pool, y, X, 7)
        assert sum(columns) == 40   # all of the pool

    def test_only_the_near_candidates_are_rescored(self, monkeypatch):
        # in the near-tie setup only candidates 4 and 25 straddle the cut, so
        # two float64 columns are scored, not their two blocks of M = 3
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 1.0, (500, 1))
        freqs = 10.0 * (np.arange(30) + 1.0)[:, None]
        freqs[25] = freqs[4] * (1.0 + 1e-9)
        phases = rng.uniform(0, 2 * np.pi, 30)
        phases[25] = phases[4]
        y = np.cos(X @ freqs[[0, 15, 4]].T + phases[[0, 15, 4]]) @ [3.0, 2.0, 1.0]
        y -= y.mean()
        columns = []
        cosines = baselines._cosines

        def counted(X1, Gb):
            if Gb.dtype == np.float64:
                columns.append(len(Gb))
            return cosines(X1, Gb)

        monkeypatch.setattr(baselines, "_cosines", counted)
        lkrf_select(RandomFeatureMap(freqs, phases), y, X, 3)
        assert sum(columns) == 2, columns

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

    def test_all_near_candidates_rescored_in_bounded_memory(self):
        # zero labels leave every candidate at the cut, so the whole pool is
        # scored again in float64, still M columns at a time
        N, M0, M = 2000, 4000, 8
        pool = self._pool(M0=M0)
        X = np.random.default_rng(5).uniform(0, 1, (N, 2))
        tracemalloc.start()
        try:
            got = lkrf_select(pool, np.zeros(N), X, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got.frequencies, pool.frequencies[:M])
        assert peak < N * M0 * 8 / 4, peak

    def test_m_equals_pool_returns_everything(self):
        pool = self._pool()
        X = np.random.default_rng(0).uniform(0, 1, (30, 2))
        y = np.random.default_rng(1).standard_normal(30)
        got = eerf_select(pool, y, X, pool.M)
        np.testing.assert_array_equal(got.frequencies, pool.frequencies)

    def test_survivors_are_verbatim_pool_rows(self):
        pool = self._pool(seed=7)
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (50, 2))
        y = rng.standard_normal(50)
        got = eerf_select(pool, y, X, 12)
        pool_rows = {tuple(r) for r in np.column_stack([pool.frequencies, pool.phases])}
        got_rows = {tuple(r) for r in np.column_stack([got.frequencies, got.phases])}
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
        got = eerf_select(pool, y, X, 1)
        assert got.frequencies[0, 0] == pool.frequencies[planted, 0]
