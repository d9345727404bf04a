import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eof.design import (IndexSet, enumerate_sparse_grid, entropic_select,
                        level_for_feature_count, select_design,
                        sparse_grid_size, truncate_random)
from eof.embedding import embed_batch
from eof.errors import DimError, InvalidLevel, InvalidM
from eof.features import FeatureIndex
from eof.kernels import KernelSpec, norm_const


def brute_force_grid(D, n):
    out = []
    for l in itertools.product(range(1, n + D), repeat=D):
        if sum(l) > n + D - 1:
            continue
        pos_ranges = [range(1, 2 ** ld, 2) for ld in l]
        for i in itertools.product(*pos_ranges):
            out.append(FeatureIndex(l, i))
    return set(out)


class TestEnumerateSparseGrid:
    def test_d1_n3_has_seven(self):
        S = enumerate_sparse_grid(1, 3)
        assert len(S) == 7  # 1 + 2 + 4

    def test_d2_n2_contents(self):
        S = enumerate_sparse_grid(2, 2)
        got = {(idx.l, idx.i) for idx in S}
        assert got == {((1, 1), (1, 1)),
                       ((1, 2), (1, 1)), ((1, 2), (1, 3)),
                       ((2, 1), (1, 1)), ((2, 1), (3, 1))}

    def test_d1_n1_single_index(self):
        S = enumerate_sparse_grid(1, 1)
        assert len(S) == 1
        assert (S.indices[0].l, S.indices[0].i) == ((1,), (1,))

    def test_invalid_level(self):
        with pytest.raises(InvalidLevel):
            enumerate_sparse_grid(2, 0)

    def test_matches_brute_force(self):
        for D in (1, 2, 3, 4):
            for n in range(1, 7):
                S = enumerate_sparse_grid(D, n)
                assert set(S.indices) == brute_force_grid(D, n)
                assert len(S) == sparse_grid_size(D, n)

    def test_canonical_sort_order(self):
        for D, n in ((2, 3), (8, 4), (2, 9)):
            keys = [idx.sort_key() for idx in enumerate_sparse_grid(D, n)]
            assert keys == sorted(keys)

    def test_monotone_nesting(self):
        for D in (1, 2, 3):
            prev = set()
            for n in range(1, 6):
                cur = set(enumerate_sparse_grid(D, n).indices)
                assert prev <= cur
                prev = cur


class TestIndexSet:
    def test_duplicate_features_rejected(self):
        f = FeatureIndex((1, 2), (1, 3))
        with pytest.raises(ValueError, match="duplicate"):
            IndexSet((f, FeatureIndex((1, 1), (1, 1)), f))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimError):
            IndexSet((FeatureIndex((1,), (1,)), FeatureIndex((1, 1), (1, 1))))

    @pytest.mark.parametrize("design", [
        lambda: enumerate_sparse_grid(3, 4),
        lambda: truncate_random(enumerate_sparse_grid(2, 6), 40, seed=3)],
        ids=["full", "truncated"])
    def test_rebuilt_from_features_keeps_layout(self, design):
        S = design()
        T = IndexSet(S.indices)
        assert T.levels.tolist() == S.levels.tolist()
        assert T.offsets.tolist() == S.offsets.tolist()
        assert len(T.codes) == len(S.codes)
        for a, b in zip(T.codes, S.codes):
            assert (a is None and b is None) or a.tolist() == b.tolist()
        assert T.indices == S.indices

    def test_empty_design(self):
        S = IndexSet(())
        assert len(S) == 0
        assert S.indices == ()

    def test_design_path_builds_no_feature_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("FeatureIndex built on the design path")
        monkeypatch.setattr(FeatureIndex, "__post_init__", refuse)
        spec = KernelSpec("laplace", omega=1.0, dim=2)
        S = select_design(spec, 51, seed=1)
        embed_batch(spec, truncate_random(enumerate_sparse_grid(2, 9), 3000, 5),
                    np.full((3, 2), 0.3))
        embed_batch(spec, S, np.full((3, 2), 0.3))


class TestEntropicSelect:
    def test_select_all_returns_full_set(self):
        S = enumerate_sparse_grid(2, 2)
        spec = KernelSpec("laplace", omega=1.0, dim=2)
        C = {idx: norm_const(spec, idx.l) for idx in S}
        got = entropic_select(S, C, 5)
        assert set(got.indices) == set(S.indices)

    def test_m1_picks_coarsest(self):
        S = enumerate_sparse_grid(2, 2)
        spec = KernelSpec("laplace", omega=1.0, dim=2)
        C = {idx: norm_const(spec, idx.l) for idx in S}
        got = entropic_select(S, C, 1)
        assert got.indices[0].l == (1, 1)

    def test_recovers_sparse_grid_at_full_cardinality(self):
        # level-decreasing constants and M = |S*_n| select exactly S*_n
        spec = KernelSpec("laplace", omega=2.0, dim=2)
        for n in (2, 3, 4):
            pool = enumerate_sparse_grid(2, n + 1)
            C = {idx: norm_const(spec, idx.l) for idx in pool}
            M = sparse_grid_size(2, n)
            got = entropic_select(pool, C, M)
            assert set(got.indices) == set(enumerate_sparse_grid(2, n).indices)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_exhaustive_subset_maximum(self, seed):
        rng = np.random.default_rng(seed)
        n_cand = int(rng.integers(2, 16))
        pool = enumerate_sparse_grid(1, 5).indices[:n_cand]
        cand = IndexSet(tuple(pool))
        C = {idx: float(v) for idx, v in zip(pool, rng.uniform(0.1, 10.0, n_cand))}
        M = int(rng.integers(1, n_cand + 1))
        got = sum(C[idx] for idx in entropic_select(cand, C, M))
        best = max(sum(C[i] for i in sub)
                   for sub in itertools.combinations(pool, M))
        assert got == pytest.approx(best, rel=1e-12)

    def test_oversized_m_raises(self):
        # like truncate_random and the LKRF/EERF selection: no warning, no clamp
        S = enumerate_sparse_grid(1, 2)
        C = {idx: 1.0 for idx in S}
        with pytest.raises(InvalidM):
            entropic_select(S, C, len(S) + 1)
        assert len(entropic_select(S, C, len(S))) == len(S)


class TestTruncateRandom:
    def test_full_m_returns_everything(self):
        full = enumerate_sparse_grid(2, 3)
        for seed in (0, 1, 99):
            assert truncate_random(full, len(full), seed).indices == full.indices

    def test_deterministic_under_seed(self):
        full = enumerate_sparse_grid(1, 3)
        a = truncate_random(full, 3, seed=42)
        b = truncate_random(full, 3, seed=42)
        assert a.indices == b.indices

    def test_seeds_differ_with_high_probability(self):
        full = enumerate_sparse_grid(1, 3)
        subsets = {truncate_random(full, 3, seed=s).indices for s in range(100)}
        # C(7,3) = 35 possible subsets; 100 draws must not collapse
        assert len(subsets) > 20

    def test_preserves_canonical_order(self):
        full = enumerate_sparse_grid(2, 4)
        got = truncate_random(full, 10, seed=5)
        keys = [idx.sort_key() for idx in got]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("D, n, M, seed", [
        (2, 5, 51, 0), (2, 5, 51, 7), (1, 6, 20, 3), (3, 4, 90, 11),
        (8, 3, 100, 2), (2, 9, 3000, 5)])
    def test_keeps_the_seeded_sorted_column_draw(self, D, n, M, seed):
        # the bench's M = 51 design, and so its test error, rests on this rule
        full = enumerate_sparse_grid(D, n)
        cols = np.sort(np.random.default_rng(seed).choice(len(full), M,
                                                          replace=False))
        want = tuple(full.indices[j] for j in cols)
        assert truncate_random(full, M, seed).indices == want

    def test_out_of_range_m(self):
        full = enumerate_sparse_grid(1, 3)
        with pytest.raises(InvalidM):
            truncate_random(full, 0, seed=0)
        with pytest.raises(InvalidM):
            truncate_random(full, 8, seed=0)


class TestLevelForFeatureCount:
    def test_bracketing_rule(self):
        # smallest n with |S*_n| >= M
        for D in (1, 2, 3):
            for M in (1, 2, 5, 17, 40, 129):
                n = level_for_feature_count(D, M)
                assert sparse_grid_size(D, n) >= M
                assert n == 1 or sparse_grid_size(D, n - 1) < M
