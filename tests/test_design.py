import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eof.design import (IndexSet, enumerate_sparse_grid, entropic_select,
                        level_for_feature_count, select_design,
                        sparse_grid_size, truncate_random)
from eof.embedding import embed_batch
from eof.errors import DimError, InvalidIndex, InvalidLevel, InvalidM
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

    @pytest.mark.parametrize("D, n, first", [
        (4, 63, (1, 1, 1, 63)), (2, 100, (1, 63)), (1, 1022, (63,))])
    def test_too_deep_level_raises_before_listing(self, D, n, first):
        # codes of the layer |l| = n + D - 1 need n - 1 > 61 bits; the error
        # names the first such level vector in canonical order, and comes
        # before the level vectors are listed (at D = 4, n = 63 listing them
        # took seconds and over 100 MB)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidLevel,
                               match=rf"level vector \({', '.join(map(str, first))}"
                                     r",?\) is too deep for 64-bit keys"):
                enumerate_sparse_grid(D, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("D, last", [(2, 57), (3, 52)])
    def test_length_is_the_design_size_up_to_the_int64_limit(self, D, last):
        # the int64 offsets hold every column count up to 2^63 - 1; one past
        # it raises instead of wrapping
        for n in range(1, last + 1):
            assert len(enumerate_sparse_grid(D, n)) == sparse_grid_size(D, n)
        assert sparse_grid_size(D, last) < 2 ** 63 <= sparse_grid_size(D, last + 1)
        with pytest.raises(InvalidLevel, match="column count"):
            enumerate_sparse_grid(D, last + 1)

    def test_too_many_columns_raise_before_listing(self):
        # the first level whose full design has over 2^63 - 1 columns, though
        # each code fits; the cheapest D comes first, and listing D = 8,
        # n = 39 would take gigabytes
        for D, n in ((2, 58), (3, 53), (4, 49), (8, 39)):
            tracemalloc.start()
            try:
                with pytest.raises(InvalidLevel,
                                   match=rf"level-{n} design at D={D} must be an "
                                         r"integer in 1\.\.9223372036854775807"):
                    enumerate_sparse_grid(D, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20

    def test_deepest_listable_level(self):
        # n = 62: the top layer's codes need 61 bits, which still fit
        S = enumerate_sparse_grid(1, 62)
        assert len(S) == 2 ** 62 - 1 == sparse_grid_size(1, 62)

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
        with pytest.raises(InvalidIndex, match="duplicate"):
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
        assert T._radix.tolist() == S._radix.tolist() == (2 ** (S.levels - 1)).tolist()
        assert T.offsets.tolist() == S.offsets.tolist()
        assert len(T.codes) == len(S.codes)
        for a, b in zip(T.codes, S.codes):
            assert (a is None and b is None) or a.tolist() == b.tolist()
        assert T.indices == S.indices

    def test_empty_design(self):
        S = IndexSet(())
        assert len(S) == 0
        assert S.indices == ()
        assert S.level == 0

    @pytest.mark.parametrize("D", [1, 2, 3, 8])
    def test_level_is_the_full_design_behind_the_design(self, D):
        for n in range(1, 6):
            assert enumerate_sparse_grid(D, n).level == n
        spec = KernelSpec("laplace", omega=1.0, dim=D)
        for M in (*range(1, 40), 129, 161, 162, 1121):
            for seed in range(3):
                assert (select_design(spec, M, seed).level
                        == level_for_feature_count(D, M))

    def test_level_of_a_built_design(self):
        # one index at |l| = 5 in D = 2 needs the level-4 full design
        S = IndexSet([FeatureIndex((1, 1), (1, 1)), FeatureIndex((2, 3), (1, 5))])
        assert S.level == 4

    def test_design_path_builds_no_feature_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("FeatureIndex built on the design path")
        monkeypatch.setattr(FeatureIndex, "__post_init__", refuse)
        spec = KernelSpec("laplace", omega=1.0, dim=2)
        S = select_design(spec, 51, seed=1)
        embed_batch(spec, truncate_random(enumerate_sparse_grid(2, 9), 3000, 5),
                    np.full((3, 2), 0.3))
        embed_batch(spec, S, np.full((3, 2), 0.3))


    @pytest.mark.parametrize("D, n", [(1, 5), (2, 5), (3, 4), (4, 3)])
    def test_full_designs_are_prefixes_of_larger_ones(self, D, n):
        full = enumerate_sparse_grid(D, n)
        for m in range(1, n + 1):
            cols = full.columns_of(enumerate_sparse_grid(D, m))
            assert cols.dtype == np.int64
            assert cols.tolist() == list(range(sparse_grid_size(D, m)))

    @pytest.mark.parametrize("D, n, M, seed", [
        (2, 5, 51, 0), (2, 5, 6, 3), (1, 6, 20, 3), (3, 4, 90, 11), (4, 3, 30, 2)])
    def test_columns_of_a_truncation_are_its_indices(self, D, n, M, seed):
        full = enumerate_sparse_grid(D, n)
        S = select_design(KernelSpec("laplace", dim=D), M, seed)
        where = {idx: j for j, idx in enumerate(full.indices)}
        assert full.columns_of(S).tolist() == [where[idx] for idx in S]

    def test_columns_of_a_partial_design_in_a_partial_one(self):
        full = enumerate_sparse_grid(2, 4)
        host = truncate_random(full, 30, seed=1)
        S = IndexSet(host.indices[::3])
        assert host.columns_of(S).tolist() == list(range(0, 30, 3))
        assert len(host.columns_of(IndexSet())) == 0

    def test_columns_of_a_design_it_does_not_hold_raise(self):
        full = enumerate_sparse_grid(2, 3)
        # a deeper level vector, a position a partial level vector drops, a
        # complete level vector against a partial one, another dimension
        deeper = enumerate_sparse_grid(2, 4)
        partial = IndexSet(full.indices[:-1])
        for host, S in ((full, deeper), (partial, full),
                        (partial, IndexSet(full.indices[-1:])),
                        (full, enumerate_sparse_grid(3, 1))):
            with pytest.raises(InvalidIndex, match="not"):
                host.columns_of(S)


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
