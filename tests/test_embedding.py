import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

from eof.design import (IndexSet, enumerate_sparse_grid, select_design,
                        sparse_grid_size, truncate_random)
from eof.embedding import (SCALE_PLAIN, SCALE_SQRT, embed, embed_batch,
                           kernel_approx)
from eof.errors import DimError, InvalidLevel, InvalidPoint
from eof.features import FeatureIndex, phi_nd
from eof.kernels import KernelSpec, expansion_coeff, kernel_eval

BB1 = KernelSpec("bb", dim=1)
SCALES = [SCALE_SQRT, SCALE_PLAIN]


def dense_oracle(spec, S, X, scale=SCALE_SQRT):
    """The dense embedding of the rows of ``X`` (one point gives one row),
    one ``phi_nd`` call per feature over all rows."""
    X = np.atleast_2d(X)
    out = np.zeros((len(X), len(S)))
    for col, idx in enumerate(S):
        c = expansion_coeff(spec, idx.l)
        factor = np.sqrt(c) if scale == SCALE_SQRT else 1.0
        out[:, col] = factor * phi_nd(spec, idx, X)
    return out


class TestEmbed:
    def test_generic_point_nnz_formula(self):
        # one nonzero per level vector when no coordinate is dyadic
        for D, n in ((1, 4), (2, 3), (3, 3)):
            spec = KernelSpec("laplace", omega=2.0, dim=D)
            S = enumerate_sparse_grid(D, n)
            x = np.full(D, 1.0 / np.pi)
            assert embed(spec, S, x).nnz == comb(n + D - 1, D)

    def test_bb_at_half_single_entry(self):
        S = enumerate_sparse_grid(1, 3)
        v = embed(BB1, S, [0.5])
        assert v.shape == (1, len(S))
        assert v.nnz == 1
        # sqrt(C_1) * phi = sqrt(1/4) * 1
        assert v.data[0] == pytest.approx(0.5)
        assert S.indices[v.indices[0]].l == (1,)

    def test_boundary_embeds_to_zero(self):
        S = enumerate_sparse_grid(2, 3)
        spec = KernelSpec("laplace", omega=1.0, dim=2)
        assert embed(spec, S, [0.0, 0.3]).nnz == 0 or \
            np.all(embed(spec, S, [0.0, 0.3]).toarray()[0] == 0.0)
        assert embed(spec, S, [0.0, 0.0]).nnz == 0

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 5),
           st.sampled_from(SCALES))
    def test_matches_dense_evaluation(self, seed, D, n, scale):
        rng = np.random.default_rng(seed)
        spec = KernelSpec("laplace", omega=float(rng.uniform(0.5, 4.0)), dim=D)
        S = enumerate_sparse_grid(D, n)
        x = rng.uniform(0.0, 1.0, D)
        got = embed(spec, S, x, scale=scale).toarray()[0]
        want = dense_oracle(spec, S, x, scale=scale)[0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_at_most_one_nonzero_per_level(self):
        rng = np.random.default_rng(3)
        spec = KernelSpec("bb", dim=2)
        S = enumerate_sparse_grid(2, 4)
        X = np.array([rng.uniform(0.0, 1.0, 2) for _ in range(50)])
        for dense in dense_oracle(spec, S, X):
            per_level = {}
            for col, idx in enumerate(S):
                if dense[col] != 0.0:
                    per_level[idx.l] = per_level.get(idx.l, 0) + 1
            assert all(v == 1 for v in per_level.values())

    def test_truncated_design_membership_filter(self):
        full = enumerate_sparse_grid(2, 4)
        sub = truncate_random(full, 20, seed=1)
        spec = KernelSpec("laplace", omega=1.0, dim=2)
        x = [0.312, 0.718]
        np.testing.assert_allclose(embed(spec, sub, x).toarray()[0],
                                   dense_oracle(spec, sub, x)[0], atol=1e-12)


class TestEmbedBatch:
    def test_single_row_equals_embed(self):
        spec = KernelSpec("laplace", omega=1.5, dim=2)
        S = enumerate_sparse_grid(2, 3)
        X = np.array([[0.21, 0.77], [0.3, 0.6]])
        F = embed_batch(spec, S, X)
        end = F.indptr[1]
        row = embed(spec, S, X[0])
        assert row.format == "csr" and row.shape == (1, len(S))
        for got, want in ((row.indptr, F.indptr[:2]),
                          (row.indices, F.indices[:end]),
                          (row.data, F.data[:end])):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_duplicate_rows_identical(self):
        spec = KernelSpec("bb", dim=2)
        S = enumerate_sparse_grid(2, 3)
        X = np.tile([0.3, 0.6], (4, 1))
        F = embed_batch(spec, S, X).toarray()
        assert np.all(F == F[0])

    def test_nnz_bound_and_dense_oracle(self):
        rng = np.random.default_rng(0)
        spec = KernelSpec("laplace", omega=2.0, dim=2)
        S = enumerate_sparse_grid(2, 4)
        X = rng.uniform(0.0, 1.0, (100, 2))
        F = embed_batch(spec, S, X)
        assert F.nnz <= 100 * comb(5, 2)
        np.testing.assert_allclose(F.toarray(), dense_oracle(spec, S, X), atol=1e-12)

    def test_ragged_input_rejected(self):
        spec = KernelSpec("bb", dim=2)
        S = enumerate_sparse_grid(2, 2)
        with pytest.raises(DimError):
            embed_batch(spec, S, np.array([[0.1], [0.2]]))
        with pytest.raises(DimError):
            embed_batch(spec, S, np.array([0.1, 0.2]))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 5),
           st.sampled_from(["laplace", "sobolev", "bb"]), st.sampled_from(SCALES))
    def test_truncated_designs_match_dense_oracle(self, seed, D, n, kind, scale):
        rng = np.random.default_rng(seed)
        full = enumerate_sparse_grid(D, n)
        S = truncate_random(full, int(rng.integers(1, len(full) + 1)), seed=seed)
        spec = KernelSpec(kind, omega=float(rng.uniform(0.5, 4.0)), dim=D)
        # generic rows, rows on dyadic nodes of every level in the design,
        # and the corners 0 and 1
        X = np.vstack([rng.uniform(0.0, 1.0, (6, D)),
                       rng.integers(0, 2 ** n + 1, (6, D)) / 2.0 ** n,
                       np.zeros(D), np.ones(D)])
        got = embed_batch(spec, S, X, scale=scale)
        assert got.has_sorted_indices
        np.testing.assert_allclose(got.toarray(), dense_oracle(spec, S, X, scale=scale),
                                   atol=1e-12)

    def test_deep_single_feature_level(self):
        # the lookup holds one key, not a table of 2^29 positions
        S = IndexSet((FeatureIndex((30,), (2 ** 29 + 1,)),))
        X = np.array([[0.5 + 2.0 ** -30], [0.5 + 2.0 ** -31], [0.5], [0.25]])
        tracemalloc.start()
        try:
            F = embed_batch(BB1, S, X, scale=SCALE_PLAIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        np.testing.assert_array_equal(F.toarray()[:, 0], [1.0, 0.5, 0.0, 0.0])

    def test_wrapping_level_key_rejected(self):
        # sum(l_d - 1) = 78 bits: the int64 keys of these two features wrap
        # onto each other, which put a point at the second centre in the
        # first feature's column; the design refuses to hold them
        with pytest.raises(InvalidLevel, match=r"\(40, 40\)"):
            IndexSet((FeatureIndex((40, 40), (1, 1)),
                      FeatureIndex((40, 40), (2 ** 26 + 1, 1))))

    def test_level_beyond_int64_rejected(self):
        with pytest.raises(InvalidLevel, match=r"\(64,\)"):
            IndexSet((FeatureIndex((64,), (2 ** 63 + 1,)),))

    def test_columns_past_int32(self):
        # 2^32 - 1 columns: level 32 starts at column 2^31 - 1, so its
        # columns wrapped to negative numbers in an int32 table
        S = enumerate_sparse_grid(1, 32)
        F = embed_batch(KernelSpec("laplace", dim=1), S, [[0.9999999]],
                        scale=SCALE_PLAIN)
        assert F.nnz == 32 and F.indices.min() >= 0
        assert F.indices[-1] == 2 ** 31 - 1 + int(0.9999999 * 2 ** 31) == 4294967080

    def test_custom_pq_matches_closed_form(self):
        omega = 2.0
        custom = KernelSpec("custom", omega=omega, dim=2,
                            p=lambda x: np.exp(omega * x),
                            q=lambda x: np.exp(-omega * x))
        lap = KernelSpec("laplace", omega=omega, dim=2)
        S = truncate_random(enumerate_sparse_grid(2, 5), 60, seed=2)
        rng = np.random.default_rng(4)
        X = np.vstack([rng.uniform(0.0, 1.0, (40, 2)), [[0.0, 0.25], [1.0, 0.5]]])
        for scale in SCALES:
            np.testing.assert_allclose(
                embed_batch(custom, S, X, scale=scale).toarray(),
                embed_batch(lap, S, X, scale=scale).toarray(), atol=1e-12)

    def test_deep_custom_level_raises_only_inside_its_kept_support(self):
        # the Laplace pair as a custom kernel loses its step Wronskian at
        # level 54 away from 0; position 1 keeps it, so a design of that one
        # feature embeds every row, the rows it never touches as 0
        pq = dict(omega=2.0, p=lambda x: np.exp(2.0 * x),
                  q=lambda x: np.exp(-2.0 * x))
        custom = KernelSpec("custom", **pq)
        h = 2.0 ** -54
        S = IndexSet((FeatureIndex((54,), (1,)),))
        X = np.vstack([np.random.default_rng(0).uniform(0.0, 0.5, (200, 1)),
                       [[0.5 * h]]])
        for scale in SCALES:
            F = embed_batch(custom, S, X, scale=scale).toarray()
            assert np.all(F[:-1] == 0.0) and F[-1, 0] > 0.0
            for x, row in zip(X, F):
                np.testing.assert_array_equal(
                    embed_batch(custom, S, x[None], scale=scale).toarray()[0], row)
        # at D = 2, a row inside the bad support in the first dimension but on
        # an even node in the second lies off the feature's open support
        custom2 = KernelSpec("custom", dim=2, **pq)
        S2 = IndexSet((FeatureIndex((54, 1), (2 ** 52 + 1, 1)),))
        z = 0.25 + h    # the centre, one ulp above 0.25
        F = embed_batch(custom2, S2, [[z, 0.0], [z, 1.0], [0.1, 0.3]],
                        scale=SCALE_PLAIN)
        assert F.nnz == 0
        with pytest.raises(InvalidLevel, match=r"\(54, 1\)"):
            embed_batch(custom2, S2, [[z, 0.3]], scale=SCALE_PLAIN)
        with pytest.raises(InvalidLevel, match="level 54"):
            phi_nd(custom2, S2.indices[0], [0.1, 0.3])

    def test_scale_options_consistent(self):
        spec = KernelSpec("laplace", omega=1.0, dim=1)
        S = enumerate_sparse_grid(1, 3)
        X = np.array([[0.3], [0.7]])
        sq = embed_batch(spec, S, X, scale=SCALE_SQRT).toarray()
        plain = embed_batch(spec, S, X, scale=SCALE_PLAIN).toarray()
        C = np.array([expansion_coeff(spec, idx.l) for idx in S])
        np.testing.assert_allclose(sq, plain * np.sqrt(C), atol=1e-14)


def _grouped_columns(S):
    """The design's columns grouped by level vector, {l: {i: column}}, read
    from its FeatureIndex objects."""
    grouped = {}
    for col, idx in enumerate(S.indices):
        grouped.setdefault(idx.l, {})[idx.i] = col
    return grouped


def _level_keys(l, positions):
    """Sorted mixed-radix keys of one level's positions, and their columns."""
    pos = np.array(list(positions), dtype=np.int64).reshape(-1, len(l))
    keys = np.zeros(len(pos), dtype=np.int64)
    for d, ld in enumerate(l):
        keys = keys * 2 ** (ld - 1) + pos[:, d] // 2
    order = np.argsort(keys)
    return keys[order], np.fromiter(positions.values(), np.int64)[order]


def _profile_reference(spec, l, i, x):
    """The bb, sobolev and Laplace 1-D profiles written as whole-array
    selections, independently of ``kernels._profile_1d``."""
    h = 2.0 ** (-l)
    dist = np.abs(x - i * h)
    inside = dist < h
    if spec.kind in ("bb", "sobolev"):
        return np.where(inside, 1.0 - dist / h, 0.0)
    assert spec.kind == "laplace"
    # sinh(a) / sinh(b) = e^{a-b} (1 - e^{-2a}) / (1 - e^{-2b})
    a, b = spec.omega * (h - np.minimum(dist, h)), spec.omega * h
    with np.errstate(divide="ignore", invalid="ignore"):
        num = -np.expm1(-2.0 * a)
        den = -np.expm1(-2.0 * b)
        ratio = np.exp(a - b) * num / den
    return np.where(inside, np.where(den == 0.0, np.where(a == b, 1.0, 0.0),
                                     ratio), 0.0)


def coo_reference(spec, S, X, scale):
    """The COO assembly that the level-by-row tables replaced: per level
    vector, a key search for every row, then COO triplets sorted into CSR.
    It reads the design only through its FeatureIndex objects."""
    N = X.shape[0]
    profiles = {}
    rows_out, cols_out, vals_out = [], [], []
    for l, positions in _grouped_columns(S).items():
        keys, cols = _level_keys(l, positions)
        code = np.zeros(N, dtype=np.int64)
        hit = np.ones(N, dtype=bool)
        for d, ld in enumerate(l):
            if (d, ld) not in profiles:
                t = X[:, d] * 2.0 ** ld
                up = np.ceil(t).astype(np.int64)
                i = np.where(up % 2 == 1, up, np.floor(t).astype(np.int64))
                odd = i % 2 == 1
                profiles[d, ld] = (np.where(odd, i // 2, -1), _profile_reference(
                    spec, ld, np.where(odd, i, 1), X[:, d]))
            half = profiles[d, ld][0]
            code = code * 2 ** (ld - 1) + half
            hit &= half >= 0
        at = np.minimum(np.searchsorted(keys, code), len(keys) - 1)
        hit &= keys[at] == code
        rows = np.flatnonzero(hit)
        c = expansion_coeff(spec, l)
        factor = np.sqrt(c) if scale == SCALE_SQRT else 1.0
        value = np.full(len(rows), factor)
        for d, ld in enumerate(l):
            value *= profiles[d, ld][1][rows]
        keep = value != 0.0
        rows_out.append(rows[keep])
        cols_out.append(cols[at[rows[keep]]])
        vals_out.append(value[keep])
    out = sp.csr_matrix(
        (np.concatenate(vals_out or [np.empty(0)]),
         (np.concatenate(rows_out or [np.empty(0, np.int64)]),
          np.concatenate(cols_out or [np.empty(0, np.int64)]))),
        shape=(N, len(S)))
    out.sort_indices()
    return out


def _test_rows(D, n, N, seed):
    """Generic rows, rows on dyadic nodes down to level n, 0 and 1, and rows
    one ulp from 1, from 0 and on either side of 1/2 in every coordinate."""
    rng = np.random.default_rng(seed)
    ulps = np.array([1.0 - 2.0 ** -53, 5e-324,
                     np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)])
    return np.vstack([rng.uniform(0.0, 1.0, (N, D)),
                      rng.integers(0, 2 ** n + 1, (N, D)) / 2.0 ** n,
                      np.zeros(D), np.ones(D), np.repeat(ulps[:, None], D, axis=1)])


def _shuffled(S, seed):
    order = np.random.default_rng(seed).permutation(len(S))
    return IndexSet(tuple(S.indices[j] for j in order))


_FULL_D2_N9 = enumerate_sparse_grid(2, 9)
ASSEMBLY_CASES = {
    "full-d1-n6": (KernelSpec("laplace", omega=2.0, dim=1),
                   lambda: enumerate_sparse_grid(1, 6), 6, 300),
    "full-d8-n4": (KernelSpec("laplace", omega=2.0, dim=8),
                   lambda: enumerate_sparse_grid(8, 4), 4, 300),
    "full-d2-n9": (KernelSpec("laplace", omega=2.0, dim=2),
                   lambda: _FULL_D2_N9, 9, 500),
    "subset-d2-n9-m3000": (KernelSpec("laplace", omega=2.0, dim=2),
                           lambda: truncate_random(_FULL_D2_N9, 3000, seed=5),
                           9, 500),
    "bb-d4-m300": (KernelSpec("bb", dim=4),
                   lambda: truncate_random(enumerate_sparse_grid(4, 5), 300,
                                           seed=2), 5, 300),
    "sobolev-d3-n4": (KernelSpec("sobolev", omega=1.5, dim=3),
                      lambda: enumerate_sparse_grid(3, 4), 4, 300),
    # every level vector with |l| <= 5 complete, and 3 of the 8 features
    # of (1, 1, 4), the first level vector with |l| = 6
    "one-partial-level": (KernelSpec("laplace", omega=1.0, dim=3),
                          lambda: IndexSet(enumerate_sparse_grid(3, 4).indices[:34]),
                          4, 300),
    # features given in no canonical order, and (below) with each level
    # vector's positions descending: IndexSet puts both in canonical order
    "shuffled-d2-n5": (KernelSpec("laplace", omega=1.0, dim=2),
                       lambda: _shuffled(enumerate_sparse_grid(2, 5), seed=1),
                       5, 300),
    "descending-positions-d2-n4": (
        KernelSpec("bb", dim=2),
        lambda: IndexSet(tuple(sorted(
            enumerate_sparse_grid(2, 4),
            key=lambda f: (sum(f.l), f.l, tuple(-v for v in f.i))))), 4, 300),
}


@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_assembly_byte_identical_to_coo_reference(case):
    spec, design, n, N = ASSEMBLY_CASES[case]
    S = design()
    X = _test_rows(spec.dim, n, N, seed=len(S))
    # all rows, and a few rows
    for X, scale in product((X, X[::40]), SCALES):
        got = embed_batch(spec, S, X, scale=scale)
        want = coo_reference(spec, S, X, scale)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert got.indices.dtype == np.int32
        assert got.has_sorted_indices
        row = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
        same_row = row[1:] == row[:-1]
        assert (np.diff(got.indices)[same_row] > 0).all()


def test_one_partial_level_case_has_exactly_one_partial_level():
    S = ASSEMBLY_CASES["one-partial-level"][1]()
    partial = [l for l, pos in _grouped_columns(S).items()
               if len(pos) != 2 ** (sum(l) - len(l))]
    assert partial == [(1, 1, 4)]


@pytest.mark.parametrize("case, D, n", [("shuffled-d2-n5", 2, 5),
                                        ("descending-positions-d2-n4", 2, 4)])
def test_index_set_imposes_canonical_order(case, D, n):
    S = ASSEMBLY_CASES[case][1]()
    assert S.indices == enumerate_sparse_grid(D, n).indices


def test_embed_batch_memory_d8_level4():
    # the (N, L) tables that become the CSR output in place, well under the
    # 108 MB that the COO assembly peaked at on this input
    spec = KernelSpec("laplace", omega=2.0, dim=8)
    S = enumerate_sparse_grid(8, 4)
    X = np.random.default_rng(0).uniform(0.0, 1.0, (10_000, 8))
    tracemalloc.start()
    try:
        F = embed_batch(spec, S, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.shape == (10_000, 1121)
    assert peak < 54e6


def test_embed_batch_memory_tied_to_output():
    # the output, the 1-D profiles and one block of level vectors: no
    # nonzero mask or compressed copies of the tables beside it
    spec = KernelSpec("laplace", omega=2.0, dim=8)
    S = enumerate_sparse_grid(8, 4)
    X = np.random.default_rng(0).uniform(0.0, 1.0, (10_000, 8))
    tracemalloc.start()
    try:
        F = embed_batch(spec, S, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = F.data.nbytes + F.indices.nbytes + F.indptr.nbytes
    assert peak <= 1.6 * out_bytes, peak / out_bytes


def test_embed_batch_scratch_does_not_grow_with_rows(monkeypatch):
    # the 1-D profiles and the level-vector scratch cover one row block, so
    # the peak less the output is the same for 2 blocks of rows as for 6
    monkeypatch.setattr("eof.embedding._ROW_BLOCK", 1000)
    spec = KernelSpec("laplace", omega=2.0, dim=8)
    S = enumerate_sparse_grid(8, 4)
    extra = []
    for blocks in (2, 6):
        X = np.random.default_rng(0).uniform(0.0, 1.0, (blocks * 1000, 8))
        tracemalloc.start()
        try:
            F = embed_batch(spec, S, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - (F.data.nbytes + F.indices.nbytes + F.indptr.nbytes))
    assert extra[1] <= 1.05 * extra[0], extra


def test_embed_batch_frees_scratch_before_dropping_zeros():
    # rows at 1/2 lie on every even node past level 1, so most entries are 0
    # and eliminate_zeros copies the kept ones; the block scratch (16
    # floats, 128 bytes a row) is freed before then
    spec = KernelSpec("laplace", omega=2.0, dim=8)
    S = enumerate_sparse_grid(8, 4)
    N = 10_000
    X = np.full((N, 8), 0.5)
    X[:4_500] = np.random.default_rng(0).uniform(0.0, 1.0, (4_500, 8))
    tracemalloc.start()
    try:
        F = embed_batch(spec, S, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = N * len(S.levels) * (4 + 8)
    assert F.nnz * (4 + 8) < tables / 2
    copies = F.data.nbytes + F.indices.nbytes + F.indptr.nbytes
    assert peak - tables - copies < 100 * N, (peak - tables - copies) / N


_PQ = dict(omega=2.0, p=lambda x: np.exp(2.0 * x), q=lambda x: np.exp(-2.0 * x))
CSR_CASES = {
    # rows at 0, 1 and dyadic nodes, where some level vectors are 0
    "nodes-d3-n4": (KernelSpec("sobolev", omega=1.5, dim=3),
                    lambda: enumerate_sparse_grid(3, 4), _test_rows(3, 4, 30, 1)),
    # dropped rows of partial level vectors
    "truncated-d2-n6": (KernelSpec("bb", dim=2),
                        lambda: truncate_random(enumerate_sparse_grid(2, 6), 50, 3),
                        _test_rows(2, 6, 30, 2)),
    "empty-design": (BB1, lambda: IndexSet(()), _test_rows(1, 3, 5, 3)),
    "zero-rows": (KernelSpec("laplace", omega=1.0, dim=2),
                  lambda: enumerate_sparse_grid(2, 4), np.zeros((0, 2))),
    # NaN 1-D values off the deep feature's support embed as 0
    "deep-custom": (KernelSpec("custom", **_PQ),
                    lambda: IndexSet((FeatureIndex((54,), (1,)),
                                      FeatureIndex((54,), (3,)))),
                    np.vstack([np.random.default_rng(0).uniform(0.0, 0.5, (50, 1)),
                               [[2.0 ** -55], [0.0], [1.0]]])),
}


@pytest.mark.parametrize("case", sorted(CSR_CASES))
def test_embed_batch_is_canonical_csr(case):
    # no stored zeros, sorted columns, int32 indices: the CSR that scipy
    # builds from the dense matrix, to the byte
    spec, design, X = CSR_CASES[case]
    for scale in SCALES:
        got = embed_batch(spec, design(), X, scale=scale)
        want = sp.csr_matrix(got.toarray())
        assert got.indices.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("kind", ["laplace", "sobolev", "bb"])
@pytest.mark.parametrize("D, top", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_full_design_column_slice_is_the_design_embedding(D, top, kind):
    # run_benchmark embeds each split once on the largest full design and
    # slices each design's columns from it: the bytes embed_batch gives
    spec = KernelSpec(kind, omega=1.5, dim=D)
    full = enumerate_sparse_grid(D, top)
    X = np.vstack([_test_rows(D, top, 30, seed=D), np.full(D, 0.5)])
    sizes = [sparse_grid_size(D, n) for n in range(1, top + 1)]
    # every full size, and truncations of every level below the top
    grid = sizes + [m + 1 for m in sizes[:-1]] + [(a + b) // 2
                                                  for a, b in zip(sizes, sizes[1:])]
    for scale in SCALES:
        F = embed_batch(spec, full, X, scale=scale)
        for M, seed in product(sorted(set(grid)), (0, 1)):
            S = select_design(spec, M, seed)
            got = F[:, full.columns_of(S)]
            want = embed_batch(spec, S, X, scale=scale)
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, (M, seed, name)
                assert a.tobytes() == b.tobytes(), (M, seed, name)


@pytest.mark.parametrize("rows", [3, 7])
@pytest.mark.parametrize("case", sorted(CSR_CASES))
def test_row_blocks_byte_identical_to_one_block(monkeypatch, case, rows):
    # equal blocks of at most 3 or 7 rows (sizes differ by one where the rows
    # do not divide evenly) against one block of all rows, truncated-d2-n6's
    # partial level vectors included
    spec, design, X = CSR_CASES[case]
    S = design()
    for scale in SCALES:
        monkeypatch.setattr("eof.embedding._ROW_BLOCK", len(X) + 1)
        want = embed_batch(spec, S, X, scale=scale)
        monkeypatch.setattr("eof.embedding._ROW_BLOCK", rows)
        got = embed_batch(spec, S, X, scale=scale)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("rows", [3, 10 ** 9])
def test_invalid_level_names_first_level_vector_over_all_blocks(monkeypatch, rows):
    # (1, 54) comes before (54, 1) in design order.  The first row is too deep
    # only for (54, 1), the last only for (1, 54): with blocks of at most 3
    # rows the first block fails at (54, 1), yet the error names (1, 54), as
    # with one block
    monkeypatch.setattr("eof.embedding._ROW_BLOCK", rows)
    custom2 = KernelSpec("custom", dim=2, **_PQ)
    S = IndexSet((FeatureIndex((54, 1), (2 ** 52 + 1, 1)),
                  FeatureIndex((1, 54), (1, 2 ** 52 + 1))))
    z = 0.25 + 2.0 ** -54   # the centre of position 2^52 + 1, one ulp above 1/4
    X = [[z, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, z]]
    with pytest.raises(InvalidLevel, match=r"level vector \(1, 54\) is too deep"):
        embed_batch(custom2, S, X, scale=SCALE_PLAIN)
    with pytest.raises(InvalidLevel, match=r"level vector \(54, 1\) is too deep"):
        embed_batch(custom2, S, X[:4], scale=SCALE_PLAIN)
    assert embed_batch(custom2, S, X[1:4], scale=SCALE_PLAIN).nnz == 0


@pytest.mark.parametrize("embed_fn", [
    lambda spec, S, x: embed(spec, S, x),
    lambda spec, S, x: embed_batch(spec, S, np.array([x, [0.5, 0.5]])),
    lambda spec, S, x: phi_nd(spec, next(iter(S)), x)],
    ids=["embed", "embed_batch", "phi_nd"])
@pytest.mark.parametrize("x, strict", [
    ([np.nan, 0.5], False), ([0.2, np.inf], False), ([0.2, -np.inf], True),
    ([1.5, 0.5], True), ([0.5, -0.1], True)])
def test_invalid_points_raise_invalid_point(embed_fn, x, strict):
    spec = KernelSpec("laplace", omega=1.0, dim=2, strict=strict)
    with pytest.raises(InvalidPoint):
        embed_fn(spec, enumerate_sparse_grid(2, 3), x)


@pytest.mark.parametrize("embed_fn", [
    lambda spec, S, x, scale: embed(spec, S, x, scale=scale),
    lambda spec, S, x, scale: embed_batch(spec, S, np.array([x]), scale=scale)],
    ids=["embed", "embed_batch"])
@pytest.mark.parametrize("scale", ["plian", "SQRT", "raw", "", None])
@pytest.mark.parametrize("empty", [False, True], ids=["design", "empty-design"])
def test_unknown_scale_rejected(embed_fn, scale, empty):
    spec = KernelSpec("laplace", omega=1.0, dim=2)
    S = IndexSet(()) if empty else enumerate_sparse_grid(2, 3)
    with pytest.raises(ValueError, match=repr(scale)):
        embed_fn(spec, S, [0.3, 0.6], scale)


@pytest.mark.parametrize("scale, calls", [(SCALE_SQRT, 1), (SCALE_PLAIN, 0)])
def test_constants_computed_once_per_call(monkeypatch, scale, calls):
    counted = []

    def counting(spec, l):
        counted.append(np.shape(l))
        return expansion_coeff(spec, l)

    monkeypatch.setattr("eof.embedding.expansion_coeff", counting)
    spec = KernelSpec("laplace", omega=2.0, dim=8)
    S = enumerate_sparse_grid(8, 4)
    X = np.random.default_rng(0).uniform(0.0, 1.0, (20, 8))
    embed_batch(spec, S, X, scale=scale)
    assert counted == [(165, 8)] * calls


class TestKernelApprox:
    def test_empty_design_gives_zero(self):
        S = IndexSet(())
        assert kernel_approx(BB1, S, [0.3], [0.4]) == 0.0

    def test_bb_exact_at_dyadic_nodes(self):
        for n in (2, 4, 6):
            S = enumerate_sparse_grid(1, n)
            nodes = [i * 2.0 ** -l for l in range(1, n + 1)
                     for i in range(1, 2 ** l, 2)]
            for z in nodes:
                for zp in nodes:
                    want = kernel_eval(BB1, [z], [zp])
                    got = kernel_approx(BB1, S, [z], [zp])
                    assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_interior_design_gives_the_boundary_conditioned_kernel(self, n):
        S = enumerate_sparse_grid(1, n)
        x, xp = 0.3, 0.55
        # Laplace, omega = 2: k(x, x') = exp(-0.5) = 0.60653, but the interior
        # features reproduce k(x, x') - k_b(x)^T K_bb^-1 k_b(x'), b = {0, 1}
        k = lambda a, b: np.exp(-2.0 * abs(a - b))
        K_bb = np.array([[k(0, 0), k(0, 1)], [k(1, 0), k(1, 1)]])
        conditioned = k(x, xp) - np.array([k(x, 0), k(x, 1)]) @ np.linalg.solve(
            K_bb, [k(xp, 0), k(xp, 1)])
        assert conditioned == pytest.approx(0.36038638219613517, abs=1e-15)
        lap = KernelSpec("laplace", omega=2.0, dim=1)
        assert kernel_approx(lap, S, [x], [xp]) == pytest.approx(
            0.36038638219613517, abs=1e-12)
        # bb is 0 at 0 and 1, so conditioning leaves k = x (1 - x') unchanged
        assert kernel_approx(BB1, S, [x], [xp]) == pytest.approx(0.135,
                                                                 abs=1e-12)

    def test_symmetric_exactly(self):
        spec = KernelSpec("laplace", omega=2.0, dim=2)
        S = enumerate_sparse_grid(2, 3)
        a, b = [0.21, 0.88], [0.55, 0.13]
        assert kernel_approx(spec, S, a, b) == kernel_approx(spec, S, b, a)

    def test_sup_error_nonincreasing_in_level(self):
        rng = np.random.default_rng(12)
        pairs = rng.uniform(0.0, 1.0, (50, 2))
        for spec in (BB1, KernelSpec("laplace", omega=1.0, dim=1)):
            sups = []
            for n in range(2, 8):
                S = enumerate_sparse_grid(1, n)
                errs = [abs(kernel_approx(spec, S, [a], [b]) -
                            kernel_eval(spec, [a], [b])) for a, b in pairs]
                sups.append(max(errs))
            assert all(x >= y - 1e-12 for x, y in zip(sups, sups[1:]))

    def test_sparsity_ratio_decreasing(self):
        # per-point nnz over design size shrinks like n / 2^n
        for D in (1, 2):
            ratios = [comb(n + D - 1, D) / len(enumerate_sparse_grid(D, n))
                      for n in range(2, 8)]
            assert all(a > b for a, b in zip(ratios, ratios[1:]))
