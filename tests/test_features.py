import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eof.design import enumerate_sparse_grid
from eof.embedding import SCALE_PLAIN, embed_batch
from eof.errors import InvalidData
from eof.features import (FeatureIndex, hierarchical_surplus, phi_1d, phi_nd,
                          support_box)
from eof.kernels import KernelSpec, surplus_alpha_1d

LAPLACE1 = KernelSpec("laplace", omega=1.0, dim=1)
BB1 = KernelSpec("bb", dim=1)
BB2 = KernelSpec("bb", dim=2)

valid_li = st.integers(1, 8).flatmap(
    lambda l: st.tuples(st.just(l),
                        st.integers(0, 2 ** (l - 1) - 1).map(lambda j: 2 * j + 1)))


class TestFeatureIndex:
    def test_valid_construction(self):
        idx = FeatureIndex((2, 3), (3, 5))
        assert (idx.l, idx.i, idx.dim) == ((2, 3), (3, 5), 2)

    def test_sort_key_orders_by_total_level_first(self):
        a = FeatureIndex((1, 2), (1, 1))
        b = FeatureIndex((3, 1), (1, 1))
        assert a.sort_key() < b.sort_key()


class TestPhi1d:
    @given(valid_li)
    def test_center_value_is_one(self, li):
        l, i = li
        for spec in (LAPLACE1, BB1):
            assert phi_1d(spec, l, i, i * 2.0 ** -l) == 1.0

    @given(valid_li)
    def test_support_endpoints_are_zero(self, li):
        l, i = li
        for spec in (LAPLACE1, BB1):
            assert phi_1d(spec, l, i, (i - 1) * 2.0 ** -l) == 0.0
            assert phi_1d(spec, l, i, (i + 1) * 2.0 ** -l) == 0.0

    def test_bb_hat_value(self):
        assert phi_1d(BB1, 2, 1, 0.375) == 0.5

    def test_laplace_sinh_ratio(self):
        # sinh(1/4) / sinh(1/2), frozen from an independent evaluation
        got = phi_1d(LAPLACE1, 1, 1, 0.25)
        assert got == pytest.approx(0.48477181457010726, rel=1e-14)

    def test_laplace_symmetric_about_center(self):
        for dx in (0.05, 0.1, 0.2):
            assert phi_1d(LAPLACE1, 1, 1, 0.5 - dx) == pytest.approx(
                phi_1d(LAPLACE1, 1, 1, 0.5 + dx), rel=1e-13)

    @pytest.mark.parametrize("spec", [
        BB1, LAPLACE1, KernelSpec("sobolev", omega=2.0),
        KernelSpec("custom", p=lambda x: np.exp(2.0 * x),
                   q=lambda x: np.exp(-2.0 * x))], ids=lambda s: s.kind)
    def test_is_phi_nd_in_one_dimension(self, spec):
        grid = np.linspace(-0.1, 1.1, 24)
        for l, i in ((1, 1), (3, 5), (6, 41)):
            idx = FeatureIndex((l,), (i,))
            for x in (0.3, grid, grid.reshape(4, 6)):
                got = phi_1d(spec, l, i, x)
                want = phi_nd(spec, idx, np.asarray(x)[..., None])
                assert type(got) is type(want) and np.shape(got) == np.shape(x)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_deep_level_large_omega_stable(self):
        # sinh overflows near omega ~ 710/h without the log-space branch
        spec = KernelSpec("laplace", omega=5e4, dim=1)
        v = phi_1d(spec, 1, 1, 0.4999)
        assert 0.0 < v <= 1.0 and np.isfinite(v)
        assert v == pytest.approx(math.exp(-5e4 * 0.0001), rel=1e-9)

    @pytest.mark.parametrize("omega", [5e-324, 2e-323, 1e-310])
    def test_laplace_tends_to_the_hat_where_omega_h_underflows(self, omega):
        # omega 2^-l is 0 (5e-324) or subnormal at every level: sinh(omega
        # (h - r)) / sinh(omega h) tends to (h - r) / h, the Brownian-bridge hat
        tiny = KernelSpec("laplace", omega=omega, dim=1)
        x = np.array([0.0, 0.01, 0.3, 0.5, 0.6, 0.8, 0.9, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l, i in ((1, 1), (2, 1), (2, 3), (3, 5), (4, 1)):
                got, want = phi_1d(tiny, l, i, x), phi_1d(BB1, l, i, x)
                assert got.tobytes() == want.tobytes()
            S = enumerate_sparse_grid(2, 4)
            X = np.random.default_rng(0).uniform(size=(50, 2))
            got = embed_batch(KernelSpec("laplace", omega=omega, dim=2), S, X,
                              scale=SCALE_PLAIN)
            want = embed_batch(BB2, S, X, scale=SCALE_PLAIN)
            for name in ("indptr", "indices", "data"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestPhiNd:
    def test_center_is_one(self):
        idx = FeatureIndex((1, 2), (1, 1))
        assert phi_nd(BB2, idx, [0.5, 0.25]) == 1.0

    def test_product_of_hats(self):
        idx = FeatureIndex((1, 2), (1, 3))
        assert phi_nd(BB2, idx, [0.25, 0.625]) == 0.25

    @settings(deadline=None)
    @given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    def test_compact_support_exact(self, x0, x1):
        idx = FeatureIndex((2, 3), (3, 5))
        lo, hi = support_box(idx)
        x = np.clip([x0, x1], 0.0, 1.0)
        outside = np.any(x < lo) or np.any(x > hi)
        if outside:
            assert phi_nd(BB2, idx, x) == 0.0


class TestSupportBox:
    def test_coarsest_level_spans_interval(self):
        lo, hi = support_box(FeatureIndex((1,), (1,)))
        assert lo[0] == 0.0 and hi[0] == 1.0

    def test_level3_position5(self):
        lo, hi = support_box(FeatureIndex((3,), (5,)))
        assert (lo[0], hi[0]) == (0.5, 0.75)

    def test_2d_box(self):
        lo, hi = support_box(FeatureIndex((2, 2), (1, 3)))
        assert lo.tolist() == [0.0, 0.5]
        assert hi.tolist() == [0.5, 1.0]

    @given(valid_li)
    def test_nesting_of_children(self, li):
        l, i = li
        lo, hi = support_box(FeatureIndex((l,), (i,)))
        lo1, hi1 = support_box(FeatureIndex((l + 1,), (2 * i - 1,)))
        lo2, hi2 = support_box(FeatureIndex((l + 1,), (2 * i + 1,)))
        assert lo1[0] == lo[0] and hi2[0] == hi[0]
        assert hi1[0] == lo2[0]  # children tile the parent support

    def test_disjoint_interiors_within_level(self):
        l = 3
        boxes = [support_box(FeatureIndex((l,), (i,))) for i in (1, 3, 5, 7)]
        for (lo_a, hi_a), (lo_b, hi_b) in zip(boxes, boxes[1:]):
            assert hi_a[0] <= lo_b[0]


class TestHierarchicalSurplus:
    def test_annihilates_constants(self):
        for idx in (FeatureIndex((2,), (3,)), FeatureIndex((1, 3), (1, 5))):
            spec = KernelSpec("bb", dim=len(idx.l))
            assert hierarchical_surplus(spec, lambda x: 4.2, idx) == pytest.approx(0.0)

    def test_annihilates_linear_bb(self):
        got = hierarchical_surplus(BB1, lambda x: 3.0 * x - 1.0,
                                   FeatureIndex((3,), (5,)))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_self_surplus_is_squared_norm_bb(self):
        for l, i in ((1, 1), (2, 3), (3, 5)):
            idx = FeatureIndex((l,), (i,))
            got = hierarchical_surplus(BB1, lambda x: phi_1d(BB1, l, i, x), idx)
            assert got == pytest.approx(2.0 ** (l + 1), rel=1e-12)

    def test_self_surplus_is_squared_norm_laplace(self):
        for l, i in ((1, 1), (2, 1), (3, 7)):
            idx = FeatureIndex((l,), (i,))
            got = hierarchical_surplus(
                LAPLACE1, lambda x: phi_1d(LAPLACE1, l, i, x), idx)
            assert got == pytest.approx(surplus_alpha_1d(LAPLACE1, l, i),
                                        rel=1e-12)

    def test_laplace_gram_diagonal_via_surplus(self):
        # surplus of phi_b at index a equals <phi_a, phi_b>_k, so distinct
        # features must give zero
        pairs = [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5)]
        for la, ia in pairs:
            for lb, ib in pairs:
                got = hierarchical_surplus(
                    LAPLACE1, lambda x: phi_1d(LAPLACE1, lb, ib, x),
                    FeatureIndex((la,), (ia,)))
                if (la, ia) == (lb, ib):
                    assert abs(got) > 0.1
                else:
                    assert got == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("kind", ["laplace", "sobolev"])
    @pytest.mark.parametrize("omega", [5e-324, 1e-310])
    def test_underflowed_weight_raises_without_warning(self, kind, omega):
        # alpha and beta grow like 1 / (omega h), which is inf here
        tiny = KernelSpec(kind, omega=omega, dim=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert surplus_alpha_1d(tiny, 3, 1) == math.inf
            with pytest.raises(InvalidData, match=f"omega={omega!r}"):
                hierarchical_surplus(tiny, np.cos, FeatureIndex((3,), (5,)))

    def test_tensorized_2d_bb(self):
        # separable f: surplus factors into the product of 1-D surpluses
        idx = FeatureIndex((2, 1), (1, 1))
        f = lambda x: phi_1d(BB1, 2, 1, x[0]) * phi_1d(BB1, 1, 1, x[1])
        got = hierarchical_surplus(BB2, f, idx)
        assert got == pytest.approx(8.0 * 4.0, rel=1e-12)
