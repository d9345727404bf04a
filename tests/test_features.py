import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eof.errors import DimError, InvalidIndex, InvalidLevel
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

    def test_even_position_rejected(self):
        with pytest.raises(InvalidIndex):
            FeatureIndex((2,), (2,))

    def test_out_of_range_position_rejected(self):
        with pytest.raises(InvalidIndex):
            FeatureIndex((2,), (5,))

    def test_zero_level_rejected(self):
        with pytest.raises(InvalidLevel):
            FeatureIndex((0,), (1,))

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

    def test_even_index_rejected(self):
        with pytest.raises(InvalidIndex):
            phi_1d(BB1, 2, 2, 0.5)

    def test_deep_level_large_omega_stable(self):
        # sinh overflows near omega ~ 710/h without the log-space branch
        spec = KernelSpec("laplace", omega=5e4, dim=1)
        v = phi_1d(spec, 1, 1, 0.4999)
        assert 0.0 < v <= 1.0 and np.isfinite(v)
        assert v == pytest.approx(math.exp(-5e4 * 0.0001), rel=1e-9)


class TestPhiNd:
    def test_center_is_one(self):
        idx = FeatureIndex((1, 2), (1, 1))
        assert phi_nd(BB2, idx, [0.5, 0.25]) == 1.0

    def test_product_of_hats(self):
        idx = FeatureIndex((1, 2), (1, 3))
        assert phi_nd(BB2, idx, [0.25, 0.625]) == 0.25

    def test_dim_mismatch(self):
        idx = FeatureIndex((1, 2), (1, 3))
        with pytest.raises(DimError):
            phi_nd(BB2, idx, [0.5])

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

    def test_tensorized_2d_bb(self):
        # separable f: surplus factors into the product of 1-D surpluses
        idx = FeatureIndex((2, 1), (1, 1))
        f = lambda x: phi_1d(BB1, 2, 1, x[0]) * phi_1d(BB1, 1, 1, x[1])
        got = hierarchical_surplus(BB2, f, idx)
        assert got == pytest.approx(8.0 * 4.0, rel=1e-12)
