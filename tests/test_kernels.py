import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eof.design import enumerate_sparse_grid
from eof.errors import InvalidLevel
from eof.features import FeatureIndex, phi_1d, phi_nd
from eof.kernels import (KernelSpec, expansion_coeff, kernel_eval, norm_const,
                         surplus_alpha_1d, surplus_beta_1d)

LAPLACE1 = KernelSpec("laplace", omega=1.0, dim=1)
BB1 = KernelSpec("bb", dim=1)
SOB1 = KernelSpec("sobolev", omega=1.0, dim=1)

unit = st.floats(0.0, 1.0, allow_nan=False)


class TestKernelEval:
    def test_laplace_diagonal_is_one(self):
        assert kernel_eval(LAPLACE1, [0.3], [0.3]) == 1.0

    def test_bb_hand_value(self):
        # min(0.25, 0.75) * (1 - max(0.25, 0.75))
        assert kernel_eval(BB1, [0.25], [0.75]) == 0.0625

    def test_laplace_2d_hand_value(self):
        spec = KernelSpec("laplace", omega=2.0, dim=2)
        got = kernel_eval(spec, [0.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(0.1353352832366127, rel=1e-14)  # e^{-2}

    def test_custom_pair_matches_its_closed_form(self):
        # the Laplace pair (omega 2) given as p and q: p(min) q(max) per
        # dimension, e^{2 min - 2 max}, which differs from e^{-2 |x - x'|}
        # by rounding only
        custom = KernelSpec("custom", omega=2.0, dim=2,
                            p=lambda x: np.exp(2.0 * x),
                            q=lambda x: np.exp(-2.0 * x))
        closed = KernelSpec("laplace", omega=2.0, dim=2)
        for x, xp in (([0.25, 0.9], [0.5, 0.1]), ([0.0, 1.0], [1.0, 0.3])):
            assert kernel_eval(custom, x, xp) == pytest.approx(
                kernel_eval(closed, x, xp), rel=1e-15)

    def test_sobolev_product_form(self):
        spec = KernelSpec("sobolev", omega=3.0, dim=2)
        got = kernel_eval(spec, [0.2, 0.9], [0.6, 0.4])
        assert got == pytest.approx((3.0 * 0.2 + 1.0) * (3.0 * 0.4 + 1.0))

    def test_clamp_default_strict_flag(self):
        assert kernel_eval(LAPLACE1, [1.5], [1.0]) == 1.0

    @given(unit, unit)
    def test_symmetry_exact(self, a, b):
        for spec in (LAPLACE1, BB1, SOB1):
            assert kernel_eval(spec, [a], [b]) == kernel_eval(spec, [b], [a])

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_psd_at_desk_scale(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (30, 2))
        for kind, omega in (("laplace", 2.0), ("sobolev", 1.5), ("bb", 1.0)):
            spec = KernelSpec(kind, omega=omega, dim=2)
            G = np.array([[kernel_eval(spec, x, xp) for xp in X] for x in X])
            assert np.linalg.eigvalsh(G).min() >= -1e-9


class TestNormConst:
    def test_bb_level_2(self):
        assert norm_const(BB1, (2,)) == 0.125  # 1 / 2^{l+1}

    def test_laplace_level_1(self):
        assert norm_const(LAPLACE1, (1,)) == pytest.approx(
            0.5210953054937474, rel=1e-14)  # sinh(1/2)

    def test_bb_2d(self):
        spec = KernelSpec("bb", dim=2)
        assert norm_const(spec, (1, 1)) == 0.0625

    def test_sobolev_matches_exact_hat_integral(self):
        # H^1 energy of the level-l hat under the (omega x + 1) kernel:
        # (1/omega) int (phi')^2 = (1/omega) * 2 * h * (1/h)^2 = 2^{l+1}/omega
        for omega in (0.5, 1.0, 4.0):
            spec = KernelSpec("sobolev", omega=omega, dim=1)
            for l in (1, 2, 3):
                energy = 2.0 ** (l + 1) / omega
                assert norm_const(spec, (l,)) == pytest.approx(1.0 / energy)

    def test_strictly_decreasing_in_level(self):
        for spec in (LAPLACE1, BB1):
            vals = [norm_const(spec, (l,)) for l in range(1, 10)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_independent_of_dimension_ordering(self):
        spec = KernelSpec("laplace", omega=2.0, dim=2)
        assert norm_const(spec, (1, 3)) == pytest.approx(norm_const(spec, (3, 1)))

    def test_laplace_overflow_is_silent_inf(self):
        # sinh overflows at omega 2^-l > ~710 and the product over dimensions
        # overflows sooner; pyproject.toml makes a leaked warning an error
        assert norm_const(KernelSpec("laplace", omega=2000.0), 1) == math.inf
        spec = KernelSpec("laplace", omega=400.0, dim=8)
        got = norm_const(spec, enumerate_sparse_grid(8, 4).levels)
        assert got.shape == (165,) and np.isposinf(got).all()


class TestExpansionCoeff:
    def test_laplace_is_reciprocal_surplus_alpha(self):
        # 1 / ||phi||^2 with ||phi||^2 = coth(omega h)
        for omega in (0.5, 1.0, 4.0):
            spec = KernelSpec("laplace", omega=omega, dim=1)
            for l in (1, 2, 4):
                h = 2.0 ** -l
                assert expansion_coeff(spec, (l,)) == pytest.approx(
                    math.tanh(omega * h), rel=1e-13)

    def test_bb_matches_norm_const(self):
        # the hat's RKHS norm is exactly 2^{l+1}; both constants agree
        assert expansion_coeff(BB1, (3,)) == norm_const(BB1, (3,))
        sob2 = KernelSpec("sobolev", omega=1.5, dim=2)
        assert expansion_coeff(sob2, (3, 2)) == norm_const(sob2, (3, 2))

    @pytest.mark.parametrize("D, n", [(8, 4), (2, 9), (1, 29)])
    @pytest.mark.parametrize("kind", ["laplace", "bb", "sobolev"])
    def test_array_form_bitwise_equals_scalar_form(self, kind, D, n):
        spec = KernelSpec(kind, omega=2.5, dim=D)
        levels = enumerate_sparse_grid(D, n).levels
        for const in (expansion_coeff, norm_const):
            got = const(spec, levels)
            assert got.shape == (len(levels),)
            for value, l in zip(got, levels):
                scalar = const(spec, tuple(l))
                assert isinstance(scalar, float)
                assert value.tobytes() == np.float64(scalar).tobytes()

    def test_custom_norm_const_is_expansion_coeff(self):
        omega = 1.5
        custom = KernelSpec("custom", omega=omega, dim=3,
                            p=lambda x: np.exp(omega * x),
                            q=lambda x: np.exp(-omega * x))
        levels = enumerate_sparse_grid(3, 5).levels
        np.testing.assert_array_equal(norm_const(custom, levels),
                                      expansion_coeff(custom, levels))
        assert norm_const(custom, (2, 1, 3)) == expansion_coeff(custom, (2, 1, 3))

    def test_product_over_dimensions(self):
        spec = KernelSpec("laplace", omega=1.0, dim=2)
        got = expansion_coeff(spec, (1, 2))
        assert got == pytest.approx(math.tanh(0.5) * math.tanh(0.25), rel=1e-13)


class TestSurplusCoefficients:
    def test_alpha_equals_rkhs_norm_bb(self):
        assert surplus_alpha_1d(BB1, 2, 1) == pytest.approx(8.0)

    def test_alpha_equals_coth_laplace(self):
        assert surplus_alpha_1d(LAPLACE1, 1, 1) == pytest.approx(
            2.163953413738653, rel=1e-13)  # coth(1/2)

    def test_elementwise_over_level_and_position(self):
        omega = 2.0
        custom = KernelSpec("custom", omega=omega, dim=1,
                            p=lambda x: omega * x + 1.0, q=lambda x: np.ones_like(x))
        level = np.array([[2], [3], [4]])
        i = np.array([1, 3])
        for spec in (LAPLACE1, BB1, SOB1, custom):
            for coeff in (surplus_alpha_1d, surplus_beta_1d):
                got = coeff(spec, level, i)
                assert got.shape == (3, 2)
                for r, c in product(range(3), range(2)):
                    scalar = coeff(spec, int(level[r, 0]), int(i[c]))
                    assert isinstance(scalar, float)
                    assert got[r, c] == scalar

    def test_closed_forms_match_generic_pq(self):
        # a custom spec carrying a closed form's p/q must reproduce it
        omega = 2.0
        pairs = {
            "laplace": (lambda x: np.exp(omega * x), lambda x: np.exp(-omega * x)),
            "bb": (lambda x: x, lambda x: 1.0 - x),
            "sobolev": (lambda x: omega * x + 1.0, lambda x: np.ones_like(x)),
        }
        for kind, (p, q) in pairs.items():
            custom = KernelSpec("custom", omega=omega, dim=1, p=p, q=q)
            closed = KernelSpec(kind, omega=omega, dim=1)
            for l, i in ((1, 1), (2, 3), (3, 5)):
                assert surplus_alpha_1d(custom, l, i) == pytest.approx(
                    surplus_alpha_1d(closed, l, i), rel=1e-12)
                assert surplus_beta_1d(custom, l, i) == pytest.approx(
                    surplus_beta_1d(closed, l, i), rel=1e-12)


@pytest.mark.parametrize("kind", ["bb", "sobolev", "laplace"])
def test_level_past_a_normal_step_rejected(kind):
    # at level 1100 the step 2^-l underflows to 0, and the profile was 0 / 0:
    # NaN with an "invalid value" warning.  1022 is the deepest level whose
    # step is a normal float; Python ints past int64 are rejected the same way
    spec = KernelSpec(kind, omega=2.0)
    calls = [lambda l: phi_1d(spec, l, 1, 0.3),
             lambda l: phi_nd(spec, FeatureIndex((l,), (1,)), [0.3]),
             lambda l: surplus_alpha_1d(spec, l, 1),
             lambda l: surplus_beta_1d(spec, l, 1),
             lambda l: expansion_coeff(spec, np.array([[2, l]]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            for level in (1023, 1100, 2 ** 70):
                with pytest.raises(InvalidLevel, match="<= 1022"):
                    call(level)
        assert phi_1d(spec, 1022, 1, 2.0 ** -1023) > 0.0
