"""Product-form kernels built from Sturm-Liouville pairs (p, q).

Every built-in kernel factorizes per dimension as

    k(x, x') = prod_d p(min(x_d, x'_d)) * q(max(x_d, x'_d))

on the unit cube. Three closed-form families ship:

==================  =====================  ======================
kind                p(x), q(x)             k_1d(x, x')
==================  =====================  ======================
laplace             e^{w x}, e^{-w x}      e^{-w |x - x'|}
sobolev (weighted)  w x + 1, 1             w min(x,x') + 1
bb (Brownian br.)   x, 1 - x               min(x,x')(1 - max(x,x'))
==================  =====================  ======================

Custom kernels supply ``p`` and ``q``; their features and constants follow
from the Wronskian of that pair.  Every per-kind formula lives in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimError, InvalidLevel, InvalidPoint

LAPLACE = "laplace"
SOBOLEV = "sobolev"
BROWNIAN_BRIDGE = "bb"
CUSTOM = "custom"

_KINDS = (LAPLACE, SOBOLEV, BROWNIAN_BRIDGE, CUSTOM)


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a product-form kernel on [0,1]^D.

    Parameters
    ----------
    kind : str
        One of ``"laplace"``, ``"sobolev"``, ``"bb"``, ``"custom"``.
    omega : float
        Bandwidth; must be positive for laplace/sobolev, ignored for bb.
    dim : int
        Input dimension D >= 1.
    strict : bool
        If True, points outside [0,1]^D raise ``InvalidPoint`` instead of
        being clamped.
    p, q : callable, optional
        Scalar solutions for a custom kernel (vectorized over numpy arrays).
    """

    kind: str
    omega: float = 1.0
    dim: int = 1
    strict: bool = False
    p: Optional[Callable] = field(default=None, compare=False)
    q: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind in (LAPLACE, SOBOLEV) and not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == CUSTOM and (self.p is None or self.q is None):
            raise ValueError("custom kernels need p and q callables")


def _finite_point(x, dim=None, ndim=None) -> np.ndarray:
    """``x`` as floats, a scalar as a 1-vector: the one point rule.  Another
    ``ndim`` (1: one point, 2: an (N, D) batch) or a last axis other than
    ``dim`` raises ``DimError``, a NaN or infinite coordinate ``InvalidPoint``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if ndim is not None and x.ndim != ndim:
        raise DimError(f"expected a {ndim}-D array of points, got {x.ndim}-D")
    if dim is not None and x.shape[-1] != dim:
        raise DimError(f"point dimension {x.shape[-1]} != {dim}")
    if not np.all(np.isfinite(x)):
        raise InvalidPoint("point contains NaN or Inf")
    return x


def _prepare_point(spec: KernelSpec, x, dim=None, ndim=None) -> np.ndarray:
    """``_finite_point`` clipped to [0,1]^D; strict mode raises outside it."""
    x = _finite_point(x, dim, ndim)
    if spec.strict and (np.any(x < 0.0) or np.any(x > 1.0)):
        raise InvalidPoint("point outside [0,1]^D in strict mode")
    return x if spec.strict else np.clip(x, 0.0, 1.0)


def kernel_eval(spec: KernelSpec, x, xp) -> float:
    """Evaluate k(x, x') as the product of per-dimension factors."""
    x = _prepare_point(spec, x, spec.dim, 1)
    xp = _prepare_point(spec, xp, spec.dim, 1)
    return float(_kernel_rows(spec, x, xp))


def _kernel_rows(spec: KernelSpec, X: np.ndarray, xp: np.ndarray):
    """k(x, x') for every row x of ``X`` (coordinates on the last axis).

    Both arguments must already be prepared: finite and inside [0,1]^D.
    """
    if spec.kind == LAPLACE:
        return np.exp(-spec.omega * np.sum(np.abs(X - xp), axis=-1))
    if spec.kind == SOBOLEV:
        return np.prod(spec.omega * np.minimum(X, xp) + 1.0, axis=-1)
    if spec.kind == BROWNIAN_BRIDGE:
        return np.prod(np.minimum(X, xp) * (1.0 - np.maximum(X, xp)), axis=-1)
    return np.prod(spec.p(np.minimum(X, xp)) * spec.q(np.maximum(X, xp)), axis=-1)


def _wronskian(spec: KernelSpec, a, b):
    """W(a, b) = p(b) q(a) - p(a) q(b) of a custom kernel's (p, q) pair."""
    return spec.p(b) * spec.q(a) - spec.p(a) * spec.q(b)


def _check_levels(l) -> np.ndarray:
    l = np.asarray(l, dtype=int)
    if np.any(l < 1):
        raise InvalidLevel("all levels must be >= 1")
    return l


def _float_or_array(a):
    return float(a) if np.ndim(a) == 0 else a


def _profile_1d(spec: KernelSpec, l: int, i, x: np.ndarray) -> np.ndarray:
    """1-D feature at level ``l`` and position(s) ``i`` evaluated at ``x``.

    ``i`` and ``x`` broadcast against each other, so one call evaluates a
    whole column of points, each at its own position.  No validation: the
    caller passes valid odd positions.  Kinds without a closed form use the
    generic (p, q) form, whose two halves are the solutions of the kernel's
    differential equation through the support endpoints.
    """
    h = 2.0 ** (-l)
    z = i * h
    dist = np.abs(x - z)
    inside = dist < h
    if spec.kind in (BROWNIAN_BRIDGE, SOBOLEV):
        return np.where(inside, 1.0 - dist / h, 0.0)
    if spec.kind == LAPLACE:
        return np.where(inside, _sinh_ratio(spec.omega * (h - np.minimum(dist, h)),
                                            spec.omega * h), 0.0)
    zm, zp = z - h, z + h
    left = _wronskian(spec, zm, x) / _wronskian(spec, zm, z)
    right = _wronskian(spec, x, zp) / _wronskian(spec, z, zp)
    return np.where(inside, np.where(x <= z, left, right), 0.0)


def _sinh_ratio(a, b):
    # sinh(a)/sinh(b) for 0 <= a <= b, stable against overflow for large b:
    # sinh(a)/sinh(b) = e^{a-b} (1 - e^{-2a}) / (1 - e^{-2b}).
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = -np.expm1(-2.0 * a)
        den = -np.expm1(-2.0 * b)
        out = np.exp(a - b) * num / den
    return np.where(den == 0.0, np.where(a == b, 1.0, 0.0), out)


def norm_const(spec: KernelSpec, l):
    """Entropic design constant C_l for a level vector.

    This is the weight maximized by the knapsack selection; it is independent
    of the position index i for every built-in kernel and strictly decreasing
    in each level component.  For every kind but Laplace it is
    ``expansion_coeff``, and like it maps an (L, D) level array to (L,).
    """
    if spec.kind == LAPLACE:
        h = 2.0 ** -np.atleast_1d(_check_levels(l))
        return _float_or_array(np.prod(np.sinh(spec.omega * h), axis=-1))
    return expansion_coeff(spec, l)


def expansion_coeff(spec: KernelSpec, l):
    """Exact reconstruction coefficient 1 / ||phi_l||_k^2 for a level vector.

    This is the product of 1 / alpha_{l_d,1} over dimensions (alpha is the
    squared RKHS norm of the 1-D feature, independent of the position i for
    Sturm-Liouville pairs with constant Wronskian).  For the Laplace kernel
    the per-dimension norm is coth(w 2^-l), so the coefficient is the tanh
    closed form; ``norm_const`` keeps the sinh closed form used for entropy
    ranking.  With this coefficient z(x)^T z(x') over the interior features
    converges to the boundary-conditioned kernel: per dimension
    k(x, x') - k_b(x)^T K_bb^-1 k_b(x') with b = {0, 1}, multiplied over
    dimensions.  That equals k(x, x') only for ``bb``, which is 0 at 0 and 1.
    A level vector gives a float, an (L, D) array such as ``S.levels`` (L,).
    """
    l = np.atleast_1d(_check_levels(l))
    if spec.kind == LAPLACE:
        return _float_or_array(np.prod(np.tanh(spec.omega * 2.0 ** -l), axis=-1))
    return _float_or_array(np.prod(1.0 / surplus_alpha_1d(spec, l, 1), axis=-1))


def surplus_alpha_1d(spec: KernelSpec, level, i):
    """Diagonal coefficient alpha_{l,i} of the 1-D surplus operator.

    alpha equals the squared RKHS norm of the 1-D feature at (l, i):
    W(z_{i-1}, z_{i+1}) / (W(z_{i-1}, z_i) W(z_i, z_{i+1})).  ``level`` and
    ``i`` broadcast; a scalar pair gives a float.
    """
    level, i = np.broadcast_arrays(_check_levels(level), i)
    h = 2.0 ** -level
    if spec.kind == LAPLACE:
        return _float_or_array(1.0 / np.tanh(spec.omega * h))
    if spec.kind == BROWNIAN_BRIDGE:
        return _float_or_array(2.0 / h)
    if spec.kind == SOBOLEV:
        return _float_or_array(2.0 / (spec.omega * h))
    zm, zc, zp = (i - 1) * h, i * h, (i + 1) * h
    return _float_or_array(_wronskian(spec, zm, zp)
                           / (_wronskian(spec, zm, zc) * _wronskian(spec, zc, zp)))


def surplus_beta_1d(spec: KernelSpec, level, i):
    """Off-diagonal coefficient beta_{l,i} = 1 / W(z_{l,i}, z_{l,i+1}),
    elementwise like ``surplus_alpha_1d``."""
    level, i = np.broadcast_arrays(_check_levels(level), i)
    h = 2.0 ** -level
    if spec.kind == LAPLACE:
        return _float_or_array(1.0 / (2.0 * np.sinh(spec.omega * h)))
    if spec.kind == BROWNIAN_BRIDGE:
        return _float_or_array(1.0 / h)
    if spec.kind == SOBOLEV:
        return _float_or_array(1.0 / (spec.omega * h))
    return _float_or_array(1.0 / _wronskian(spec, i * h, (i + 1) * h))
