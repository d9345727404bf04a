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

from .errors import (DimError, InvalidData, InvalidLevel, InvalidPoint,
                     all_finite, check_choice, check_dim, check_positive, is_integer)

LAPLACE = "laplace"
SOBOLEV = "sobolev"
BROWNIAN_BRIDGE = "bb"
CUSTOM = "custom"

_KINDS = (LAPLACE, SOBOLEV, BROWNIAN_BRIDGE, CUSTOM)

MAX_LEVEL = 1022    # the deepest level whose step 2^-l is a normal float


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a product-form kernel on [0,1]^D.

    Parameters
    ----------
    kind : str
        One of ``"laplace"``, ``"sobolev"``, ``"bb"``, ``"custom"``.
    omega : float
        Bandwidth; positive and finite for laplace/sobolev, ignored for bb.
    dim : int
        Input dimension D >= 1 (``DimError``).
    strict : bool
        If True, points outside [0,1]^D raise ``InvalidPoint`` instead of
        being clamped.
    p, q : callable, optional
        Scalar solutions for a custom kernel (vectorized over numpy arrays);
        a custom kernel without both raises ``InvalidData``.
    """

    kind: str
    omega: float = 1.0
    dim: int = 1
    strict: bool = False
    p: Optional[Callable] = field(default=None, compare=False)
    q: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        check_choice(self.kind, _KINDS, "kernel kind")
        if self.kind in (LAPLACE, SOBOLEV):
            check_positive(self.omega, "omega")
        check_dim(self.dim)
        if self.kind == CUSTOM and not (callable(self.p) and callable(self.q)):
            raise InvalidData("custom kernels need p and q callables")


def _finite_point(x, dim=None, ndim=None) -> np.ndarray:
    """``x`` as floats, a scalar as a 1-vector: the one point rule.  Another
    ``ndim`` (1: one point, 2: an (N, D) batch) or a last axis other than
    ``dim`` raises ``DimError``, a NaN or infinite coordinate ``InvalidPoint``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if ndim is not None and x.ndim != ndim:
        raise DimError(f"expected a {ndim}-D array of points, got {x.ndim}-D")
    if dim is not None and x.shape[-1] != dim:
        raise DimError(f"point dimension {x.shape[-1]} != {dim}")
    if not all_finite(x):
        raise InvalidPoint("point contains NaN or Inf")
    return x


def _prepare_point(spec: KernelSpec, x, dim=None, ndim=None) -> np.ndarray:
    """``_finite_point`` clipped to [0,1]^D, not copied when it lies inside;
    strict mode raises outside it."""
    x = _finite_point(x, dim, ndim)
    if x.size == 0 or (x.min() >= 0.0 and x.max() <= 1.0):
        return x
    if spec.strict:
        raise InvalidPoint("point outside [0,1]^D in strict mode")
    return np.clip(x, 0.0, 1.0)


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


def _step_wronskian(spec: KernelSpec, a, b):
    """``_wronskian`` across one step, to divide by.  It is a difference of
    nearly equal products, so precision falls past about level 40; deeper,
    p and q lose their difference over the step, so it rounds to 0 (or is
    not finite); there it is NaN, so dividing by it warns of nothing and
    every value built on it is NaN."""
    w = _wronskian(spec, a, b)
    return np.where(np.isfinite(w) & (w != 0.0), w, np.nan)


def _check_depth(value, level):
    """``value``; ``InvalidLevel`` naming the shallowest ``level`` (which
    broadcasts against it) where it is NaN."""
    bad = np.isnan(value)
    if np.any(bad):
        raise InvalidLevel(f"level {np.broadcast_to(level, bad.shape)[bad].min()}"
                           " is too deep for the kernel's (p, q)")
    return value


def _check_levels(l) -> np.ndarray:
    """The level rule: ``l`` as ints; ``InvalidLevel`` unless each is an
    integer in 1..``MAX_LEVEL``."""
    # an int array passes whole; a sequence may hide a bool in numpy's ints,
    # and is compared as Python ints, which do not overflow
    a = (l if isinstance(l, np.ndarray) and l.dtype.kind in "iu"
         else np.asarray(l, dtype=object))
    if a.dtype == object and not all(map(is_integer, a.flat)):
        raise InvalidLevel(f"levels must be integers, got {l!r}")
    if np.any(a < 1):
        raise InvalidLevel("all levels must be >= 1")
    if np.any(a > MAX_LEVEL):
        raise InvalidLevel(f"all levels must be <= {MAX_LEVEL}, where the step "
                           "2^-l is still a normal float")
    return np.asarray(a, dtype=int)


def _float_or_array(a):
    return float(a) if np.ndim(a) == 0 else a


def _profile_1d(spec: KernelSpec, l: int, i, x: np.ndarray) -> np.ndarray:
    """1-D feature at level ``l`` and position(s) ``i`` evaluated at ``x``.

    ``i`` and ``x`` broadcast against each other, so one call evaluates a
    whole column of points, each at its own position.  No validation: the
    caller passes valid odd positions.  Kinds without a closed form use the
    generic (p, q) form, whose two halves are the solutions of the kernel's
    differential equation through the support endpoints; a position with a
    bad step Wronskian (see ``_step_wronskian``) is NaN on its whole support
    and 0 off it.  The closed forms are built in one buffer, a 0-d array for
    a single point.
    """
    h = 2.0 ** (-l)
    z = i * h
    if spec.kind == CUSTOM:
        zm, zp = z - h, z + h
        w_left, w_right = _step_wronskian(spec, zm, z), _step_wronskian(spec, z, zp)
        value = np.where(x <= z, _wronskian(spec, zm, x) / w_left,
                         _wronskian(spec, x, zp) / w_right)
        # either bad step spoils the whole support, not only its own half
        value = np.where(np.isnan(w_left) | np.isnan(w_right), np.nan, value)
        return np.where(np.abs(x - z) < h, value, 0.0)
    # r = min(|x - z|, h) is h off the support, where both closed forms are 0
    r = np.asarray(x - z)
    np.abs(r, out=r)
    np.minimum(r, h, out=r)
    # the hat; also the Laplace profile's limit as omega h underflows
    b = spec.omega * h if spec.kind == LAPLACE else 0.0
    if b < np.finfo(float).tiny:
        np.divide(r, h, out=r)
        return np.subtract(1.0, r, out=r)
    np.subtract(h, r, out=r)
    np.multiply(spec.omega, r, out=r)
    return _sinh_ratio(r, b)


def _sinh_ratio(a: np.ndarray, b: float) -> np.ndarray:
    """sinh(a) / sinh(b) for an array 0 <= a <= b and a float b > 0, written
    over ``a``.  Stable against overflow for large b:
    sinh(a) / sinh(b) = e^{a-b} (1 - e^{-2a}) / (1 - e^{-2b})."""
    num = np.multiply(a, -2.0, out=np.empty_like(a))
    np.expm1(num, out=num)
    np.negative(num, out=num)
    np.subtract(a, b, out=a)
    np.exp(a, out=a)
    a *= num
    a /= -np.expm1(-2.0 * b)
    return a


def norm_const(spec: KernelSpec, l):
    """Entropic design constant C_l for a level vector.

    This is the weight maximized by the knapsack selection; it is independent
    of the position index i for every built-in kernel and strictly decreasing
    in each level component.  For every kind but Laplace it is
    ``expansion_coeff``, and like it maps an (L, D) level array to (L,).
    """
    if spec.kind == LAPLACE:
        h = 2.0 ** -np.atleast_1d(_check_levels(l))
        with np.errstate(over="ignore"):   # inf at a large omega h
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


def _hat_scale(spec: KernelSpec, h):
    """The Wronskian over one step h of the two hat kinds: h for bb, omega h
    for sobolev.  alpha is 2 over it, beta 1 over it."""
    return h if spec.kind == BROWNIAN_BRIDGE else spec.omega * h


def surplus_alpha_1d(spec: KernelSpec, level, i):
    """Diagonal coefficient alpha_{l,i} of the 1-D surplus operator.

    alpha equals the squared RKHS norm of the 1-D feature at (l, i):
    W(z_{i-1}, z_{i+1}) / (W(z_{i-1}, z_i) W(z_i, z_{i+1})).  ``level`` and
    ``i`` broadcast; a scalar pair gives a float.
    """
    level, i = np.broadcast_arrays(_check_levels(level), i)
    h = 2.0 ** -level
    with np.errstate(divide="ignore", over="ignore"):   # inf at a tiny (omega) h
        if spec.kind == LAPLACE:
            return _float_or_array(1.0 / np.tanh(spec.omega * h))
        if spec.kind in (BROWNIAN_BRIDGE, SOBOLEV):
            return _float_or_array(2.0 / _hat_scale(spec, h))
    zm, zc, zp = (i - 1) * h, i * h, (i + 1) * h
    return _float_or_array(_check_depth(
        _wronskian(spec, zm, zp)
        / (_step_wronskian(spec, zm, zc) * _step_wronskian(spec, zc, zp)), level))


def surplus_beta_1d(spec: KernelSpec, level, i):
    """Off-diagonal coefficient beta_{l,i} = 1 / W(z_{l,i}, z_{l,i+1}),
    elementwise like ``surplus_alpha_1d``."""
    level, i = np.broadcast_arrays(_check_levels(level), i)
    h = 2.0 ** -level
    with np.errstate(divide="ignore", over="ignore"):   # inf at a tiny (omega) h
        if spec.kind == LAPLACE:
            return _float_or_array(1.0 / (2.0 * np.sinh(spec.omega * h)))
        if spec.kind in (BROWNIAN_BRIDGE, SOBOLEV):
            return _float_or_array(1.0 / _hat_scale(spec, h))
    return _float_or_array(
        _check_depth(1.0 / _step_wronskian(spec, i * h, (i + 1) * h), level))
