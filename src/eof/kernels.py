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

Custom kernels can be plugged in by supplying ``p``, ``q`` and a per-level
normalization callable; only the multilevel feature machinery is reused then.
"""

from __future__ import annotations

import math
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
    norm_const_1d : callable, optional
        ``level -> C_l`` design constant for a custom kernel.
    """

    kind: str
    omega: float = 1.0
    dim: int = 1
    strict: bool = False
    p: Optional[Callable] = field(default=None, compare=False)
    q: Optional[Callable] = field(default=None, compare=False)
    norm_const_1d: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind in (LAPLACE, SOBOLEV) and not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == CUSTOM and (self.p is None or self.q is None):
            raise ValueError("custom kernels need p and q callables")


def _prepare_point(spec: KernelSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if not np.all(np.isfinite(x)):
        raise InvalidPoint("point contains NaN or Inf")
    if spec.strict:
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise InvalidPoint("point outside [0,1]^D in strict mode")
        return x
    return np.clip(x, 0.0, 1.0)


def kernel_eval(spec: KernelSpec, x, xp) -> float:
    """Evaluate k(x, x') as the product of per-dimension factors."""
    x = _prepare_point(spec, x)
    xp = _prepare_point(spec, xp)
    if x.shape != xp.shape or x.shape[0] != spec.dim:
        raise DimError(f"expected points of dimension {spec.dim}")
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
    l = np.atleast_1d(np.asarray(l, dtype=int))
    if np.any(l < 1):
        raise InvalidLevel("all levels must be >= 1")
    return l


def norm_const(spec: KernelSpec, l) -> float:
    """Entropic design constant C_l for a level vector.

    This is the weight maximized by the knapsack selection; it is independent
    of the position index i for every built-in kernel and strictly decreasing
    in each level component.  For the Brownian-bridge and weighted-Sobolev
    kernels it is ``expansion_coeff``.
    """
    l = _check_levels(l)
    if spec.kind == LAPLACE:
        return float(np.prod(np.sinh(spec.omega * 2.0 ** (-l.astype(float)))))
    if spec.kind == CUSTOM:
        if spec.norm_const_1d is None:
            raise ValueError("custom kernel needs norm_const_1d")
        return float(np.prod([spec.norm_const_1d(int(ld)) for ld in l]))
    return expansion_coeff(spec, l)


def expansion_coeff(spec: KernelSpec, l) -> float:
    """Exact reconstruction coefficient 1 / ||phi_l||_k^2 for a level vector.

    This is the product of 1 / alpha_{l_d,1} over dimensions (alpha is the
    squared RKHS norm of the 1-D feature, independent of the position i for
    Sturm-Liouville pairs with constant Wronskian).  For the Laplace kernel
    the per-dimension norm is coth(w 2^-l), so the coefficient is the tanh
    closed form; ``norm_const`` keeps the sinh closed form used for entropy
    ranking.  Only this coefficient makes z(x)^T z(x') converge to k(x, x').
    """
    l = _check_levels(l)
    if spec.kind == LAPLACE:
        return float(np.prod(np.tanh(spec.omega * 2.0 ** (-l.astype(float)))))
    return float(np.prod([1.0 / surplus_alpha_1d(spec, int(ld), 1) for ld in l]))


def surplus_alpha_1d(spec: KernelSpec, level: int, i: int) -> float:
    """Diagonal coefficient alpha_{l,i} of the 1-D surplus operator.

    alpha equals the squared RKHS norm of the 1-D feature at (l, i):
    W(z_{i-1}, z_{i+1}) / (W(z_{i-1}, z_i) W(z_i, z_{i+1})).
    """
    if level < 1:
        raise InvalidLevel("level must be >= 1")
    h = 2.0 ** (-level)
    if spec.kind == LAPLACE:
        return 1.0 / math.tanh(spec.omega * h)
    if spec.kind == BROWNIAN_BRIDGE:
        return 2.0 / h
    if spec.kind == SOBOLEV:
        return 2.0 / (spec.omega * h)
    zm, zc, zp = (i - 1) * h, i * h, (i + 1) * h
    return float(_wronskian(spec, zm, zp)
                 / (_wronskian(spec, zm, zc) * _wronskian(spec, zc, zp)))


def surplus_beta_1d(spec: KernelSpec, level: int, i: int) -> float:
    """Off-diagonal coefficient beta_{l,i} = 1 / W(z_{l,i}, z_{l,i+1})."""
    if level < 1:
        raise InvalidLevel("level must be >= 1")
    h = 2.0 ** (-level)
    if spec.kind == LAPLACE:
        return 1.0 / (2.0 * math.sinh(spec.omega * h))
    if spec.kind == BROWNIAN_BRIDGE:
        return 1.0 / h
    if spec.kind == SOBOLEV:
        return 1.0 / (spec.omega * h)
    return 1.0 / float(_wronskian(spec, i * h, (i + 1) * h))
