"""Multilevel compactly-supported features and the surplus operator.

A feature is indexed by a level vector ``l`` (each component >= 1) and an odd
position vector ``i`` with ``1 <= i_d <= 2^{l_d} - 1``.  The 1-D feature is
supported on ``[(i-1) 2^-l, (i+1) 2^-l]``, equals 1 at the center node
``i 2^-l`` and vanishes at the endpoints; D-dimensional features are plain
tensor products.  Within one level the supports have disjoint interiors and
across levels they are nested, which is what makes the embedding sparse.
This module validates indices and builds on ``kernels``, which holds the
per-kind formulas: the 1-D profile and the surplus coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Tuple

import numpy as np

from .errors import DimError, InvalidData, InvalidIndex, is_integer
from .kernels import (KernelSpec, _check_levels, _float_or_array, _prepare_point,
                      _profile_1d, surplus_alpha_1d, surplus_beta_1d)


@dataclass(frozen=True)
class FeatureIndex:
    """A multilevel index (l, i) identifying one basis function."""

    l: Tuple[int, ...]
    i: Tuple[int, ...]

    def __post_init__(self):
        l, i = tuple(self.l), tuple(self.i)
        if not l:
            raise DimError("a feature index needs at least one component")
        if len(l) != len(i):
            raise DimError("level and position vectors differ in length")
        l = tuple(_check_levels(l).tolist())
        for ld, id_ in zip(l, i):
            if not (is_integer(id_) and id_ % 2 and 1 <= int(id_) < 2 ** ld):
                raise InvalidIndex(f"position {id_} at level {ld} is not an odd "
                                   f"number in 1..{2 ** ld - 1}")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "i", tuple(map(int, i)))

    @property
    def dim(self) -> int:
        return len(self.l)

    def sort_key(self):
        """Canonical ordering key: (|l|, l, i)."""
        return (sum(self.l), self.l, self.i)


def phi_1d(spec: KernelSpec, l: int, i: int, x) -> float:
    """``phi_nd`` at the index ((l,), (i,)), each value of ``x`` a 1-D point.

    For the Brownian-bridge and weighted-Sobolev kernels this is the
    triangular hat centered at i 2^-l; for the Laplace kernel it is the
    sinh-ratio profile sinh(w(h - |x - z|)) / sinh(w h) on the support.
    """
    return phi_nd(spec, FeatureIndex((l,), (i,)),
                  np.asarray(x, dtype=float)[..., None])


def phi_nd(spec: KernelSpec, idx: FeatureIndex, x) -> float:
    """Tensor-product feature value at D-dimensional points (the last axis); a
    level too deep for a custom (p, q) raises ``InvalidLevel`` wherever x lies."""
    x = _prepare_point(spec, x, idx.dim)
    val = 1.0
    for d in range(idx.dim):
        surplus_alpha_1d(spec, idx.l[d], idx.i[d])
        val = val * _profile_1d(spec, idx.l[d], idx.i[d], x[..., d])
    return _float_or_array(val)


def support_box(idx: FeatureIndex):
    """Axis-aligned support box as (lo, hi) arrays."""
    l = np.array(idx.l, dtype=float)
    i = np.array(idx.i, dtype=float)
    h = 2.0 ** (-l)
    return (i - 1.0) * h, (i + 1.0) * h


def hierarchical_surplus(spec: KernelSpec, f: Callable, idx: FeatureIndex) -> float:
    """Apply the tensorized surplus operator to ``f`` at index ``idx``.

    Returns <f, phi_idx>_k computed from the 3^D point evaluations of ``f``
    on the dyadic stencil {z_{l,i-1}, z_{l,i}, z_{l,i+1}} per dimension, with
    weights (-beta, alpha, -beta) built from the kernel's (p, q) pair.  For
    the Brownian bridge this is 2^l times the dyadic second difference per
    dimension.  Applied to phi_idx itself it returns ||phi_idx||_k^2.  A
    stencil weight that is not finite (Laplace and Sobolev weights grow like
    1/(omega h), so a tiny omega overflows them) raises ``InvalidData``.
    """
    coeffs = []
    nodes = []
    for d in range(idx.dim):
        l, i = idx.l[d], idx.i[d]
        h = 2.0 ** (-l)
        alpha = surplus_alpha_1d(spec, l, i)
        beta_left = surplus_beta_1d(spec, l, i - 1)
        beta_right = surplus_beta_1d(spec, l, i)
        coeffs.append((-beta_left, alpha, -beta_right))
        nodes.append(((i - 1) * h, i * h, (i + 1) * h))
    total = 0.0
    for combo in product((0, 1, 2), repeat=idx.dim):
        w = 1.0
        pt = np.empty(idx.dim)
        for d, c in enumerate(combo):
            w *= coeffs[d][c]
            pt[d] = nodes[d][c]
        if not math.isfinite(w):
            raise InvalidData(f"stencil weight {w} at index {idx} is not finite "
                              f"(omega={spec.omega!r})")
        total += w * f(pt if idx.dim > 1 else float(pt[0]))
    return float(total)
