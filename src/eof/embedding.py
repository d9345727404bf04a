"""Sparse feature embedding and truncated kernel reconstruction.

For each level vector in the design, at most one position index can be
nonzero at a given point (supports within a level have disjoint interiors),
and it is found directly from the dyadic coordinates of the point: the odd
member of {ceil(x 2^l), floor(x 2^l)} per dimension.  ``embed_batch`` finds
that position and the 1-D feature value there once per (dimension, level)
pair, for all rows at once.  Each level vector keys its columns by the
mixed-radix code of (i_d - 1) / 2, sorted, and one binary search per row
finds the row's column or shows that truncation dropped it.  A point thus
costs O(#levels) array steps plus a logarithmic search, and the lookup holds
O(M) keys however deep the levels are.  ``embed`` is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .design import IndexSet
from .errors import DimError, InvalidLevel
from .features import _profile_1d
from .kernels import KernelSpec, _prepare_point, expansion_coeff

SCALE_SQRT = "sqrt"   # value = sqrt(C) * phi; makes z(x).z(x') track k(x,x')
SCALE_RAW = "raw"     # value = C * phi; the literal per-level update rule
SCALE_PLAIN = "plain"  # value = phi alone; learned weights absorb the constants


@dataclass(frozen=True)
class SparseVec:
    """A length-M sparse vector with strictly increasing column indices."""

    dim: int
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.cols)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.cols] = self.vals
        return out

    def dot(self, other: "SparseVec") -> float:
        if self.dim != other.dim:
            raise DimError("sparse vectors have different dimensions")
        _, ia, ib = np.intersect1d(self.cols, other.cols, assume_unique=True,
                                   return_indices=True)
        return float(self.vals[ia] @ other.vals[ib])


def _scale_value(spec: KernelSpec, l, scale: str) -> float:
    if scale == SCALE_PLAIN:
        return 1.0
    c = expansion_coeff(spec, l)
    return np.sqrt(c) if scale == SCALE_SQRT else c


def _sparse_row(F: sp.csr_matrix, r: int) -> SparseVec:
    lo, hi = F.indptr[r], F.indptr[r + 1]
    return SparseVec(F.shape[1], F.indices[lo:hi].astype(np.int64), F.data[lo:hi])


def embed(spec: KernelSpec, S: IndexSet, x, scale: str = SCALE_SQRT) -> SparseVec:
    """Sparse feature vector z(x) over the columns of ``S``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _sparse_row(embed_batch(spec, S, x[None], scale=scale), 0)


def _dyadic_profile(spec: KernelSpec, level: int, x: np.ndarray):
    """Per row: (i - 1) // 2 of the odd position i at ``level``, or -1 when the
    row sits on an even node (no feature of the level is nonzero there), and
    the 1-D feature value at i."""
    t = x * 2.0 ** level
    up = np.ceil(t).astype(np.int64)
    i = np.where(up % 2 == 1, up, np.floor(t).astype(np.int64))
    odd = i % 2 == 1
    # rows on even nodes are evaluated at i = 1 and dropped later, so that
    # the (p, q) form never sees a point outside [0, 1]
    value = _profile_1d(spec, level, np.where(odd, i, 1), x)
    return np.where(odd, i // 2, -1), value


def _level_keys(l, positions):
    """Sorted mixed-radix keys of one level's positions, and their columns."""
    # a key holds sum(l_d - 1) bits, and x 2^l_d must fit an int64 as well
    if sum(l) - len(l) > 61:
        raise InvalidLevel(f"level vector {l} is too deep for 64-bit keys")
    pos = np.array(list(positions), dtype=np.int64).reshape(-1, len(l))
    keys = np.zeros(len(pos), dtype=np.int64)
    for d, ld in enumerate(l):
        keys = keys * 2 ** (ld - 1) + pos[:, d] // 2
    order = np.argsort(keys)
    return keys[order], np.fromiter(positions.values(), np.int64)[order]


def embed_batch(spec: KernelSpec, S: IndexSet, X,
                scale: str = SCALE_SQRT) -> sp.csr_matrix:
    """Embed N points into an N x M CSR matrix with sorted column indices."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimError("X must be a 2-D array of shape (N, D)")
    if S.dim and X.shape[1] != S.dim:
        raise DimError(f"row dimension {X.shape[1]} != design dimension {S.dim}")
    X = _prepare_point(spec, X)
    N = X.shape[0]
    profiles = {}
    rows_out, cols_out, vals_out = [], [], []
    for l, positions in S.by_level().items():
        keys, cols = _level_keys(l, positions)
        code = np.zeros(N, dtype=np.int64)
        hit = np.ones(N, dtype=bool)
        for d, ld in enumerate(l):
            if (d, ld) not in profiles:
                profiles[d, ld] = _dyadic_profile(spec, ld, X[:, d])
            half = profiles[d, ld][0]
            code = code * 2 ** (ld - 1) + half
            hit &= half >= 0
        at = np.minimum(np.searchsorted(keys, code), len(keys) - 1)
        hit &= keys[at] == code
        rows = np.flatnonzero(hit)
        value = np.full(len(rows), _scale_value(spec, l, scale))
        for d, ld in enumerate(l):
            value *= profiles[d, ld][1][rows]
        keep = value != 0.0
        rows_out.append(rows[keep])
        cols_out.append(cols[at[rows[keep]]])
        vals_out.append(value[keep])
    del profiles    # D*n columns of N rows; freed before the CSR copies
    out = sp.csr_matrix(
        (np.concatenate(vals_out or [np.empty(0)]),
         (np.concatenate(rows_out or [np.empty(0, np.int64)]),
          np.concatenate(cols_out or [np.empty(0, np.int64)]))),
        shape=(N, len(S)))
    out.sort_indices()
    return out


def kernel_approx(spec: KernelSpec, S: IndexSet, x, xp) -> float:
    """Truncated expansion z(x)^T z(x') approximating k(x, x')."""
    x, xp = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, xp))
    if x.shape != xp.shape:
        raise DimError("x and x' have different dimensions")
    F = embed_batch(spec, S, np.stack([x, xp]))
    return _sparse_row(F, 0).dot(_sparse_row(F, 1))
