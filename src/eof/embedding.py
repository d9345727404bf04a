"""Sparse feature embedding and truncated kernel reconstruction.

For each level vector in the design, at most one position index can be
nonzero at a given point (supports within a level have disjoint interiors),
and it is found directly from the dyadic coordinates of the point: the odd
member of {ceil(x 2^l), floor(x 2^l)} per dimension.  ``embed_batch`` finds
that position and the 1-D feature value there once per (dimension, level)
pair, for all rows at once, and fills an (L, N) table of columns and values
one level vector at a time, in the design's canonical order.  A complete
level vector is indexed directly: the column is its first column plus the
mixed-radix code of (i_d - 1) / 2.  Only a level vector that truncation left
partial looks the code up among the design's kept codes by binary search, so
the lookup holds O(M) keys however deep the levels are.  One nonzero mask
compresses the tables into CSR.  A point thus costs O(#levels) array steps.
The scale factor of every level vector comes from one ``expansion_coeff``
call over the design's (L, D) level array.  ``embed`` is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .design import IndexSet
from .errors import DimError
from .kernels import KernelSpec, _prepare_point, _profile_1d, expansion_coeff

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


def _sparse_row(F: sp.csr_matrix, r: int) -> SparseVec:
    lo, hi = F.indptr[r], F.indptr[r + 1]
    return SparseVec(F.shape[1], F.indices[lo:hi].astype(np.int64), F.data[lo:hi])


def embed(spec: KernelSpec, S: IndexSet, x, scale: str = SCALE_SQRT) -> SparseVec:
    """Sparse feature vector z(x) over the columns of ``S``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _sparse_row(embed_batch(spec, S, x[None], scale=scale), 0)


def _dyadic_profile(spec: KernelSpec, level: int, x: np.ndarray):
    """Per row: (i - 1) // 2 of the odd position i at ``level`` and the 1-D
    feature value there.  A row on an even node, where no feature of the level
    is nonzero, gets code 0 and value 0, so it drops out of every product."""
    t = x * 2.0 ** level
    up = np.ceil(t).astype(np.int64)
    i = np.where(up % 2 == 1, up, np.floor(t).astype(np.int64))
    odd = i % 2 == 1
    # rows on even nodes are evaluated at i = 1, so that the (p, q) form
    # never sees a point outside [0, 1]
    i = np.where(odd, i, 1)
    return i // 2, np.where(odd, _profile_1d(spec, level, i, x), 0.0)


def embed_batch(spec: KernelSpec, S: IndexSet, X,
                scale: str = SCALE_SQRT) -> sp.csr_matrix:
    """Embed N points into an N x M CSR matrix with sorted column indices."""
    if scale not in (SCALE_SQRT, SCALE_RAW, SCALE_PLAIN):
        raise ValueError(f"unknown scale {scale!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimError("X must be a 2-D array of shape (N, D)")
    if S.dim and X.shape[1] != S.dim:
        raise DimError(f"row dimension {X.shape[1]} != design dimension {S.dim}")
    X = _prepare_point(spec, X)
    N = X.shape[0]
    # one row per level vector: each point's column and value in that level
    cols = np.empty((len(S.levels), N), dtype=np.int32)
    vals = np.empty((len(S.levels), N))
    factor = (np.ones(len(S.levels)) if scale == SCALE_PLAIN
              else expansion_coeff(spec, S.levels))
    if scale == SCALE_SQRT:
        factor = np.sqrt(factor)
    profiles = {}
    for k, l in enumerate(map(tuple, S.levels.tolist())):
        for d, ld in enumerate(l):
            if (d, ld) not in profiles:
                profiles[d, ld] = _dyadic_profile(spec, ld, X[:, d])
        code = np.zeros(N, dtype=np.int64)
        for d, ld in enumerate(l):
            if ld > 1:      # level 1 has the single code 0
                code *= 2 ** (ld - 1)
                code += profiles[d, ld][0]
        np.multiply(profiles[0, l[0]][1], factor[k], out=vals[k])
        for d, ld in enumerate(l[1:], start=1):
            vals[k] *= profiles[d, ld][1]
        kept = S.codes[k]
        if kept is not None:    # partial: the column is the code's rank
            at = np.minimum(np.searchsorted(kept, code), len(kept) - 1)
            vals[k][kept[at] != code] = 0.0
            code = at
        cols[k] = code + S.offsets[k]
    del profiles    # D*n columns of N rows; freed before the compression
    nonzero = vals.T != 0.0
    indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    out = sp.csr_matrix((vals.T[nonzero], cols.T[nonzero], indptr),
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
