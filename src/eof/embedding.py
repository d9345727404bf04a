"""Sparse feature embedding and truncated kernel reconstruction.

For each level vector in the design, at most one position index can be
nonzero at a given point (supports within a level have disjoint interiors),
and it is found directly from the dyadic coordinates of the point: the odd
member of {ceil(x 2^l), floor(x 2^l)} per dimension.  ``embed_batch`` finds
that position and the 1-D feature value there once per (dimension, level)
pair, for all rows at once, and fills an (L, N) table of columns and values
one level vector at a time, in the design's canonical order.  The design
alone knows its column layout: ``IndexSet.columns`` turns the positions
(i_d - 1) / 2 into columns and, for a level vector that truncation left
partial, flags the rows whose position the design does not keep.  One
nonzero mask compresses the tables into CSR.  A point thus costs O(#levels)
array steps.  The scale factor of every level vector comes from one
``expansion_coeff`` call over the design's (L, D) level array.  ``embed`` is
the one-row case and returns a 1 x M CSR row.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .design import IndexSet
from .errors import DimError
from .kernels import (KernelSpec, _finite_point, _prepare_point, _profile_1d,
                      expansion_coeff)

# value = sqrt(C) * phi: as the design grows, z(x).z(x') converges to the
# boundary-conditioned kernel (see expansion_coeff), which is k only for bb
SCALE_SQRT = "sqrt"
SCALE_PLAIN = "plain"  # value = phi alone; learned weights absorb the constants


def embed(spec: KernelSpec, S: IndexSet, x, scale: str = SCALE_SQRT) -> sp.csr_matrix:
    """Feature vector z(x) over the columns of ``S``, as a 1 x M CSR row."""
    return embed_batch(spec, S, np.atleast_1d(x)[None], scale=scale)


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
    if scale not in (SCALE_SQRT, SCALE_PLAIN):
        raise ValueError(f"unknown scale {scale!r}")
    if S.dim and S.dim != spec.dim:
        raise DimError(f"design dimension {S.dim} != kernel dimension {spec.dim}")
    X = _prepare_point(spec, X, spec.dim, 2)
    N = X.shape[0]
    # one row per level vector: each point's column and value in that level
    cols = np.empty((len(S.levels), N), dtype=np.int32)
    vals = np.empty((len(S.levels), N))
    factor = (np.sqrt(expansion_coeff(spec, S.levels)) if scale == SCALE_SQRT
              else np.ones(len(S.levels)))
    profiles = {}
    for k, l in enumerate(map(tuple, S.levels.tolist())):
        for d, ld in enumerate(l):
            if (d, ld) not in profiles:
                profiles[d, ld] = _dyadic_profile(spec, ld, X[:, d])
        cols[k], dropped = S.columns(k, [profiles[d, ld][0]
                                         for d, ld in enumerate(l)])
        np.multiply(profiles[0, l[0]][1], factor[k], out=vals[k])
        for d, ld in enumerate(l[1:], start=1):
            vals[k] *= profiles[d, ld][1]
        if dropped is not None:
            vals[k][dropped] = 0.0
    del profiles    # D*n columns of N rows; freed before the compression
    nonzero = vals.T != 0.0
    indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
    out = sp.csr_matrix((vals.T[nonzero], cols.T[nonzero], indptr),
                        shape=(N, len(S)))
    out.sort_indices()
    return out


def kernel_approx(spec: KernelSpec, S: IndexSet, x, xp) -> float:
    """Truncated expansion z(x)^T z(x') at sqrt scaling, approximating the
    boundary-conditioned kernel (see ``SCALE_SQRT``)."""
    F = embed_batch(spec, S, np.stack([_finite_point(v, spec.dim, 1)
                                       for v in (x, xp)]))
    mid = F.indptr[1]
    _, ia, ib = np.intersect1d(F.indices[:mid], F.indices[mid:],
                               assume_unique=True, return_indices=True)
    return float(F.data[:mid][ia] @ F.data[mid:][ib])
