"""Sparse feature embedding and truncated kernel reconstruction.

For each level vector in the design, at most one position index can be
nonzero at a given point (supports within a level have disjoint interiors),
so a point costs O(#levels) array steps and its row of the feature matrix
holds at most one entry per level vector (``embed_batch``).  ``design.py``
alone knows the rule that finds that position and the column layout, so
this module does no layout arithmetic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .design import IndexSet, _digits, _position
from .errors import DimError, InvalidLevel, check_choice
from .kernels import (KernelSpec, _finite_point, _prepare_point, _profile_1d,
                      expansion_coeff)

# value = sqrt(C) * phi: as the design grows, z(x).z(x') converges to the
# boundary-conditioned kernel (see expansion_coeff), which is k only for bb
SCALE_SQRT = "sqrt"
SCALE_PLAIN = "plain"  # value = phi alone; learned weights absorb the constants

_LEVEL_BLOCK = 16   # level vectors per transposed store: one cache line of int32
_ROW_BLOCK = 4096   # rows per pass over the design: bounds the 1-D profiles' scratch


def embed(spec: KernelSpec, S: IndexSet, x, scale: str = SCALE_SQRT) -> sp.csr_matrix:
    """Feature vector z(x) over the columns of ``S``, as a 1 x M CSR row: byte
    for byte row 0 of ``embed_batch`` on that one point."""
    return embed_batch(spec, S, np.atleast_1d(x)[None], scale=scale)


def embed_batch(spec: KernelSpec, S: IndexSet, X,
                scale: str = SCALE_SQRT) -> sp.csr_matrix:
    """Embed N points into an N x M CSR matrix with sorted column indices
    and no stored zeros.  The rows go in equal blocks of at most
    ``_ROW_BLOCK``; for one block the 1-D feature is evaluated once per
    (dimension, level) pair, at the position the design hands it, for all
    the block's rows at once, so the profiles and scratch are sized by the
    block, not by N, and every entry is the same product for any block
    size.  Row i of an (N, L) table holds its column (from
    ``IndexSet.columns``) and value in each level vector, in the design's
    canonical order, so each row's columns are sorted: the tables are the
    CSR's indices and data as they stand, with row pointers 0, L, 2L, ...,
    and dropping the zeros in place finishes the matrix, with no mask or
    compressed copy beside it.

    A 1-D value is exactly 0 on an even node, and NaN inside a support whose
    step Wronskian is bad (see ``_profile_1d``).  A row whose product is NaN
    embeds as 0 if the design drops its position or another factor is
    exactly 0, which puts it off the feature's open support, and raises
    ``InvalidLevel`` otherwise, naming the first such level vector in design
    order over all blocks."""
    check_choice(scale, (SCALE_SQRT, SCALE_PLAIN), "scale")
    if S.dim and S.dim != spec.dim:
        raise DimError(f"design dimension {S.dim} != kernel dimension {spec.dim}")
    X = _prepare_point(spec, X, spec.dim, 2)
    N, L = X.shape[0], len(S.levels)
    levels = list(map(tuple, S.levels.tolist()))
    # level vectors come in design order, so each row's columns are sorted
    cols = np.empty((N, L), dtype=np.int32 if len(S) < 2 ** 31 else np.int64)
    vals = np.empty((N, L))
    # rows go in equal blocks of at most _ROW_BLOCK; within one, level vectors
    # are built _LEVEL_BLOCK at a time, level-major, and each such group is
    # then stored transposed: a strided (N, L) column per level vector is
    # slower to fill
    n_blocks = max(1, -(-N // _ROW_BLOCK))
    edges = [N * b // n_blocks for b in range(n_blocks + 1)]
    shape = (min(_LEVEL_BLOCK, L), -(-N // n_blocks))
    block_cols = np.empty(shape, dtype=cols.dtype)
    block_vals = np.empty(shape)
    factor = (np.sqrt(expansion_coeff(spec, S.levels)) if scale == SCALE_SQRT
              else np.ones(L))
    bad = L     # the first level vector in design order too deep for a kept row
    for r0, r1 in zip(edges, edges[1:]):
        Xb, n = X[r0:r1], r1 - r0
        profiles, any_nan = {}, False
        for k, l in enumerate(levels[:bad]):
            j = k % _LEVEL_BLOCK
            for d, ld in enumerate(l):
                if (d, ld) not in profiles:
                    digit = _digits(ld, Xb[:, d])
                    profiles[d, ld] = (digit, _profile_1d(spec, ld, _position(digit),
                                                          Xb[:, d]))
                    any_nan |= bool(np.isnan(profiles[d, ld][1]).any())
            block_cols[j, :n], dropped = S.columns(k, [profiles[d, ld][0]
                                                       for d, ld in enumerate(l)])
            v = block_vals[j, :n]
            np.multiply(profiles[0, l[0]][1], factor[k], out=v)
            for d, ld in enumerate(l[1:], start=1):
                v *= profiles[d, ld][1]
            if dropped is not None:
                v[dropped] = 0.0
            if any_nan:     # dropped rows are 0 already
                rows = np.flatnonzero(np.isnan(v))
                if not np.all(np.logical_or.reduce(
                        [profiles[d, ld][1][rows] == 0.0 for d, ld in enumerate(l)])):
                    bad = k     # later blocks need only the level vectors before k
                    break
                v[rows] = 0.0
            if j == _LEVEL_BLOCK - 1 or k == L - 1:
                cols[r0:r1, k - j:k + 1] = block_cols[:j + 1, :n].T
                vals[r0:r1, k - j:k + 1] = block_vals[:j + 1, :n].T
    if bad < L:
        raise InvalidLevel(
            f"level vector {levels[bad]} is too deep for the kernel's (p, q)")
    # freed first: eliminate_zeros copies the tables if it drops most entries;
    # v is a view that would keep block_vals alive (v is unbound when L = 0)
    profiles = block_cols = block_vals = v = digit = None
    out = sp.csr_matrix((vals.reshape(-1), cols.reshape(-1),
                         np.arange(N + 1) * L), shape=(N, len(S)))
    out.eliminate_zeros()   # drops -0.0 too
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
