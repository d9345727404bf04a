"""Feature-set enumeration and entropy-maximizing selection.

The full level-``n`` design keeps every index with ``|l| <= n + D - 1``
(components >= 1); its cardinality is ``sum_{j=D}^{n+D-1} C(j-1, D-1) 2^{j-D}``.
Selection under a pure cardinality budget is exactly top-M by the design
constant, so no general knapsack solver is needed; NP-hardness only enters
for weighted variants, which are out of scope here.

A design stores its level vectors, an (L, D) int array in canonical (|l|, l)
order, their radixes 2^(l_d - 1), and per level vector ``None`` when it keeps
all 2^(|l|-D) features, else the sorted int64 mixed-radix codes of the digits
(i_d - 1) / 2 that it keeps (first dimension most significant).  So columns
are in canonical (|l|, l, i) order.  This module alone knows that layout:
``_digits`` finds a point's digits, ``IndexSet.columns`` alone composes them
into columns, ``IndexSet.columns_of`` alone finds one design's columns in
another and ``IndexSet.indices`` alone decomposes codes into positions.
It also alone knows which full design a design comes from: ``IndexSet.level``
reads it off the level vectors, so the rule that picks the full design behind
an M-feature design (``select_design``) is not worked out again elsewhere.
A code of over 61 bits, or a full design of over 2^63 - 1 columns (from
n = 58 at D = 2, 53 at D = 3, 49 at D = 4 and 39 at D = 8), raises
``InvalidLevel`` (in ``enumerate_sparse_grid`` before any level vector is
listed).  ``FeatureIndex`` objects are built on request.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Mapping, Tuple

import numpy as np

from .errors import (DimError, InvalidIndex, InvalidLevel, check_dim, check_int,
                     check_M, check_seed)
from .features import FeatureIndex
from .kernels import KernelSpec, _check_levels


class IndexSet:
    """A design in the canonical (|l|, l, i) column order.  ``IndexSet(features)``
    takes ``FeatureIndex`` objects in any order and rejects duplicates
    (``InvalidIndex``)."""

    def __init__(self, features=()):
        features = tuple(sorted(features, key=FeatureIndex.sort_key))
        if any(a == b for a, b in zip(features, features[1:])):
            raise InvalidIndex("duplicate feature indices")
        if len({f.dim for f in features}) > 1:
            raise DimError("feature indices differ in dimension")
        grouped = {}
        for f in features:
            grouped.setdefault(f.l, []).append(f.i)
        levels = np.array(list(grouped), dtype=np.int64).reshape(
            len(grouped), features[0].dim if features else 0)
        # with every level vector complete, a column less its offset is the code
        self._set(levels, [None] * len(levels))
        self._set(levels, [self.columns(k, (np.array(i).T - 1) // 2)[0]
                           - self.offsets[k] for k, i in enumerate(grouped.values())])
        self._indices = features

    @classmethod
    def _of(cls, levels, codes) -> "IndexSet":
        """A design from level vectors in canonical order and kept codes."""
        S = cls.__new__(cls)
        S._set(levels, codes)
        return S

    def _set(self, levels, codes):
        _check_keys(levels)
        self.levels, self.dim = levels, levels.shape[1]
        self._radix = 2 ** (levels - 1)
        size = self._radix.prod(axis=1).tolist()
        self.codes = tuple(None if c is None or len(c) == n
                           else np.asarray(c, dtype=np.int64)
                           for n, c in zip(size, codes))
        # offsets[k] is the first column of level vector k, offsets[-1] the size
        self.offsets = np.cumsum([0] + [n if c is None else len(c)
                                        for n, c in zip(size, self.codes)],
                                 dtype=np.int64)
        self._indices = None

    def columns(self, k: int, digits):
        """Columns of level vector ``k`` at per-row positions, given as one
        int64 array of (i_d - 1) / 2 per dimension, and the mask of rows whose
        position the design does not keep (``None`` if ``k`` is complete).
        A complete level vector adds its offset to the code; a partial one
        finds the code among its kept codes by binary search, so the lookup
        never holds more than the design's own codes, however deep ``k`` is."""
        code = np.zeros(len(digits[0]), dtype=np.int64)
        for radix, digit in zip(self._radix[k].tolist(), digits):
            if radix > 1:   # level 1 has the single code 0
                code *= radix
                code += digit
        return self._code_columns(k, code)

    def _code_columns(self, k: int, code):
        """``columns`` of level vector ``k`` at int64 codes."""
        kept = self.codes[k]
        if kept is None:
            return code + self.offsets[k], None
        # partial: the column is the code's rank among the kept codes
        at = np.minimum(np.searchsorted(kept, code), len(kept) - 1)
        return at + self.offsets[k], kept[at] != code

    def columns_of(self, S: "IndexSet") -> np.ndarray:
        """The int64 columns of this design that hold the columns of ``S``, in
        S's order; ``InvalidIndex`` if S has a column this design lacks.  A
        full design's columns are the first columns of every larger full
        design, so a design's embedding is these columns of the embedding of
        any full design that holds it.  A level vector's codes are the same
        numbers in every design that has it."""
        row = {l: k for k, l in enumerate(map(tuple, self.levels.tolist()))}
        out = [np.empty(0, dtype=np.int64)]
        for l, code, size in zip(map(tuple, S.levels.tolist()), S.codes,
                                 np.diff(S.offsets).tolist()):
            k = row.get(l)
            if k is None:
                raise InvalidIndex(f"level vector {l} is not in the design")
            cols, dropped = self._code_columns(
                k, np.arange(size, dtype=np.int64) if code is None else code)
            if dropped is not None and dropped.any():
                raise InvalidIndex(f"level vector {l} keeps a position "
                                   f"that the design does not")
            out.append(cols)
        return np.concatenate(out)

    def __len__(self) -> int:
        return int(self.offsets[-1])

    @property
    def level(self) -> int:
        """The level n of the smallest full design that holds every column:
        max |l| - D + 1 (0 for an empty design).  For ``select_design(spec,
        M, seed)`` it is ``level_for_feature_count(D, M)``, as the M > |S_{n-1}|
        kept columns cannot all miss the top layer |l| = n + D - 1."""
        if not len(self.levels):
            return 0
        return int(self.levels.sum(axis=1).max()) - self.dim + 1

    def __iter__(self):
        return iter(self.indices)

    @property
    def indices(self) -> Tuple[FeatureIndex, ...]:
        """The columns as ``FeatureIndex`` objects, built on first use."""
        if self._indices is None:
            out = []
            for l, radix, kept, size in zip(self.levels.tolist(), self._radix,
                                            self.codes, np.diff(self.offsets).tolist()):
                digits = np.unravel_index(np.arange(size) if kept is None else kept,
                                          radix)
                i = _position(np.stack(digits, axis=1))
                out.extend(FeatureIndex(l, row) for row in i.tolist())
            self._indices = tuple(out)
        return self._indices


def _check_keys(levels):
    """``InvalidLevel`` naming the first row of the (L, D) level array whose
    code needs over 61 bits: x 2^l_d must fit an int64 as well as the code."""
    bits = levels.sum(axis=1) - levels.shape[1]
    if (bits > 61).any():
        l = tuple(levels[bits > 61][0].tolist())
        raise InvalidLevel(f"level vector {l} is too deep for 64-bit keys")


def _digits(level: int, x: np.ndarray) -> np.ndarray:
    """Per coordinate, the digit (i - 1) / 2 of the odd position i at ``level``
    whose support's interior holds x: floor(x 2^(level-1)).  A coordinate on
    an even node, where x 2^(level-1) is an integer and no support's interior
    holds it, gets digit 0: position 1, whose centre it is at least h from."""
    half = x * 2.0 ** (level - 1)
    digit = np.floor(half)
    digit[digit == half] = 0.0
    return digit.astype(np.int64)


def _position(digits):
    """The odd position i = 2 d + 1 of each digit d."""
    return 2 * digits + 1


def sparse_grid_size(D: int, n: int) -> int:
    """Cardinality of the full level-n design without enumerating it."""
    check_dim(D)
    _check_levels(n)
    return sum(comb(j - 1, D - 1) * 2 ** (j - D) for j in range(D, n + D))


def enumerate_sparse_grid(D: int, n: int) -> IndexSet:
    """All indices with |l| <= n + D - 1, sorted by the canonical key.  Only
    the level vectors are listed, so it costs O(#levels), not O(M)."""
    check_dim(D)
    _check_levels(n)
    # every code of a layer needs |l| - D bits: check each layer's first up front
    _check_keys(np.array([(1,) * (D - 1) + (k,) for k in range(1, n + 1)]))
    # and the column count, the last of the int64 offsets, must fit one too
    check_int(sparse_grid_size(D, n), f"the column count of the level-{n} design "
              f"at D={D}", InvalidLevel, high=2 ** 63 - 1)
    # a level vector is the gaps between D - 1 cuts of 1..|l| - 1, and cuts in
    # lexicographic order give level vectors in lexicographic order
    bounds = np.array([(0, *cuts, total) for total in range(D, n + D)
                       for cuts in combinations(range(1, total), D - 1)])
    return IndexSet._of(np.diff(bounds, axis=1), [None] * len(bounds))


def entropic_select(candidates: IndexSet, C: Mapping[FeatureIndex, float],
                    M: int) -> IndexSet:
    """Keep the M candidates with the largest design constants.

    Ties break by the canonical (|l|, l, i) order.  Ranked by ``norm_const``,
    the kept set is the sparse-grid design for bb and sobolev, and for
    Laplace only while omega 2^-l is small: at omega = 10.65, over a pool
    larger than the smallest full design, it takes deep axis-aligned level
    vectors such as (1, 4).  M outside 1..len(candidates) raises ``InvalidM``.
    """
    check_M(M, len(candidates))
    ranked = sorted(candidates, key=lambda idx: (-float(C[idx]), idx.sort_key()))
    return IndexSet(ranked[:M])


def truncate_random(full: IndexSet, M: int, seed: int) -> IndexSet:
    """Uniformly random M-subset of ``full``, canonical order preserved."""
    check_M(M, len(full))
    rng = np.random.default_rng(check_seed(seed))
    keep = np.sort(rng.choice(len(full), size=M, replace=False))
    level = np.searchsorted(full.offsets, keep, side="right") - 1
    present, first = np.unique(level, return_index=True)
    within = np.split(keep - full.offsets[level], first[1:])
    codes = [c if full.codes[k] is None else full.codes[k][c]
             for k, c in zip(present.tolist(), within)]
    return IndexSet._of(full.levels[present], codes)


def level_for_feature_count(D: int, M: int) -> int:
    """Smallest n with |S*_{n-1}| < M <= |S*_n| (the truncation rule)."""
    check_M(M)
    n = 1
    while sparse_grid_size(D, n) < M:
        n += 1
    return n


def select_design(spec: KernelSpec, M: int, seed: int) -> IndexSet:
    """The M-feature design that the bench and the CLI train on.

    A uniformly random M-subset of the smallest full design that holds M
    (all of it when M is a full design size).
    """
    full = enumerate_sparse_grid(spec.dim, level_for_feature_count(spec.dim, M))
    return truncate_random(full, M, seed)
