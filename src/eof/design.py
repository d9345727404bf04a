"""Feature-set enumeration and entropy-maximizing selection.

The full level-``n`` design keeps every index with ``|l| <= n + D - 1``
(components >= 1); its cardinality is ``sum_{j=D}^{n+D-1} C(j-1, D-1) 2^{j-D}``.
Selection under a pure cardinality budget is exactly top-M by the design
constant, so no general knapsack solver is needed; NP-hardness only enters
for weighted variants, which are out of scope here.

A design stores its level vectors, an (L, D) int array in canonical (|l|, l)
order, and per level vector ``None`` when it keeps all 2^(|l|-D) features,
else the sorted int64 mixed-radix codes of (i_d - 1) / 2 that it keeps (first
dimension most significant).  So columns are in canonical (|l|, l, i) order.
This module alone knows that layout: ``IndexSet.columns`` maps positions to
columns for the embedding.  A level vector whose code needs over 61 bits
raises ``InvalidLevel`` when the design is built.  ``FeatureIndex`` objects
are built only on request.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Mapping, Tuple

import numpy as np

from .errors import DimError, InvalidLevel, check_M
from .features import FeatureIndex
from .kernels import KernelSpec


class IndexSet:
    """A design in the canonical (|l|, l, i) column order.  ``IndexSet(features)``
    takes ``FeatureIndex`` objects in any order and rejects duplicates."""

    def __init__(self, features=()):
        features = tuple(sorted(features, key=FeatureIndex.sort_key))
        if any(a == b for a, b in zip(features, features[1:])):
            raise ValueError("duplicate feature indices")
        if len({f.dim for f in features}) > 1:
            raise DimError("feature indices differ in dimension")
        grouped = {}
        for f in features:
            code = 0
            for ld, i in zip(f.l, f.i):
                code = (code << (ld - 1)) + i // 2
            grouped.setdefault(f.l, []).append(code)
        levels = np.array(list(grouped), dtype=np.int64).reshape(
            len(grouped), features[0].dim if features else 0)
        self._set(levels, list(grouped.values()))
        self._indices = features

    @classmethod
    def _of(cls, levels, codes) -> "IndexSet":
        """A design from level vectors in canonical order and kept codes."""
        S = cls.__new__(cls)
        S._set(levels, codes)
        return S

    def _set(self, levels, codes):
        bits = levels.sum(axis=1) - levels.shape[1]
        if (bits > 61).any():   # x 2^l_d must fit an int64 as well as the code
            l = tuple(levels[bits > 61][0].tolist())
            raise InvalidLevel(f"level vector {l} is too deep for 64-bit keys")
        self.levels, self.dim = levels, levels.shape[1]
        self.codes = tuple(None if c is None or len(c) == 2 ** b
                           else np.asarray(c, dtype=np.int64)
                           for b, c in zip(bits.tolist(), codes))
        # offsets[k] is the first column of level vector k, offsets[-1] the size
        self.offsets = np.cumsum([0] + [2 ** b if c is None else len(c) for b, c
                                        in zip(bits.tolist(), self.codes)],
                                 dtype=np.int64)
        self._indices = None

    def columns(self, k: int, digits):
        """Columns of level vector ``k`` at per-row positions, given as one
        int64 array of (i_d - 1) / 2 per dimension, and the mask of rows whose
        position the design does not keep (``None`` if ``k`` is complete)."""
        code = np.zeros(len(digits[0]), dtype=np.int64)
        for ld, digit in zip(self.levels[k].tolist(), digits):
            if ld > 1:      # level 1 has the single code 0
                code *= 2 ** (ld - 1)
                code += digit
        kept = self.codes[k]
        if kept is None:
            return code + self.offsets[k], None
        # partial: the column is the code's rank among the kept codes
        at = np.minimum(np.searchsorted(kept, code), len(kept) - 1)
        return at + self.offsets[k], kept[at] != code

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def __iter__(self):
        return iter(self.indices)

    @property
    def indices(self) -> Tuple[FeatureIndex, ...]:
        """The columns as ``FeatureIndex`` objects, built on first use."""
        if self._indices is None:
            out = []
            for l, kept, size in zip(self.levels.tolist(), self.codes,
                                     np.diff(self.offsets).tolist()):
                digits = np.unravel_index(np.arange(size) if kept is None else kept,
                                          [2 ** (ld - 1) for ld in l])
                i = 2 * np.stack(digits, axis=1) + 1
                out.extend(FeatureIndex(l, row) for row in i.tolist())
            self._indices = tuple(out)
        return self._indices


def sparse_grid_size(D: int, n: int) -> int:
    """Cardinality of the full level-n design without enumerating it."""
    return sum(comb(j - 1, D - 1) * 2 ** (j - D) for j in range(D, n + D))


def enumerate_sparse_grid(D: int, n: int) -> IndexSet:
    """All indices with |l| <= n + D - 1, sorted by the canonical key."""
    if n < 1 or D < 1:
        raise InvalidLevel(f"n={n} and D={D} must both be >= 1")
    # a level vector is the gaps between D - 1 cuts of 1..|l| - 1, and cuts in
    # lexicographic order give level vectors in lexicographic order
    bounds = np.array([(0, *cuts, total) for total in range(D, n + D)
                       for cuts in combinations(range(1, total), D - 1)])
    return IndexSet._of(np.diff(bounds, axis=1), [None] * len(bounds))


def entropic_select(candidates: IndexSet, C: Mapping[FeatureIndex, float],
                    M: int) -> IndexSet:
    """Keep the M candidates with the largest design constants.

    Ties break by the canonical (|l|, l, i) order.  With a cardinality-only
    budget, top-M is the exact optimum of the selection objective.  M outside
    1..len(candidates) raises ``InvalidM``.
    """
    check_M(M, len(candidates))
    ranked = sorted(candidates, key=lambda idx: (-float(C[idx]), idx.sort_key()))
    return IndexSet(ranked[:M])


def truncate_random(full: IndexSet, M: int, seed: int) -> IndexSet:
    """Uniformly random M-subset of ``full``, canonical order preserved."""
    check_M(M, len(full))
    rng = np.random.default_rng(seed)
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
