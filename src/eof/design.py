"""Feature-set enumeration and entropy-maximizing selection.

The full level-``n`` design keeps every index with ``|l| <= n + D - 1``
(components >= 1); its cardinality is ``sum_{j=D}^{n+D-1} C(j-1, D-1) 2^{j-D}``.
Selection under a pure cardinality budget is exactly top-M by the design
constant, so no general knapsack solver is needed; NP-hardness only enters
for weighted variants, which are out of scope here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product
from math import comb
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import InvalidLevel, InvalidM
from .features import FeatureIndex
from .kernels import KernelSpec


@dataclass
class IndexSet:
    """An ordered collection of feature indices with a frozen column order.

    The order is always the canonical lexicographic key (|l|, l, i) applied
    before any random truncation, so column numbering is reproducible.
    """

    indices: Tuple[FeatureIndex, ...]
    level_cap: Optional[int] = None
    seed: Optional[int] = None
    _by_level: Optional[Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        self.indices = tuple(self.indices)
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("duplicate feature indices")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    @property
    def dim(self) -> int:
        return self.indices[0].dim if self.indices else 0

    def by_level(self) -> Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]]:
        """Columns grouped by level vector: {l: {i: column}}."""
        if self._by_level is None:
            grouped: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
            for col, idx in enumerate(self.indices):
                grouped.setdefault(idx.l, {})[idx.i] = col
            self._by_level = grouped
        return self._by_level


def _level_vectors(D: int, total: int):
    """All vectors of D positive integers summing to ``total``."""
    if D == 1:
        yield (total,)
        return
    for first in range(1, total - D + 2):
        for rest in _level_vectors(D - 1, total - first):
            yield (first,) + rest


def sparse_grid_size(D: int, n: int) -> int:
    """Cardinality of the full level-n design without enumerating it."""
    return sum(comb(j - 1, D - 1) * 2 ** (j - D) for j in range(D, n + D))


def enumerate_sparse_grid(D: int, n: int) -> IndexSet:
    """All indices with |l| <= n + D - 1, sorted by the canonical key."""
    if n < 1:
        raise InvalidLevel("n must be >= 1")
    if D < 1:
        raise InvalidLevel("D must be >= 1")
    indices: List[FeatureIndex] = []
    for total in range(D, n + D):
        for l in _level_vectors(D, total):
            odd_ranges = [range(1, 2 ** ld, 2) for ld in l]
            for i in product(*odd_ranges):
                indices.append(FeatureIndex(l, i))
    indices.sort(key=FeatureIndex.sort_key)
    return IndexSet(tuple(indices), level_cap=n)


def entropic_select(candidates: IndexSet,
                    C: Union[Mapping[FeatureIndex, float], callable],
                    M: int) -> IndexSet:
    """Keep the M candidates with the largest design constants.

    Ties break by the canonical (|l|, l, i) order.  With a cardinality-only
    budget, top-M is the exact optimum of the selection objective.
    """
    if M < 1:
        raise InvalidM("M must be >= 1")
    get = C.__getitem__ if isinstance(C, Mapping) else C
    if M > len(candidates):
        warnings.warn("M exceeds candidate count; returning all candidates")
        M = len(candidates)
    ranked = sorted(candidates, key=lambda idx: (-float(get(idx)), idx.sort_key()))
    chosen = sorted(ranked[:M], key=FeatureIndex.sort_key)
    return IndexSet(tuple(chosen), level_cap=candidates.level_cap)


def truncate_random(full: IndexSet, M: int, seed: int) -> IndexSet:
    """Uniformly random M-subset of ``full``, canonical order preserved."""
    if not 1 <= M <= len(full):
        raise InvalidM(f"M={M} out of range 1..{len(full)}")
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(len(full), size=M, replace=False))
    chosen = tuple(full.indices[j] for j in keep)
    return IndexSet(chosen, level_cap=full.level_cap, seed=seed)


def level_for_feature_count(D: int, M: int) -> int:
    """Smallest n with |S*_{n-1}| < M <= |S*_n| (the truncation rule)."""
    if M < 1:
        raise InvalidM("M must be >= 1")
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
