"""Random-feature baselines: RKS, ORF, LKRF, EERF.

A map is its frequencies g_m and phases b_m; all four share the cosine
feature map

    z(x) = (1/sqrt(M)) [cos(x^T g_m + b_m)]_{m=1..M}

with phases b_m ~ U[0, 2pi).  With single-cosine features and random phases
E[z(x)^T z(x')] converges to k(x, x') / 2, so ``kernel_estimate`` doubles
the dot product to obtain the unbiased kernel estimator.

RKS draws frequencies from a scaled Cauchy (Laplace kernel); ORF builds
orthogonal blocks approximating a Gaussian kernel; LKRF and EERF draw an
oversampled Cauchy pool and keep the top-M candidates by a label-alignment
score.  The two scores used here (squared alignment sum for LKRF, absolute
first moment for EERF) are simple stand-ins for the original reweighting
procedures; they rank only and never rescale surviving features.

Selection scores the pool M candidates at a time, so besides the (M0,)
score vector it holds one N x M cosine block, the size of the map that
``rf_embed`` builds next: O(N M + M0) memory, not O(N M0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, InvalidData, InvalidM
from .kernels import _finite_point

RKS = "rks"
ORF = "orf"
LKRF = "lkrf"
EERF = "eerf"


@dataclass(frozen=True)
class RandomFeatureMap:
    """Frozen cosine feature map: just M frequency rows and M phases."""

    frequencies: np.ndarray   # (M, D)
    phases: np.ndarray        # (M,)

    @property
    def M(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]


def rks_map(D: int, M: int, sigma: float, seed: int) -> RandomFeatureMap:
    """Cauchy-frequency map approximating exp(-sigma * ||x - x'||_1)."""
    if M < 1:
        raise InvalidM("M must be >= 1")
    rng = np.random.default_rng(seed)
    freqs = rng.standard_cauchy((M, D)) * sigma
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    return RandomFeatureMap(freqs, phases)


def orf_map(D: int, M: int, sigma: float, seed: int) -> RandomFeatureMap:
    """Orthogonal blocks approximating exp(-sigma^2 ||x - x'||^2 / 2).

    Each D x D block is sigma * S * Q with Q from the QR factorization of a
    Gaussian matrix and S diagonal with chi(D)-distributed entries; blocks
    are stacked and truncated to M rows.
    """
    if M < 1:
        raise InvalidM("M must be >= 1")
    rng = np.random.default_rng(seed)
    blocks = []
    n_blocks = -(-M // D)
    for _ in range(n_blocks):
        G = rng.standard_normal((D, D))
        Q, R = np.linalg.qr(G)
        # fix signs so Q is Haar-distributed
        Q = Q * np.sign(np.diag(R))
        chi = np.sqrt(rng.chisquare(D, size=D))
        blocks.append(sigma * chi[:, None] * Q)
    freqs = np.vstack(blocks)[:M]
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    return RandomFeatureMap(freqs, phases)


def rf_embed(fmap: RandomFeatureMap, x) -> np.ndarray:
    """Dense feature vector (1-D input) or matrix (2-D input)."""
    x = _finite_point(x)   # cosine features take any real x: no clipping
    if x.shape[-1] != fmap.dim:
        raise DimError(f"point dimension {x.shape[-1]} != map dimension {fmap.dim}")
    Z = x @ fmap.frequencies.T
    Z += fmap.phases
    np.cos(Z, out=Z)
    Z /= np.sqrt(fmap.M)
    return Z


def kernel_estimate(fmap: RandomFeatureMap, x, xp) -> float:
    """Unbiased Monte Carlo kernel estimate 2 z(x)^T z(x')."""
    return float(2.0 * rf_embed(fmap, x) @ rf_embed(fmap, xp))


def _select(score, pool: RandomFeatureMap, y, X, M: int) -> RandomFeatureMap:
    """Keep the top-M pool candidates by ``score(y^T Z, N)`` over the raw
    cosine matrix Z of the training points, built M columns at a time."""
    if M < 1:
        raise InvalidM("M must be >= 1")
    if M > pool.M:
        raise InvalidM(f"M={M} exceeds pool size {pool.M}")
    X = _finite_point(X)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise InvalidData("labels contain non-finite values")
    if len(y) != X.shape[0]:
        raise DimError(f"{X.shape[0]} rows but {len(y)} labels")
    G, b = pool.frequencies, pool.phases
    a = np.empty(pool.M)
    for j in range(0, pool.M, M):
        Z = X @ G[j:j + M].T
        Z += b[j:j + M]
        np.cos(Z, out=Z)
        a[j:j + M] = y @ Z
        del Z   # free this block before the next product is allocated
    # stable: ties keep the lower candidate index
    keep = np.sort(np.argsort(-score(a, len(y)), kind="stable")[:M])
    return RandomFeatureMap(pool.frequencies[keep], pool.phases[keep])


def lkrf_select(pool: RandomFeatureMap, y, X, M: int) -> RandomFeatureMap:
    """Keep the top-M pool candidates by squared label alignment."""
    return _select(lambda a, N: a ** 2, pool, y, X, M)


def eerf_select(pool: RandomFeatureMap, y, X, M: int) -> RandomFeatureMap:
    """Keep the top-M pool candidates by absolute first-moment score."""
    return _select(lambda a, N: np.abs(a) / N, pool, y, X, M)
