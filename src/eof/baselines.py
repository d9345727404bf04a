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
``rf_embed`` builds next: O(N M + M0) memory, not O(N M0).  It screens the
pool in float32, where ``np.cos`` is some 25x faster than in float64, and
bounds each candidate's float32 error from closed-form quantities.  Only the
blocks holding a candidate whose score interval straddles the cut are scored
again in float64, with the same block formula, so the kept set is exactly
the one the float64 scores of the whole pool give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimError, check_M
from .kernels import _finite_point
from .learn import _targets

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


def _rng(D: int, M: int, seed: int) -> np.random.Generator:
    """The generator of a new map, once D >= 1 (``DimError``) and M >= 1."""
    if D < 1:
        raise DimError(f"D={D} must be >= 1")
    check_M(M)
    return np.random.default_rng(seed)


def rks_map(D: int, M: int, sigma: float, seed: int) -> RandomFeatureMap:
    """Cauchy-frequency map approximating exp(-sigma * ||x - x'||_1)."""
    rng = _rng(D, M, seed)
    freqs = rng.standard_cauchy((M, D)) * sigma
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    return RandomFeatureMap(freqs, phases)


def orf_map(D: int, M: int, sigma: float, seed: int) -> RandomFeatureMap:
    """Orthogonal blocks approximating exp(-sigma^2 ||x - x'||^2 / 2).

    Each D x D block is sigma * S * Q with Q from the QR factorization of a
    Gaussian matrix and S diagonal with chi(D)-distributed entries; blocks
    are stacked and truncated to M rows.
    """
    rng = _rng(D, M, seed)
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
    x = _finite_point(x, fmap.dim)   # cosine features take any real x: no clipping
    Z = x @ fmap.frequencies.T
    Z += fmap.phases
    np.cos(Z, out=Z)
    Z /= np.sqrt(fmap.M)
    return Z


def kernel_estimate(fmap: RandomFeatureMap, x, xp) -> float:
    """Unbiased Monte Carlo kernel estimate 2 z(x)^T z(x')."""
    return float(2.0 * rf_embed(fmap, x) @ rf_embed(fmap, xp))


# float32 unit roundoff and smallest normal number: rounding a real v to
# float32 errs by at most U32 * (|v| + TINY32), TINY32 covering underflow
U32 = 2.0 ** -24
TINY32 = float(np.finfo(np.float32).tiny)


def _block_scores(X, y, G, b) -> np.ndarray:
    """y^T cos(X G^T + b) for one block of candidates, in the inputs' dtype."""
    Z = X @ G.T
    Z += b
    np.cos(Z, out=Z)
    return y @ Z


def _screen_error(G, b, X, y) -> np.ndarray:
    """Bound on |a32 - a64| per candidate, a32 and a64 being ``y^T cos(X g +
    b)`` as ``_block_scores`` computes it in float32 and in float64.

    With t = x^T g + b and T = sum_d (|g_d| + TINY32) (max|X| + TINY32) +
    |b| + TINY32 >= max |t| (over all points, inside the cube or not):
    - each product x_d g_d takes three float32 roundings (x, g, x * g) and
      the D additions forming t at most D more, b two, so the float32
      argument errs by at most (D + 3) u T, and so does its cosine;
    - numpy's float32 cosine is accurate to 4 ulp or better, i.e. 4 u on
      [-1, 1] (1.2 u measured with numpy 2.4 on x86-64 over arguments up
      to 3e38), and the products' own underflow, D u TINY32, is far below;
    - y^T Z takes N + 1 roundings per term (y, the product, N - 1 sums)
      against sum_i |y_i| + N TINY32 =: S.
    So |a32 - a_exact| <= S u ((D + 3) T + 4 + N + 1) to first order.  The
    float64 a64 errs by 2^-29 times as much, and the second-order terms stay
    below the first-order ones while (N + D + 4) u <= 1/2: doubling the
    first-order bound covers both.  Past that many rows the bound is
    infinite.
    """
    N, D = len(y), G.shape[1]
    if (N + D + 4) * U32 > 0.5:
        return np.full(len(b), np.inf)
    x_max = np.abs(X).max(initial=0.0) + TINY32
    t_max = ((np.abs(G).sum(axis=1) + D * TINY32) * x_max
             + np.abs(b) + TINY32)
    S = np.abs(y).sum() + N * TINY32
    return S * U32 * ((2 * D + 6) * t_max + 2 * N + 10)


def _select(score, pool: RandomFeatureMap, y, X, M: int) -> RandomFeatureMap:
    """Keep the top-M pool candidates by ``score(y^T Z, N)`` over the raw
    cosine matrix Z of the training points, built M columns at a time.

    ``score`` must be even in a and non-decreasing in |a| as evaluated in
    float64.  The pool is screened in float32 and each score bracketed by
    ``_screen_error``: a candidate whose upper bound lies below the M-th
    largest lower bound is certainly out, one whose lower bound lies above
    the (M+1)-th largest upper bound certainly in.  Every block holding a
    candidate that is neither is scored again in float64, and the remaining
    places go to the best of those by the stable rule (ties keep the lower
    index).  The kept set is the float64 top-M of the whole pool; a
    non-finite float32 score (overflow) counts as unbounded.
    """
    check_M(M, pool.M)
    X = _finite_point(X, pool.dim, 2)
    y = _targets(y, len(X))
    G, b, N = pool.frequencies, pool.phases, len(y)
    a = np.empty(pool.M)
    with np.errstate(over="ignore", invalid="ignore"):
        X32, y32 = X.astype(np.float32), y.astype(np.float32)
        G32, b32 = G.astype(np.float32), b.astype(np.float32)
        for j in range(0, pool.M, M):
            a[j:j + M] = _block_scores(X32, y32, G32[j:j + M], b32[j:j + M])
        err = _screen_error(G, b, X, y)
        bad = ~np.isfinite(a) | np.isnan(err)
        a[bad], err[bad] = 0.0, np.inf
        lo = score(np.maximum(np.abs(a) - err, 0.0), N)
        hi = score(np.abs(a) + err, N)
    out = hi < np.partition(lo, -M)[-M]
    cut_hi = np.partition(hi, -M - 1)[-M - 1] if M < pool.M else -np.inf
    sure = np.flatnonzero(lo > cut_hi)
    near = np.flatnonzero(~out & (lo <= cut_hi))
    for j in np.unique(near // M) * M:
        a[j:j + M] = _block_scores(X, y, G[j:j + M], b[j:j + M])
    # stable: ties keep the lower candidate index
    best = near[np.argsort(-score(a[near], N), kind="stable")]
    keep = np.sort(np.concatenate([sure, best[:M - len(sure)]]))
    return RandomFeatureMap(pool.frequencies[keep], pool.phases[keep])


def lkrf_select(pool: RandomFeatureMap, y, X, M: int) -> RandomFeatureMap:
    """Keep the top-M pool candidates by squared label alignment."""
    return _select(lambda a, N: a ** 2, pool, y, X, M)


def eerf_select(pool: RandomFeatureMap, y, X, M: int) -> RandomFeatureMap:
    """Keep the top-M pool candidates by absolute first-moment score."""
    return _select(lambda a, N: np.abs(a) / N, pool, y, X, M)
