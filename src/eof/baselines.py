"""Random-feature baselines: RKS, ORF, LKRF, EERF.

A map is its frequencies g_m and phases b_m; all four share the cosine
feature map

    z(x) = (1/sqrt(M)) [cos(x^T g_m + b_m)]_{m=1..M}

with phases b_m ~ U[0, 2pi).  With single-cosine features and random phases
E[z(x)^T z(x')] converges to k(x, x') / 2, so ``kernel_estimate`` doubles
the dot product to obtain the unbiased kernel estimator.  Every cosine block
comes from ``_cosines``.

RKS draws frequencies from a scaled Cauchy (Laplace kernel); ORF builds
orthogonal blocks approximating a Gaussian kernel; LKRF and EERF draw an
oversampled Cauchy pool and keep the top-M candidates by label alignment
(``eerf_select``, which ``lkrf_select`` names too), so they differ only in
their pool seed.  The rule ranks only and never rescales surviving
features; it is a simple stand-in for the original reweighting procedures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimError, InvalidData, all_finite, check_M, check_dim,
                     check_positive, check_seed)
from .kernels import _finite_point
from .learn import _targets

RKS = "rks"
ORF = "orf"
LKRF = "lkrf"
EERF = "eerf"


@dataclass(frozen=True)
class RandomFeatureMap:
    """Frozen cosine feature map: just M frequency rows and M phases, each
    cast to float (nested lists too).  A value that does not cast, or is
    not finite, raises ``InvalidData`` naming its field."""

    frequencies: np.ndarray   # (M, D)
    phases: np.ndarray        # (M,)

    def __post_init__(self):
        for name in ("frequencies", "phases"):
            try:
                value = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                raise InvalidData(f"{name} must be real numbers") from None
            if not all_finite(value):
                raise InvalidData(f"{name} hold a NaN or an infinity")
            object.__setattr__(self, name, value)
        shape = self.frequencies.shape
        if len(shape) != 2 or min(shape) < 1 or self.phases.shape != shape[:1]:
            raise DimError(f"frequencies must be (M, D) with M, D >= 1 and phases "
                           f"(M,), got {shape} and {self.phases.shape}")

    @property
    def M(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]


def _rng(D: int, M: int, sigma: float, seed: int) -> np.random.Generator:
    """The generator of a new map, once D, M, sigma and the seed pass their rules."""
    check_dim(D)
    check_M(M)
    check_positive(sigma, "sigma")
    return np.random.default_rng(check_seed(seed))


def rks_map(D: int, M: int, sigma: float, seed: int) -> RandomFeatureMap:
    """Cauchy-frequency map approximating exp(-sigma * ||x - x'||_1)."""
    rng = _rng(D, M, sigma, seed)
    freqs = rng.standard_cauchy((M, D)) * sigma
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    return RandomFeatureMap(freqs, phases)


def orf_map(D: int, M: int, sigma: float, seed: int) -> RandomFeatureMap:
    """Orthogonal blocks approximating exp(-sigma^2 ||x - x'||^2 / 2).

    Each D x D block is sigma * S * Q with Q from the QR factorization of a
    Gaussian matrix and S diagonal with chi(D)-distributed entries; blocks
    are stacked and truncated to M rows.  All blocks are factorized by one
    stacked QR.
    """
    rng = _rng(D, M, sigma, seed)
    n_blocks = -(-M // D)
    G = np.empty((n_blocks, D, D))
    chi2 = np.empty((n_blocks, D))
    for k in range(n_blocks):   # per block, in the order of the RNG stream
        G[k] = rng.standard_normal((D, D))
        chi2[k] = rng.chisquare(D, size=D)
    Q, R = np.linalg.qr(G)
    # fix signs so Q is Haar-distributed
    Q *= np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    Q *= sigma * np.sqrt(chi2)[:, :, None]
    freqs = Q.reshape(-1, D)[:M]
    phases = rng.uniform(0.0, 2.0 * np.pi, M)
    return RandomFeatureMap(freqs, phases)


def _augment(A, last) -> np.ndarray:
    """``A`` with ``last`` appended along its last axis: [X | 1] or [G | b]."""
    last = np.broadcast_to(last, np.shape(A)[:-1])
    return np.concatenate([A, last[..., None]], axis=-1)


def _cosines(X1, Gb, s=1.0) -> np.ndarray:
    """s cos t with t = X1 Gb^T, X1 = [X | 1] and Gb = [G | b], built in one
    buffer in the inputs' dtype from one GEMM, so the phase is added inside
    the product, not in a pass of its own.

    float32 (the selection screen, s = 1) takes ``np.cos``.  float64 takes
    2 s / (1 + u^2) - s with u = tan(t / 2), the GEMM forming t / 2 from
    Gb / 2: a power-of-two scale commutes with every rounding, so that is
    t halved, exactly but for underflow.  numpy vectorizes float64 tan where
    it dispatches to AVX-512 but leaves float64 cos scalar, so a block takes
    4-5x less time there (and some 25% more where numpy has no AVX-512 path).

    numpy's float64 tan is within 1 ulp (2 u64 relative, u64 = 2^-53; its
    own accuracy tests' bound), and the square, the sum, the quotient and
    the difference round once each (2 s is exact).  With p = 2 s / (1 + u^2),
    an error e relative in u^2 moves p by at most p e u^2 / (1 + u^2) <=
    s e / 2, so tan and the square give (2 * 2 + 1) / 2 s u64, and rounding
    1 + u^2 moves p by at most p u64 <= 2 s u64.  While p >= s / 2 the
    difference is exact (Sterbenz) and the quotient errs by at most half an
    ulp of p <= 2 s, 2 s u64; below that the quotient errs by at most
    s u64 / 2 and the difference s u64.  So the result is within 13/2 s u64
    of s cos t absolutely, to first order, and the features are O(s), so
    that is the error that reaches a fit; at s = 1 half an ulp of p <= 2 is
    u64, which gives 6 u64 (6.7e-16), and 3 u64 (3.3e-16) is the largest
    difference from ``np.cos`` measured there.  +-0, +-inf and NaN give what
    ``np.cos`` gives.
    """
    if np.result_type(X1, Gb) != np.float64:
        Z = X1 @ Gb.T
        return np.cos(Z, out=Z)
    Z = X1 @ (0.5 * Gb).T
    np.tan(Z, out=Z)
    Z *= Z
    Z += 1.0
    np.divide(2.0 * s, Z, out=Z)
    Z -= s
    return Z


def rf_embed(fmap: RandomFeatureMap, x) -> np.ndarray:
    """Dense feature vector (one point) or matrix (an (N, D) batch)."""
    x = _finite_point(x, fmap.dim)   # cosine features take any real x: no clipping
    if x.ndim > 2:
        raise DimError(f"expected one point or an (N, D) batch, got {x.ndim}-D")
    Gb = _augment(fmap.frequencies, fmap.phases)
    return _cosines(_augment(x, 1.0), Gb, 1.0 / np.sqrt(fmap.M))


def kernel_estimate(fmap: RandomFeatureMap, x, xp) -> float:
    """Unbiased Monte Carlo kernel estimate 2 z(x)^T z(x') of two points."""
    x, xp = (_finite_point(p, fmap.dim, 1) for p in (x, xp))
    return float(2.0 * rf_embed(fmap, x) @ rf_embed(fmap, xp))


# float32 unit roundoff and smallest normal number: rounding a real v to
# float32 errs by at most U32 * (|v| + TINY32), TINY32 covering underflow
U32 = 2.0 ** -24
TINY32 = float(np.finfo(np.float32).tiny)


def _screen_error(G, b, X, y) -> np.ndarray:
    """Bound on |a32 - a64| per candidate, a32 and a64 being its label
    alignment ``y^T cos(X g + b)`` as ``eerf_select`` computes it from
    ``_cosines`` in float32 and in float64, b inside the GEMM.  It bounds
    ||a32| - |a64|| too, so it brackets |a|, the one key LKRF and EERF both
    rank by.

    With t = x^T g + b and T = sum_d (|g_d| + TINY32) (max|X| + TINY32) +
    |b| + TINY32 >= max |t| (over all points, inside the cube or not):
    - each product x_d g_d takes three float32 roundings (x, g, x * g), b
      one (its product with 1 is exact), and the D additions of the D + 1
      terms of t, in whatever order the GEMM takes, at most D more, so the
      float32 argument errs by at most (D + 3) u T, and so does its cosine;
    - numpy's float32 cosine is accurate to 4 ulp or better, i.e. 4 u on
      [-1, 1] (1.2 u measured with numpy 2.4 on x86-64 over arguments up
      to 3e38), and the products' own underflow, D u TINY32, is far below;
    - y^T Z takes N + 1 roundings per term (y, the product, N - 1 sums)
      against sum_i |y_i| + N TINY32 =: S.
    So |a32 - a_exact| <= S u ((D + 3) T + 4 + N + 1) to first order.  The
    float64 a64 takes the same roundings at u64 = 2^-29 u, with 6 u64 for
    ``_cosines``' float64 cosine (s = 1) in place of 4 u, so it errs by at
    most 1.5 * 2^-29 times as much; and the second-order terms stay below the
    first-order ones while (N + D + 4) u <= 1/2: doubling the first-order
    bound covers both.  Past that many rows the bound is infinite.
    """
    N, D = len(y), G.shape[1]
    if (N + D + 4) * U32 > 0.5:
        return np.full(len(b), np.inf)
    x_max = np.abs(X).max(initial=0.0) + TINY32
    t_max = ((np.abs(G).sum(axis=1) + D * TINY32) * x_max
             + np.abs(b) + TINY32)
    S = np.abs(y).sum() + N * TINY32
    return S * U32 * ((2 * D + 6) * t_max + 2 * N + 10)


def eerf_select(pool: RandomFeatureMap, y, X, M: int) -> RandomFeatureMap:
    """Keep the top-M pool candidates by label alignment |a| = |y^T Z| over
    the raw cosine matrix Z of the training points, built M columns at a time:
    besides the (M0,) alignments it holds one N x M block, the size of the map
    that ``rf_embed`` builds next, so O(N M + M0) memory, not O(N M0).

    The pool is screened in float32, where the cosine is some 4x faster than
    in float64, and each |a| bracketed by
    ``_screen_error``: a candidate whose upper bound lies below the M-th
    largest lower bound is certainly out, one whose lower bound lies above
    the (M+1)-th largest upper bound certainly in.  The candidates that are
    neither are scored again in float64, those candidates, M at a time, and
    the remaining places go to the largest |a| of those by the stable rule
    (ties keep the lower index).  The kept set is the float64 top-M of the
    whole pool; a non-finite float32 alignment (overflow) counts as unbounded.
    """
    check_M(M, pool.M)
    X = _finite_point(X, pool.dim, 2)
    y = _targets(y, len(X))
    G, b = pool.frequencies, pool.phases
    X1, Gb = _augment(X, 1.0), _augment(G, b)
    a = np.empty(pool.M)
    with np.errstate(over="ignore", invalid="ignore"):
        X1_32, Gb32 = X1.astype(np.float32), Gb.astype(np.float32)
        y32 = y.astype(np.float32)
        for j in range(0, pool.M, M):
            a[j:j + M] = y32 @ _cosines(X1_32, Gb32[j:j + M])
        err = _screen_error(G, b, X, y)
        bad = ~np.isfinite(a) | np.isnan(err)
        a[bad], err[bad] = 0.0, np.inf
        lo, hi = np.maximum(np.abs(a) - err, 0.0), np.abs(a) + err
    out = hi < np.partition(lo, -M)[-M]
    cut_hi = np.partition(hi, -M - 1)[-M - 1] if M < pool.M else -np.inf
    sure = np.flatnonzero(lo > cut_hi)
    near = np.flatnonzero(~out & (lo <= cut_hi))
    for j in range(0, len(near), M):
        idx = near[j:j + M]
        a[idx] = y @ _cosines(X1, Gb[idx])
    # stable: ties keep the lower candidate index
    best = near[np.argsort(-np.abs(a[near]), kind="stable")]
    keep = np.sort(np.concatenate([sure, best[:M - len(sure)]]))
    return RandomFeatureMap(pool.frequencies[keep], pool.phases[keep])


# LKRF runs EERF's rule until it gets its own reweighting (ROADMAP item 12)
lkrf_select = eerf_select
