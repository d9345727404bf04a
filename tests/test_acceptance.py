"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time
from math import comb

import numpy as np
import scipy.sparse as sp

from eof import bench
from eof.baselines import kernel_estimate, orf_map, rks_map
from eof.design import (IndexSet, enumerate_sparse_grid, entropic_select,
                        sparse_grid_size)
from eof.embedding import SCALE_PLAIN, embed, embed_batch
from eof.features import FeatureIndex
from eof.kernels import KernelSpec, kernel_eval, norm_const
from eof.learn import default_lambda, logistic_fit, ridge_fit

BB1 = KernelSpec("bb", dim=1)


def _verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_feature_orthogonality():
    # Brownian bridge hats, all 31 features with l <= 5: the Gram of
    # derivatives is diag(2^{l+1}) under exact piecewise integration
    t0 = time.perf_counter()
    feats = [(l, i) for l in range(1, 6) for i in range(1, 2 ** l, 2)]
    assert len(feats) == 31

    def slope(l, i, t):
        h = 2.0 ** -l
        if (i - 1) * h <= t < i * h:
            return 2.0 ** l
        if i * h <= t < (i + 1) * h:
            return -2.0 ** l
        return 0.0

    width = 2.0 ** -5                      # slopes constant on this grid
    mids = (np.arange(32) + 0.5) * width
    slopes = np.array([[slope(l, i, t) for t in mids] for l, i in feats])
    G = slopes @ slopes.T * width
    want = np.diag([2.0 ** (l + 1) for l, _ in feats])
    ok = np.max(np.abs(G - want)) < 1e-10
    norms = np.sqrt(np.diag(G))
    G_unit = G / norms / norms[:, None]
    ok &= np.max(np.abs(G_unit - np.eye(31))) < 1e-10
    ok &= time.perf_counter() - t0 < 1.0
    _verdict(1, "feature orthogonality", bool(ok))


def test_criterion_2_kernel_reconstruction():
    t0 = time.perf_counter()
    ok = True
    # exactness at dyadic nodes for the Brownian bridge
    for n in range(1, 7):
        S = enumerate_sparse_grid(1, n)
        nodes = np.array([i * 2.0 ** -l for l in range(1, n + 1)
                          for i in range(1, 2 ** l, 2)])[:, None]
        F = embed_batch(BB1, S, nodes)
        G = (F @ F.T).toarray()
        K = np.minimum(nodes, nodes.T) * (1.0 - np.maximum(nodes, nodes.T))
        ok &= np.max(np.abs(G - K)) < 1e-12
    # sup error over random pairs non-increasing in the design level
    rng = np.random.default_rng(17)
    X = rng.uniform(0.0, 1.0, (200, 1))
    Xp = rng.uniform(0.0, 1.0, (200, 1))
    specs = [BB1, KernelSpec("laplace", omega=1.0, dim=1),
             KernelSpec("laplace", omega=4.0, dim=1)]
    for spec in specs:
        k_true = np.array([kernel_eval(spec, a, b) for a, b in zip(X, Xp)])
        sups = []
        for n in range(2, 9):
            S = enumerate_sparse_grid(1, n)
            Fa = embed_batch(spec, S, X)
            Fb = embed_batch(spec, S, Xp)
            approx = np.asarray(Fa.multiply(Fb).sum(axis=1)).ravel()
            sups.append(np.max(np.abs(approx - k_true)))
        ok &= all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))
    ok &= time.perf_counter() - t0 < 5.0
    _verdict(2, "kernel reconstruction", bool(ok))


def test_criterion_3_sparsity_law():
    ok = True
    rng = np.random.default_rng(23)
    for D in (1, 2, 3):
        spec = KernelSpec("laplace", omega=2.0, dim=D)
        for n in range(1, 7):
            # cardinality against exhaustive enumeration
            count = 0
            for l in itertools.product(range(1, n + D), repeat=D):
                if sum(l) <= n + D - 1:
                    count += int(np.prod([2 ** (ld - 1) for ld in l]))
            S = enumerate_sparse_grid(D, n)
            ok &= len(S) == count == sparse_grid_size(D, n)
            # per-point nonzero count
            X = rng.uniform(0.0, 1.0, (1000, D))
            F = embed_batch(spec, S, X)
            nnz_rows = np.diff(F.indptr)
            bound = comb(n + D - 1, D)
            scaled = X * 2.0 ** (n + D - 1)
            generic = ~np.any(scaled == np.round(scaled), axis=1)
            ok &= np.all(nnz_rows[generic] == bound)
            ok &= np.all(nnz_rows <= bound)
    _verdict(3, "sparsity law", bool(ok))


def test_criterion_4_entropic_selection_optimality():
    ok = True
    rng = np.random.default_rng(31)
    pool_src = enumerate_sparse_grid(1, 5).indices
    for _ in range(200):
        n_cand = int(rng.integers(2, 16))
        pool = tuple(pool_src[k] for k in
                     rng.choice(len(pool_src), n_cand, replace=False))
        C = {idx: float(v) for idx, v in
             zip(pool, rng.uniform(0.1, 10.0, n_cand))}
        M = int(rng.integers(1, n_cand + 1))
        got = sum(C[idx] for idx in entropic_select(IndexSet(pool), C, M))
        best = max(sum(C[i] for i in sub)
                   for sub in itertools.combinations(pool, M))
        ok &= abs(got - best) <= 1e-12 * abs(best)
    # level-decaying constants recover the sparse-grid design exactly
    spec = KernelSpec("laplace", omega=1.0, dim=2)
    for n in (2, 3, 4):
        cand = enumerate_sparse_grid(2, n + 1)
        C = {idx: norm_const(spec, idx.l) for idx in cand}
        got = entropic_select(cand, C, sparse_grid_size(2, n))
        ok &= set(got.indices) == set(enumerate_sparse_grid(2, n).indices)
    _verdict(4, "entropic selection optimality", bool(ok))


def test_criterion_5_solver_correctness():
    ok = True
    rng = np.random.default_rng(41)
    for _ in range(100):
        N = int(rng.integers(5, 501))
        M = int(rng.integers(1, 101))
        lam = float(rng.uniform(1e-3, 1.0))
        F = rng.standard_normal((N, M))
        y = rng.standard_normal(N)
        w = ridge_fit(F, y, lam).weights
        want = np.linalg.solve(F.T @ F + lam * N * np.eye(M), F.T @ y)
        ok &= np.linalg.norm(w - want) <= 1e-8 * max(np.linalg.norm(want), 1.0)
    for seed in range(5):
        g = np.random.default_rng(seed)
        F = sp.csr_matrix(g.standard_normal((120, 8)) *
                          (g.uniform(size=(120, 8)) > 0.5))
        y = np.sign(g.standard_normal(120))
        model = logistic_fit(F, y, 0.05)
        from scipy.special import expit
        m = y * np.asarray(F @ model.weights)
        grad = -np.asarray(F.T @ (y * expit(-m))) / 120 + 0.1 * model.weights
        ok &= np.linalg.norm(grad) < 1e-6
    _verdict(5, "solver correctness", bool(ok))


def test_criterion_6_baseline_fidelity():
    sigma = 1.5
    rng = np.random.default_rng(51)
    pairs = rng.uniform(0.0, 1.0, (20, 2, 2))
    ok = True
    for builder, closed_form in (
            (rks_map, lambda x, xp: np.exp(-sigma * np.abs(x - xp).sum())),
            (orf_map, lambda x, xp: np.exp(
                -sigma ** 2 * ((x - xp) ** 2).sum() / 2.0))):
        errs = np.empty((20, 10))
        for s in range(10):
            fmap = builder(2, 5000, sigma, s)
            for p, (x, xp) in enumerate(pairs):
                errs[p, s] = abs(kernel_estimate(fmap, x, xp)
                                 - closed_form(x, xp))
        # per-pair median over the 10 seeds
        ok &= np.max(np.median(errs, axis=1)) < 0.02
    _verdict(6, "baseline fidelity", bool(ok))


def _criterion_dataset():
    return bench.synthetic_rkhs_dataset(N_train=2000, N_test=500, D=2,
                                        omega=2.0, n_centers=5, noise=0.05,
                                        seed=11)


def test_criterion_7_error_trend_vs_rks():
    t0 = time.perf_counter()
    ds = _criterion_dataset()
    sizes = [sparse_grid_size(2, n) for n in (3, 4, 5)]  # 17, 49, 129
    res = bench.run_benchmark(ds, ["eof", "rks"], sizes, runs=20, seed=7)
    med = {(r.method, r.M): float(np.median(r.errors)) for r in res}
    std = {(r.method, r.M): r.std_error for r in res}
    ok = all(med[("eof", M)] < med[("rks", M)] for M in sizes)
    ok &= all(std[("eof", M)] < 1e-12 for M in sizes)  # deterministic design
    ok &= time.perf_counter() - t0 < 120.0
    _verdict(7, "test error below RKS on synthetic task", bool(ok))


def test_criterion_8_sparsity_advantage():
    ds = _criterion_dataset()
    spec = KernelSpec("laplace", omega=2.0, dim=2)
    ratios = []
    for n in (4, 5, 6):
        S = enumerate_sparse_grid(2, n)
        F = embed_batch(spec, S, ds.X_train, scale=SCALE_PLAIN)
        # the dense cosine matrix at equal M has N * M nonzeros
        ratios.append(F.nnz / (ds.N_train * len(S)))
    ok = all(r < 0.5 for r in ratios)
    ok &= all(a > b for a, b in zip(ratios, ratios[1:]))
    _verdict(8, "nnz advantage over dense features", bool(ok))


def test_criterion_9_feature_count_saturation():
    ds = _criterion_dataset()
    N = ds.N_train
    lam = default_lambda(N)
    M_small = int(np.ceil(N ** 0.25 * np.log(N)))   # 51
    M_big = int(np.ceil(np.sqrt(N)))                # 45
    res = bench.run_benchmark(ds, ["eof"], [M_small, M_big], runs=20, seed=7,
                              lam=lam)
    med = [float(np.median(r.errors)) for r in res]
    ok = med[0] <= 1.5 * med[1]
    _verdict(9, "near-saturation at few features", bool(ok))
