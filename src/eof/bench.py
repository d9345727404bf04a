"""End-to-end benchmark pipeline: CSV in, method comparison out.

``load_csv`` and ``standardize`` make a ``Dataset`` on [0,1]^D,
``estimate_sigma`` gives the one bandwidth that every method uses, and
``run_benchmark`` fits and scores each (method, M) cell through
``fit_and_score`` over repeated seeded runs; ``report`` renders the cells.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
import warnings
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import baselines, learn
from .design import (enumerate_sparse_grid, level_for_feature_count,
                     select_design, sparse_grid_size)
from .embedding import SCALE_PLAIN, embed_batch
from .errors import (DegenerateData, EofError, InvalidData, ParseError,
                     all_finite, check_choice, check_dim, check_int, check_M,
                     check_positive, check_seed, is_real)
from .kernels import KernelSpec, _finite_point, _kernel_rows

EOF_METHOD = "eof"
ALL_METHODS = (EOF_METHOD, baselines.RKS, baselines.ORF, baselines.LKRF,
               baselines.EERF)
NEIGHBOR = 50   # estimate_sigma reads the distance to this nearest neighbor
SWEEP_CELLS = 1 << 14   # distances in one block of estimate_sigma's search
POOL_FACTOR = 10   # LKRF and EERF choose M features from POOL_FACTOR * M


@dataclass
class RawData:
    """Parsed but unscaled CSV contents."""

    X: np.ndarray
    y: np.ndarray
    name: str
    task: str


@dataclass
class Dataset:
    """Standardized train/test split on [0,1]^D."""

    X_train: np.ndarray
    X_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray
    name: str = ""
    task: str = learn.REGRESSION

    @property
    def D(self) -> int:
        return self.X_train.shape[1]

    @property
    def N_train(self) -> int:
        return self.X_train.shape[0]

    @property
    def N_test(self) -> int:
        return self.X_test.shape[0]


@dataclass
class BenchResult:
    """One (method, M) cell of ``run_benchmark``: ``errors`` and ``failures``
    (``"Type: message"``) of its runs in seed order, one entry per run;
    ``t_train``, the mean wall time of the runs that fitted, each a whole
    run: features, fit and scoring, and the shared eof embedding in the run
    that made it (NaN if no run fitted); the successful runs' rounded mean
    ``nnz_F``; and ``M0``, the full design (eof) or pool (LKRF/EERF) size,
    else 0.  Derived: ``mean_error``, ``std_error`` and ``n_failed``."""

    method: str
    M: int
    M0: int
    errors: List[float]
    failures: List[str]
    t_train: float
    nnz_F: int

    @property
    def mean_error(self) -> float:
        return _mean(self.errors)

    @property
    def std_error(self) -> float:
        # about the first error, so that runs that agree give exactly 0
        return (float(np.std(np.subtract(self.errors, self.errors[:1])))
                if self.errors else math.nan)

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def _mean(values, empty=math.nan) -> float:
    """The mean of ``values`` as a float; ``empty`` when there are none."""
    return float(np.mean(values)) if len(values) else empty


def read_table(path) -> Tuple[List[str], np.ndarray]:
    """Parse a rectangular numeric CSV with a header row into (header, cells).
    A non-numeric or non-finite cell or a ragged row raises ``ParseError``
    with its position, and bytes that do not decode as text raise it too; a
    file that cannot be opened raises the ``OSError`` of ``open``.

    The body is first read by numpy's C parser; its result is kept only when
    it has at least one row, the header's column count and finite cells.
    Anything else, an exception included, reruns ``_read_table_checked``, so
    every error from the file's contents comes from the checking parser."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
            with warnings.catch_warnings():
                # an empty body gives zero rows, which the check below sends
                # to the checking parser
                warnings.filterwarnings("ignore", message=".*no data",
                                        category=UserWarning)
                cells = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            if (cells.shape[0] >= 1 and cells.shape[1] == len(header)
                    and all_finite(cells)):
                return header, cells
        except Exception:   # whatever failed, the checking parser names it
            pass
    return _read_table_checked(path)


def _read_table_checked(path) -> Tuple[List[str], np.ndarray]:
    """``read_table`` in Python, one cell at a time, naming the row and column
    of the first bad cell."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", row=1)
        header = [h.strip() for h in header]
        rows = []
        for rnum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"row has {len(row)} cells, expected {len(header)}",
                                 row=rnum)
            vals = []
            for cnum, cell in enumerate(row, start=1):
                try:
                    v = float(cell)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise ParseError(f"cell {cell!r} is not a finite number",
                                     row=rnum, col=cnum)
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows")
    return header, np.asarray(rows)


def _csv_rows(fh):
    """The rows of a CSV text file; bytes that do not decode or a line the
    csv module rejects (a field over its size limit) raise ``ParseError``."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise ParseError(f"does not decode as {exc.encoding} text") from None
    except csv.Error as exc:
        raise ParseError(str(exc), row=reader.line_num) from None


def load_csv(path, target_column: str, task: str) -> RawData:
    """Parse a rectangular numeric CSV with a header row naming the target once.
    ``X`` and ``y`` are owned copies, so the parsed table is freed on return."""
    header, data = read_table(path)
    if target_column not in header:
        raise ParseError(f"target column {target_column!r} not in header")
    if header.count(target_column) > 1:
        raise ParseError(f"target column {target_column!r} repeats in header")
    if len(header) == 1:
        raise ParseError(f"no feature column besides the target {target_column!r}")
    t_idx = header.index(target_column)
    mask = np.arange(data.shape[1]) != t_idx
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return RawData(data[:, mask], data[:, t_idx].copy(), name, task)


def standardize(raw: RawData, split_ratio: float = 0.7, seed: int = 0) -> Dataset:
    """Random split plus min-max scaling fit on the training part.

    ``split_ratio``, the training share, must lie in (0, 1); each part keeps
    at least one row.  Constant training features map to 0.5 everywhere.
    Regression targets are scaled into [-1, 1] by the training min/max;
    classification targets are mapped to {-1, +1}.  Every output is an owned
    float copy; each feature split is gathered once and scaled in place.
    """
    check_choice(raw.task, learn.TASKS, "task")
    N = raw.X.shape[0]
    if N < 2:
        raise InvalidData("need at least 2 rows to split")
    check_positive(split_ratio, "split_ratio", below=1)
    perm = np.random.default_rng(check_seed(seed)).permutation(N)
    n_train = max(1, min(N - 1, int(round(split_ratio * N))))
    tr, te = perm[:n_train], perm[n_train:]
    # the gathers are the copies; integer inputs become floats here
    X_train = raw.X[tr].astype(float, copy=False)
    X_test = raw.X[te].astype(float, copy=False)
    lo = X_train.min(axis=0)
    span = X_train.max(axis=0) - lo
    flat = span == 0.0
    span[flat] = 1.0
    for X in (X_train, X_test):
        X -= lo
        X /= span
        X[:, flat] = 0.5
        np.clip(X, 0.0, 1.0, out=X)

    # every row's target is mapped at once; the clip acts on test rows only
    y = raw.y.astype(float)
    if raw.task == learn.REGRESSION:
        ylo, yhi = y[tr].min(), y[tr].max()
        y = (np.clip(2.0 * (y - ylo) / (yhi - ylo) - 1.0, -1.0, 1.0)
             if yhi > ylo else np.zeros_like(y))
    else:
        uniq = np.unique(raw.y)
        if len(uniq) != 2:
            raise InvalidData(f"classification needs 2 label values, got {len(uniq)}")
        y = np.where(y == uniq[1], 1.0, -1.0)
    return Dataset(X_train, X_test, y[tr], y[te], raw.name, raw.task)


def estimate_sigma(X_train) -> float:
    """1 / (mean distance to the ``NEIGHBOR``-th l2 nearest neighbor).

    Falls back to the (N-1)-th neighbor when the training set is too small.
    The search is exact and all in numpy (``_kth_sq_distance``): rows sorted
    by their first coordinate are swept a block at a time, each block against
    one window of sorted rows around it.  Subtracting, squaring and adding
    nonnegative terms are monotone in floating point, so a row outside the
    window is at least as far as the squared first-coordinate gap to the
    nearest row outside it; where a block's k-th distance exceeds that gap
    the window doubles and the block is searched again.  Each distance is
    summed over dimensions in order, as an all-pairs search sums it.
    """
    X_train = _finite_point(X_train, ndim=2)
    check_dim(X_train.shape[1])
    if len(X_train) < 2:
        raise DegenerateData("need at least 2 points")
    k = min(NEIGHBOR, len(X_train) - 1)
    mean_dist = float(np.mean(np.sqrt(_kth_sq_distance(X_train, k))))
    if mean_dist == 0.0:
        raise DegenerateData("zero mean neighbor distance (duplicate-only data)")
    return 1.0 / mean_dist


def _kth_sq_distance(X: np.ndarray, k: int) -> np.ndarray:
    """The k-th smallest squared l2 distance from each row of ``X`` to the
    rows of ``X``, the row itself (distance 0) counted as the 0-th; k < N.

    Holds O(N) plus one block of about ``SWEEP_CELLS`` distances."""
    N = len(X)
    order = np.argsort(X[:, 0])
    cols = np.take(X.T, order, axis=1)   # (D, N): each coordinate contiguous
    x0 = cols[0]
    out = np.empty(N)
    # the window reaches ``half`` >= k rows past the block on each side, so
    # it holds at least k + 1 rows
    start, half = 0, k
    while start < N:
        # about SWEEP_CELLS distances: rows * (rows + 2 half)
        rows = max(1, math.isqrt(half * half + SWEEP_CELLS) - half)
        stop = min(N, start + rows)
        lo, hi = max(0, start - half), min(N, stop + half)
        d2 = x0[start:stop, None] - x0[None, lo:hi]
        np.square(d2, out=d2)
        term = np.empty_like(d2)
        for c in cols[1:]:
            np.subtract(c[start:stop, None], c[None, lo:hi], out=term)
            d2 += np.square(term, out=term)
        d2.partition(k, axis=1)
        kth = d2[:, k]
        near = x0[start:stop]
        if ((lo > 0 and np.any(kth > np.square(near - x0[lo - 1])))
                or (hi < N and np.any(kth > np.square(x0[hi] - near)))):
            half *= 2
            continue
        out[order[start:stop]] = kth
        # shrink slowly: each doubling searches a block twice
        start, half = stop, max(k, half - half // 16)
    return out


def _run_seed(master: int, method_idx: int, m_idx: int, run: int) -> int:
    # fixed counter scheme: a run's seed depends only on its cell and index
    ss = np.random.SeedSequence([master, method_idx, m_idx, run])
    return int(ss.generate_state(1)[0])


def fit_and_score(dataset: Dataset, featurize: Callable, lam: float):
    """``(model, test_error)`` of ``learn.fit`` on ``featurize(X_train)``, where
    ``featurize`` maps (N, D) points to features.  The test split is embedded
    after the solve returns, so one split's features are alive at a time."""
    model = learn.fit(dataset.task, featurize(dataset.X_train), dataset.y_train, lam)
    return model, learn.test_error(model, featurize(dataset.X_test), dataset.y_test)


def _eof_embedding(dataset: Dataset, sigma: float, M_max: int):
    """``(spec, full, (train, test))``: both splits embedded at plain scale on
    the full design of the grid's largest M.  Full designs are prefixes of
    each other in the canonical order, so every design ``select_design``
    draws is a column subset of ``full``, and its columns
    (``IndexSet.columns_of``) of these embeddings are the bytes that
    ``embed_batch`` gives that design."""
    D = dataset.D
    # matched kernel: Cauchy(sigma) frequencies approximate the Laplace
    # kernel exp(-sigma ||x-x'||_1), which these features expand
    spec = KernelSpec("laplace", omega=sigma, dim=D)
    full = enumerate_sparse_grid(D, level_for_feature_count(D, M_max))
    # unnormalized basis columns: ridge weights absorb the level constants
    return spec, full, tuple(embed_batch(spec, full, X, scale=SCALE_PLAIN)
                             for X in (dataset.X_train, dataset.X_test))


def _eof_columns(dataset: Dataset, splits, cols, X):
    """The columns ``cols`` of the shared embedding of ``dataset``'s split
    ``X``."""
    train, test = splits
    return (test if X is dataset.X_test else train)[:, cols]


def _one_run(dataset: Dataset, method: str, M: int, run_seed: int,
             sigma: float, eof: Callable):
    """``(featurize, M0, key)`` of one run, ``key`` naming its fit: an eof
    run's design columns in the shared embedding ``eof()``, else the run seed,
    which alone draws the map."""
    D = dataset.D
    if method == EOF_METHOD:
        spec, full, splits = eof()
        S = select_design(spec, M, run_seed)
        cols = full.columns_of(S)
        return (partial(_eof_columns, dataset, splits, cols),
                sparse_grid_size(D, S.level), cols.tobytes())
    M0 = 0
    if method == baselines.RKS:
        fmap = baselines.rks_map(D, M, sigma, run_seed)
    elif method == baselines.ORF:
        fmap = baselines.orf_map(D, M, sigma, run_seed)
    else:
        M0 = POOL_FACTOR * M
        pool = baselines.rks_map(D, M0, sigma, run_seed)
        select = (baselines.lkrf_select if method == baselines.LKRF
                  else baselines.eerf_select)
        fmap = select(pool, dataset.y_train, dataset.X_train, M)
    return partial(baselines.rf_embed, fmap), M0, run_seed


def run_benchmark(dataset: Dataset, methods: Sequence[str], M_grid: Sequence[int],
                  runs: int, seed: int,
                  lam: Optional[float] = None) -> List[BenchResult]:
    """Repeated seeded runs of every (method, M) pair on one dataset.

    A method not in ``ALL_METHODS`` (``InvalidChoice``), a bad M (``InvalidM``),
    or ``runs`` that is not an integer >= 1, a bad seed or a bad lambda
    (``InvalidData``) stops before any work.  A run that raises a library
    error is left out of its cell's errors and listed in its ``failures``.
    Each run names its fit by a key (``_one_run``), and a cell fits each key
    once: its later runs with that key take that fit's error and nnz.  The
    eof runs share one embedding of each split (``_eof_embedding``), made by
    the first eof run that gets through it; while it raises, each eof run
    lists the error and the next one tries again."""
    for m in methods:
        check_choice(m, ALL_METHODS, "method")
    for M in M_grid:
        check_M(M)
    check_int(runs, "runs", InvalidData)
    check_seed(seed)
    lam = (learn.default_lambda(dataset.N_train) if lam is None
           else check_positive(lam, "lambda"))
    sigma = estimate_sigma(dataset.X_train)
    # cache stores no exception, so a failed embedding is retried
    eof = cache(partial(_eof_embedding, dataset, sigma, max(M_grid, default=1)))
    results = []
    for mi, method in enumerate(methods):
        for Mi, M in enumerate(M_grid):
            good, failures, times, fitted = [], [], [], {}
            for r in range(runs):
                t0 = time.perf_counter()
                try:
                    featurize, M0, key = _one_run(
                        dataset, method, M, _run_seed(seed, mi, Mi, r), sigma, eof)
                    if key not in fitted:
                        model, err = fit_and_score(dataset, featurize, lam)
                        fitted[key] = err, model.nnz_F
                        times.append(time.perf_counter() - t0)
                except EofError as exc:
                    failures.append(f"{type(exc).__name__}: {exc}")
                    continue
                good.append((*fitted[key], M0))
            errs, nnz, M0 = zip(*good) if good else ((),) * 3
            results.append(BenchResult(method, M, max(M0, default=0),
                                       list(errs), failures, _mean(times),
                                       round(_mean(nnz, 0))))
    return results


_COLUMNS = ("method", "M", "M0", "T_train", "nnz_F", "mean_error", "std_error")


def report(results: Sequence[BenchResult], fmt: str = "text",
           include_timing: bool = True) -> str:
    """Render results as ``"csv"`` or as an aligned ``"text"`` table."""
    check_choice(fmt, ("csv", "text"), "report format")
    table = [list(_COLUMNS)] + [
        [r.method, str(r.M), str(r.M0) if r.M0 else "",
         f"{r.t_train:.4f}" if include_timing else "",
         str(r.nnz_F), f"{r.mean_error:.6g}", f"{r.std_error:.6g}"]
        for r in results]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(table)
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(*table)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                   + "\n" for row in table)


def synthetic_rkhs_dataset(N_train: int = 2000, N_test: int = 500, D: int = 2,
                           omega: float = 2.0, n_centers: int = 5,
                           noise: float = 0.05, seed: int = 0,
                           kernel: str = "laplace") -> Dataset:
    """Noisy samples of a small kernel expansion f* = sum_j c_j k(., x_j).

    ``N_train``, ``N_test`` and ``n_centers`` that are not integers >= 1 raise
    ``InvalidData``, as do a bad seed and a ``noise`` that is neither 0 (the
    noiseless target) nor a positive real."""
    check_int(N_train, "N_train", InvalidData)
    check_int(N_test, "N_test", InvalidData)
    check_int(n_centers, "n_centers", InvalidData)
    if not is_real(noise) or noise != 0:
        check_positive(noise, "noise")
    rng = np.random.default_rng(check_seed(seed))
    spec = KernelSpec(kernel, omega=omega, dim=D)
    centers = rng.uniform(0.0, 1.0, (n_centers, D))
    coefs = rng.uniform(-1.0, 1.0, n_centers)

    def target(X):
        out = np.zeros(X.shape[0])
        for c, ctr in zip(coefs, centers):
            out += c * _kernel_rows(spec, X, ctr)
        return out

    X_train = rng.uniform(0.0, 1.0, (N_train, D))
    X_test = rng.uniform(0.0, 1.0, (N_test, D))
    y_train = target(X_train) + noise * rng.standard_normal(N_train)
    y_test = target(X_test)
    return Dataset(X_train, X_test, y_train, y_test, "synthetic",
                   learn.REGRESSION)
