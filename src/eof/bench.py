"""End-to-end benchmark pipeline: CSV in, method comparison out.

The pipeline standardizes inputs to the unit cube (min-max fit on the
training split only), estimates the bandwidth from the mean 50th-nearest-
neighbor distance, builds the requested feature maps, trains ridge or
logistic models with lambda = N^{-1/2} by default, and aggregates test
errors over repeated seeded runs.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import baselines, learn
from .design import level_for_feature_count, select_design, sparse_grid_size
from .embedding import SCALE_PLAIN, embed_batch
from .errors import DegenerateData, EofError, InvalidData, ParseError
from .kernels import KernelSpec, _finite_point, _kernel_rows

EOF_METHOD = "eof"
ALL_METHODS = (EOF_METHOD, baselines.RKS, baselines.ORF, baselines.LKRF,
               baselines.EERF)
NEIGHBOR = 50   # estimate_sigma reads the distance to this nearest neighbor


@dataclass
class RawData:
    """Parsed but unscaled CSV contents."""

    X: np.ndarray
    y: np.ndarray
    name: str
    task: str
    columns: List[str] = field(default_factory=list)


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
    method: str
    M: int
    M0: int
    mean_error: float
    std_error: float
    t_train: float
    t_feature: float
    t_solve: float
    nnz_F: int
    seeds: List[int] = field(default_factory=list)
    n_failed: int = 0
    errors: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)   # "Type: message"


def read_table(path) -> Tuple[List[str], np.ndarray]:
    """Parse a rectangular numeric CSV with a header row into (header, cells).
    A non-numeric or non-finite cell or a ragged row raises ``ParseError``
    with its position.

    The body is first read by numpy's C parser; its result is kept only when
    it has at least one row, the header's column count and finite cells.
    Anything else, an exception included, reruns ``_read_table_checked``, so
    every error comes from the checking parser."""
    try:
        with open(path, newline="") as fh:
            header = [h.strip() for h in next(csv.reader(fh))]
            with warnings.catch_warnings():
                # an empty body gives zero rows, which the check below sends
                # to the checking parser
                warnings.filterwarnings("ignore", message=".*no data",
                                        category=UserWarning)
                cells = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        if (cells.shape[0] >= 1 and cells.shape[1] == len(header)
                and np.isfinite(cells).all()):
            return header, cells
    except Exception:   # whatever failed, the checking parser names it
        pass
    return _read_table_checked(path)


def _read_table_checked(path) -> Tuple[List[str], np.ndarray]:
    """``read_table`` in Python, one cell at a time, naming the row and column
    of the first bad cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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


def load_csv(path, target_column: str, task: str) -> RawData:
    """Parse a rectangular numeric CSV with a header row."""
    header, data = read_table(path)
    if target_column not in header:
        raise ParseError(f"target column {target_column!r} not in header")
    t_idx = header.index(target_column)
    mask = np.arange(data.shape[1]) != t_idx
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return RawData(data[:, mask], data[:, t_idx], name, task,
                   [h for j, h in enumerate(header) if j != t_idx])


def write_csv(raw: RawData, path, target_column: str = "target") -> None:
    """Inverse of load_csv, for round-trip checks."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        cols = raw.columns or [f"x{j}" for j in range(raw.X.shape[1])]
        writer.writerow(cols + [target_column])
        for xi, yi in zip(raw.X, raw.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def standardize(raw: RawData, split_ratio: float = 0.7, seed: int = 0) -> Dataset:
    """Random split plus min-max scaling fit on the training part.

    ``split_ratio``, the training share, must lie in (0, 1); each part keeps
    at least one row.  Constant training features map to 0.5 everywhere.
    Regression targets are scaled into [-1, 1] by the training min/max;
    classification targets are mapped to {-1, +1}.
    """
    N = raw.X.shape[0]
    if N < 2:
        raise InvalidData("need at least 2 rows to split")
    if not 0.0 < split_ratio < 1.0:
        raise InvalidData(f"split_ratio must lie in (0, 1), got {split_ratio!r}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(N)
    n_train = max(1, min(N - 1, int(round(split_ratio * N))))
    tr, te = perm[:n_train], perm[n_train:]
    X_train, X_test = raw.X[tr], raw.X[te]
    lo = X_train.min(axis=0)
    hi = X_train.max(axis=0)
    span = hi - lo
    flat = span == 0.0

    def scale(X):
        out = np.empty_like(X, dtype=float)
        out[:, ~flat] = (X[:, ~flat] - lo[~flat]) / span[~flat]
        out[:, flat] = 0.5
        return np.clip(out, 0.0, 1.0)

    y_train, y_test = raw.y[tr].astype(float), raw.y[te].astype(float)
    if raw.task == learn.REGRESSION:
        ylo, yhi = y_train.min(), y_train.max()
        if yhi > ylo:
            y_train = 2.0 * (y_train - ylo) / (yhi - ylo) - 1.0
            y_test = np.clip(2.0 * (y_test - ylo) / (yhi - ylo) - 1.0, -1.0, 1.0)
        else:
            y_train = np.zeros_like(y_train)
            y_test = np.zeros_like(y_test)
    else:
        uniq = np.unique(raw.y)
        if len(uniq) != 2:
            raise InvalidData(f"classification needs 2 label values, got {len(uniq)}")
        y_train = np.where(y_train == uniq[1], 1.0, -1.0)
        y_test = np.where(y_test == uniq[1], 1.0, -1.0)
    return Dataset(scale(X_train), scale(X_test), y_train, y_test,
                   raw.name, raw.task)


def estimate_sigma(X_train) -> float:
    """1 / (mean distance to the ``NEIGHBOR``-th l2 nearest neighbor).

    Falls back to the (N-1)-th neighbor when the training set is too small.
    """
    X_train = _finite_point(X_train, ndim=2)
    if len(X_train) < 2:
        raise DegenerateData("need at least 2 points")
    # imported here so that importing eof does not load scipy.spatial
    from scipy.spatial import cKDTree

    k = min(NEIGHBOR, len(X_train) - 1)
    tree = cKDTree(X_train)
    dists, _ = tree.query(X_train, k=k + 1)
    mean_dist = float(np.mean(dists[:, k]))
    if mean_dist == 0.0:
        raise DegenerateData("zero mean neighbor distance (duplicate-only data)")
    return 1.0 / mean_dist


def _run_seed(master: int, method_idx: int, m_idx: int, run: int) -> int:
    # fixed counter scheme: a run's seed depends only on its cell and index
    ss = np.random.SeedSequence([int(master), method_idx, m_idx, run])
    return int(ss.generate_state(1)[0])


def _one_run(dataset: Dataset, method: str, M: int, run_seed: int,
             sigma: float, lam: float, pool_factor: int):
    D = dataset.D
    t0 = time.perf_counter()
    if method == EOF_METHOD:
        # matched kernel: Cauchy(sigma) frequencies approximate the Laplace
        # kernel exp(-sigma ||x-x'||_1), which these features expand
        spec = KernelSpec("laplace", omega=sigma, dim=D)
        S = select_design(spec, M, run_seed)
        # unnormalized basis columns: ridge weights absorb the level constants
        F_train = embed_batch(spec, S, dataset.X_train, scale=SCALE_PLAIN)
        F_test = embed_batch(spec, S, dataset.X_test, scale=SCALE_PLAIN)
        M0 = sparse_grid_size(D, level_for_feature_count(D, M))
    else:
        M0 = 0
        if method == baselines.RKS:
            fmap = baselines.rks_map(D, M, sigma, run_seed)
        elif method == baselines.ORF:
            fmap = baselines.orf_map(D, M, sigma, run_seed)
        else:
            M0 = pool_factor * M
            pool = baselines.rks_map(D, M0, sigma, run_seed)
            select = (baselines.lkrf_select if method == baselines.LKRF
                      else baselines.eerf_select)
            fmap = select(pool, dataset.y_train, dataset.X_train, M)
        F_train = baselines.rf_embed(fmap, dataset.X_train)
        F_test = baselines.rf_embed(fmap, dataset.X_test)
    t1 = time.perf_counter()
    model = learn.fit(dataset.task, F_train, dataset.y_train, lam)
    t_solve = time.perf_counter() - t1
    err = learn.test_error(model, F_test, dataset.y_test)
    return err, t1 - t0, t_solve, model.nnz_F, M0


def run_benchmark(dataset: Dataset, methods: Sequence[str], M_grid: Sequence[int],
                  runs: int, seed: int, pool_factor: int = 10,
                  lam: Optional[float] = None) -> List[BenchResult]:
    """Repeated seeded runs of every (method, M) pair on one dataset."""
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}")
    if runs < 1:
        raise InvalidData("runs must be >= 1")
    sigma = estimate_sigma(dataset.X_train)
    lam = learn.default_lambda(dataset.N_train) if lam is None else learn._lambda(lam)
    results = []
    for mi, method in enumerate(methods):
        for Mi, M in enumerate(M_grid):
            seeds = [_run_seed(seed, mi, Mi, r) for r in range(runs)]
            good, failures = [], []
            for rs in seeds:
                try:
                    good.append(_one_run(dataset, method, M, rs, sigma, lam,
                                         pool_factor))
                except EofError as exc:
                    failures.append(f"{type(exc).__name__}: {exc}")
            if good:
                errs = np.array([o[0] for o in good])
                t_feat = float(np.mean([o[1] for o in good]))
                t_solve = float(np.mean([o[2] for o in good]))
                nnz = int(round(np.mean([o[3] for o in good])))
                M0 = good[0][4]
                # the spread about the first error is exactly 0 when all
                # runs agree; np.std(errs) rounds np.mean of equal values
                spread = float(np.std(errs - errs[0]))
                res = BenchResult(method, M, M0, float(np.mean(errs)),
                                  spread, t_feat + t_solve,
                                  t_feat, t_solve, nnz, seeds, len(failures),
                                  errs.tolist(), failures)
            else:
                res = BenchResult(method, M, 0, float("nan"), float("nan"),
                                  float("nan"), float("nan"), float("nan"),
                                  0, seeds, len(failures), failures=failures)
            results.append(res)
    return results


_COLUMNS = ("method", "M", "M0", "T_train", "nnz_F", "mean_error", "std_error")


def report(results: Sequence[BenchResult], fmt: str = "text",
           include_timing: bool = True) -> str:
    """Render results as CSV or an aligned text table."""
    rows = []
    for r in results:
        rows.append([r.method, str(r.M), str(r.M0) if r.M0 else "",
                     f"{r.t_train:.4f}" if include_timing else "",
                     str(r.nnz_F), f"{r.mean_error:.6g}", f"{r.std_error:.6g}"])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_COLUMNS)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    table = [list(_COLUMNS)] + rows
    widths = [max(len(row[j]) for row in table) for j in range(len(_COLUMNS))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def curves_csv(results: Sequence[BenchResult]) -> str:
    """Plot data: one (method, M, mean_error, std_error) row per result."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["method", "M", "mean_error", "std_error"])
    for r in results:
        writer.writerow([r.method, r.M, f"{r.mean_error:.6g}", f"{r.std_error:.6g}"])
    return buf.getvalue()


def synthetic_rkhs_dataset(N_train: int = 2000, N_test: int = 500, D: int = 2,
                           omega: float = 2.0, n_centers: int = 5,
                           noise: float = 0.05, seed: int = 0,
                           kernel: str = "laplace") -> Dataset:
    """Noisy samples of a small kernel expansion f* = sum_j c_j k(., x_j)."""
    rng = np.random.default_rng(seed)
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
