"""Regularized linear models over sparse or dense feature matrices.

Ridge and every damped Newton step of logistic regression solve one system,
(F^T diag(d) F / n + shift I) x = b (``_solve``).  For a sparse feature
matrix it runs Jacobi-preconditioned conjugate gradients on the operator
v -> F^T (d * (F v)) / n + shift v, so each iteration costs O(nnz(F)) and no
M x M array is formed.  Dense features (the random-feature baselines) form the
Gram and solve it directly in O(M^3).  Ridge uses the normal equations
(d = 1); logistic uses the logistic weights d = s (1 - s).  The regularizer
enters as lambda * N inside the normal equations so that lambda is
comparable across sample sizes; the default follows lambda = N^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, DimError, InvalidData

REGRESSION = "regression"
CLASSIFICATION = "classification"


@dataclass
class Model:
    weights: np.ndarray
    feature_map: Any = None
    lam: float = 0.0
    task: str = REGRESSION
    nnz_F: int = 0


def default_lambda(N: int) -> float:
    """The N^{-1/2} regularization schedule."""
    return float(N) ** -0.5


def _lambda(lam):
    """``lam`` itself; ``InvalidData`` unless it is positive and finite."""
    if not 0.0 < lam < np.inf:
        raise InvalidData(f"lambda must be positive and finite, got {lam!r}")
    return lam


def _features(F, cols=None):
    """F as float64 CSR or array (float64 input is not copied).  It must be 2-D
    with ``cols`` columns when given (``DimError``) and finite (``InvalidData``)."""
    F = (F.tocsr().astype(np.float64, copy=False) if sp.issparse(F)
         else np.asarray(F, dtype=np.float64))
    if F.ndim != 2:
        raise DimError(f"features must be 2-D, got {F.ndim}-D")
    if cols is not None and F.shape[1] != cols:
        raise DimError(f"{F.shape[1]} feature columns but {cols} weights")
    if not np.all(np.isfinite(F.data if sp.issparse(F) else F)):
        raise InvalidData("features contain non-finite values")
    return F


def _targets(y, n, task=REGRESSION) -> np.ndarray:
    """``y`` raveled to floats.  Its length must be ``n`` (``DimError``), its
    values finite and, for classification, -1 or +1 (``InvalidData``)."""
    y = np.asarray(y, dtype=float).ravel()
    if len(y) != n:
        raise DimError(f"{n} rows but {len(y)} targets")
    if not np.all(np.isfinite(y)):
        raise InvalidData("targets contain non-finite values")
    if task == CLASSIFICATION and not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidData("labels must be -1 or +1")
    return y


CG_RTOL = 1e-12        # relative residual at which conjugate gradients stop
CG_MAX_ITER = 10       # iteration cap, as a multiple of M


def _solve(F, b, shift, d=None, n=1):
    """Solve (F^T diag(d) F / n + shift I) x = b; d defaults to all ones.

    F is a float64 array or CSR matrix, as ``_features`` returns it.
    Dense F: the Gram plus ``np.linalg.solve``.  Sparse F: Jacobi-preconditioned
    conjugate gradients on the matrix-free operator; raises
    ``ConvergenceError`` with the relative residual if it is still above
    ``CG_RTOL`` after ``CG_MAX_ITER * M`` iterations.
    """
    N, M = F.shape
    if not sp.issparse(F):
        A = np.asarray(F.T @ (F if d is None else F * d[:, None]))
        if n != 1:
            A /= n
        A.flat[::M + 1] += shift
        return np.linalg.solve(A, b)
    Ft = F.T                                   # a CSC view, not a copy
    dn = (np.ones(N) if d is None else d) / n
    sq = F.data ** 2
    sq *= np.repeat(dn, np.diff(F.indptr))
    inv_diag = 1.0 / (np.bincount(F.indices, sq, minlength=M) + shift)
    x = np.zeros(M)
    r = np.array(b, dtype=float)
    b_norm = float(np.linalg.norm(r))
    if b_norm == 0.0:
        return x
    z = inv_diag * r
    p = z.copy()
    rz, rel = float(r @ z), 1.0
    for _ in range(CG_MAX_ITER * M):
        Ap = Ft @ (dn * (F @ p)) + shift * p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.linalg.norm(r)) / b_norm
        if rel <= CG_RTOL:
            return x
        z = inv_diag * r
        rz, rz_old = float(r @ z), rz
        p *= rz / rz_old
        p += z
    raise ConvergenceError(
        f"conjugate gradients stopped at relative residual {rel:.3e} "
        f"after {CG_MAX_ITER * M} iterations", rel)


def _model(F, w, lam, task) -> Model:
    nnz = F.nnz if sp.issparse(F) else int(np.count_nonzero(F))
    return Model(w, lam=lam, task=task, nnz_F=nnz)


def ridge_fit(F, y, lam: float) -> Model:
    """Solve (F^T F + lam N I) w = F^T y."""
    _lambda(lam)
    F = _features(F)
    y = _targets(y, F.shape[0])
    b = np.asarray(F.T @ y).ravel()
    return _model(F, _solve(F, b, lam * F.shape[0]), lam, REGRESSION)


def logistic_fit(F, y, lam: float, max_iter: int = 100,
                 tol: float = 1e-8) -> Model:
    """L2-regularized logistic regression on labels in {-1, +1}.

    Minimizes (1/N) sum log(1 + exp(-y_i F_i w)) + lam ||w||^2 by damped
    Newton; raises ``ConvergenceError`` (with the last gradient norm) if the
    gradient norm is still above ``tol`` after ``max_iter`` iterations.
    """
    # imported here so that importing eof does not load scipy.special
    from scipy.special import expit

    _lambda(lam)
    F = _features(F)
    y = _targets(y, F.shape[0], CLASSIFICATION)
    N, M = F.shape
    w = np.zeros(M)
    m = np.zeros(N)                            # the margins y * (F w)
    obj = float(np.mean(np.logaddexp(0.0, -m)))
    for it in range(max_iter + 1):
        s = expit(-m)                          # sigma(-y F w)
        grad = -np.asarray(F.T @ (y * s)).ravel() / N + 2.0 * lam * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol:
            return _model(F, w, lam, CLASSIFICATION)
        if it == max_iter:
            break
        step = _solve(F, grad, 2.0 * lam, s * (1.0 - s), N)
        # backtracking keeps the objective monotone
        eta = 1.0
        while eta > 1e-12:
            cand = w - eta * step
            cand_m = y * np.asarray(F @ cand).ravel()
            cand_obj = float(np.mean(np.logaddexp(0.0, -cand_m))
                             + lam * cand @ cand)
            if cand_obj <= obj - 1e-4 * eta * float(grad @ step):
                # the accepted margins serve the next Newton step
                w, m, obj = cand, cand_m, cand_obj
                break
            eta *= 0.5
        else:
            break
    raise ConvergenceError(
        f"logistic solver stopped with gradient norm {gnorm:.3e}", gnorm)


def fit(task: str, F, y, lam: float) -> Model:
    """The solver for ``task``: ridge for regression, logistic otherwise."""
    if task == REGRESSION:
        return ridge_fit(F, y, lam)
    return logistic_fit(F, y, lam, max_iter=200, tol=1e-6)


MODEL_FORMAT = "eof-model-v1"


def save_model(model: Model, path, metadata: Optional[dict] = None) -> None:
    """Write a model as version-tagged flat text: header lines, then weights."""
    meta = dict(metadata or {})
    meta.setdefault("task", model.task)
    meta.setdefault("lambda", repr(float(model.lam)))
    meta.setdefault("nnz_F", model.nnz_F)
    with open(path, "w") as fh:
        fh.write(f"# {MODEL_FORMAT}\n")
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        for w in model.weights:
            fh.write(f"{float(w)!r}\n")


_FIELDS = {"lambda": float, "nnz_F": int, "task": (REGRESSION, CLASSIFICATION).index}


def load_model(path) -> Model:
    """Read a model written by ``save_model``.  A weight, ``lambda`` or
    ``nnz_F`` that is not a number, or a ``task`` other than regression or
    classification, raises ``InvalidData`` naming the line."""
    meta, weights = {}, []
    with open(path) as fh:
        if fh.readline().strip() != f"# {MODEL_FORMAT}":
            raise InvalidData(f"not an {MODEL_FORMAT} file: {path}")
        for lnum, line in enumerate(fh, start=2):
            line = line.strip()
            try:
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    meta[key] = value
                    _FIELDS.get(key, str)(value)
                elif line:
                    weights.append(float(line))
            except ValueError:
                raise InvalidData(f"{path}, line {lnum}: bad value {line!r}") from None
    return Model(np.asarray(weights), feature_map=meta,
                 lam=float(meta.get("lambda", 0.0)), task=meta.get("task", REGRESSION),
                 nnz_F=int(meta.get("nnz_F", 0)))


def predict(model: Model, Z) -> np.ndarray:
    """Raw linear predictions Z @ w; Z is a sparse matrix or array-like."""
    Z = _features(Z, len(model.weights))
    return np.asarray(Z @ model.weights).ravel()


def test_error(model: Model, Z, y) -> float:
    """MSE for regression; misclassification rate (sign(0) -> +1) otherwise."""
    pred = predict(model, Z)
    y = _targets(y, len(pred), model.task)
    if model.task == REGRESSION:
        return float(np.mean((pred - y) ** 2))
    return float(np.mean(np.where(pred >= 0.0, 1.0, -1.0) != y))
