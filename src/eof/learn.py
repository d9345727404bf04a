"""Regularized linear models over sparse or dense feature matrices.

Ridge and every damped Newton step of logistic regression solve one system,
(F^T diag(dn) F + shift I) x = b (``_solve``), so a sparse F costs O(nnz(F))
per iteration and no M x M array is formed.  Ridge uses the normal
equations (dn = 1); logistic uses the logistic weights dn = s (1 - s) / N.
s = sigma(-m) at the margins m = y F w is numpy's 1 / (1 + e^m), the formula
of scipy's ``expit``, so fitting imports no scipy.special; eof imports numpy
and scipy.sparse only.  The regularizer enters as lambda * N inside the
normal equations so that lambda is comparable across sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import (ConvergenceError, DimError, InvalidData, all_finite,
                     check_choice, check_int, check_positive)

REGRESSION = "regression"
CLASSIFICATION = "classification"
TASKS = (REGRESSION, CLASSIFICATION)


@dataclass
class Model:
    weights: np.ndarray
    lam: float = 0.0
    task: str = REGRESSION
    nnz_F: int = 0


def default_lambda(N: int) -> float:
    """The N^{-1/2} regularization schedule."""
    return float(N) ** -0.5


def _features(F, cols=None):
    """F, dense or any scipy sparse matrix of any numeric dtype, as float64 CSR
    or array, converted once (float64 input is not copied).  It must be 2-D
    with ``cols`` columns when given (``DimError``) and finite (``InvalidData``)."""
    F = (F.tocsr().astype(np.float64, copy=False) if sp.issparse(F)
         else np.asarray(F, dtype=np.float64))
    if F.ndim != 2:
        raise DimError(f"features must be 2-D, got {F.ndim}-D")
    if cols is not None and F.shape[1] != cols:
        raise DimError(f"{F.shape[1]} feature columns but {cols} weights")
    if not all_finite(F.data if sp.issparse(F) else F):
        raise InvalidData("features contain non-finite values")
    return F


def _targets(y, n, task=REGRESSION) -> np.ndarray:
    """``y`` raveled to floats.  The row count ``n`` must be at least 1, as a
    fit or a score on no rows has nothing to average (``InvalidData``); the
    length of ``y`` must be ``n`` (``DimError``), its values finite and, for
    classification, -1 or +1 (``InvalidData``)."""
    check_int(n, "rows", InvalidData)
    y = np.asarray(y, dtype=float).ravel()
    if len(y) != n:
        raise DimError(f"{n} rows but {len(y)} targets")
    if not all_finite(y):
        raise InvalidData("targets contain non-finite values")
    if task == CLASSIFICATION and not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidData("labels must be -1 or +1")
    return y


CG_RTOL = 1e-12        # relative residual at which conjugate gradients stop
CG_MAX_ITER = 10       # iteration cap, as a multiple of M
NEWTON_TOL = 1e-6      # gradient norm at which the logistic Newton loop stops
NEWTON_MAX_ITER = 200  # its iteration cap
JACOBI_BLOCK_NNZ = 2 ** 16  # nonzeros per row block of the Jacobi diagonal


def _jacobi_diag(F, dn=None):
    """Column sums of dn_i F_ij^2 over a CSR F (dn = None: all ones).

    Rows are taken a block of about ``JACOBI_BLOCK_NNZ`` nonzeros at a time, so
    the temporaries are one block, not F-sized.  ``np.add.at`` adds in storage
    order, as one ``np.bincount`` over all of F's nonzeros would, so the sums
    are the same to the last bit."""
    N, M = F.shape
    diag = np.zeros(M)
    rows = max(1, JACOBI_BLOCK_NNZ * N // max(F.nnz, 1))
    for start in range(0, N, rows):
        ptr = F.indptr[start:start + rows + 1]
        sq = F.data[ptr[0]:ptr[-1]] ** 2
        if dn is not None:
            sq *= np.repeat(dn[start:start + rows], np.diff(ptr))
        np.add.at(diag, F.indices[ptr[0]:ptr[-1]], sq)
    return diag


def _solve(F, b, shift, dn=None):
    """Solve (F^T diag(dn) F + shift I) x = b; dn defaults to all ones.

    F is a float64 array or CSR matrix, as ``_features`` returns it.
    Dense F (the random-feature baselines): the Gram plus
    ``np.linalg.solve``, O(M^3).  Sparse F: Jacobi-preconditioned conjugate
    gradients on the operator v -> F^T (dn * (F v)) + shift v, each
    iteration O(nnz(F)) and the diagonal summed a row block at a time
    (``_jacobi_diag``), so the solve adds one row block of temporaries beyond
    F; raises ``ConvergenceError`` with the relative residual if it is still
    above ``CG_RTOL`` after ``CG_MAX_ITER * M`` iterations.
    """
    M = F.shape[1]
    if not sp.issparse(F):
        A = np.asarray(F.T @ (F if dn is None else F * dn[:, None]))
        A.flat[::M + 1] += shift
        return np.linalg.solve(A, b)
    Ft = F.T                                   # a CSC view, not a copy
    inv_diag = 1.0 / (_jacobi_diag(F, dn) + shift)
    x = np.zeros(M)
    r = np.array(b, dtype=float)
    b_norm = float(np.linalg.norm(r))
    if b_norm == 0.0:
        return x
    z = inv_diag * r
    p = z.copy()
    rz, rel = float(r @ z), 1.0
    for _ in range(CG_MAX_ITER * M):
        Fp = F @ p if dn is None else dn * (F @ p)
        Ap = Ft @ Fp + shift * p
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
    check_positive(lam, "lambda")
    F = _features(F)
    y = _targets(y, F.shape[0])
    b = np.asarray(F.T @ y).ravel()
    return _model(F, _solve(F, b, lam * F.shape[0]), lam, REGRESSION)


def logistic_fit(F, y, lam: float, tol: float = NEWTON_TOL) -> Model:
    """L2-regularized logistic regression on labels in {-1, +1}.

    Minimizes (1/N) sum log(1 + exp(-y_i F_i w)) + lam ||w||^2 by damped
    Newton; raises ``ConvergenceError`` (with the last gradient norm) if the
    gradient norm is still above ``tol`` after ``NEWTON_MAX_ITER`` iterations.
    """
    check_positive(lam, "lambda")
    check_positive(tol, "tol")
    F = _features(F)
    y = _targets(y, F.shape[0], CLASSIFICATION)
    N, M = F.shape
    w = np.zeros(M)
    m = np.zeros(N)                            # the margins y * (F w)
    obj = float(np.mean(np.logaddexp(0.0, -m)))
    for it in range(NEWTON_MAX_ITER + 1):
        # sigma(-y F w); e^m overflows to inf past m = 709.78, where s is 0
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(m))
        grad = -np.asarray(F.T @ (y * s)).ravel() / N + 2.0 * lam * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol:
            return _model(F, w, lam, CLASSIFICATION)
        if it == NEWTON_MAX_ITER:
            break
        step = _solve(F, grad, 2.0 * lam, s * (1.0 - s) / N)
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
    """The solver for ``task`` (``TASKS``): ridge or logistic regression."""
    check_choice(task, TASKS, "task")
    if task == REGRESSION:
        return ridge_fit(F, y, lam)
    return logistic_fit(F, y, lam)


MODEL_FORMAT = "eof-model-v1"


def save_model(model: Model, path, metadata: Optional[dict] = None) -> None:
    """Write a model as version-tagged flat text: header lines, then weights.
    A metadata key or value holding a line break raises ``InvalidData`` before
    the file is opened, as it would end its header line early."""
    meta = dict(metadata or {})
    meta.setdefault("task", model.task)
    meta.setdefault("lambda", repr(float(model.lam)))
    meta.setdefault("nnz_F", model.nnz_F)
    for key, value in meta.items():
        if any(c in f"{key}={value}" for c in "\n\r"):
            raise InvalidData(f"model metadata {key!r} holds a line break")
    with open(path, "w") as fh:
        fh.write(f"# {MODEL_FORMAT}\n")
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write("".join(f"{w!r}\n" for w in
                         np.asarray(model.weights, dtype=float).tolist()))


def _finite(text) -> float:
    """``float(text)``; ``ValueError`` unless it is finite."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


_FIELDS = {"lambda": _finite, "nnz_F": int, "task": TASKS.index}


def load_model(path) -> Model:
    """Read a model written by ``save_model``.  A weight or ``lambda`` that is
    not a finite number, an ``nnz_F`` that is not an integer, or a ``task``
    other than regression or classification raises ``InvalidData`` naming
    the line; bytes that do not decode as text raise it naming the file."""
    meta, weights = {}, []
    with open(path) as fh:
        try:
            if fh.readline().strip() != f"# {MODEL_FORMAT}":
                raise InvalidData(f"not an {MODEL_FORMAT} file: {path}")
            for lnum, line in enumerate(fh, start=2):
                line = line.strip()
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    meta[key] = value
                    _FIELDS.get(key, str)(value)
                elif line:
                    weights.append(_finite(line))
        except UnicodeDecodeError as exc:   # a ValueError too, so it comes first
            raise InvalidData(f"{path}: does not decode as {exc.encoding} text") from None
        except ValueError:
            raise InvalidData(f"{path}, line {lnum}: bad value {line!r}") from None
    return Model(np.asarray(weights), lam=float(meta.get("lambda", 0.0)),
                 task=meta.get("task", REGRESSION), nnz_F=int(meta.get("nnz_F", 0)))


def predict(model: Model, Z) -> np.ndarray:
    """Raw linear predictions Z @ w; Z is a sparse matrix or array-like."""
    Z = _features(Z, len(model.weights))
    return np.asarray(Z @ model.weights).ravel()


def test_error(model: Model, Z, y) -> float:
    """MSE for regression; misclassification rate (sign(0) -> +1) otherwise."""
    check_choice(model.task, TASKS, "task")
    pred = predict(model, Z)
    y = _targets(y, len(pred), model.task)
    if model.task == REGRESSION:
        return float(np.mean((pred - y) ** 2))
    return float(np.mean(np.where(pred >= 0.0, 1.0, -1.0) != y))
