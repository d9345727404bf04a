"""Malformed input at every entry point raises the library error of its rule.

Each kind of input has one checking function: points
(``kernels._finite_point``), targets (``learn._targets``), features
(``learn._features``), lambda (``learn._lambda``) and the feature count M
(``errors.check_M``).  A wrong shape raises ``DimError``, a non-finite point
``InvalidPoint``, a bad target, feature, lambda or model file
``InvalidData``, and a bad M ``InvalidM``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from eof import bench
from eof.baselines import (eerf_select, kernel_estimate, lkrf_select, orf_map,
                           rf_embed, rks_map)
from eof.design import (enumerate_sparse_grid, entropic_select,
                        level_for_feature_count, select_design, truncate_random)
from eof.embedding import embed, embed_batch, kernel_approx
from eof.errors import DimError, EofError, InvalidData, InvalidM, InvalidPoint
from eof.features import FeatureIndex, phi_1d, phi_nd
from eof.kernels import KernelSpec, kernel_eval
from eof.learn import (CLASSIFICATION, MODEL_FORMAT, Model, load_model,
                       logistic_fit, predict, ridge_fit)
from eof.learn import test_error as error_of

LAP2 = KernelSpec("laplace", omega=2.0, dim=2)
S2 = enumerate_sparse_grid(2, 3)
POOL = rks_map(2, 40, 1.0, 0)
X10 = np.random.default_rng(0).uniform(size=(10, 2))
Y10 = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
NAN_ROW = np.array([[0.2, 0.3], [np.nan, 0.5]])
F10 = np.random.default_rng(1).uniform(size=(10, 4))


def _model_file(tmp, weights=("1.0",), **header):
    """A model file with the given weight lines and header values."""
    fields = {"lambda": "0.5", "nnz_F": "3", "task": "regression", **header}
    path = tmp / "model.txt"
    path.write_text("\n".join([f"# {MODEL_FORMAT}",
                               *(f"# {k}={v}" for k, v in fields.items()),
                               *weights]) + "\n")
    return path


# (entry point, call, error); ``call`` takes a temporary directory
MALFORMED = [
    # points: shape
    ("kernel_eval", lambda t: kernel_eval(LAP2, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]),
     DimError),
    ("kernel_eval", lambda t: kernel_eval(LAP2, [0.1, 0.2], [0.1, 0.2, 0.3]), DimError),
    ("embed_batch", lambda t: embed_batch(LAP2, S2, np.zeros(2)), DimError),
    ("embed_batch", lambda t: embed_batch(LAP2, S2, np.zeros((3, 3))), DimError),
    ("embed_batch", lambda t: embed_batch(KernelSpec("laplace", dim=3), S2,
                                          np.zeros((3, 2))), DimError),
    ("embed", lambda t: embed(LAP2, S2, [0.1, 0.2, 0.3]), DimError),
    ("kernel_approx", lambda t: kernel_approx(LAP2, S2, [0.1, 0.2], [0.1]), DimError),
    ("phi_nd", lambda t: phi_nd(LAP2, FeatureIndex((1, 2), (1, 3)), [0.5]), DimError),
    ("rf_embed", lambda t: rf_embed(POOL, np.zeros((4, 3))), DimError),
    ("kernel_estimate", lambda t: kernel_estimate(POOL, [0.1], [0.2]), DimError),
    ("lkrf_select", lambda t: lkrf_select(POOL, np.zeros(10), np.zeros((10, 3)), 4),
     DimError),
    ("lkrf_select", lambda t: lkrf_select(POOL, np.zeros(10), np.zeros(10), 4),
     DimError),
    ("estimate_sigma", lambda t: bench.estimate_sigma(np.linspace(0, 1, 20)),
     DimError),
    # points: NaN or Inf
    ("kernel_eval", lambda t: kernel_eval(LAP2, [0.1, np.inf], [0.1, 0.2]),
     InvalidPoint),
    ("embed_batch", lambda t: embed_batch(LAP2, S2, NAN_ROW), InvalidPoint),
    ("phi_1d", lambda t: phi_1d(LAP2, 1, 1, np.nan), InvalidPoint),
    ("rf_embed", lambda t: rf_embed(POOL, NAN_ROW), InvalidPoint),
    ("eerf_select", lambda t: eerf_select(POOL, np.ones(2), NAN_ROW, 4), InvalidPoint),
    ("estimate_sigma", lambda t: bench.estimate_sigma(NAN_ROW), InvalidPoint),
    ("embed_batch_strict", lambda t: embed_batch(
        KernelSpec("laplace", dim=2, strict=True), S2, [[0.5, 1.5]]), InvalidPoint),
    # targets
    ("ridge_fit", lambda t: ridge_fit(F10, np.ones(9), 0.1), DimError),
    ("ridge_fit", lambda t: ridge_fit(F10, np.full(10, np.nan), 0.1), InvalidData),
    ("logistic_fit", lambda t: logistic_fit(F10, np.arange(10) % 2, 0.1), InvalidData),
    ("test_error", lambda t: error_of(Model(np.ones(4)), F10, np.ones(9)), DimError),
    ("test_error", lambda t: error_of(Model(np.ones(4), task=CLASSIFICATION), F10,
                                      np.zeros(10)), InvalidData),
    ("lkrf_select", lambda t: lkrf_select(POOL, np.ones(9), X10, 4), DimError),
    ("lkrf_select", lambda t: lkrf_select(POOL, np.full(10, np.inf), X10, 4),
     InvalidData),
    ("eerf_select", lambda t: eerf_select(POOL, np.ones((10, 2)), X10, 4), DimError),
    # features
    ("ridge_fit", lambda t: ridge_fit(np.ones(3), np.ones(3), 0.1), DimError),
    ("ridge_fit", lambda t: ridge_fit(sp.csr_matrix(np.full((3, 2), np.inf)),
                                      np.ones(3), 0.1), InvalidData),
    ("predict", lambda t: predict(Model(np.ones(4)), np.ones((2, 3))), DimError),
    ("predict", lambda t: predict(Model(np.ones(2)), [[1.0, np.nan]]), InvalidData),
    ("test_error", lambda t: error_of(Model(np.ones(3)), np.ones(3), np.ones(1)),
     DimError),
    # lambda
    ("ridge_fit", lambda t: ridge_fit(F10, np.ones(10), np.inf), InvalidData),
    ("ridge_fit", lambda t: ridge_fit(F10, np.ones(10), 0.0), InvalidData),
    ("logistic_fit", lambda t: logistic_fit(F10, Y10, np.inf), InvalidData),
    ("logistic_fit", lambda t: logistic_fit(F10, Y10, np.nan), InvalidData),
    ("run_benchmark", lambda t: bench.run_benchmark(
        bench.synthetic_rkhs_dataset(N_train=20, N_test=5), ["eof"], [5], 1, 0,
        lam=-1.0), InvalidData),
    # M
    ("rks_map", lambda t: rks_map(2, 0, 1.0, 0), InvalidM),
    ("orf_map", lambda t: orf_map(2, 0, 1.0, 0), InvalidM),
    ("lkrf_select", lambda t: lkrf_select(POOL, Y10, X10, 41), InvalidM),
    ("eerf_select", lambda t: eerf_select(POOL, Y10, X10, 0), InvalidM),
    ("entropic_select", lambda t: entropic_select(S2, {i: 1.0 for i in S2},
                                                  len(S2) + 1), InvalidM),
    ("entropic_select", lambda t: entropic_select(S2, {i: 1.0 for i in S2}, 0),
     InvalidM),
    ("truncate_random", lambda t: truncate_random(S2, len(S2) + 1, 0), InvalidM),
    ("level_for_feature_count", lambda t: level_for_feature_count(2, 0), InvalidM),
    ("select_design", lambda t: select_design(LAP2, 0, 0), InvalidM),
    # map dimension
    ("rks_map", lambda t: rks_map(0, 4, 1.0, 0), DimError),
    ("orf_map", lambda t: orf_map(0, 4, 1.0, 0), DimError),
    # model files
    ("load_model", lambda t: load_model(_model_file(t, ["1.0", "abc"])), InvalidData),
    ("load_model", lambda t: load_model(_model_file(t, **{"lambda": "x"})),
     InvalidData),
    ("load_model", lambda t: load_model(_model_file(t, nnz_F="1.5")), InvalidData),
    ("load_model", lambda t: load_model(_model_file(t, task="bogus")), InvalidData),
]


@pytest.mark.parametrize("entry, call, error", MALFORMED,
                         ids=[f"{row[0]}-{n}" for n, row in enumerate(MALFORMED)])
def test_malformed_input_raises_its_error(entry, call, error, tmp_path):
    assert issubclass(error, EofError)
    with pytest.raises(error):
        call(tmp_path)


def test_model_file_error_names_the_line(tmp_path):
    with pytest.raises(InvalidData, match="line 6"):
        load_model(_model_file(tmp_path, ["1.0", "abc"]))
    model = load_model(_model_file(tmp_path, ["1.0", "-2.5"], task="classification"))
    assert (list(model.weights), model.lam, model.nnz_F, model.task) == \
        ([1.0, -2.5], 0.5, 3, "classification")


def test_column_targets_select_as_flat_targets():
    y = np.random.default_rng(3).standard_normal(10)
    for select in (lkrf_select, eerf_select):
        flat = select(POOL, y, X10, 4)
        column = select(POOL, y[:, None], X10, 4)
        np.testing.assert_array_equal(flat.frequencies, column.frequencies)
