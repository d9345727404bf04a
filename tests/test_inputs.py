"""Malformed input at every entry point raises the library error of its rule.

Each kind of input has one checking function: points
(``kernels._finite_point``), targets (``learn._targets``, at least one row),
features (``learn._features``), positive reals (``errors.check_positive``:
omega, sigma, lambda and the split ratio), integers (``errors.check_int``:
seeds through ``errors.check_seed``, the dimension D through
``errors.check_dim``, the feature count M through ``errors.check_M``, bench
runs, dataset counts and the column count of a full design), levels
(``kernels._check_levels``), positions (``FeatureIndex``) and names
(``errors.check_choice``).  A wrong shape, a D that is not an integer >= 1,
or a feature index with no component or with level and position vectors of
different lengths raises ``DimError``, a non-finite point ``InvalidPoint``,
a bad target, feature, design constant, positive real, seed, run or dataset
count or model file, no rows to fit or score, or a custom kernel without
callable p and q ``InvalidData``, a bad M ``InvalidM``, a level that is not
an integer in 1..1022 or is too deep for a custom kernel's (p, q), or a full
design of over 2^63 - 1 columns ``InvalidLevel``, a position that is not an
odd integer in 1..2^l - 1 or a feature listed twice in a design
``InvalidIndex``, and an unknown kernel kind, scale, task, method or report
format ``InvalidChoice``, which is a ``ValueError`` as well.

``MALFORMED`` is the one home of every check that a malformed input at an
entry point raises an error of a given type: a new rule or entry point adds a
row here, not a ``pytest.raises`` in its module's tests.  A test of more than
the type stays with its module: an error's message, the row or column it
names, or what the call leaves undone (no file written, no run started).  A
row's id is its entry point and its position, so rows are appended and
earlier ids keep their number.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from eof import bench
from eof.baselines import (RandomFeatureMap, eerf_select, kernel_estimate,
                           lkrf_select, orf_map, rf_embed, rks_map)
from eof.design import (IndexSet, enumerate_sparse_grid, entropic_select,
                        level_for_feature_count, select_design, sparse_grid_size,
                        truncate_random)
from eof.embedding import embed, embed_batch, kernel_approx
from eof.errors import (DimError, EofError, InvalidChoice, InvalidData,
                        InvalidIndex, InvalidLevel, InvalidM, InvalidPoint,
                        all_finite)
from eof.features import FeatureIndex, hierarchical_surplus, phi_1d, phi_nd
from eof.kernels import (KernelSpec, expansion_coeff, kernel_eval, norm_const,
                         surplus_alpha_1d, surplus_beta_1d)
from eof.learn import (CLASSIFICATION, MODEL_FORMAT, Model, fit, load_model,
                       logistic_fit, predict, ridge_fit)
from eof.learn import test_error as error_of

LAP2 = KernelSpec("laplace", omega=2.0, dim=2)
BB = KernelSpec("bb")
S2 = enumerate_sparse_grid(2, 3)
POOL = rks_map(2, 40, 1.0, 0)
X10 = np.random.default_rng(0).uniform(size=(10, 2))
Y10 = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
NAN_ROW = np.array([[0.2, 0.3], [np.nan, 0.5]])
F10 = np.random.default_rng(1).uniform(size=(10, 4))
# the Laplace pair (omega 2) given as a custom kernel
LAP_PQ = KernelSpec("custom", omega=2.0, p=lambda x: np.exp(2.0 * x),
                    q=lambda x: np.exp(-2.0 * x))


def _bytes_file(tmp, data):
    path = tmp / "model.txt"
    path.write_bytes(data)
    return path


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
    # kernel dimension D < 1
    ("KernelSpec", lambda t: KernelSpec("laplace", dim=0), DimError),
    ("enumerate_sparse_grid", lambda t: enumerate_sparse_grid(0, 3), DimError),
    # omega
    ("KernelSpec", lambda t: KernelSpec("laplace", omega=np.inf), InvalidData),
    ("KernelSpec", lambda t: KernelSpec("laplace", omega=np.nan), InvalidData),
    ("KernelSpec", lambda t: KernelSpec("laplace", omega=0.0), InvalidData),
    # design size at D < 1
    ("sparse_grid_size", lambda t: sparse_grid_size(0, 3), DimError),
    ("level_for_feature_count", lambda t: level_for_feature_count(0, 5), DimError),
    # M that is not an integer
    ("select_design", lambda t: select_design(LAP2, 2.5, 0), InvalidM),
    ("truncate_random", lambda t: truncate_random(S2, 2.5, 0), InvalidM),
    ("rks_map", lambda t: rks_map(2, 2.5, 1.0, 0), InvalidM),
    ("level_for_feature_count", lambda t: level_for_feature_count(2, 2.5), InvalidM),
    ("lkrf_select", lambda t: lkrf_select(POOL, Y10, X10, 4.0), InvalidM),
    ("rks_map", lambda t: rks_map(2, True, 1.0, 0), InvalidM),
    # a level whose (p, q) Wronskian over one step rounds to 0
    ("embed_batch", lambda t: embed_batch(
        LAP_PQ, IndexSet((FeatureIndex((60,), (2 ** 59 + 1,)),)), [[0.5]]),
     InvalidLevel),
    ("embed_batch", lambda t: embed_batch(
        LAP_PQ, IndexSet((FeatureIndex((62,), (1,)),)), [[1.5 * 2.0 ** -62]],
        scale="plain"), InvalidLevel),
    ("surplus_beta_1d", lambda t: surplus_beta_1d(LAP_PQ, 60, 1), InvalidLevel),
    # the same level off the support, and through the surplus operator
    ("phi_1d", lambda t: phi_1d(LAP_PQ, 60, 1, 0.9), InvalidLevel),
    ("hierarchical_surplus", lambda t: hierarchical_surplus(
        LAP_PQ, lambda x: x, FeatureIndex((60,), (1,))), InvalidLevel),
    # a dimension D that is not an integer, or is a bool
    ("KernelSpec", lambda t: KernelSpec("laplace", dim=2.5), DimError),
    ("KernelSpec", lambda t: KernelSpec("laplace", dim=True), DimError),
    ("enumerate_sparse_grid", lambda t: enumerate_sparse_grid(2.5, 3), DimError),
    ("enumerate_sparse_grid", lambda t: enumerate_sparse_grid(True, 2), DimError),
    ("sparse_grid_size", lambda t: sparse_grid_size(2.0, 3), DimError),
    ("level_for_feature_count", lambda t: level_for_feature_count(2.5, 5), DimError),
    ("rks_map", lambda t: rks_map(2.5, 4, 1.0, 0), DimError),
    # levels and positions that are not integers, or are bools
    ("phi_1d", lambda t: phi_1d(BB, 2, 1.5, 0.3), InvalidIndex),
    ("phi_1d", lambda t: phi_1d(BB, 2.5, 1, 0.2), InvalidLevel),
    ("FeatureIndex", lambda t: FeatureIndex((2.5,), (1,)), InvalidLevel),
    ("FeatureIndex", lambda t: FeatureIndex((2,), (1.5,)), InvalidIndex),
    ("FeatureIndex", lambda t: FeatureIndex((True,), (True,)), InvalidLevel),
    ("FeatureIndex", lambda t: FeatureIndex((1,), (True,)), InvalidIndex),
    ("hierarchical_surplus", lambda t: hierarchical_surplus(
        BB, lambda x: x, FeatureIndex((2.7,), (3,))), InvalidLevel),
    ("expansion_coeff", lambda t: expansion_coeff(BB, (2.5,)), InvalidLevel),
    ("norm_const", lambda t: norm_const(BB, (True,)), InvalidLevel),
    # a design level that is not an integer >= 1
    ("sparse_grid_size", lambda t: sparse_grid_size(2, 0), InvalidLevel),
    ("sparse_grid_size", lambda t: sparse_grid_size(2, -3), InvalidLevel),
    ("sparse_grid_size", lambda t: sparse_grid_size(2, 2.5), InvalidLevel),
    ("enumerate_sparse_grid", lambda t: enumerate_sparse_grid(2, 2.5), InvalidLevel),
    ("enumerate_sparse_grid", lambda t: enumerate_sparse_grid(2, True), InvalidLevel),
    # feature indices of no dimension, of mismatched lengths, of mixed dimensions
    ("FeatureIndex", lambda t: FeatureIndex((), ()), DimError),
    ("embed_batch", lambda t: embed_batch(BB, IndexSet([FeatureIndex((), ())]),
                                          [[0.5]]), DimError),
    ("FeatureIndex", lambda t: FeatureIndex((1, 2), (1,)), DimError),
    ("IndexSet", lambda t: IndexSet([FeatureIndex((1,), (1,)),
                                     FeatureIndex((1, 1), (1, 1))]), DimError),
    # a stencil weight that overflows: the Laplace alpha and beta are about
    # 1e300 at omega 1e-300, so their product in D = 2 is inf
    ("hierarchical_surplus", lambda t: hierarchical_surplus(
        KernelSpec("laplace", omega=1e-300, dim=2), lambda x: np.cos(x).sum(),
        FeatureIndex((1, 1), (1, 1))), InvalidData),
    # a batch of points with no coordinates
    ("estimate_sigma", lambda t: bench.estimate_sigma(np.zeros((5, 0))), DimError),
    # unknown names: kernel kind, scale, method, report format and task
    ("KernelSpec", lambda t: KernelSpec("gauss"), InvalidChoice),
    ("embed_batch", lambda t: embed_batch(LAP2, S2, X10, scale="log"), InvalidChoice),
    ("run_benchmark", lambda t: bench.run_benchmark(
        bench.synthetic_rkhs_dataset(N_train=20, N_test=5), ["eof", "nystrom"], [5],
        1, 0), InvalidChoice),
    ("report", lambda t: bench.report([], fmt="json"), InvalidChoice),
    # ±1 targets: a misspelt task would otherwise fit logistic regression
    ("fit", lambda t: fit("regresion", F10, Y10, 0.1), InvalidChoice),
    ("test_error", lambda t: error_of(Model(np.ones(4), task="foo"), F10, Y10),
     InvalidChoice),
    ("standardize", lambda t: bench.standardize(
        bench.RawData(X10, np.arange(10.0), "r", "reg")), InvalidChoice),
    # a custom kernel without callable p and q, a design listing a feature twice
    ("KernelSpec", lambda t: KernelSpec("custom"), InvalidData),
    ("KernelSpec", lambda t: KernelSpec("custom", p=np.exp, q=2.0), InvalidData),
    ("IndexSet", lambda t: IndexSet([FeatureIndex((1,), (1,))] * 2), InvalidIndex),
    # model files that do not decode as text
    ("load_model", lambda t: load_model(
        _bytes_file(t, np.random.default_rng(0).bytes(200))), InvalidData),
    ("load_model", lambda t: load_model(
        _bytes_file(t, f"# {MODEL_FORMAT}\n".encode() + b"\xff\xfe\n")), InvalidData),
]

SMALL = bench.synthetic_rkhs_dataset(N_train=20, N_test=5)
RAW10 = bench.RawData(X10, np.arange(10.0), "r", "regression")
# each reader of a positive real (``check_positive``) and of a seed (``check_seed``)
POSITIVE_READERS = [
    ("KernelSpec", lambda v: KernelSpec("laplace", omega=v)),
    ("KernelSpec", lambda v: KernelSpec("sobolev", omega=v)),
    ("ridge_fit", lambda v: ridge_fit(F10, np.ones(10), v)),
    ("logistic_fit", lambda v: logistic_fit(F10, Y10, v)),
    ("logistic_fit", lambda v: logistic_fit(sp.csr_matrix(F10), Y10, v)),
    ("run_benchmark", lambda v: bench.run_benchmark(SMALL, ["eof"], [5], 1, 0, lam=v)),
    ("rks_map", lambda v: rks_map(2, 4, v, 0)),
    ("orf_map", lambda v: orf_map(2, 4, v, 0)),
    ("standardize", lambda v: bench.standardize(RAW10, split_ratio=v)),
]
SEED_READERS = [
    ("truncate_random", lambda s: truncate_random(S2, 5, s)),
    ("select_design", lambda s: select_design(LAP2, 5, s)),
    ("rks_map", lambda s: rks_map(2, 4, 1.0, s)),
    ("orf_map", lambda s: orf_map(2, 4, 1.0, s)),
    ("standardize", lambda s: bench.standardize(RAW10, seed=s)),
    ("synthetic_rkhs_dataset", lambda s: bench.synthetic_rkhs_dataset(
        N_train=20, N_test=5, seed=s)),
    ("run_benchmark", lambda s: bench.run_benchmark(SMALL, ["eof"], [5], 1, s)),
]
# not a real number: a string, None (but run_benchmark's lambda=None is its
# default), a bool, an array; then sigma 0 and infinity, for which every
# frequency is 0 or infinite; then seeds outside numpy's range
MALFORMED += [(entry, lambda t, read=read, v=v: read(v), InvalidData)
              for entry, read in POSITIVE_READERS
              for v in ("2", None, True, np.array([1.0, 2.0]))
              if not (entry == "run_benchmark" and v is None)]
MALFORMED += [(entry, lambda t, read=read, v=v: read(v), InvalidData)
              for entry, read in POSITIVE_READERS if entry in ("rks_map", "orf_map")
              for v in (0.0, np.inf)]
MALFORMED += [(entry, lambda t, read=read, s=s: read(s), InvalidData)
              for entry, read in SEED_READERS for s in (-1, 1.5, True, "a")]
# no rows to fit, select on or score (the target rule), dataset counts that
# are not integers >= 1, and a full design of over 2^63 - 1 columns
MALFORMED += [
    ("ridge_fit", lambda t: ridge_fit(np.zeros((0, 4)), np.zeros(0), 0.1), InvalidData),
    ("ridge_fit", lambda t: ridge_fit(sp.csr_matrix((0, 4)), np.zeros(0), 0.1),
     InvalidData),
    ("logistic_fit", lambda t: logistic_fit(np.zeros((0, 4)), np.zeros(0), 0.1),
     InvalidData),
    ("test_error", lambda t: error_of(Model(np.ones(4)), np.zeros((0, 4)), np.zeros(0)),
     InvalidData),
    ("lkrf_select", lambda t: lkrf_select(POOL, np.zeros(0), np.zeros((0, 2)), 4),
     InvalidData),
    ("synthetic_rkhs_dataset", lambda t: bench.synthetic_rkhs_dataset(N_train=-1),
     InvalidData),
    ("synthetic_rkhs_dataset", lambda t: bench.synthetic_rkhs_dataset(N_train=2.5),
     InvalidData),
    ("synthetic_rkhs_dataset", lambda t: bench.synthetic_rkhs_dataset(N_test=0),
     InvalidData),
    ("synthetic_rkhs_dataset", lambda t: bench.synthetic_rkhs_dataset(N_test=True),
     InvalidData),
    ("synthetic_rkhs_dataset", lambda t: bench.synthetic_rkhs_dataset(n_centers=0),
     InvalidData),
    ("enumerate_sparse_grid", lambda t: enumerate_sparse_grid(3, 53), InvalidLevel),
]
# random-feature shapes: a batch of more than two axes, a batch where
# kernel_estimate takes one point, and maps whose frequencies are not (M, D)
# with M, D >= 1 or whose phases are not (M,)
MALFORMED += [
    ("rf_embed", lambda t: rf_embed(POOL, np.zeros((2, 3, 2))), DimError),
    ("kernel_estimate", lambda t: kernel_estimate(POOL, np.zeros((3, 2)), [0.1, 0.2]),
     DimError),
    ("kernel_estimate", lambda t: kernel_estimate(POOL, [0.1, 0.2], np.zeros((3, 2))),
     DimError),
    ("RandomFeatureMap", lambda t: RandomFeatureMap(np.ones((3, 2)), np.ones(4)),
     DimError),
    ("RandomFeatureMap", lambda t: RandomFeatureMap(np.ones(3), np.ones(3)), DimError),
    ("RandomFeatureMap", lambda t: RandomFeatureMap(np.ones((0, 2)), np.ones(0)),
     DimError),
]

# non-finite numbers in a model file, and a noise level that is not 0 or a
# positive real
MALFORMED += [("load_model", lambda t, w=w: load_model(_model_file(t, ["1.0", w])),
               InvalidData) for w in ("nan", "inf", "-inf")]
MALFORMED += [("load_model", lambda t, v=v: load_model(_model_file(t, **{"lambda": v})),
               InvalidData) for v in ("nan", "inf")]
MALFORMED += [("synthetic_rkhs_dataset", lambda t, v=v: bench.synthetic_rkhs_dataset(
    N_train=20, N_test=5, noise=v), InvalidData)
    for v in (np.nan, np.inf, -np.inf, -0.05, "0.05", None, True, np.array([0.05]))]
# a design constant that is missing, not a number or NaN (which would rank
# by input order)
S2_ONES = {idx: 1.0 for idx in S2}
MALFORMED += [("entropic_select", lambda t, C=C: entropic_select(S2, C, 3), InvalidData)
              for C in ({**S2_ONES, S2.indices[1]: np.nan},
                        {**S2_ONES, S2.indices[1]: "a"},
                        {idx: 1.0 for idx in S2.indices[1:]})]
# a point outside the cube under the strict flag, levels and positions out of
# range, M = 0, a model file of another format, one row to split, no runs, a
# 1-D point of the wrong length and non-finite points of the random-feature maps
MALFORMED += [
    ("kernel_eval", lambda t: kernel_eval(KernelSpec("laplace", dim=1, strict=True),
                                          [1.5], [1.0]), InvalidPoint),
    ("FeatureIndex", lambda t: FeatureIndex((2,), (2,)), InvalidIndex),
    ("FeatureIndex", lambda t: FeatureIndex((2,), (5,)), InvalidIndex),
    ("FeatureIndex", lambda t: FeatureIndex((0,), (1,)), InvalidLevel),
    ("phi_1d", lambda t: phi_1d(BB, 2, 2, 0.5), InvalidIndex),
    ("norm_const", lambda t: norm_const(BB, (0,)), InvalidLevel),
    ("norm_const", lambda t: norm_const(KernelSpec("laplace"), (-1,)), InvalidLevel),
    ("enumerate_sparse_grid", lambda t: enumerate_sparse_grid(2, 0), InvalidLevel),
    ("truncate_random", lambda t: truncate_random(S2, 0, 0), InvalidM),
    ("load_model", lambda t: load_model(_bytes_file(t, b"# some-other-format\n1.0\n")),
     InvalidData),
    ("standardize", lambda t: bench.standardize(
        bench.RawData(np.zeros((1, 1)), np.zeros(1), "t", "regression")), InvalidData),
    ("run_benchmark", lambda t: bench.run_benchmark(SMALL, ["rks"], [8], runs=0,
                                                    seed=0), InvalidData),
    ("rf_embed", lambda t: rf_embed(POOL, [0.1, 0.2, 0.3]), DimError),
    ("rf_embed", lambda t: rf_embed(POOL, [0.1, np.inf]), InvalidPoint),
    ("kernel_estimate", lambda t: kernel_estimate(POOL, [0.1, np.nan], [0.2, 0.3]),
     InvalidPoint),
    ("kernel_estimate", lambda t: kernel_estimate(POOL, [0.2, 0.3], [-np.inf, 0.1]),
     InvalidPoint),
]
# level 0, alone and in a level array, at both surplus coefficients
MALFORMED += [(entry, lambda t, coeff=coeff, level=level: coeff(BB, level, 1),
               InvalidLevel)
              for entry, coeff in (("surplus_alpha_1d", surplus_alpha_1d),
                                   ("surplus_beta_1d", surplus_beta_1d))
              for level in (0, np.array([2, 0]))]
# a non-finite point, and a point outside [0, 1]^D in strict mode, at each
# multilevel entry point
MULTILEVEL_READERS = [
    ("embed", lambda spec, x: embed(spec, S2, x)),
    ("embed_batch", lambda spec, x: embed_batch(spec, S2, np.array([x, [0.5, 0.5]]))),
    ("phi_nd", lambda spec, x: phi_nd(spec, S2.indices[0], x)),
]
MALFORMED += [(entry, lambda t, read=read, x=x, strict=strict: read(
    KernelSpec("laplace", omega=1.0, dim=2, strict=strict), x), InvalidPoint)
    for entry, read in MULTILEVEL_READERS
    for x, strict in (([np.nan, 0.5], False), ([0.2, np.inf], False),
                      ([0.2, -np.inf], True), ([1.5, 0.5], True),
                      ([0.5, -0.1], True))]


@pytest.mark.parametrize("entry, call, error", MALFORMED,
                         ids=[f"{row[0]}-{n}" for n, row in enumerate(MALFORMED)])
def test_malformed_input_raises_its_error(entry, call, error, tmp_path):
    assert issubclass(error, EofError)
    with pytest.raises(error):
        call(tmp_path)


@pytest.mark.parametrize("call, message", [
    (lambda: KernelSpec("laplace", dim=0), "D must be an integer in 1..inf, got 0"),
    (lambda: rks_map(2, 2.5, 1.0, 0), "M must be an integer in 1..inf, got 2.5"),
    (lambda: lkrf_select(POOL, Y10, X10, 41), "M must be an integer in 1..40, got 41"),
    (lambda: rks_map(2, 4, 1.0, -1), "seed must be an integer in 0..inf, got -1"),
    (lambda: bench.run_benchmark(SMALL, ["eof"], [5], True, 0),
     "runs must be an integer in 1..inf, got True"),
    (lambda: bench.synthetic_rkhs_dataset(n_centers=0),
     "n_centers must be an integer in 1..inf, got 0"),
    (lambda: ridge_fit(np.zeros((0, 4)), np.zeros(0), 0.1),
     "rows must be an integer in 1..inf, got 0"),
    (lambda: enumerate_sparse_grid(2, 58),
     "the column count of the level-58 design at D=2 must be an integer in "
     f"1..{2 ** 63 - 1}, got {sparse_grid_size(2, 58)}")],
    ids=["D", "M", "M-limit", "seed", "runs", "n_centers", "rows", "columns"])
def test_every_integer_rule_gives_one_message(call, message):
    # errors.check_int: "{what} must be an integer in {low}..{high}, got {value!r}"
    with pytest.raises(EofError) as info:
        call()
    assert str(info.value) == message


def test_unknown_name_is_a_value_error():
    assert issubclass(InvalidChoice, ValueError)
    with pytest.raises(ValueError, match=r"^unknown task 'regresion'$"):
        fit("regresion", F10, Y10, 0.1)
    with pytest.raises(ValueError, match=r"^unknown kernel kind 'gauss'$"):
        KernelSpec("gauss")


@pytest.mark.parametrize("a, finite", [
    (np.zeros(0), True), (np.zeros((3, 0)), True),
    (np.array([-1e308, 1e308, 0.0]), True),
    (np.array([0.5, np.nan, 0.2]), False), (np.array([np.nan, np.inf]), False),
    (np.array([[0.1, np.inf]]), False), (np.array([-np.inf, 0.3]), False),
    (np.array([np.inf, -np.inf]), False)])
def test_all_finite_is_the_elementwise_test(a, finite):
    assert all_finite(a) is finite is bool(np.isfinite(a).all())


def test_numpy_integer_M_passes_the_M_rule():
    M = np.int64(5)
    assert len(select_design(LAP2, M, 0)) == 5
    assert rks_map(2, M, 1.0, 0).M == 5
    assert eerf_select(POOL, Y10, X10, M).M == 5


def test_numpy_scalars_pass_the_number_and_seed_rules():
    assert KernelSpec("laplace", omega=np.float32(2.0), dim=2) == LAP2
    want, got = rks_map(2, 4, 1.0, 3), rks_map(2, 4, np.float64(1.0), np.int64(3))
    np.testing.assert_array_equal(got.frequencies, want.frequencies)
    assert list(truncate_random(S2, 5, np.uint8(1))) == list(truncate_random(S2, 5, 1))
    assert ridge_fit(F10, np.ones(10), np.float64(0.1)).lam == 0.1


def test_numpy_integer_levels_and_positions_pass_the_index_rule():
    idx = FeatureIndex((np.int64(3), np.int32(2)), (np.int64(5), np.uint8(3)))
    assert idx == FeatureIndex((3, 2), (5, 3))
    assert hash(idx) == hash(FeatureIndex((3, 2), (5, 3)))
    assert {type(v) for v in idx.l + idx.i} == {int}
    assert phi_1d(BB, np.int64(2), np.int64(1), 0.2) == phi_1d(BB, 2, 1, 0.2)
    assert len(enumerate_sparse_grid(2, np.int64(3))) == \
        sparse_grid_size(2, np.int64(3)) == len(S2)
    assert norm_const(BB, (np.int64(2),)) == norm_const(BB, (2,))
    # Python ints of any size are positions
    assert FeatureIndex((70,), (2 ** 69 + 1,)).i == (2 ** 69 + 1,)


def test_model_file_error_names_the_line(tmp_path):
    with pytest.raises(InvalidData, match="line 6"):
        load_model(_model_file(tmp_path, ["1.0", "abc"]))
    model = load_model(_model_file(tmp_path, ["1.0", "-2.5"], task="classification"))
    assert (list(model.weights), model.lam, model.nnz_F, model.task) == \
        ([1.0, -2.5], 0.5, 3, "classification")


def test_non_finite_model_number_names_the_line(tmp_path):
    with pytest.raises(InvalidData, match="line 6: bad value 'nan'"):
        load_model(_model_file(tmp_path, ["1.0", "nan"]))
    with pytest.raises(InvalidData, match="line 2: bad value '# lambda=inf'"):
        load_model(_model_file(tmp_path, **{"lambda": "inf"}))
    # lambda 0, Model's default, still loads
    assert load_model(_model_file(tmp_path, **{"lambda": "0.0"})).lam == 0.0


def test_noise_is_zero_or_a_positive_real():
    with pytest.raises(InvalidData, match=r"^noise must be a number in \(0, inf\)"):
        bench.synthetic_rkhs_dataset(N_train=20, N_test=5, noise=-0.05)
    # 0 gives the noiseless target
    for zero in (0, 0.0, np.float64(0.0)):
        ds = bench.synthetic_rkhs_dataset(N_train=20, N_test=5, noise=zero, seed=4)
        same = bench.synthetic_rkhs_dataset(N_train=20, N_test=5, noise=1e-300, seed=4)
        np.testing.assert_array_equal(ds.y_train, same.y_train)

def test_column_targets_select_as_flat_targets():
    y = np.random.default_rng(3).standard_normal(10)
    flat = eerf_select(POOL, y, X10, 4)
    column = eerf_select(POOL, y[:, None], X10, 4)
    np.testing.assert_array_equal(flat.frequencies, column.frequencies)
