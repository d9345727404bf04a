import csv
import io
import os
import time
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from eof import baselines, bench, learn
from eof.design import select_design
from eof.embedding import SCALE_PLAIN, embed_batch
from eof.errors import (DegenerateData, EofError, InvalidData, InvalidLevel,
                        InvalidM, ParseError)
from eof.kernels import KernelSpec, kernel_eval

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def toy_dataset(seed=0, N=200, Nt=60):
    return bench.synthetic_rkhs_dataset(N_train=N, N_test=Nt, D=2, omega=2.0,
                                        seed=seed)


def untimed_csv(results):
    """The CSV report with every T_train field blank: seconds vary run to run."""
    rows = list(csv.reader(io.StringIO(bench.report(results, fmt="csv"))))
    column = rows[0].index("T_train")
    for row in rows[1:]:
        row[column] = ""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


class TestLoadCsv:
    def test_hand_csv(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        raw = bench.load_csv(path, "target", learn.REGRESSION)
        np.testing.assert_array_equal(raw.X, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(raw.y, [3, 6, 9])

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            bench.load_csv(path, "target", learn.REGRESSION)

    def test_repeated_target_column(self, tmp_path):
        # the second target column would otherwise be a feature
        path = tmp_path / "toy.csv"
        path.write_text("a,target,target\n0.1,5,5\n0.2,6,6\n")
        with pytest.raises(ParseError, match="'target' repeats in header"):
            bench.load_csv(path, "target", learn.REGRESSION)

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,target\n1,2\n3\n")
        with pytest.raises(ParseError) as err:
            bench.load_csv(path, "target", learn.REGRESSION)
        assert err.value.row == 3

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "toy.csv"
        for cell in ("x", "nan", "inf", "-inf"):
            path.write_text(f"a,target\n1,2\n{cell},4\n")
            with pytest.raises(ParseError) as err:
                bench.load_csv(path, "target", learn.REGRESSION)
            assert err.value.row == 3 and err.value.col == 1

    def test_keeps_only_what_it_returns(self, tmp_path):
        # the target is a copy, so the parsed table is freed on return
        path = tmp_path / "t.csv"
        np.savetxt(path, np.random.default_rng(5).uniform(size=(5000, 9)),
                   delimiter=",", fmt="%.17g", header="a,b,c,d,e,f,g,h,target",
                   comments="")
        bench.load_csv(path, "target", learn.REGRESSION)   # outside the trace
        tracemalloc.start()
        try:
            raw = bench.load_csv(path, "target", learn.REGRESSION)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1.05 * (raw.X.nbytes + raw.y.nbytes)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(2)
        raw = bench.RawData(rng.uniform(-5, 5, (20, 3)),
                            rng.standard_normal(20), "rt", learn.REGRESSION)
        path = tmp_path / "rt.csv"
        np.savetxt(path, np.column_stack([raw.X, raw.y]), delimiter=",",
                   fmt="%.17g", header="a,b,c,target", comments="")
        back = bench.load_csv(path, "target", learn.REGRESSION)
        np.testing.assert_array_equal(back.X, raw.X)
        np.testing.assert_array_equal(back.y, raw.y)


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


class TestReadTable:
    """``read_table`` tries numpy's C parser first; what it returns and every
    error it raises must be those of ``_read_table_checked``."""

    @pytest.mark.parametrize("text", [
        'a,b\n"1.5","-2"\n3,4\n',
        "a,b\n1,2\n\n3,4\n\n",
        "a,b\r\n1,2\r\n3,4\r\n",
        "a,b\n1,2\n",
        "a\n1\n2.5\n-3\n",
        "a,b\n1_0,2\n"],
        ids=["quoted", "blank-lines", "crlf", "one-row", "one-column",
             "underscore"])
    def test_same_header_and_cells_as_checking_parser(self, tmp_path, text):
        path = tmp_path / "t.csv"
        _write_text(path, text)
        header, cells = bench.read_table(path)
        want_header, want = bench._read_table_checked(path)
        assert header == want_header
        assert cells.dtype == want.dtype and cells.shape == want.shape
        assert cells.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, row, col", [
        ("a,b\n1,2\nnan,4\n", 3, 1),
        ("a,b\n1,2\n3,inf\n", 3, 2),
        ("a,b\n1e400,2\n", 2, 1),
        ("a,b\n1,2\n3,\n", 3, 2),
        ("a,b\n1,2\n3\n", 3, None),
        ("a,b\n1,2,\n", 2, None),
        ("a,b\n1,2\n" + "1" * 200_000 + ",2\n", 3, None),
        ('"a","b"\n"1","2"\n"3","x"\n', 3, 2)],
        ids=["nan", "inf", "overflow", "empty-cell", "ragged",
             "trailing-comma", "field-over-csv-limit", "quoted-non-number"])
    def test_errors_keep_row_and_column(self, tmp_path, text, row, col):
        path = tmp_path / "t.csv"
        _write_text(path, text)
        with pytest.raises(ParseError) as fast:
            bench.read_table(path)
        with pytest.raises(ParseError) as checked:
            bench._read_table_checked(path)
        assert (fast.value.row, fast.value.col) == (row, col)
        assert (checked.value.row, checked.value.col) == (row, col)
        assert str(fast.value) == str(checked.value)

    @pytest.mark.parametrize("text, message, row", [
        ("", "empty file", 1), ("a,b\n", "no data rows", None),
        ("a,b\n\n\n", "no data rows", None)],
        ids=["empty-file", "header-only", "blank-rows-only"])
    def test_file_without_data_rows(self, tmp_path, text, message, row):
        path = tmp_path / "t.csv"
        _write_text(path, text)
        for parse in (bench.read_table, bench._read_table_checked):
            with pytest.raises(ParseError) as err:
                parse(path)
            assert (str(err.value), err.value.row) == (message, row)

    def test_undecodable_bytes_raise_parse_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,2\n\x89PNG\r\n\x1a\n\x00\xff")
        with pytest.raises(ParseError) as fast:
            bench.read_table(path)
        with pytest.raises(ParseError) as checked:
            bench._read_table_checked(path)
        assert fast.value.row is None and "text" in str(fast.value)
        assert str(fast.value) == str(checked.value)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel's "CSV UTF-8": a UTF-8 byte-order mark and CRLF line ends
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbftarget,x0\r\n1,0.5\r\n2,0.25\r\n")
        for parse in (bench.read_table, bench._read_table_checked):
            header, cells = parse(path)
            assert header == ["target", "x0"]
            assert cells.tolist() == [[1, 0.5], [2, 0.25]]
        raw = bench.load_csv(path, "target", learn.REGRESSION)
        assert raw.y.tolist() == [1.0, 2.0] and raw.X.tolist() == [[0.5], [0.25]]

    @pytest.mark.parametrize("name, error", [
        ("missing.csv", FileNotFoundError), (".", IsADirectoryError)])
    def test_open_error_leaves_from_first_open(self, tmp_path, monkeypatch,
                                               name, error):
        monkeypatch.setattr(bench, "_read_table_checked", None)
        with pytest.raises(error):
            bench.read_table(tmp_path / name)

    def test_savetxt_csv_takes_fast_path(self, tmp_path, monkeypatch):
        # the form the benchmark writes: np.savetxt with %.17g
        rng = np.random.default_rng(3)
        cells = rng.uniform(-1.0, 1.0, (500, 4)) * 10.0 ** rng.integers(
            -300, 300, (500, 4))
        path = tmp_path / "t.csv"
        np.savetxt(path, cells, delimiter=",", fmt="%.17g",
                   header="a,b,c,target", comments="")
        want = bench._read_table_checked(path)[1]
        monkeypatch.setattr(bench, "_read_table_checked", None)
        header, got = bench.read_table(path)
        assert header == ["a", "b", "c", "target"]
        assert got.tobytes() == want.tobytes() == cells.tobytes()


class TestStandardize:
    def test_two_point_feature_maps_to_unit(self):
        X = np.array([0.0, 10.0] * 10)[:, None]
        raw = bench.RawData(X, np.zeros(20), "t", learn.REGRESSION)
        ds = bench.standardize(raw, split_ratio=0.5, seed=0)
        assert {0.0, 1.0} <= set(ds.X_train[:, 0].tolist())
        both = np.concatenate([ds.X_train[:, 0], ds.X_test[:, 0]])
        assert set(both.tolist()) <= {0.0, 1.0}

    def test_train_extremes_hit_bounds_exactly(self):
        rng = np.random.default_rng(1)
        raw = bench.RawData(rng.uniform(3, 9, (50, 2)),
                            rng.standard_normal(50), "t", learn.REGRESSION)
        ds = bench.standardize(raw, seed=4)
        assert ds.X_train.min(axis=0).tolist() == [0.0, 0.0]
        assert ds.X_train.max(axis=0).tolist() == [1.0, 1.0]
        assert np.all(ds.X_test >= 0.0) and np.all(ds.X_test <= 1.0)

    def test_split_proportions(self):
        raw = bench.RawData(np.arange(100, dtype=float)[:, None],
                            np.zeros(100), "t", learn.REGRESSION)
        ds = bench.standardize(raw, split_ratio=0.7, seed=0)
        assert abs(ds.N_train - 70) <= 1
        assert ds.N_train + ds.N_test == 100

    def test_regression_targets_in_unit_band(self):
        rng = np.random.default_rng(3)
        raw = bench.RawData(rng.uniform(0, 1, (40, 1)),
                            rng.uniform(-30, 50, 40), "t", learn.REGRESSION)
        ds = bench.standardize(raw, seed=0)
        assert ds.y_train.min() == -1.0 and ds.y_train.max() == 1.0
        assert np.all(np.abs(ds.y_test) <= 1.0)

    def test_classification_labels_pm_one(self):
        raw = bench.RawData(np.arange(10, dtype=float)[:, None],
                            np.array([3.0, 7.0] * 5), "t", learn.CLASSIFICATION)
        ds = bench.standardize(raw, seed=0)
        assert set(np.concatenate([ds.y_train, ds.y_test])) == {-1.0, 1.0}

    def test_constant_feature_maps_to_half(self):
        raw = bench.RawData(np.column_stack([np.full(20, 2.0),
                                             np.arange(20, dtype=float)]),
                            np.zeros(20), "t", learn.REGRESSION)
        ds = bench.standardize(raw, seed=0)
        assert np.all(ds.X_train[:, 0] == 0.5)

    def test_three_class_labels_rejected(self):
        raw = bench.RawData(np.arange(12, dtype=float)[:, None],
                            np.arange(12) % 3, "t", learn.CLASSIFICATION)
        with pytest.raises(InvalidData, match="2 label values, got 3"):
            bench.standardize(raw)

    def test_peak_is_about_the_returned_splits(self):
        # each split is gathered once and scaled in place; the D = 8 shape
        # of the train-reg-d8 benchmark
        rng = np.random.default_rng(6)
        raw = bench.RawData(rng.uniform(-3.0, 5.0, (14_286, 8)),
                            rng.standard_normal(14_286), "t", learn.REGRESSION)
        tracemalloc.start()
        try:
            ds = bench.standardize(raw, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (ds.X_train, ds.X_test, ds.y_train,
                                          ds.y_test))
        assert peak <= 1.5 * returned, peak / returned

    @pytest.mark.parametrize("dtype", [float, np.int64])
    def test_outputs_are_owned_floats(self, dtype):
        X = (np.arange(60).reshape(20, 3) % 7).astype(dtype)
        raw = bench.RawData(X, np.arange(20.0), "t", learn.REGRESSION)
        ds = bench.standardize(raw, seed=2)
        for a in (ds.X_train, ds.X_test, ds.y_train, ds.y_test):
            assert a.dtype == np.float64
            assert not np.shares_memory(a, raw.X) and not np.shares_memory(a, raw.y)
        want = bench.standardize(bench.RawData(X.astype(float), raw.y, "t",
                                               learn.REGRESSION), seed=2)
        assert ds.X_train.tobytes() == want.X_train.tobytes()
        assert ds.X_test.tobytes() == want.X_test.tobytes()

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, -0.3, float("nan")])
    def test_split_ratio_outside_unit_interval_rejected(self, ratio):
        raw = bench.RawData(np.arange(20, dtype=float)[:, None], np.zeros(20),
                            "t", learn.REGRESSION)
        with pytest.raises(InvalidData, match="split_ratio"):
            bench.standardize(raw, split_ratio=ratio)


def _all_pairs_sigma(X):
    """The all-pairs oracle of ``estimate_sigma``: squared differences summed
    over dimensions in order, each row's (k+1)-th smallest (itself included)
    by partition, then 1 / the mean distance."""
    X = np.asarray(X, dtype=float)
    k = min(bench.NEIGHBOR, len(X) - 1)
    d2 = (X[:, None, 0] - X[None, :, 0]) ** 2
    for d in range(1, X.shape[1]):
        d2 = d2 + (X[:, None, d] - X[None, :, d]) ** 2
    return 1.0 / float(np.mean(np.sqrt(np.partition(d2, k, axis=1)[:, k])))


def _sigma_cases():
    rng = np.random.default_rng(24)
    for D in (1, 2, 3, 5, 8):
        for N in (2, 3, 51, 52, 700):
            yield f"uniform-D{D}-N{N}", rng.uniform(0.0, 1.0, (N, D))
    for D in (2, 3):
        X = rng.uniform(0.0, 1.0, (200, D))
        yield f"duplicates-D{D}", X[rng.integers(0, 200, 700)]
    yield "grid-D1-N52", (np.arange(52, dtype=float) * 0.01)[:, None]
    for D, n in ((2, 12), (3, 9)):
        grid = np.stack(np.meshgrid(*[np.arange(float(n))] * D), axis=-1)
        yield f"lattice-D{D}", rng.permutation(grid.reshape(-1, D))
    for D in (2, 5):
        X = rng.uniform(0.0, 1.0, (700, D))
        X[:, 0] = 0.25
        yield f"constant-first-column-D{D}", X
    for D in (1, 2, 3, 8):
        # a tight cluster, a spread-out middle and a second tight cluster
        # along the first coordinate: the search window grows and shrinks
        yield f"uneven-clusters-D{D}", np.concatenate([
            rng.normal(0.0, 1e-3, (250, D)), rng.uniform(0.0, 10.0, (200, D)),
            rng.normal(5.0, 1e-2, (250, D))])
    yield "unscaled-D3", rng.normal(1e6, 1e4, (700, 3)) * [1.0, 1e-2, 1e-4]
    yield "unscaled-D2", rng.standard_cauchy((700, 2))


SIGMA_CASES = list(_sigma_cases())


class TestEstimateSigma:
    @pytest.mark.parametrize("X", [X for _, X in SIGMA_CASES],
                             ids=[name for name, _ in SIGMA_CASES])
    def test_equals_all_pairs_oracle(self, X):
        assert bench.estimate_sigma(X) == _all_pairs_sigma(X)

    def test_one_row_degenerate(self):
        with pytest.raises(DegenerateData, match="at least 2 points"):
            bench.estimate_sigma(np.zeros((1, 3)))

    def test_duplicates_degenerate(self):
        with pytest.raises(DegenerateData):
            bench.estimate_sigma(np.zeros((51, 2)))

    def test_small_sample_fallback(self):
        X = np.array([[0.0], [1.0], [3.0]])
        # k falls back to N - 1 = 2: distances 3, 2, 3
        assert bench.estimate_sigma(X) == pytest.approx(1.0 / (8.0 / 3.0))

    def test_homogeneity_under_scaling(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (120, 3))
        s1 = bench.estimate_sigma(X)
        s2 = bench.estimate_sigma(4.0 * X)
        assert s2 == pytest.approx(s1 / 4.0, rel=1e-12)

    def test_memory_is_one_distance_per_point(self):
        # all 51 neighbours of 20 000 points would be 16 MB of distances
        # and indices; the one neighbour read is 0.3 MB
        X = np.random.default_rng(9).uniform(0.0, 1.0, (20_000, 2))
        bench.estimate_sigma(X[:3])    # a first call, outside the trace
        tracemalloc.start()
        try:
            bench.estimate_sigma(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestRunBenchmark:
    def test_single_run_zero_std(self):
        ds = toy_dataset()
        res = bench.run_benchmark(ds, ["rks"], [8], runs=1, seed=3)
        assert res[0].std_error == 0.0

    def test_full_design_deterministic_across_seeds(self):
        ds = toy_dataset()
        res = bench.run_benchmark(ds, ["eof"], [17], runs=6, seed=3)
        assert res[0].std_error == 0.0
        assert len(set(res[0].errors)) == 1

    def test_eof_nnz_bound(self):
        ds = toy_dataset()
        res = bench.run_benchmark(ds, ["eof"], [17], runs=1, seed=0)
        assert res[0].nnz_F <= ds.N_train * 6  # C(4, 2) at n = 3, D = 2

    def test_deterministic_report_under_master_seed(self):
        ds = toy_dataset()
        a = bench.run_benchmark(ds, ["rks", "lkrf"], [8, 16], runs=3, seed=5)
        b = bench.run_benchmark(ds, ["rks", "lkrf"], [8, 16], runs=3, seed=5)
        assert untimed_csv(a) == untimed_csv(b)

    def test_pool_size_recorded_for_selectors(self):
        ds = toy_dataset()
        res = bench.run_benchmark(ds, ["eerf"], [6], runs=1, seed=0)
        assert res[0].M0 == 60  # 10 M rule
        # eof at a truncated M: the smallest full design at D = 2 that holds M
        res = bench.run_benchmark(ds, ["eof"], [6, 51], runs=1, seed=0)
        assert [r.M0 for r in res] == [17, 129]

    def test_failed_runs_excluded_with_count(self, monkeypatch):
        ds = toy_dataset()
        real = bench._one_run
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise EofError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "_one_run", flaky)
        res = bench.run_benchmark(ds, ["rks"], [8], runs=6, seed=2)
        assert res[0].n_failed == 3
        assert len(res[0].errors) == 3

    def test_failed_runs_record_their_cause(self, monkeypatch):
        ds = toy_dataset()
        real = bench._one_run
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise EofError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "_one_run", flaky)
        res = bench.run_benchmark(ds, ["rks"], [8], runs=6, seed=2)
        assert res[0].failures == ["EofError: synthetic failure"] * 3

    def test_all_failed_cell_reports_nan(self, monkeypatch):
        def fail(*args, **kwargs):
            raise EofError("synthetic failure")

        monkeypatch.setattr(bench, "_one_run", fail)
        res = bench.run_benchmark(toy_dataset(), ["lkrf"], [8], runs=3, seed=0)
        (r,) = res
        assert np.isnan([r.mean_error, r.std_error, r.t_train]).all()
        assert (r.n_failed, r.M0, r.nnz_F, r.errors) == (3, 0, 0, [])
        assert bench.report(res, fmt="text").splitlines()[1] == \
            "lkrf    8      nan      0      nan         nan"

    def test_unknown_method_rejected_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench, "_one_run", no_run)
        with pytest.raises(ValueError, match="nystrom"):
            bench.run_benchmark(toy_dataset(), ["rks", "nystrom"], [4], runs=1,
                                seed=0)

    @pytest.mark.parametrize("method", ["eof", "rks"])
    @pytest.mark.parametrize("M_grid, runs, error", [
        ([0], 1, InvalidM), ([2.5], 1, InvalidM), ([True], 1, InvalidM),
        ([-3], 1, InvalidM), ([4, 0], 1, InvalidM), ([4], 2.5, InvalidData),
        ([4], True, InvalidData)],
        ids=["M-0", "M-2.5", "M-True", "M-neg", "M-4,0", "runs-2.5", "runs-True"])
    def test_bad_m_or_runs_rejected_before_any_run(self, monkeypatch, method,
                                                   M_grid, runs, error):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench, "_one_run", no_run)
        monkeypatch.setattr(bench, "estimate_sigma", no_run)
        with pytest.raises(error):
            bench.run_benchmark(toy_dataset(), [method], M_grid, runs=runs,
                                seed=0)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_bad_seed_rejected_before_estimate_sigma(self, monkeypatch, seed):
        def no_run(*args, **kwargs):
            raise AssertionError("estimate_sigma ran")

        monkeypatch.setattr(bench, "estimate_sigma", no_run)
        with pytest.raises(InvalidData, match="seed"):
            bench.run_benchmark(toy_dataset(), ["eof"], [4], runs=1, seed=seed)

    def test_numpy_integer_seed_runs_as_its_value(self):
        results = [bench.run_benchmark(toy_dataset(), ["eof", "rks"], [4], runs=2,
                                       seed=seed) for seed in (np.int64(3), 3)]
        assert len({untimed_csv(r) for r in results}) == 1

    def test_timing_monotone_in_m_for_dense_baseline(self):
        # the fastest of 7 paired repetitions: a load spike slows some
        # repetitions many times over, but not the fastest of each M
        ds = bench.synthetic_rkhs_dataset(N_train=3000, N_test=10, seed=1)
        lo, hi = [], []
        for rep in range(7):
            res = bench.run_benchmark(ds, ["rks"], [40, 320], runs=1, seed=rep)
            lo.append(res[0].t_train)
            hi.append(res[1].t_train)
        assert min(hi) >= 2 * min(lo), (lo, hi)

    def test_t_train_times_the_whole_run(self, monkeypatch):
        # a run's time holds _one_run, which draws the map, besides the fit
        ds = toy_dataset()
        (want,) = bench.run_benchmark(ds, ["rks"], [4], runs=2, seed=0)
        real = bench._one_run

        def slow(*args, **kwargs):
            time.sleep(0.02)
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "_one_run", slow)
        (r,) = bench.run_benchmark(ds, ["rks"], [4], runs=2, seed=0)
        assert r.t_train >= 0.02
        assert (r.errors, r.nnz_F) == (want.errors, want.nnz_F)

    def test_t_train_is_the_mean_over_fitted_runs(self, monkeypatch):
        # every seed draws the full design at M = 5, so one run fits it and
        # three reuse that fit: a mean over all four would be under 0.015
        real = bench.fit_and_score

        def slow(*args, **kwargs):
            time.sleep(0.02)
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "fit_and_score", slow)
        (r,) = bench.run_benchmark(toy_dataset(), ["eof"], [5], runs=4, seed=0)
        assert r.t_train >= 0.02 and len(set(r.errors)) == 1 and r.n_failed == 0

    def test_eof_errors_equal_the_unshared_embedding(self):
        # each run's features are sliced from one embedding of each split at
        # the largest full design; embedding its own design gives the same
        # fit, to the bit: full sizes, truncations and a truncation of a
        # lower level than the largest
        ds, seed, grid = toy_dataset(seed=4), 6, [5, 6, 17, 20, 51]
        res = bench.run_benchmark(ds, ["eof"], grid, runs=3, seed=seed)
        spec = KernelSpec("laplace", omega=bench.estimate_sigma(ds.X_train), dim=2)
        lam = learn.default_lambda(ds.N_train)
        for Mi, (M, r) in enumerate(zip(grid, res)):
            want = [bench.fit_and_score(
                ds, partial(embed_batch, spec,
                            select_design(spec, M, bench._run_seed(seed, 0, Mi, k)),
                            scale=SCALE_PLAIN), lam) for k in range(3)]
            assert r.errors == [err for _, err in want]
            assert r.nnz_F == round(np.mean([m.nnz_F for m, _ in want]))

    def test_shared_embedding_error_fails_every_eof_run(self, monkeypatch):
        def deep(*args, **kwargs):
            raise InvalidLevel("synthetic depth")

        monkeypatch.setattr(bench, "embed_batch", deep)
        res = bench.run_benchmark(toy_dataset(), ["eof", "rks"], [5, 6], runs=2,
                                  seed=0)
        assert [(r.method, len(r.errors), r.failures) for r in res] == (
            [("eof", 0, ["InvalidLevel: synthetic depth"] * 2)] * 2
            + [("rks", 2, [])] * 2)

    def test_failed_shared_embedding_is_retried_by_the_next_eof_run(
            self, monkeypatch):
        # the first embedding call raises, so the first run fails; the second
        # run embeds both splits, fits the full design at M = 5 and carries
        # the embedding's cost, and every later run takes its columns
        real, calls, delay = bench.embed_batch, [], 0.05

        def embed(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 1:
                raise InvalidLevel("synthetic depth")
            time.sleep(delay)
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "embed_batch", embed)
        res = bench.run_benchmark(toy_dataset(), ["eof"], [5, 17], runs=2, seed=0)
        assert [(len(r.errors), r.failures) for r in res] == [
            (1, ["InvalidLevel: synthetic depth"]), (2, [])]
        assert len(calls) == 3
        assert res[0].t_train >= 2 * delay


class TestFitAndScore:
    def test_test_split_embedded_after_the_fit(self, monkeypatch):
        ds = toy_dataset()
        fmap = baselines.rks_map(ds.D, 8, 2.0, 0)
        events, train = [], []
        real_fit = learn.fit

        def fit(*args, **kwargs):
            events.append("fit")
            model = real_fit(*args, **kwargs)
            events.append("fit returned")
            return model

        def featurize(X):
            split = "train" if X is ds.X_train else "test"
            # the training features are freed before the test split is embedded
            events.append((split, bool(train) and train[0]() is None))
            F = baselines.rf_embed(fmap, X)
            if split == "train":
                train.append(weakref.ref(F))
            return F

        monkeypatch.setattr(learn, "fit", fit)
        model, err = bench.fit_and_score(ds, featurize, 0.01)
        assert events == [("train", False), "fit", "fit returned", ("test", True)]
        assert err == learn.test_error(model, baselines.rf_embed(fmap, ds.X_test),
                                       ds.y_test)

    def test_every_bench_cell_fits_through_it_once_per_run(self, monkeypatch):
        # once per baseline run and once per distinct eof design of a cell:
        # the full design at M = 5 once, the two seeds' truncations at M = 6
        # once each; the eof runs embed each split once, at level 3 (M0 = 17)
        real_fit, real_embed = bench.fit_and_score, bench.embed_batch
        featurizers, embedded = [], []

        def counted(dataset, featurize, lam):
            featurizers.append(featurize.func)
            return real_fit(dataset, featurize, lam)

        def embed(spec, S, X, **kwargs):
            embedded.append((len(S), len(X)))
            return real_embed(spec, S, X, **kwargs)

        monkeypatch.setattr(bench, "fit_and_score", counted)
        monkeypatch.setattr(bench, "embed_batch", embed)
        ds = toy_dataset()
        res = bench.run_benchmark(ds, bench.ALL_METHODS, [5, 6], runs=2, seed=0)
        assert sum(len(r.errors) for r in res) == 20
        assert featurizers.count(baselines.rf_embed) == 16
        assert len(featurizers) == 3 + 16
        assert embedded == [(17, ds.N_train), (17, ds.N_test)]


class TestReport:
    def test_empty_results_header_only(self):
        assert bench.report([], fmt="csv").strip() == \
            "method,M,M0,T_train,nnz_F,mean_error,std_error"
        assert bench.report([], fmt="text").strip() == \
            "method  M  M0  T_train  nnz_F  mean_error  std_error"

    def test_column_order_stable(self):
        ds = toy_dataset()
        res = bench.run_benchmark(ds, ["rks"], [4], runs=1, seed=0)
        header = bench.report(res, fmt="csv").splitlines()[0]
        assert header == "method,M,M0,T_train,nnz_F,mean_error,std_error"

    def test_golden_snapshot_fixed_seed(self):
        ds = toy_dataset()
        res = bench.run_benchmark(ds, ["eof", "rks"], [5, 17], runs=2, seed=9)
        got = untimed_csv(res)
        with open(os.path.join(DATA_DIR, "report_golden.csv"), newline="") as fh:
            assert got == fh.read()


class TestSyntheticDataset:
    def test_deterministic_under_seed(self):
        a = bench.synthetic_rkhs_dataset(N_train=50, N_test=10, seed=3)
        b = bench.synthetic_rkhs_dataset(N_train=50, N_test=10, seed=3)
        np.testing.assert_array_equal(a.X_train, b.X_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_shapes_and_domain(self):
        ds = bench.synthetic_rkhs_dataset(N_train=64, N_test=16, D=3, seed=0)
        assert ds.X_train.shape == (64, 3) and ds.X_test.shape == (16, 3)
        assert np.all(ds.X_train >= 0.0) and np.all(ds.X_train <= 1.0)
        assert ds.task == learn.REGRESSION

    @pytest.mark.parametrize("kernel", ["laplace", "sobolev", "bb"])
    @pytest.mark.parametrize("D", [1, 2, 5])
    def test_targets_equal_pointwise_kernel_sum(self, kernel, D):
        # the reference draws the same stream and sums kernel_eval per point
        ds = bench.synthetic_rkhs_dataset(N_train=40, N_test=12, D=D, seed=5,
                                          kernel=kernel, noise=0.05)
        rng = np.random.default_rng(5)
        spec = KernelSpec(kernel, omega=2.0, dim=D)
        centers = rng.uniform(0.0, 1.0, (5, D))
        coefs = rng.uniform(-1.0, 1.0, 5)

        def target(X):
            out = np.zeros(X.shape[0])
            for c, ctr in zip(coefs, centers):
                out += c * np.array([kernel_eval(spec, x, ctr) for x in X])
            return out

        rng.uniform(0.0, 1.0, (40, D))    # X_train and X_test, read from ds
        rng.uniform(0.0, 1.0, (12, D))
        np.testing.assert_array_equal(
            ds.y_train, target(ds.X_train) + 0.05 * rng.standard_normal(40))
        np.testing.assert_array_equal(ds.y_test, target(ds.X_test))
