import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import eof
from eof import bench, learn
from eof.cli import build_parser, main
from eof.design import enumerate_sparse_grid, select_design
from eof.embedding import embed_batch
from eof.kernels import KernelSpec


def write_points_csv(path, X):
    header = ",".join(f"x{j}" for j in range(X.shape[1]))
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in X)
    path.write_text(header + "\n" + rows + "\n")


def write_labeled_csv(path, X, y):
    header = ",".join([f"x{j}" for j in range(X.shape[1])] + ["target"])
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g",
               header=header, comments="")


class TestEmbedCommand:
    def test_coordinate_output_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.0, 1.0, (10, 2))
        inp = tmp_path / "points.csv"
        out = tmp_path / "features.txt"
        write_points_csv(inp, X)
        main(["embed", "--kernel", "laplace", "--omega", "2.0", "--level", "3",
              "--input", str(inp), "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        rows, cols, nnz = (int(v) for v in lines[0].lstrip("# ").split())
        spec = KernelSpec("laplace", omega=2.0, dim=2)
        S = enumerate_sparse_grid(2, 3)
        F = embed_batch(spec, S, X)
        assert (rows, cols, nnz) == (10, len(S), F.nnz)
        dense = np.zeros((rows, cols))
        for line in lines[1:]:
            r, c, v = line.split(",")
            dense[int(r), int(c)] = float(v)
        np.testing.assert_allclose(dense, F.toarray(), atol=1e-14)
        assert "wrote" in capsys.readouterr().out

    def test_num_features_truncation(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.uniform(0.0, 1.0, (5, 2))
        inp = tmp_path / "points.csv"
        out = tmp_path / "features.txt"
        write_points_csv(inp, X)
        main(["embed", "--kernel", "bb", "--num-features", "9", "--seed", "4",
              "--input", str(inp), "--output", str(out)])
        header = out.read_text().splitlines()[0]
        assert header.split()[2] == "9"  # column count equals requested M

    def test_num_features_columns_are_select_design(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.uniform(0.0, 1.0, (20, 2))
        inp = tmp_path / "points.csv"
        write_points_csv(inp, X)
        spec = KernelSpec("laplace", omega=1.0, dim=2)
        for seed in (4, 5):
            out = tmp_path / f"features{seed}.txt"
            main(["embed", "--num-features", "11", "--seed", str(seed),
                  "--input", str(inp), "--output", str(out)])
            lines = out.read_text().strip().splitlines()
            dense = np.zeros((20, 11))
            for line in lines[1:]:
                r, c, v = line.split(",")
                dense[int(r), int(c)] = float(v)
            F = embed_batch(spec, select_design(spec, 11, seed), X)
            np.testing.assert_array_equal(dense, F.toarray())

    def test_non_numeric_cell_reports_position(self, tmp_path, capsys):
        inp = tmp_path / "points.csv"
        inp.write_text("x0,x1\n0.1,0.2\n0.3,abc\n")
        with pytest.raises(SystemExit) as info:
            main(["embed", "--level", "2", "--input", str(inp),
                  "--output", str(tmp_path / "f.txt")])
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            f"eof: error: {inp}: row 3, column 2: cell 'abc' is not a finite number\n")
        assert not (tmp_path / "f.txt").exists()

    def test_negative_seed_exits_with_usage(self, tmp_path, capsys):
        inp = tmp_path / "points.csv"
        write_points_csv(inp, np.full((2, 2), 0.5))
        with pytest.raises(SystemExit) as info:
            main(["embed", "--num-features", "5", "--seed", "-3", "--input",
                  str(inp), "--output", str(tmp_path / "f.txt")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--seed" in err

    def test_level_and_num_features_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["embed", "--level", "2", "--num-features", "5",
                  "--input", "x.csv", "--output", "y.txt"])


class TestTrainCommand:
    def test_regression_model_file(self, tmp_path, capsys):
        ds = bench.synthetic_rkhs_dataset(N_train=150, N_test=2, seed=0)
        data = tmp_path / "train.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        model_path = tmp_path / "model.txt"
        main(["train", "--task", "reg", "--kernel", "laplace", "--omega", "2.0",
              "--level", "3", "--data", str(data), "--model-out",
              str(model_path)])
        model = learn.load_model(model_path)
        assert len(model.weights) == len(enumerate_sparse_grid(2, 3))
        assert model.task == learn.REGRESSION
        assert "test mse" in capsys.readouterr().out

    def test_byte_order_mark_csv_trains(self, tmp_path, capsys):
        # a target-first CSV as Excel saves it: byte-order mark, CRLF
        ds = bench.synthetic_rkhs_dataset(N_train=60, N_test=2, seed=0)
        rows = "".join(f"{t!r},{x0!r},{x1!r}\r\n"
                       for t, (x0, x1) in zip(ds.y_train.tolist(), ds.X_train.tolist()))
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + f"target,x0,x1\r\n{rows}".encode())
        model_path = tmp_path / "model.txt"
        main(["train", "--task", "reg", "--level", "2", "--data", str(data),
              "--model-out", str(model_path)])
        assert model_path.read_text().startswith(f"# {learn.MODEL_FORMAT}\n")
        assert len(learn.load_model(model_path).weights) == 5

    @pytest.mark.parametrize("args, line", [
        (["--level", "3"], "level=3 M=31 seed=None"),
        (["--num-features", "20", "--seed", "4"], "level=3 M=20 seed=4"),
        (["--num-features", "51", "--seed", "2"], "level=4 M=51 seed=2")])
    def test_design_line_names_level_size_and_seed(self, tmp_path, args, line):
        ds = bench.synthetic_rkhs_dataset(N_train=150, N_test=2, D=3, seed=0)
        data = tmp_path / "train.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        model_path = tmp_path / "model.txt"
        main(["train", "--task", "reg", *args, "--data", str(data),
              "--model-out", str(model_path)])
        assert f"# design={line}" in model_path.read_text().splitlines()

    def test_fits_through_fit_and_score_once(self, tmp_path, monkeypatch):
        ds = bench.synthetic_rkhs_dataset(N_train=60, N_test=2, seed=0)
        data = tmp_path / "train.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        real = bench.fit_and_score
        calls = []

        def counted(dataset, featurize, lam):
            calls.append(featurize.func)
            return real(dataset, featurize, lam)

        monkeypatch.setattr(bench, "fit_and_score", counted)
        main(["train", "--task", "reg", "--level", "2", "--data", str(data),
              "--model-out", str(tmp_path / "model.txt")])
        assert calls == [embed_batch]

    def test_classification_path(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 1.0, (120, 2))
        y = np.where(X[:, 0] > 0.5, 1.0, 0.0)
        data = tmp_path / "clf.csv"
        write_labeled_csv(data, X, y)
        main(["train", "--task", "clf", "--level", "2", "--data", str(data),
              "--model-out", str(tmp_path / "m.txt")])
        assert "error rate" in capsys.readouterr().out

    def test_lambda_is_auto_or_positive_number(self, tmp_path, capsys):
        ds = bench.synthetic_rkhs_dataset(N_train=60, N_test=2, seed=0)
        data = tmp_path / "train.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        model_path = tmp_path / "model.txt"
        args = ["train", "--task", "reg", "--level", "2", "--data", str(data),
                "--model-out", str(model_path), "--lambda"]
        for bad in ("abc", "-1", "0", "nan", "inf", ""):
            with pytest.raises(SystemExit) as info:
                main(args + [bad])
            assert info.value.code == 2
            assert "usage:" in capsys.readouterr().err
        main(args + ["1e-6"])
        assert learn.load_model(model_path).lam == 1e-6
        main(args + ["auto"])
        assert learn.load_model(model_path).lam == learn.default_lambda(42)

    def test_line_break_in_data_name_writes_no_model(self, tmp_path, capsys):
        # the data file's name is the model file's dataset line
        ds = bench.synthetic_rkhs_dataset(N_train=40, N_test=2, seed=0)
        data = tmp_path / "a\n1.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        model_path = tmp_path / "model.txt"
        with pytest.raises(SystemExit) as info:
            main(["train", "--task", "reg", "--level", "2", "--data", str(data),
                  "--model-out", str(model_path)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the line break in the name prints as an escape: one stderr line
        assert len(captured.err.splitlines()) == 1
        escaped = str(data).replace("\n", "\\n")
        assert captured.err.startswith(f"eof: error: {escaped}: ")
        assert "'dataset'" in captured.err
        assert not model_path.exists()

    @pytest.mark.parametrize("flag, bad", [
        ("--omega", "-1"), ("--omega", "0"), ("--omega", "nan"),
        ("--omega", "abc"), ("--level", "0"), ("--level", "-2"),
        ("--level", "2.5"), ("--level", "1023"), ("--num-features", "0"),
        ("--num-features", "x"), ("--split", "1.5"), ("--split", "0"),
        ("--split", "1"), ("--split", "-0.2"), ("--seed", "-1")])
    def test_out_of_range_flags_exit_with_usage(self, tmp_path, capsys, flag,
                                                bad):
        ds = bench.synthetic_rkhs_dataset(N_train=40, N_test=2, seed=0)
        data = tmp_path / "train.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        design = [] if flag in ("--level", "--num-features") else ["--level", "2"]
        with pytest.raises(SystemExit) as info:
            main(["train", "--task", "reg", "--data", str(data), "--model-out",
                  str(tmp_path / "m.txt"), *design, flag, bad])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err


@pytest.mark.parametrize("command", [
    ["embed", "--output", "f.txt", "--input"],
    ["train", "--task", "reg", "--data"]], ids=["embed", "train"])
def test_too_deep_level_is_a_usage_error_before_any_read(tmp_path, capsys,
                                                         command):
    # the input does not exist: only a check before the read exits with usage
    with pytest.raises(SystemExit) as info:
        main([*command, str(tmp_path / "missing.csv"), "--level", "1023"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--level" in err and "1..1022" in err
    assert "missing.csv" not in err


def test_design_past_the_int64_column_count_exits_2(tmp_path, capsys):
    # --level 53 passes the level rule, but the full design at D = 3 has over
    # 2^63 - 1 columns: a library error, one line, before any output
    data = tmp_path / "small.csv"
    write_points_csv(data, np.random.default_rng(0).uniform(size=(5, 3)))
    out = tmp_path / "deep.txt"
    with pytest.raises(SystemExit) as info:
        main(["embed", "--input", str(data), "--level", "53", "--output", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"eof: error: {data}: the column count of the "
                                   "level-53 design at D=3 must be an integer")
    assert captured.err.count("\n") == 1
    assert not out.exists()


class TestBenchCommand:
    def test_output_files_written(self, tmp_path, capsys):
        ds = bench.synthetic_rkhs_dataset(N_train=120, N_test=2, seed=2)
        data = tmp_path / "bench.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        out_dir = tmp_path / "results"
        main(["bench", "--data", str(data), "--task", "reg",
              "--methods", "eof,rks", "--m", "5,17", "--runs", "2",
              "--seed", "3", "--out", str(out_dir)])
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["results.csv", "table.txt"]
        table = (out_dir / "table.txt").read_text()
        assert table.splitlines()[0].split() == \
            ["method", "M", "M0", "T_train", "nnz_F", "mean_error", "std_error"]
        assert "results written" in capsys.readouterr().out

    def test_unknown_method_rejected(self, tmp_path, capsys):
        # a usage error: the --data file, which does not exist, is never read
        with pytest.raises(SystemExit) as info:
            main(["bench", "--data", str(tmp_path / "missing.csv"), "--task",
                  "reg", "--methods", "eof,nystrom", "--m", "4",
                  "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "nystrom" in err
        assert not (tmp_path / "out").exists()

    def test_default_methods_are_all_methods(self):
        args = build_parser().parse_args(["bench", "--data", "b.csv", "--task",
                                          "reg", "--m", "4"])
        assert tuple(args.methods) == bench.ALL_METHODS

    def test_split_outside_unit_interval_exits_with_usage(self, tmp_path,
                                                           capsys):
        ds = bench.synthetic_rkhs_dataset(N_train=40, N_test=2, seed=0)
        data = tmp_path / "b.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        with pytest.raises(SystemExit) as info:
            main(["bench", "--data", str(data), "--task", "reg",
                  "--methods", "rks", "--m", "4", "--split", "1.5"])
        assert info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, bad", [
        ("--m", "0"), ("--m", "abc"), ("--m", "5,,7"), ("--m", "5,0"),
        ("--methods", "eof,"), ("--runs", "0"),
        ("--pool-factor", "0"), ("--omega", "2"), ("--kernel", "bb"),
        ("--split", "nan"), ("--seed", "-1")])
    def test_out_of_range_flags_exit_with_usage(self, tmp_path, capsys, flag,
                                                bad):
        ds = bench.synthetic_rkhs_dataset(N_train=40, N_test=2, seed=0)
        data = tmp_path / "b.csv"
        write_labeled_csv(data, ds.X_train, ds.y_train)
        args = {"--m": "4", "--runs": "1", flag: bad}
        with pytest.raises(SystemExit) as info:
            main(["bench", "--data", str(data), "--task", "reg",
                  "--methods", "rks", "--out", str(tmp_path / "out"),
                  *[v for item in args.items() for v in item]])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out_flag", [
    (["bench", "--task", "reg", "--m", "5", "--runs", "1"], "--out"),
    (["train", "--task", "reg", "--level", "2"], "--model-out")],
    ids=["bench", "train"])
def test_library_error_exits_2_naming_the_input(tmp_path, capsys, command,
                                                 out_flag):
    # a CSV with only the target column: a one-line error, no traceback
    data = tmp_path / "target_only.csv"
    data.write_text("target\n0.1\n0.5\n0.9\n0.3\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*command, "--data", str(data), out_flag, str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == (f"eof: error: {data}: no feature column besides "
                            "the target 'target'\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("", "row 1: empty file"), ("x0,target\n", "no data rows")],
    ids=["empty-file", "header-only"])
def test_train_on_a_file_without_data_rows_exits_2(tmp_path, capsys, text,
                                                   message):
    data = tmp_path / "data.csv"
    data.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(["train", "--task", "reg", "--level", "2", "--data", str(data),
              "--model-out", str(tmp_path / "m.txt")])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"eof: error: {data}: {message}\n"
    assert not (tmp_path / "m.txt").exists()


EMBED = ["embed", "--level", "2"]
TRAIN = ["train", "--task", "reg", "--level", "2"]
BENCH = ["bench", "--task", "reg", "--m", "5", "--runs", "1"]


@pytest.mark.parametrize("command, files, bad", [
    (EMBED, {"--input": "missing.csv", "--output": "f.txt"}, "missing.csv"),
    (TRAIN, {"--data": "missing.csv", "--model-out": "m.txt"}, "missing.csv"),
    (BENCH, {"--data": "missing.csv", "--out": "out"}, "missing.csv"),
    (TRAIN, {"--data": "a_dir", "--model-out": "m.txt"}, "a_dir"),
    (BENCH, {"--data": "a_dir", "--out": "out"}, "a_dir"),
    (EMBED, {"--input": "data.csv", "--output": "no_dir/f.txt"}, "no_dir/f.txt"),
    (TRAIN, {"--data": "data.csv", "--model-out": "no_dir/m.txt"},
     "no_dir/m.txt"),
    (BENCH, {"--data": "data.csv", "--out": "a_file"}, "a_file"),
    (EMBED, {"--input": "binary.csv", "--output": "f.txt"}, "binary.csv"),
    (TRAIN, {"--data": "binary.csv", "--model-out": "m.txt"}, "binary.csv")],
    ids=["embed-missing-input", "train-missing-data", "bench-missing-data",
         "train-dir-data", "bench-dir-data", "embed-output-no-dir",
         "train-model-out-no-dir", "bench-out-is-file", "embed-binary-input",
         "train-binary-data"])
def test_file_error_exits_2_with_one_line(tmp_path, capsys, command, files,
                                          bad):
    ds = bench.synthetic_rkhs_dataset(N_train=40, N_test=2, seed=0)
    write_labeled_csv(tmp_path / "data.csv", ds.X_train, ds.y_train)
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    (tmp_path / "binary.csv").write_bytes(b"x0,target\n\x89PNG\r\n\x1a\n\x00\xff")
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as info:
        main([*command, *[v for flag, name in files.items()
                          for v in (flag, str(tmp_path / name))]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"eof: error: {tmp_path / bad}: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_every_public_name_resolves():
    namespace = {}
    exec("from eof import *", namespace)
    assert sorted(set(eof.__all__) - set(namespace)) == []


def test_import_loads_no_kdtree_or_special_functions():
    # a fresh interpreter: this test process already imported scipy.special
    src = os.path.dirname(os.path.dirname(os.path.abspath(eof.__file__)))
    code = ("import sys, eof, eof.bench, eof.cli; "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.special') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_bench_loads_no_spatial_special_or_linalg(tmp_path):
    # the bandwidth search is numpy's; a fresh interpreter runs the command
    ds = bench.synthetic_rkhs_dataset(N_train=120, N_test=2, seed=4)
    data = tmp_path / "bench.csv"
    write_labeled_csv(data, ds.X_train, ds.y_train)
    src = os.path.dirname(os.path.dirname(os.path.abspath(eof.__file__)))
    code = ("import sys; from eof.cli import main; "
            f"main(['bench', '--data', {str(data)!r}, '--task', 'reg', "
            f"'--m', '5', '--runs', '1', '--out', {str(tmp_path / 'out')!r}]); "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.special', "
            "'scipy.linalg') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "results written" in out
    assert out.splitlines()[-1] == "[]"


def test_train_clf_loads_no_special_functions(tmp_path):
    # the logistic sigma is numpy's; a fresh interpreter runs the command
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, (120, 2))
    data = tmp_path / "clf.csv"
    write_labeled_csv(data, X, np.where(X[:, 0] > 0.5, 1.0, 0.0))
    src = os.path.dirname(os.path.dirname(os.path.abspath(eof.__file__)))
    code = ("import sys; from eof.cli import main; "
            f"main(['train', '--task', 'clf', '--level', '2', '--data', {str(data)!r}, "
            f"'--model-out', {str(tmp_path / 'm.txt')!r}]); "
            "print('scipy.special' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "error rate" in out
    assert out.splitlines()[-1] == "False"


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_cli_examples_parse():
    # the ```sh block of README's CLI section, as the Library example is run
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("eof ")]
    assert {argv[1] for argv in commands} == {"embed", "train", "bench"}
    for argv in commands:
        build_parser().parse_args(argv[1:])
