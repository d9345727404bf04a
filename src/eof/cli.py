"""Command line interface: ``eof embed``, ``eof train``, ``eof bench``."""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import bench, learn
from .design import enumerate_sparse_grid, level_for_feature_count, select_design
from .embedding import embed_batch
from .errors import EofError
from .kernels import KernelSpec


def _number_in(lo, hi, expected):
    """An argparse type: a number strictly between ``lo`` and ``hi``."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


_positive = _number_in(0.0, math.inf, "a positive number")        # --omega
_fraction = _number_in(0.0, 1.0, "a number between 0 and 1")     # --split


def _lambda(text):
    """``--lambda``: ``auto`` or a number that ``learn._lambda`` accepts."""
    try:
        return text if text == "auto" else learn._lambda(float(text))
    except (ValueError, EofError):
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive number, got {text!r}")


def _count(text):
    """``--level``, ``--num-features``, ``--runs``, ``--pool-factor``: an
    integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _counts(text):
    """``--m``: a comma-separated list of integers >= 1."""
    try:
        return [_count(part) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {text!r}")


def _add_kernel_flags(p):
    p.add_argument("--kernel", choices=["laplace", "sobolev", "bb"],
                   default="laplace")
    p.add_argument("--omega", type=_positive, default=1.0)


def _add_design_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--level", type=_count, help="full design at level n")
    group.add_argument("--num-features", type=_count,
                       help="M features via random truncation of the smallest "
                            "full design that holds them")
    p.add_argument("--seed", type=int, default=0)


def _design(spec, args):
    if args.level is not None:
        return enumerate_sparse_grid(spec.dim, args.level)
    return select_design(spec, args.num_features, args.seed)


def _dataset(args):
    task = learn.REGRESSION if args.task == "reg" else learn.CLASSIFICATION
    raw = bench.load_csv(args.data, args.target, task)
    return bench.standardize(raw, split_ratio=args.split, seed=args.seed)


def cmd_embed(args):
    _, X = bench.read_table(args.input)
    spec = KernelSpec(args.kernel, omega=args.omega, dim=X.shape[1])
    S = _design(spec, args)
    F = embed_batch(spec, S, X).tocoo()
    with open(args.output, "w") as fh:
        fh.write(f"# {F.shape[0]} {F.shape[1]} {F.nnz}\n")
        for r, c, v in zip(F.row, F.col, F.data):
            fh.write(f"{r},{c},{float(v)!r}\n")
    print(f"wrote {F.nnz} nonzeros ({F.shape[0]}x{F.shape[1]}) to {args.output}")


def cmd_train(args):
    ds = _dataset(args)
    spec = KernelSpec(args.kernel, omega=args.omega, dim=ds.D)
    S = _design(spec, args)
    F_train = embed_batch(spec, S, ds.X_train)
    F_test = embed_batch(spec, S, ds.X_test)
    lam = (learn.default_lambda(ds.N_train) if args.lam == "auto"
           else args.lam)
    model = learn.fit(ds.task, F_train, ds.y_train, lam)
    err = learn.test_error(model, F_test, ds.y_test)
    # --num-features: the full design that select_design truncates, and the seed
    level = args.level or level_for_feature_count(ds.D, args.num_features)
    seed = None if args.level else args.seed
    meta = {"kernel": args.kernel, "omega": repr(args.omega),
            "design": f"level={level} M={len(S)} seed={seed}",
            "dataset": ds.name}
    learn.save_model(model, args.model_out, meta)
    kind = "mse" if ds.task == learn.REGRESSION else "error rate"
    print(f"test {kind}: {err:.6g}  (M={len(S)}, lambda={lam:.4g}, "
          f"nnz_F={model.nnz_F}) -> {args.model_out}")


def cmd_bench(args):
    ds = _dataset(args)
    try:
        results = bench.run_benchmark(ds, args.methods.split(","), args.m,
                                      args.runs, args.seed,
                                      pool_factor=args.pool_factor)
    except ValueError as exc:   # an unknown method name
        raise SystemExit(str(exc))
    table = bench.report(results, fmt="text")
    os.makedirs(args.out, exist_ok=True)
    for name, text in (("results.csv", bench.report(results, fmt="csv")),
                       ("table.txt", table),
                       ("curves.csv", bench.curves_csv(results))):
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(text)
    print(table)
    print(f"results written to {args.out}/")


def build_parser():
    parser = argparse.ArgumentParser(prog="eof",
                                     description="sparse multilevel kernel "
                                                 "features and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="embed a CSV into sparse features")
    _add_kernel_flags(p_embed)
    _add_design_flags(p_embed)
    p_embed.add_argument("--input", required=True)
    p_embed.add_argument("--output", required=True)
    p_embed.set_defaults(func=cmd_embed)

    p_train = sub.add_parser("train", help="train a model on sparse features")
    _add_kernel_flags(p_train)
    _add_design_flags(p_train)
    p_train.add_argument("--task", choices=["reg", "clf"], required=True)
    p_train.add_argument("--lambda", dest="lam", type=_lambda, default="auto",
                         help="regularization strength or 'auto' (N^-1/2)")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--target", default="target")
    p_train.add_argument("--split", type=_fraction, default=0.7)
    p_train.add_argument("--model-out", default="model.txt")
    p_train.set_defaults(func=cmd_train)

    p_bench = sub.add_parser("bench", help="compare methods on a dataset")
    p_bench.add_argument("--data", required=True)
    p_bench.add_argument("--target", default="target")
    p_bench.add_argument("--task", choices=["reg", "clf"], required=True)
    p_bench.add_argument("--methods", default="eof,rks,orf,lkrf,eerf")
    p_bench.add_argument("--m", type=_counts, required=True,
                         help="comma-separated feature counts")
    p_bench.add_argument("--runs", type=_count, default=50)
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--split", type=_fraction, default=0.7)
    p_bench.add_argument("--pool-factor", type=_count, default=10)
    p_bench.add_argument("--out", default="results")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
