"""Command line interface: ``eof embed``, ``eof train``, ``eof bench``."""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import bench, kernels, learn
from .design import enumerate_sparse_grid, select_design
from .embedding import embed_batch
from .errors import (EofError, ParseError, check_M, check_choice, check_positive,
                     check_seed)
from .kernels import KernelSpec


def _rule(check, expected, parse=float, keep=(), many=False):
    """The one argparse type: ``parse(text)`` (a list over its comma-separated
    parts if ``many``) once the library rule ``check`` passes it; ``keep`` as is."""
    def rule(text):
        if text in keep:
            return text
        try:
            values = [parse(part) for part in (text.split(",") if many else [text])]
            for value in values:
                check(value)
        except (ValueError, EofError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return values if many else values[0]
    return rule


_lambda = _rule(partial(check_positive, what="lambda"),
                "'auto' or a positive number", keep=("auto",))
_omega = _rule(partial(check_positive, what="omega"), "a positive finite number")
_split = _rule(partial(check_positive, what="split", below=1), "a number between 0 and 1")
_level = _rule(kernels._check_levels, f"an integer in 1..{kernels.MAX_LEVEL}", int)
_seed = _rule(check_seed, "an integer >= 0", int)
_positive = _rule(check_M, "an integer >= 1", int)     # --num-features, --runs
_positive_list = _rule(check_M, "comma-separated integers >= 1", int, many=True)
_method_list = _rule(partial(check_choice, choices=bench.ALL_METHODS, what="method"),
                     f"comma-separated names from {','.join(bench.ALL_METHODS)}",
                     str, many=True)
_ESCAPES = {c: repr(chr(c))[1:-1] for c in range(32)}   # C0 controls, escaped


def _add_data_flags(p):
    p.add_argument("--task", choices=["reg", "clf"], required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="target")
    p.add_argument("--split", type=_split, default=0.7)


def _add_kernel_flags(p):
    p.add_argument("--kernel", default=kernels.LAPLACE, choices=[
        kernels.LAPLACE, kernels.SOBOLEV, kernels.BROWNIAN_BRIDGE])
    p.add_argument("--omega", type=_omega, default=1.0)


def _add_design_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--level", type=_level, help="full design at level n")
    group.add_argument("--num-features", type=_positive,
                       help="M features via random truncation of the smallest "
                            "full design that holds them")
    p.add_argument("--seed", type=_seed, default=0)


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
    lam = learn.default_lambda(ds.N_train) if args.lam == "auto" else args.lam
    model, err = bench.fit_and_score(ds, partial(embed_batch, spec, S), lam)
    # the level of the full design S is cut from, and the --num-features seed
    seed = None if args.level else args.seed
    meta = {"kernel": args.kernel, "omega": repr(args.omega),
            "design": f"level={S.level} M={len(S)} seed={seed}",
            "dataset": ds.name}
    learn.save_model(model, args.model_out, meta)
    kind = "mse" if ds.task == learn.REGRESSION else "error rate"
    print(f"test {kind}: {err:.6g}  (M={len(S)}, lambda={lam:.4g}, "
          f"nnz_F={model.nnz_F}) -> {args.model_out}")


def cmd_bench(args):
    ds = _dataset(args)
    results = bench.run_benchmark(ds, args.methods, args.m, args.runs, args.seed)
    table = bench.report(results, fmt="text")
    os.makedirs(args.out, exist_ok=True)
    for name, text in (("results.csv", bench.report(results, fmt="csv")),
                       ("table.txt", table)):
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
    _add_data_flags(p_train)
    p_train.add_argument("--lambda", dest="lam", type=_lambda, default="auto",
                         help="regularization strength or 'auto' (N^-1/2)")
    p_train.add_argument("--model-out", default="model.txt")
    p_train.set_defaults(func=cmd_train)

    p_bench = sub.add_parser("bench", help="compare methods on a dataset")
    _add_data_flags(p_bench)
    p_bench.add_argument("--methods", type=_method_list, default=bench.ALL_METHODS,
                         help="comma-separated method names (default: all)")
    p_bench.add_argument("--m", type=_positive_list, required=True,
                         help="comma-separated feature counts")
    p_bench.add_argument("--runs", type=_positive, default=50)
    p_bench.add_argument("--seed", type=_seed, default=7)
    p_bench.add_argument("--out", default="results")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EofError, OSError) as exc:
        # a library or file error exits 2, as a usage error does, with one
        # line naming the file: a file error's own, else the input file and,
        # for a parse error, the row and column in it; C0 control characters
        # (a line break in a file name) print as escapes, keeping one line
        where, message = [args.input if args.command == "embed" else args.data], exc
        if isinstance(exc, OSError):
            where, message = [exc.filename or where[0]], exc.strerror or exc
        elif isinstance(exc, ParseError) and exc.row is not None:
            where.append(f"row {exc.row}" + (f", column {exc.col}" if exc.col else ""))
        line = f"eof: error: {': '.join(map(str, where))}: {message}"
        parser.exit(2, line.translate(_ESCAPES) + "\n")


if __name__ == "__main__":
    sys.exit(main())
