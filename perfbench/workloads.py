"""The benchmark's workloads: inputs made from a seed, passes, output checks.

``make_inputs`` runs in run.py and writes everything a workload reads
into a scratch directory, together with ``spec.json``.  The worker process
calls ``setup`` (import the library, build or load the inputs) and then
``run_pass`` repeatedly; the library sees only the generated inputs.

Workloads, and why each is here:

compare-d2
    ``bench.run_benchmark`` on the acceptance-gate dataset (criterion 7:
    synthetic Laplace expansion, D=2, 2000 train / 500 test points), all
    five methods at M in {17, 51, 129}, 10 seeded runs each: 150 small fits
    per pass, dominated by LKRF/EERF pool scoring and per-run embedding.
    M=51 is not a sparse-grid size, so the design-selection rule reaches
    ``test_mse``.  The dataset is the gate's own (seed 11); ``--seed`` sets
    the experiment seed, i.e. every truncation and random-feature draw.  A
    dataset drawn per seed would move the median MSE by more than 100%
    between seeds (different target functions), which no bound can hold.
train-reg-d8
    ``eof train --task reg --level 4 --lambda 1e-6`` on a D=8 CSV with
    10000 training rows: M=1121, 165 level vectors per point, so embedding
    dominates and solver changes are bypassed.
train-wide-d2
    ``eof train`` at ``--level 9`` on one D=2 input set (M=4097, 45 level
    vectors), first ``--task reg`` and then ``--task clf``: the dense Gram
    and the M x M solves dominate, one direct solve against Newton steps.

For the two train workloads the target function is fixed and ``--seed``
draws the points, the noise and the label flips.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
import time
import traceback

NAMES = ("compare-d2", "train-reg-d8", "train-wide-d2")

# compare-d2: the criterion-7 dataset and experiment shape
CRITERION_DATASET = dict(N_train=2000, N_test=500, D=2, omega=2.0,
                         n_centers=5, noise=0.05, seed=11)
COMPARE_M = (17, 51, 129)
COMPARE_FULL_M = (17, 129)     # full sparse-grid designs for D=2
COMPARE_RUNS = 10

# train-*: rows such that the CLI's 0.7 split leaves 10000 training rows
TRAIN_ROWS = 14286
TRAIN_SPLIT = 0.7
NOISE = 0.2          # uniform noise half-width: bounded, so the min-max
LABEL_FLIP = 0.15    # target scaling barely depends on the seed
# At D=8, level 4 the sqrt(C)-scaled features hold ~1e-5 of the kernel's
# diagonal, so the default lambda = N^-1/2 shrinks the fit to predicting 0
# (test MSE equal to the zero predictor's to 4 digits).  The solve costs the
# same for any lambda; this one lets the output check tell a fit from none.
D8_LAMBDA = "1e-6"


def _seeds(seed, workload):
    import numpy as np
    ss = np.random.SeedSequence([int(seed), NAMES.index(workload)])
    return np.random.default_rng(ss), int(ss.generate_state(1)[0] % 2**31)


def _target_d8(X):
    # an additive profile, clipped at about two standard deviations so that
    # the extremes, which set the CLI's min-max target scaling, occur in
    # every sample
    import numpy as np
    s = np.sin(math.pi * X).mean(axis=1)
    return np.clip((s - 2.0 / math.pi) / 0.2176, -1.0, 1.0)


def _target_d2(X):
    import numpy as np
    return np.sin(2.0 * math.pi * X[:, 0]) * np.cos(3.0 * X[:, 1])


def _write_csv(path, X, y):
    import numpy as np
    header = ",".join([f"x{j}" for j in range(X.shape[1])] + ["target"])
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g",
               header=header, comments="")


def _train_command(task, level, data, model, split_seed, *extra):
    return ["train", "--task", task, "--level", str(level), "--data", data,
            "--split", str(TRAIN_SPLIT), "--seed", str(split_seed),
            "--model-out", model, *extra]


def make_inputs(workload, seed, tmp):
    """Write the workload's inputs under ``tmp``; return the path of its spec."""
    rng, sub_seed = _seeds(seed, workload)
    spec = {"workload": workload, "seed": seed}
    if workload == "compare-d2":
        spec["run_seed"] = sub_seed
    elif workload == "train-reg-d8":
        X = rng.uniform(0.0, 1.0, (TRAIN_ROWS, 8))
        y = _target_d8(X) + rng.uniform(-NOISE, NOISE, TRAIN_ROWS)
        data = os.path.join(tmp, "reg_d8.csv")
        _write_csv(data, X, y)
        spec["commands"] = [{
            "argv": _train_command("reg", 4, data, os.path.join(tmp, "reg.model"),
                                   sub_seed, "--lambda", D8_LAMBDA),
            "M": 1121, "metric": "test_mse"}]
    elif workload == "train-wide-d2":
        X = rng.uniform(0.0, 1.0, (TRAIN_ROWS, 2))
        f = _target_d2(X)
        y = f + rng.uniform(-NOISE, NOISE, TRAIN_ROWS)
        labels = (f > 0.0).astype(float)
        flip = rng.uniform(size=TRAIN_ROWS) < LABEL_FLIP
        labels[flip] = 1.0 - labels[flip]
        reg, clf = os.path.join(tmp, "reg_d2.csv"), os.path.join(tmp, "clf_d2.csv")
        _write_csv(reg, X, y)
        _write_csv(clf, X, labels)
        spec["commands"] = [
            {"argv": _train_command("reg", 9, reg, os.path.join(tmp, "reg.model"),
                                    sub_seed),
             "M": 4097, "metric": "test_mse"},
            {"argv": _train_command("clf", 9, clf, os.path.join(tmp, "clf.model"),
                                    sub_seed),
             "M": 4097, "metric": "test_error_rate"}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(tmp, "spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


class PassResult:
    """One pass: its wall time, fits attempted and failed, checks, metrics."""

    def __init__(self):
        self.seconds = 0.0
        self.fits = 0
        self.failed_fits = 0
        self.checks = {}        # check name -> passed
        self.metrics = {}       # workload-level quality figures

    def check(self, name, ok):
        self.checks[name] = bool(ok)

    @property
    def attempted(self):
        return self.fits + len(self.checks)

    @property
    def failed(self):
        return self.failed_fits + sum(not ok for ok in self.checks.values())


def setup(spec):
    """Import the library and build the in-memory inputs.  Returns the state
    ``run_pass`` needs and the seconds ``bench.synthetic_rkhs_dataset`` took."""
    import eof.bench
    import eof.cli  # noqa: F401
    if spec["workload"] != "compare-d2":
        return {}, 0.0
    t0 = time.perf_counter()
    ds = eof.bench.synthetic_rkhs_dataset(**CRITERION_DATASET)
    return {"dataset": ds}, time.perf_counter() - t0


def run_pass(spec, state):
    """Run one pass, timing it, then check its outputs."""
    if spec["workload"] == "compare-d2":
        return _compare_pass(spec, state)
    return _train_pass(spec, state)


def _compare_pass(spec, state):
    import numpy as np
    from eof import bench
    ds = state["dataset"]
    out = PassResult()
    out.fits = len(bench.ALL_METHODS) * len(COMPARE_M) * COMPARE_RUNS
    t0 = time.perf_counter()
    try:
        results = bench.run_benchmark(ds, bench.ALL_METHODS, COMPARE_M,
                                      runs=COMPARE_RUNS, seed=spec["run_seed"])
        table = bench.report(results, fmt="text")
    except Exception:
        traceback.print_exc()
        out.seconds = time.perf_counter() - t0
        out.failed_fits = out.fits
        return out
    out.seconds = time.perf_counter() - t0

    out.failed_fits = sum(r.n_failed for r in results)
    cells = {(r.method, r.M): r for r in results}
    out.check("all cells reported",
              set(cells) == {(m, M) for m in bench.ALL_METHODS for M in COMPARE_M}
              and len(table.splitlines()) == len(cells) + 1)
    out.check("every cell has all runs with finite errors",
              all(len(r.errors) == COMPARE_RUNS and np.all(np.isfinite(r.errors))
                  for r in results))
    out.check("full designs are deterministic across seeds",
              all(cells.get((bench.EOF_METHOD, M)) is not None
                  and cells[(bench.EOF_METHOD, M)].std_error < 1e-12
                  for M in COMPARE_FULL_M))
    trivial = float(np.mean(ds.y_test ** 2))
    eof_med = [float(np.median(r.errors)) for r in results
               if r.method == bench.EOF_METHOD and r.errors]
    base_med = [float(np.median(r.errors)) for r in results
                if r.method != bench.EOF_METHOD and r.errors]
    out.check("multilevel fits beat the zero predictor",
              eof_med and max(eof_med) < trivial)
    if eof_med and base_med:
        out.metrics["test_mse"] = statistics.fmean(eof_med)
        out.metrics["baseline_mse"] = statistics.fmean(base_med)
    return out


_ERROR_LINE = re.compile(r"^test (?:mse|error rate): (\S+)", re.MULTILINE)


def _trivial_error(argv):
    """Test error of the best constant predictor on the command's own split:
    0 for regression (targets are scaled into [-1, 1]), the more frequent
    label for classification."""
    import numpy as np
    from eof import bench, learn
    arg = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    task = learn.REGRESSION if arg["--task"] == "reg" else learn.CLASSIFICATION
    raw = bench.load_csv(arg["--data"], "target", task)
    y = bench.standardize(raw, float(arg["--split"]), int(arg["--seed"])).y_test
    if task == learn.REGRESSION:
        return float(np.mean(y ** 2))
    return float(min(np.mean(y > 0), np.mean(y < 0)))


def _train_pass(spec, state):
    import numpy as np
    from eof import cli, learn
    out = PassResult()
    outputs = []
    t0 = time.perf_counter()
    for cmd in spec["commands"]:
        model = cmd["argv"][cmd["argv"].index("--model-out") + 1]
        if os.path.exists(model):
            os.remove(model)
        printed = io.StringIO()
        out.fits += 1
        try:
            with contextlib.redirect_stdout(printed):
                cli.main(cmd["argv"])
        except Exception:
            traceback.print_exc()
            out.failed_fits += 1
            outputs.append(None)
            continue
        outputs.append((model, printed.getvalue()))
    out.seconds = time.perf_counter() - t0

    for cmd, result in zip(spec["commands"], outputs):
        if result is None:
            continue
        model, printed = result
        task = cmd["argv"][cmd["argv"].index("--task") + 1]
        try:
            weights = learn.load_model(model).weights
        except Exception:
            traceback.print_exc()
            weights = np.empty(0)
        out.check(f"{task}: model loads with M finite weights",
                  len(weights) == cmd["M"] and np.all(np.isfinite(weights)))
        found = _ERROR_LINE.search(printed)
        err = float(found.group(1)) if found else math.nan
        if model not in state:
            state[model] = _trivial_error(cmd["argv"])
        # by 1%, so that a constant model cannot pass on the rounding of
        # the printed error
        out.check(f"{task}: test error beats the trivial predictor",
                  err < 0.99 * state[model])
        if math.isfinite(err):
            out.metrics[cmd["metric"]] = err
    return out
