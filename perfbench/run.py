#!/usr/bin/env python3
"""Benchmark of the eof library: one workload per call, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare-d2 --seed 1 --seconds 15 --trace 0

It writes the workload's inputs, made from ``--seed``, to a scratch
directory inside the checkout (removed on exit), then starts fresh worker
processes with ``src`` on the import path and ``EOF_THREADS`` unset:
``SETUP_PROBES`` that only time set-up, and one that sets up, runs a warm-up
pass and then times passes back to back for ``--seconds`` (see worker.py).

Times are wall times scaled to a fixed host speed (see probe.py); the
unscaled medians are printed too.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of traced
passes and the tracing overhead.  Every metric is printed by name and
unit, and the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6        # set-up processes besides the measuring worker
DEADLINE_S = 170.0      # a run must end within 180 s

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "test_mse": "1"}
# printed where the workload has them; not every workload does, so they
# are checked for correctness but carry no bound
WORKLOAD_QUALITY = {"baseline_mse": "1", "test_error_rate": "1"}


def _worker(spec, started, *flags):
    env = dict(os.environ)
    env.pop("EOF_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    remaining = DEADLINE_S - (time.perf_counter() - started)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           "--spec", spec, *flags],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(remaining, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _show(name, value, unit, note=""):
    shown = "missing" if value is None else f"{value:.6g}"
    print(f"  {name:<30} {shown:>12} {unit:<6} {note}".rstrip())


def measure(args, tmp, started):
    spec = workloads.make_inputs(args.workload, args.seed, tmp)
    # half the set-up probes run before the measuring worker and half after
    # it, so that their median spans the run's changes in host speed
    probes = SETUP_PROBES // 2 if not args.trace else 0
    setups = [_worker(spec, started, "--setup-only") for _ in range(probes)]
    res = _worker(spec, started, "--seconds", str(args.seconds),
                  "--trace", str(args.trace))
    setups.append(res)
    setups += [_worker(spec, started, "--setup-only") for _ in range(probes)]
    setup_wall_s = statistics.median(r["setup_wall_s"] for r in setups)
    pass_s = statistics.median(res["pass_s"])
    print("machine:", json.dumps(res["machine"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {len(res['pass_s'])} "
          f"timed passes after 1 warm-up pass, one client, closed loop; "
          f"wall times scaled by {res['speed_scale']:.4f} to reference speed")
    if args.trace:
        metrics = dict(res["layers"])
        metrics["bench.synthetic_rkhs_dataset.s"] = res["synthetic_rkhs_dataset_s"]
        metrics["trace.overhead_s"] = res["trace_overhead_s"]
        units = {k: spans.unit_of(k) for k in metrics}
    else:
        metrics = {"setup_s": setup_wall_s * res["speed_scale"],
                   "pass_s": pass_s,
                   "peak_rss_mb": res["peak_rss_mb"],
                   "test_mse": res["quality"].get("test_mse")}
        units = END_TO_END
    notes = {"setup_s": f"median of {len(setups)} fresh processes",
             "pass_s": f"median of {len(res['pass_s'])} passes",
             "trace.overhead_s": "median of traced minus untraced pass"}
    for name in sorted(metrics):
        _show(name, metrics[name], units[name], notes.get(name, ""))
    if not args.trace:
        _show("setup_wall_s", setup_wall_s, "s", "unscaled")
        _show("pass_wall_s", statistics.median(res["pass_wall_s"]), "s", "unscaled")
        for name, unit in WORKLOAD_QUALITY.items():
            if name in res["quality"]:
                _show(name, res["quality"][name], unit, "workload-specific")
    _show("failed_ratio", res["failed"] / res["attempted"], "1",
          f"{res['failed']} of {res['attempted']} fits and output checks")
    for name in res["failed_checks"]:
        print(f"  FAILED CHECK: {name}")

    correct = res["failed"] == 0 and all(v is not None for v in metrics.values())
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in sorted(metrics.items())}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "eof", "__init__.py")):
        print(f"perfbench: no eof sources under {ROOT}/src; run it from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        result = measure(args, tmp, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
