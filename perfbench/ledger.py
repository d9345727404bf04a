#!/usr/bin/env python3
"""Run every workload on several seeds and write the results as a ledger.

    python3 perfbench/ledger.py --out perfbench/BENCH_seed.json

For each workload: the end-to-end metrics of one untraced run on each of
SEEDS (median, quartiles and quartile spread as a share of the median),
and the per-layer metrics of one traced run on the first seed.  Each run
measures for BENCHMARK.json's ``run_seconds``.  From the traced
runs it fits the paper's two cost laws:

* embedding costs O(#levels) per point: ``embedding.ns_per_row_level``
  should be the same on train-reg-d8 (165 levels) and train-wide-d2 (45);
* training is linear in nnz(F): ``learn.ridge_fit.s`` between the two train
  workloads, as a power of the nnz ratio and of the M ratio (an exponent of
  1 against nnz means linear in nnz; 3 against M means dense cubic solves).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = tuple(range(1, 11))


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    machine = next(json.loads(l.split(":", 1)[1]) for l in lines
                   if l.startswith("machine:"))
    result = json.loads(lines[-1])
    # figures printed beside the metrics: unscaled times, workload quality
    for line in lines:
        if line.endswith(("unscaled", "workload-specific")):
            name, value, unit = line.split()[:3]
            result["metrics"][name] = {"value": float(value), "unit": unit}
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return result, machine


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def _exponent(a, b, xa, xb):
    return math.log(b / a) / math.log(xb / xa) if a and b and xa != xb else None


def cost_laws(layers):
    d8, wide = layers["train-reg-d8"], layers["train-wide-d2"]
    emb = "embedding.ns_per_row_level"
    return {
        "embedding_ns_per_row_level": {
            "train-reg-d8": d8[emb], "train-wide-d2": wide[emb],
            "ratio_d8_over_wide": d8[emb] / wide[emb],
            "levels": [d8["embedding.levels"], wide["embedding.levels"]],
            "law": "O(#levels) per point holds if the ratio is 1"},
        "ridge_fit": {
            "s": [d8["learn.ridge_fit.s"], wide["learn.ridge_fit.s"]],
            "M": [d8["learn.ridge_fit.M"], wide["learn.ridge_fit.M"]],
            "nnz_F": [d8["learn.ridge_fit.nnz"], wide["learn.ridge_fit.nnz"]],
            "exponent_vs_nnz": _exponent(d8["learn.ridge_fit.s"],
                                         wide["learn.ridge_fit.s"],
                                         d8["learn.ridge_fit.nnz"],
                                         wide["learn.ridge_fit.nnz"]),
            "exponent_vs_M": _exponent(d8["learn.ridge_fit.s"],
                                       wide["learn.ridge_fit.s"],
                                       d8["learn.ridge_fit.M"],
                                       wide["learn.ridge_fit.M"]),
            "ns_per_nnz": [d8["learn.ridge_fit.ns_per_nnz"],
                           wide["learn.ridge_fit.ns_per_nnz"]],
            "ns_per_M3": [d8["learn.ridge_fit.ns_per_M3"],
                          wide["learn.ridge_fit.ns_per_M3"]],
            "law": "linear in nnz(F) holds if exponent_vs_nnz is 1"},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also write the ledger to this file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    ledger = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    layers = {}
    for name in workloads.NAMES:
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        ledger["machine"] = runs[-1][1]
        metrics = {}
        for result, _ in runs:
            for key, m in result["metrics"].items():
                metrics.setdefault(key, []).append(m["value"])
        traced, _ = run(name, SEEDS[0], seconds, 1)
        layers[name] = {k: m["value"] for k, m in traced["metrics"].items()}
        ledger["workloads"][name] = {
            "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "failed": sum(r["failed"] for r, _ in runs),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "end_to_end": {k: summary(v) for k, v in metrics.items()},
            "per_layer": layers[name]}
    ledger["cost_laws"] = cost_laws(layers)
    text = json.dumps(ledger, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
