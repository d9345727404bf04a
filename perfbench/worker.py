"""One fresh process running one workload; started by ``run.py``.

With ``--setup-only`` it times set-up (import the library, build or load
the inputs) and exits.  Otherwise it sets up, runs one warm-up pass that is
checked but not timed, and then runs passes back to back, one client in a
closed loop, until ``--seconds`` have passed, timing the reference probe
(probe.py) after each pass.  With ``--trace 1`` every iteration runs a
traced pass and then an untraced one, back to back in the same process; the
tracing overhead is the median of their differences.  Times are reported
scaled to the probe's reference speed, and the wall times too.  The peak
RSS is that of this process, which holds nothing but the library, its
inputs and the output checks.  The result is one JSON line on standard
output.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_S, Probe  # noqa: E402


# probes timed after each pass; their median over the run sets its scale
PROBES_PER_PASS = 2


def _medians(rows):
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row[k] for row in rows if k in row) for k in keys}


def machine():
    """What the timings depend on besides the code."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(numpy),
            "EOF_THREADS": os.environ.get("EOF_THREADS", "unset")}


def _blas_threads(numpy):
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)

    state, synth_s = workloads.setup(spec)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_wall_s": setup_s}))
        return 0

    passes = [workloads.run_pass(spec, state)]   # warm-up, not timed
    walls, layers, overheads, probes = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    with Probe() as ref:
        while True:
            if args.trace:
                tracer = spans.Tracer()
                with spans.installed(tracer):
                    traced = workloads.run_pass(spec, state)
                passes.append(traced)
                probes += [ref.seconds() for _ in range(PROBES_PER_PASS)]
                layer = spans.layer_metrics(tracer)
                layer["bench.failed_seeds"] = traced.failed_fits
                layers.append(layer)
            p = workloads.run_pass(spec, state)
            passes.append(p)
            probes += [ref.seconds() for _ in range(PROBES_PER_PASS)]
            walls.append(p.seconds)
            if args.trace:
                overheads.append(traced.seconds - p.seconds)
            if time.perf_counter() >= t_end:
                break

    scale = REFERENCE_S / statistics.median(probes)
    result = {
        "speed_scale": scale,
        "setup_wall_s": setup_s,
        "synthetic_rkhs_dataset_s": synth_s * scale,
        "pass_s": [w * scale for w in walls],
        "pass_wall_s": walls,
        "quality": _medians([p.metrics for p in passes[1:]]),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failed_checks": sorted({name for p in passes
                                 for name, ok in p.checks.items() if not ok}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if args.trace:
        result["layers"] = {
            k: v * scale if spans.unit_of(k) in spans.TIME_UNITS else v
            for k, v in _medians(layers).items()}
        result["trace_overhead_s"] = statistics.median(overheads) * scale
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
