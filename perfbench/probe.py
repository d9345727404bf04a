"""Reference probe: a fixed mix of interpreter, NumPy and LAPACK work, timed.

The host's speed drifts by tens of percent over minutes (shared cores), for
the library and any other code alike.  The worker times the probe after
every pass and scales the run's times by REFERENCE_S over the median probe.
The probe shares no code with the library, so no change to the library can
move it.

The probe runs in a process of its own, which times one probe for each line
written to its standard input and prints the seconds.  So its memory never
counts in the worker's peak RSS, and it never runs while a pass does.
"""

import subprocess
import sys
import time

# Seconds the probe takes at full speed on the 2-core x86-64 host the
# benchmark was tuned on; times are reported at that speed.
REFERENCE_S = 0.25


class Probe:
    """The probe process, seen from the worker."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def seconds(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference probe exited")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()


def main():
    import numpy as np
    A = np.random.default_rng(0).standard_normal((800, 800))
    A = A @ A.T + 800.0 * np.eye(800)
    b = np.ones(800)
    np.linalg.solve(A, b)   # the first call starts BLAS threads
    for _ in sys.stdin:
        t0 = time.perf_counter()
        table, hits = {}, 0
        for i in range(375_000):
            table[(i & 1023, i >> 10)] = i
            hits += table.get((i & 511, 3), 0) & 1
        v = np.linspace(0.0, 1.0, 200_000)
        for _ in range(100):
            v = np.sqrt(v * 1.0001 + 1.0)
        for _ in range(5):
            np.linalg.solve(A, b)
        print(time.perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
