"""Machine-speed calibration, so that timings from a shared host compare.

On a shared 2-core sandbox the speed of identical work drifts by +-25% in
phases lasting seconds, longer than one item and often as long as a run.
Medians cannot remove a slowdown that covers the whole run, so every timing
the JSON result reports is divided by the speed factor of the host at the
moment it was taken:

    factor = (time of the calibration kernels now) / (their nominal time)

The kernels are the benchmark's own code and never call the package, so a
change to the package cannot move them.  They mimic the kind of work each
workload's hot path does: pure-Python float recurrences and dict churn
(Miller loops, registry scans, interpreter start-up), small numpy ufunc
loops (per-point array overhead), and a sparse matrix-vector product (the
Fock oracle).  Raw seconds are kept in the readable report.
"""

import statistics
import time

# Nominal kernel times (s): medians on a 2-core Intel Xeon 2.1 GHz sandbox
# in a quiet phase.  Only ratios matter; these make a factor of ~1 typical.
NOMINAL = {"python": 1.0e-3, "numpy": 0.6e-3, "sparse": 0.6e-3}

# The kernels each workload's hot path resembles; only modules the workload
# imports anyway are used, so calibration adds nothing to its memory.
KERNELS = {
    "closed-form": ("python", "numpy"),
    "crosscheck": ("python", "numpy", "sparse"),
    "registry": ("python",),
    "cli": ("python",),
}

EVERY_S = 0.1  # at most one calibration sample per this much item time
WINDOW = 9  # samples in the running median


class Calibrator:
    """Speed-factor samples taken between items; factor() is the current one."""

    def __init__(self, workload):
        self.kernels = [getattr(self, "_" + k) for k in KERNELS[workload]]
        self.nominal = sum(NOMINAL[k] for k in KERNELS[workload])
        if {"numpy", "sparse"} & set(KERNELS[workload]):
            import numpy as np

            self._vec = np.arange(16.0)
        if "sparse" in KERNELS[workload]:
            from scipy import sparse

            n = 20000
            self._mat = sparse.diags(
                [np.full(n - 1, 0.5j), np.full(n - 1, -0.5j)], [1, -1], format="csr")
            self._x = np.ones(n, dtype=complex)
        self.samples = []  # (perf_counter, factor)
        self.last = -1.0

    @staticmethod
    def _python():
        fk1, fk, z = 0.0, 1e-30, 37.3
        for m in range(1500, 0, -1):
            fk1, fk = fk, (2 * m + 1) / z * fk - fk1
            if abs(fk) > 1e250:
                fk, fk1 = fk * 1e-250, fk1 * 1e-250
        table = {}
        for i in range(800):
            table[f"c{i:06d}"] = {i * 0.37: (i, 0.5 * i)}
        return fk + sum(len(v) for v in sorted(table.values(), key=len))

    def _numpy(self):
        a = self._vec
        for _ in range(150):
            a = a * 0.999 + 0.001
        return float(a.sum())

    def _sparse(self):
        x = self._x
        for _ in range(3):
            x = self._mat @ x
        return x

    def sample(self):
        t0 = time.perf_counter()
        for k in self.kernels:
            k()
        t1 = time.perf_counter()
        self.samples.append((t1, (t1 - t0) / self.nominal))
        self.last = t1

    def maybe_sample(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def factor(self):
        """Running median of the latest samples: the host's current slowness."""
        return statistics.median(f for _, f in self.samples[-WINDOW:])

    def settle(self, count=15):
        for _ in range(count):
            self.sample()
        return self.factor()
