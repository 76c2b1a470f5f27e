"""Independent reference implementations used only by the test suite.

These deliberately avoid the algorithms used inside the package (downward
recurrence, adaptive stepping, the action of a matrix exponential on one
vector) so that agreement is evidence, not tautology. High-precision
arithmetic comes from mpmath.
"""

import math

import mpmath as mp
import numpy as np
from scipy import sparse


def series_sph_j(n, z, dps=50):
    """First-kind spherical Bessel via its ascending power series.

    j_n(z) = z^n * sum_s (-z^2/2)^s / (s! * (2n+2s+1)!!), summed until the
    term underflows the working precision.
    """
    with mp.workdps(dps):
        zm = mp.mpf(z)
        if zm == 0:
            return mp.mpf(1 if n == 0 else 0)
        # double factorial (2n+1)!!
        dfac = mp.mpf(1)
        for i in range(2 * n + 1, 0, -2):
            dfac *= i
        term = zm ** n / dfac
        total = term
        s = 0
        while abs(term) > abs(total) * mp.mpf(10) ** (-dps - 5) or s < 4:
            s += 1
            term *= -zm * zm / 2 / (s * (2 * n + 2 * s + 1))
            total += term
            if s > 10000:
                raise RuntimeError("series did not converge")
        return total


def upward_sph_y(n, z, dps=50):
    """Second-kind spherical Bessel: closed-form seeds plus upward recurrence.

    y0 = -cos z / z, y1 = -cos z / z^2 - sin z / z, then
    y_{m+1} = ((2m+1)/z) y_m - y_{m-1}. Stable upward because y is the
    dominant solution.
    """
    with mp.workdps(dps):
        zm = mp.mpf(z)
        if zm <= 0:
            raise ValueError("z must be positive")
        y0 = -mp.cos(zm) / zm
        if n == 0:
            return y0
        y1 = -mp.cos(zm) / zm ** 2 - mp.sin(zm) / zm
        if n == 1:
            return y1
        prev, cur = y0, y1
        for m in range(1, n):
            prev, cur = cur, (2 * m + 1) / zm * cur - prev
        return cur


def oracle_value(kind, n, z, dps=50):
    if kind == "j":
        return series_sph_j(n, z, dps)
    if kind == "y":
        return upward_sph_y(n, z, dps)
    raise ValueError(kind)


def oracle_deriv(kind, n, z, dps=60):
    """d/dz of the oracle value via an explicit high-precision central
    difference: step 1e-15 at 60 working digits leaves truncation error
    around 1e-30, far below every tolerance used in the suite."""
    with mp.workdps(dps):
        zm = mp.mpf(z)
        h = mp.mpf(10) ** -15
        return (oracle_value(kind, n, zm + h, dps) - oracle_value(kind, n, zm - h, dps)) / (2 * h)


def bisect_root(f, lo, hi, tol=1e-10, max_iter=200):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0 or hi - lo < tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expm_dense(m) -> np.ndarray:
    """exp(m) by scaling and squaring with a truncated series (1-norm scaled)."""
    m = np.asarray(sparse.csr_matrix(m).toarray() if sparse.issparse(m) else m)
    m = m.astype(complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    norm = float(np.linalg.norm(m, 1))
    s = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    a = m / (2**s)
    dim = m.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        result += term
        if np.abs(term).max() <= 1e-18 * max(1.0, np.abs(result).max()):
            break
    for _ in range(s):
        result = result @ result
    return result
