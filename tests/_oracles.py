"""Reference implementations used only by the test suite.

Most of these deliberately avoid the algorithms used inside the package
(downward recurrence, the action of a matrix exponential on one vector) so
that agreement is evidence, not tautology; high-precision arithmetic comes
from mpmath. Two are bit-identity references for a faster package kernel
instead: `expm_dense`, `integrate_to_grid`, the generic numpy-vector
form of the package's Dormand-Prince stepper (same tableau, same controller,
arrays instead of floats), and `registry_json`, the json.dumps spelling of
the registry's canonical text.
"""

import json
import math

import mpmath as mp
import numpy as np
from scipy import sparse

from memdomain.errors import StepSizeUnderflow
from memdomain.ode import (
    _A,
    _ALPHA,
    _B4,
    _B5,
    _BETA,
    _C,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _REJECT_BACKOFF,
    _SAFETY,
)


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


def bessel_deriv(kind, n, z, order, dps=700):
    """d/dz (order 1) or d^2/dz^2 (order 2) of j_n or y_n from mpmath's
    cylinder functions: f = g * C_{n+1/2} with g = sqrt(pi / (2z)), so
    f' = g C' + g' C and f'' = g C'' + 2 g' C' + g'' C. The terms cancel
    to about z^2 of their size for j_n at small z, hence the 700 digits,
    enough down to z = 1e-300."""
    with mp.workdps(dps):
        zm = mp.mpf(z)
        cyl = {"j": mp.besselj, "y": mp.bessely}[kind]
        c = [cyl(n + mp.mpf(1) / 2, zm, derivative=k) for k in range(order + 1)]
        g = mp.sqrt(mp.pi / (2 * zm))
        g1, g2 = -g / (2 * zm), 3 * g / (4 * zm * zm)
        if order == 1:
            return g * c[1] + g1 * c[0]
        return g * c[2] + 2 * g1 * c[1] + g2 * c[0]


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


def _initial_step(f, t0, y0, tol, span):
    sc = tol + tol * np.abs(y0)
    f0 = f(t0, y0)
    d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * span
    else:
        h = 0.01 * d0 / d1
    return min(h, 0.1 * span), f0


def integrate_to_grid(f, t_grid, y0, rel_tol):
    """Integrate y' = f(t, y) and return the states at each grid time.

    The grid must be strictly increasing; integration starts at t_grid[0]
    with state y0. Steps are chosen adaptively and clipped so every grid
    point is hit exactly; rel_tol is also the absolute tolerance. Raises
    StepSizeUnderflow if the controller drives the step below
    1e-14 * max(1, |t|).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("t_grid must contain at least two times")
    if not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    if not 1e-13 <= rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must lie in [1e-13, 1e-3], got {rel_tol!r}")
    y = np.array(y0, dtype=float)
    out = np.empty((t_grid.size, y.size))
    out[0] = y
    t = float(t_grid[0])
    span = float(t_grid[-1] - t_grid[0])
    h, k1 = _initial_step(f, t, y, rel_tol, span)
    err_prev = 1.0
    k = [None] * 7
    k[0] = k1

    for idx in range(1, t_grid.size):
        target = float(t_grid[idx])
        while t < target:
            lands = h >= target - t
            clipped = target - t if lands else h
            if clipped < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflow(
                    f"step {clipped:.3e} below resolution floor at t = {t:.6g}"
                )
            for i in range(1, 7):
                yi = y + clipped * sum(a * k[j] for j, a in enumerate(_A[i]) if a)
                k[i] = f(t + _C[i] * clipped, yi)
            y5 = y + clipped * sum(b * k[i] for i, b in enumerate(_B5) if b)
            y4 = y + clipped * sum(b * k[i] for i, b in enumerate(_B4) if b)
            sc = rel_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
            err = math.sqrt(float(np.mean(((y5 - y4) / sc) ** 2)))
            if err <= 1.0:
                # t + (target - t) can fall one ulp short of target, which
                # would leave a step below the resolution floor
                t = target if lands else t + clipped
                y = y5
                k[0] = k[6]  # first-same-as-last
                factor = _SAFETY * (err + 1e-300) ** -_ALPHA * err_prev**_BETA
                h = clipped * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                err_prev = max(err, 1e-4)
            else:
                h = clipped * _REJECT_BACKOFF
        out[idx] = y
    return out


def vector_damped_oscillator(omega_sq, damping, init, t_grid, rel_tol=1e-10):
    """q'' + damping q' + omega_sq(t) q = 0 through integrate_to_grid:
    the (len(t_grid), 2) array of (q, dq/dt)."""

    def rhs(t, y):
        return np.array([y[1], -damping * y[1] - omega_sq(t) * y[0]])

    return integrate_to_grid(rhs, t_grid, np.asarray(init, dtype=float), rel_tol)


def registry_json(registry) -> str:
    """The canonical registry text as json.dumps spells the registry's
    document: the reference for MemoryRegistry.dumps, which writes the same
    bytes directly."""
    return json.dumps(registry.to_json_dict(), sort_keys=True, indent=2) + "\n"
