"""Reference implementations used only by the test suite.

Most of these deliberately avoid the algorithms used inside the package
(the first kind's recurrences) so that agreement is evidence, not tautology;
high-precision arithmetic comes from mpmath, and matrix exponentials from
scipy (`scipy.linalg.expm`, `scipy.sparse.linalg.expm_multiply`), not from
here. Three are bit-identity references for a faster package kernel instead:
`integrate_to_grid`, the generic numpy-vector form of the package's
DOP853 stepper (same tableau, same controller, arrays instead of floats,
and its dense output one grid time at a time),
`registry_json`, the json.dumps spelling of the registry's canonical text,
and `kron_pair_coupling`, the Kronecker-product build of the pair coupling.
`full_vector` embeds a paired state in the joint two-mode basis, which only
the operator tests need.
"""

import json
import math

import mpmath as mp
import numpy as np
from scipy import sparse

from memdomain.errors import StepSizeUnderflow
from memdomain.fock import ladder
from memdomain.memory import SCHEMA_VERSION
from memdomain.ode import (
    _A,
    _A_DENSE,
    _ALPHA,
    _B,
    _BETA,
    _C,
    _C_DENSE,
    _D,
    _E3,
    _E5,
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


def full_vector(state, cutoff=None) -> np.ndarray:
    """Embed a paired state sum_m c_m |m, m> into the joint |m_A, m_At>
    basis, A-index major (optionally padded to a larger cutoff)."""
    n = state.cutoff if cutoff is None else cutoff
    if n < state.cutoff:
        raise ValueError(f"cutoff {n} is below the state's cutoff {state.cutoff}")
    vec = np.zeros((n + 1) ** 2, dtype=complex)
    for m, c in enumerate(state.coeffs):
        vec[m * (n + 1) + m] = c
    return vec


def kron_pair_coupling(gamma, cutoff):
    """i*gamma*(A+ At+ - A At) as kron(a+, a+) - kron(a, a) of the
    single-mode ladder a: the reference for fock.pair_coupling, which
    writes the same entries directly."""
    a = ladder(cutoff)
    ad = a.getH()
    return (1j * gamma * (sparse.kron(ad, ad) - sparse.kron(a, a))).tocsr()


def _initial_step(f, t0, y0, tol, span, floor):
    sc = tol + tol * np.abs(y0)
    f0 = f(t0, y0)
    d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * span
    else:
        h = 0.01 * d0 / d1
    return max(min(h, 0.1 * span), min(floor, span)), f0


def _weighted(weights, k):
    """sum_j w_j k_j over the nonzero weights in index order."""
    return sum(w * k[j] for j, w in enumerate(weights) if w)


def integrate_to_grid(f, t_grid, y0, rel_tol):
    """Integrate y' = f(t, y) for a state y = (q, q') and return q at each
    grid time.

    The grid must be strictly increasing. Integration starts at t_grid[0]
    with state y0 and runs in DOP853 steps to t_grid[-1]; only the last step
    is clipped to end there. The controller's tolerance is rel_tol, relative
    and absolute. Each accepted step evaluates the end value and the dense
    stages, and every grid time between the ends is read, one at a time in
    Python floats, from the 7th-order interpolant on q of the accepted step
    that holds it (t <= time < t + h); the first and last grid values are
    the start and end states. Raises StepSizeUnderflow if the controller
    drives the step below 1e-14 * max(1, |t|); the first step is at least
    min(that floor, span), and the step that lands on the last grid time is
    exempt from it.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("t_grid must contain at least two times")
    if not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    if not 1e-13 <= rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must lie in [1e-13, 1e-3], got {rel_tol!r}")
    y = np.array(y0, dtype=float)
    t, t_end = float(t_grid[0]), float(t_grid[-1])
    h, k1 = _initial_step(f, t, y, rel_tol, t_end - t, 1e-14 * max(1.0, abs(t)))
    err_prev = 1.0
    k = [k1]
    times = t_grid.tolist()
    out = [float(y[0])]

    while t < t_end:
        lands = h >= t_end - t
        clipped = t_end - t if lands else h
        if clipped < 1e-14 * max(1.0, abs(t)) and not lands:
            raise StepSizeUnderflow(
                f"step {clipped:.3e} below resolution floor at t = {t:.6g}"
            )
        del k[1:]
        for i in range(1, 12):
            k.append(f(t + _C[i] * clipped, y + clipped * _weighted(_A[i], k)))
        y_new = y + clipped * _weighted(_B, k)
        sc = rel_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        e5 = _weighted(_E5, k) / sc
        e3 = _weighted(_E3, k) / sc
        n5, n3 = float(np.sum(e5 * e5)), float(np.sum(e3 * e3))
        den = n5 + 0.01 * n3
        err = clipped * n5 / math.sqrt(den * 2) if den else 0.0
        if err <= 1.0:
            # the end value k_13, then the dense stages 14 and 15; of stage
            # 16 the q-interpolant reads only q' = its state's p
            k.append(f(t + clipped, y_new))
            for c, row in zip(_C_DENSE, _A_DENSE):
                k.append(f(t + c * clipped, y + clipped * _weighted(row, k)))
            y16 = y + clipped * _weighted(_A_DENSE[2], k)
            kq = [float(ki[0]) for ki in k] + [float(y16[1])]
            q, p = float(y[0]), float(y[1])
            f0 = float(y_new[0]) - q
            f1 = clipped * p - f0
            f2 = 2.0 * f0 - clipped * (float(y_new[1]) + p)
            f3, f4, f5, f6 = (clipped * _weighted(row, kq) for row in _D)
            # t + (t_end - t) can fall one ulp short of t_end, which would
            # leave a step below the resolution floor
            t_next = t_end if lands else t + clipped
            while len(out) < len(times) - 1 and times[len(out)] < t_next:
                th = (times[len(out)] - t) / clipped
                mu = 1.0 - th
                out.append(q + th * (f0 + mu * (f1 + th * (
                    f2 + mu * (f3 + th * (f4 + mu * (f5 + th * f6))))))
                )
            t = t_next
            y = y_new
            k = [k[12]]  # first-same-as-last
            factor = _SAFETY * (err + 1e-300) ** -_ALPHA * err_prev**_BETA
            h = clipped * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-4)
        else:
            h = clipped * _REJECT_BACKOFF

    out.append(float(y[0]))
    return np.array(out)


def vector_damped_oscillator(omega_sq, damping, init, t_grid, rel_tol=1e-10):
    """q'' + damping q' + omega_sq(t) q = 0 through integrate_to_grid: q on
    the grid."""

    def rhs(t, y):
        return np.array([y[1], -damping * y[1] - omega_sq(t) * y[0]])

    return integrate_to_grid(rhs, t_grid, np.asarray(init, dtype=float), rel_tol)


def registry_json(registry) -> str:
    """The canonical registry text as json.dumps spells the registry's
    document: the reference for MemoryRegistry.dumps, which writes the same
    bytes directly."""
    doc = {
        "schema": SCHEMA_VERSION,
        "last_decay_t": registry.last_decay_t,
        "next_id": registry.next_id,
        "codes": {
            cid: {
                "status": code.status.value,
                "entries": {
                    repr(k): {"weight": e.weight, "n": e.n, "t_rec": e.t_rec}
                    for k, e in code.entries.items()
                },
            }
            for cid, code in registry.codes.items()
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
