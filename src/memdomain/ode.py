"""Adaptive Dormand-Prince 5(4) integration of the damped oscillator.

The package integrates one system, q'' + damping q' + omega_sq(t) q = 0,
as the first-order pair y = (q, p) with y' = (p, -damping p - omega_sq(t) q).
`integrate_oscillator` steps it with the embedded explicit 5(4) pair of
Dormand and Prince (first same as last) under a PI step controller: safety
factor 0.9, rejected steps halved. The error of a step is the RMS over both
components of (y5 - y4) / (tol + tol max(|y|, |y5|)), where tol serves as
both the relative and the absolute tolerance and is half of the caller's
rel_tol (see _TOL_SHARE). The coefficients of the oscillator equations are
smooth and non-stiff, so an explicit pair is adequate and keeps results
reproducible across platforms.

Steps are set by the error control alone, not by the output grid: the
integration runs in free steps from the first grid time to the last, and
only the final step is clipped to end there. Every grid time is then read
from the dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.6): the
quintic Hermite interpolant on q of the accepted step that holds it, from
(q, q' = p, q'' = dp) at both step ends, in one numpy pass.

The state is two Python floats and the seven stages are written out: on a
2-vector, numpy's per-call overhead is nearly all of the cost. Each stage
state is y + h * (0.0 + a_1 k_1 + a_2 k_2 + ...) over the nonzero
coefficients in index order, which is the order a vector implementation
that sums a_ij * k_j arrays performs, and the interpolant uses only IEEE
arithmetic (+, -, *, /) in a fixed order, so the results equal such an
implementation's bit for bit; the test suite keeps one as a reference.
"""

import math

import numpy as np

from .errors import DomainError, StepSizeUnderflow, finite, reals

__all__ = ["time_grid", "integrate_oscillator"]

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th-order propagating weights and the embedded 4th-order weights
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

_SAFETY = 0.9
_REJECT_BACKOFF = 0.5
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 5th-order pair
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0
# The controller's tolerance as a share of rel_tol. Free steps are longer
# than grid-clipped ones: at tol = rel_tol their global error lifts the
# acceptance suite's integrator-against-closed-form deviation (read at the
# last grid time, a step end, so not from the interpolant) from 8.7e-7 to
# 1.3e-6, above its 1e-6. At rel_tol / 2 it reads 6.5e-7.
_TOL_SHARE = 0.5

# The tableau entries the stepper uses by name. Zero entries are skipped, as
# the vector form skips them. The last stage row equals _B5, so the last
# stage's state is the 5th-order solution (first same as last); the last
# two stages both sit at t + h.
_C2, _C3, _C4, _C5 = _C[1:5]
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_A71, _, _A73, _A74, _A75, _A76)) = _A[1:]
_E1, _, _E3, _E4, _E5, _E6, _E7 = _B4


def _initial_step(q, p, dp, tol, span, floor):
    """First trial step from the scaled sizes of y0 and y0' = (p, dp), at
    most a tenth of the span but at least min(floor, span): a shorter first
    step would fail the step floor at once, and a span below the floor is
    taken in one landing step."""
    sq = tol + tol * abs(q)
    sp = tol + tol * abs(p)
    e0, e1 = q / sq, p / sp
    d0 = math.sqrt((e0 * e0 + e1 * e1) / 2)
    e0, e1 = p / sq, dp / sp
    d1 = math.sqrt((e0 * e0 + e1 * e1) / 2)
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * span
    else:
        h = 0.01 * d0 / d1
    return max(min(h, 0.1 * span), min(floor, span))


def _dense_q(times, nodes):
    """q at each of `times` from the quintic Hermite interpolant of the
    accepted step that holds it, on (q, q' = p, q'' = dp) at both ends.

    nodes holds (t, q, p, dp) at every step end, t increasing from times[0]
    to times[-1]. With theta = (time - t0) / h and mu = 1 - theta the basis
    is written in factored form, which gives the node value itself at
    theta = 0 and at theta = 1: so the first and last times return the
    first and last node. Only +, -, * and / are used, each IEEE-rounded.
    """
    t_nodes = nodes[:, 0]
    i = np.minimum(np.searchsorted(t_nodes, times, side="right") - 1, t_nodes.size - 2)
    (t0, q0, p0, a0), (t1, q1, p1, a1) = nodes[i].T, nodes[i + 1].T
    h = t1 - t0
    th = (times - t0) / h
    mu = 1.0 - th
    th2, mu2 = th * th, mu * mu
    th3, mu3 = th2 * th, mu2 * mu
    return (
        mu3 * (1.0 + 3.0 * th + 6.0 * th2) * q0
        + th3 * (1.0 + 3.0 * mu + 6.0 * mu2) * q1
        + h * (th * mu3 * (1.0 + 3.0 * th) * p0 - th3 * mu * (1.0 + 3.0 * mu) * p1)
        + 0.5 * h * h * (th2 * mu3 * a0 + th3 * mu2 * a1)
    )


def time_grid(t_grid, least: int) -> np.ndarray:
    """t_grid as errors.reals returns it, if 1-D with at least `least`
    strictly increasing times, else DomainError."""
    grid = reals("t_grid", t_grid)
    if grid.ndim != 1 or grid.size < least or not np.all(np.diff(grid) > 0):
        raise DomainError(
            f"t_grid must be a 1-D array of at least {least} strictly increasing times")
    return grid


def integrate_oscillator(omega_sq, damping, q0, p0, t_grid, rel_tol):
    """Integrate q'' + damping q' + omega_sq(t) q = 0 from (q0, p0 = q'0).

    t_grid must pass time_grid(t_grid, 2), q0, p0 and damping errors.finite
    and rel_tol lie in [1e-13, 1e-3], else DomainError before any step;
    integration starts at t_grid[0]. omega_sq must be a pure function of t:
    the last two stages of a step share one evaluation. The steps depend on
    the first and last grid times only; the grid times between are read from
    the dense output, and the first and last are step ends themselves.
    Returns (q, stats): q on the grid, stats = {"nfev", "accepted",
    "rejected", "h_min", "h_max"}, the RHS evaluations, step counts and the
    smallest and largest accepted step (the clipped last step included).
    Raises DomainError, naming t, when a trial step leaves the float range
    although omega_sq is finite at all its stages, and StepSizeUnderflow
    otherwise if a step is nan or below the floor 1e-14 * max(1, |t|). The
    step that lands on the last grid time is exempt from the floor, so a
    span below it is integrated in that one step.
    """
    grid = time_grid(t_grid, 2)
    rel_tol = finite("rel_tol", rel_tol)
    if not 1e-13 <= rel_tol <= 1e-3:
        raise DomainError(f"rel_tol must lie in [1e-13, 1e-3], got {rel_tol!r}")
    nd = -finite("damping", damping)

    t, t_end = float(grid[0]), float(grid[-1])
    q, p = finite("q0", q0), finite("p0", p0)
    # k1 = (p, dp); the first component of every stage derivative is that
    # stage's p, so only the second one gets a name
    dp = nd * p - omega_sq(t) * q
    tol = rel_tol * _TOL_SHARE
    h = _initial_step(q, p, dp, tol, t_end - t, 1e-14 * max(1.0, abs(t)))
    err = err_prev = 1.0
    accepted = rejected = 0
    h_min, h_max = math.inf, 0.0
    # (t, q, p, dp) at each step end in one buffer of doubles, 32 bytes a
    # step; array is imported here, so importing this module loads no more
    from array import array
    nodes = array("d", [t, q, p, dp])

    while t < t_end:
        lands = h >= t_end - t
        step = t_end - t if lands else h
        # written so that a nan step (from a non-finite omega_sq) fails
        # here instead of being retried forever; the step that lands on
        # t_end may be shorter than the floor, as it is the last
        if not (step >= 1e-14 * max(1.0, abs(t)) or lands):
            # a last trial that went non-finite although omega_sq was finite
            # at each of its stage times means the solution itself overflows
            last = step / _REJECT_BACKOFF
            if not math.isfinite(err) and all(
                math.isfinite(omega_sq(t + c * last)) for c in _C
            ):
                raise DomainError(f"the solution leaves the float range at t = {t:.6g}")
            raise StepSizeUnderflow(
                f"step {step:.3e} below resolution floor at t = {t:.6g}"
            )
        q2 = q + step * (0.0 + _A21 * p)
        p2 = p + step * (0.0 + _A21 * dp)
        dp2 = nd * p2 - omega_sq(t + _C2 * step) * q2
        q3 = q + step * (0.0 + _A31 * p + _A32 * p2)
        p3 = p + step * (0.0 + _A31 * dp + _A32 * dp2)
        dp3 = nd * p3 - omega_sq(t + _C3 * step) * q3
        q4 = q + step * (0.0 + _A41 * p + _A42 * p2 + _A43 * p3)
        p4 = p + step * (0.0 + _A41 * dp + _A42 * dp2 + _A43 * dp3)
        dp4 = nd * p4 - omega_sq(t + _C4 * step) * q4
        q5 = q + step * (0.0 + _A51 * p + _A52 * p2 + _A53 * p3 + _A54 * p4)
        p5 = p + step * (0.0 + _A51 * dp + _A52 * dp2 + _A53 * dp3 + _A54 * dp4)
        dp5 = nd * p5 - omega_sq(t + _C5 * step) * q5
        q6 = q + step * (
            0.0 + _A61 * p + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5
        )
        p6 = p + step * (
            0.0 + _A61 * dp + _A62 * dp2 + _A63 * dp3 + _A64 * dp4 + _A65 * dp5
        )
        t_new = t + step
        w2_end = omega_sq(t_new)
        dp6 = nd * p6 - w2_end * q6
        q7 = q + step * (0.0 + _A71 * p + _A73 * p3 + _A74 * p4 + _A75 * p5 + _A76 * p6)
        p7 = p + step * (
            0.0 + _A71 * dp + _A73 * dp3 + _A74 * dp4 + _A75 * dp5 + _A76 * dp6
        )
        dp7 = nd * p7 - w2_end * q7
        # (q7, p7) is the 5th-order solution; this is the embedded 4th
        q4e = q + step * (
            0.0 + _E1 * p + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7
        )
        p4e = p + step * (
            0.0 + _E1 * dp + _E3 * dp3 + _E4 * dp4 + _E5 * dp5 + _E6 * dp6 + _E7 * dp7
        )
        sq = tol + tol * max(abs(q), abs(q7))
        sp = tol + tol * max(abs(p), abs(p7))
        e0, e1 = (q7 - q4e) / sq, (p7 - p4e) / sp
        err = math.sqrt((e0 * e0 + e1 * e1) / 2)
        if err <= 1.0:
            # t + (t_end - t) can fall one ulp short of t_end, which would
            # leave a step below the resolution floor
            t = t_end if lands else t_new
            q, p, dp = q7, p7, dp7  # first-same-as-last
            nodes.fromlist([t, q, p, dp])
            factor = _SAFETY * (err + 1e-300) ** -_ALPHA * err_prev**_BETA
            h = step * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-4)
            accepted += 1
            if step < h_min:
                h_min = step
            if step > h_max:
                h_max = step
        else:
            h = step * _REJECT_BACKOFF
            rejected += 1

    stats = {
        "nfev": 1 + 6 * (accepted + rejected),
        "accepted": accepted,
        "rejected": rejected,
        "h_min": h_min,
        "h_max": h_max,
    }
    return _dense_q(grid, np.frombuffer(nodes).reshape(-1, 4)), stats
