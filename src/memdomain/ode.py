"""Self-contained adaptive Runge-Kutta integration.

Embedded explicit 5(4) pair (Dormand-Prince coefficients) with a PI step
controller: safety factor 0.9, rejected steps halved. The coefficients of
the oscillator equations are smooth and non-stiff, so an explicit pair is
adequate and keeps results reproducible across platforms.
"""

import math

import numpy as np

from .errors import StepSizeUnderflow

__all__ = ["integrate_to_grid"]

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


def _initial_step(f, t0, y0, rtol, atol, span):
    sc = atol + rtol * np.abs(y0)
    f0 = f(t0, y0)
    d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * span
    else:
        h = 0.01 * d0 / d1
    return min(h, 0.1 * span), f0


def integrate_to_grid(f, t_grid, y0, rel_tol, abs_tol=None):
    """Integrate y' = f(t, y) and return the states at each grid time.

    The grid must be strictly increasing; integration starts at t_grid[0]
    with state y0. Steps are chosen adaptively and clipped so every grid
    point is hit exactly. Raises StepSizeUnderflow if the controller drives
    the step below 1e-14 * max(1, |t|).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("t_grid must contain at least two times")
    if not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    if not 1e-13 <= rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must lie in [1e-13, 1e-3], got {rel_tol!r}")
    atol = rel_tol if abs_tol is None else abs_tol

    y = np.array(y0, dtype=float)
    out = np.empty((t_grid.size, y.size))
    out[0] = y
    t = float(t_grid[0])
    span = float(t_grid[-1] - t_grid[0])
    h, k1 = _initial_step(f, t, y, rel_tol, atol, span)
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
            sc = atol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
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
