"""Spherical Bessel functions of integer order, first and second kind.

These are the radial building blocks for the closed-form oscillator pair.
Evaluation is recurrence-based and self-contained:

* first kind j_n: downward (Miller) recurrence from a padded start order,
  normalised against the closed forms of j_0 and j_1. Upward recurrence is
  unstable for j_n once n exceeds z, downward is stable everywhere. Below
  z = 1 the ascending power series is used instead, for every order: the
  closed form j_1 = sin z/z^2 - cos z/z cancels as z -> 0, and the
  downward pass overflows once z is far below n.
* second kind y_n: upward recurrence seeded with the closed forms of y_0
  and y_1; y is the dominant solution so upward is stable. y_n(z) is
  negative and grows in size with n for z < n, and goes to -inf as z -> 0;
  where it passes the float range the result is -inf: y_1 once z*z
  underflows to 0, and y_n once the recurrence overflows (which would
  otherwise go on to inf - inf = nan two orders later).

Derivatives use f_n' = f_{n-1} - ((n+1)/z) f_n (and f_0' = -f_1); f_n''
comes, for both kinds, from the values of f_{n-2}, f_n and f_{n+2}, which
do not cancel at small z. Past the float range y_n' is +inf and y_n'' is
-inf.

sph_j_array / sph_y_array evaluate one order over a whole array of z with a
single vectorised recurrence. They perform the same IEEE operations per
element as the scalar functions, so their results are bitwise equal. The
series and the upward recurrence are one function each, serving a float or
an array z; the scalar j_n keeps its own downward loop because a one-point
call through the array path costs tens of times more.
"""

import enum
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "BesselKind",
    "sph_j",
    "sph_y",
    "sph_j_array",
    "sph_y_array",
    "sph_deriv",
    "sph_second_deriv",
]

# Values this large force a mid-recurrence rescale so the downward pass
# cannot overflow even for z << n.
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250
# The array pass tests columns against _RESCALE_AT only once a running upper
# bound passes this; the margin absorbs rounding in the bound itself.
_CHECK_AT = _RESCALE_AT / 16
# Unnormalised value seeded at the start order of the downward pass.
_SEED = 1e-30
# j_n(z) comes from its ascending series for 0 < z < _SERIES_BELOW. There
# z^2/2 < 0.5, so the first omitted term, the tenth, is below 1e-19 of the
# sum for every n. Above the threshold the closed-form j_1 =
# sin z/z^2 - cos z/z, which normalises the downward pass, no longer
# cancels. Worst relative error of j_1 on 300 log-spaced z in [0.05, 1.5)
# against the 40-digit series: 7.5e-14 with the series below 0.08 (5
# terms), 4.1e-15 below 0.3 (6 terms), 3.0e-15 below 0.5 (7 terms) and
# 5.3e-16 below 1 (9 terms), where every order n <= 12 is within 8.4e-16.
_SERIES_BELOW = 1.0
_SERIES_TERMS = 9


class BesselKind(enum.Enum):
    FIRST = "j"
    SECOND = "y"


def _check_z(z, positive_only):
    if not isinstance(z, (int, float)) or isinstance(z, bool):
        raise DomainError(f"z must be a real number, got {z!r}")
    if math.isnan(z) or math.isinf(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if z < 0:
        raise DomainError(f"z must be non-negative, got {z!r}")
    if positive_only and z == 0:
        raise DomainError("second-kind functions are singular at z = 0")


def _check_n(n):
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")


def _check_z_array(z, positive_only):
    try:
        arr = np.asarray(z)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"z must be an array of real numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"z must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("z must be finite")
    if np.any(arr < 0):
        raise DomainError("z must be non-negative")
    if positive_only and np.any(arr == 0):
        raise DomainError("second-kind functions are singular at z = 0")
    return arr


def _start_order(n: int, z: float) -> int:
    """Order at which the downward pass for j_n(z) is seeded.

    Miller's algorithm: seed a tiny value above the padded start order and
    recur down; the minimal solution j dominates the descent. The pad must
    clear the turning point m ~ z with room to spare. 20 extra orders on top
    of 1.5 z are enough over n <= 12 and 1 <= z <= 1.2e3: the tests hold
    each order within 1e-12 of its largest value against scipy.special
    there (below 2e-14 for n >= 2), and an mpmath probe found 2e-14 relative
    error at z = 1045, which large-momentum modes reach at t = 0.
    """
    return n + max(40, math.ceil(1.5 * z) + 20)


def _seeds_j(z):
    """(j_0, j_1) at z > 0 from their closed forms."""
    s, c = math.sin(z), math.cos(z)
    return s / z, s / (z * z) - c / z


def _series_j(n, z):
    """j_n(z) = z^n/(2n+1)!! * sum_s (-z^2/2)^s / (s! (2n+3)(2n+5)...(2n+2s+1)).

    The same +, *, / sequence serves a float or an array z, so sph_j and
    sph_j_array agree bit for bit. The leading factor goes last, one
    z/(2i+1) at a time, so a result below the float range underflows
    gradually instead of through z^n.
    """
    x = -0.5 * z * z
    term = total = 1.0
    for s in range(1, _SERIES_TERMS + 1):
        term = term * x / (s * (2 * n + 2 * s + 1))
        total = total + term
    for i in range(1, n + 1):
        total = total * z / (2 * i + 1)
    return total


def sph_j(n: int, z: float) -> float:
    """First-kind spherical Bessel j_n(z) for n >= 0, z >= 0."""
    _check_n(n)
    _check_z(z, positive_only=False)
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    if z < _SERIES_BELOW:
        return _series_j(n, z)

    j0, j1 = _seeds_j(z)
    if n == 0:
        return j0
    if n == 1:
        return j1

    start = _start_order(n, z)
    fk1 = 0.0          # f_{start+1}
    fk = _SEED         # f_{start}
    saved = 0.0
    saved_set = False
    for m in range(start, 0, -1):
        fk1, fk = fk, (2 * m + 1) / z * fk - fk1
        if m - 1 == n:
            saved = fk
            saved_set = True
        if abs(fk) > _RESCALE_AT:
            fk = fk * _RESCALE_BY
            fk1 = fk1 * _RESCALE_BY
            if saved_set:
                saved = saved * _RESCALE_BY
    # After the loop fk is the unnormalised f_0 and fk1 is f_1.
    # Normalise against whichever closed form is better conditioned.
    if abs(j0) >= abs(j1):
        scale = j0 / fk
    else:
        scale = j1 / fk1
    return saved * scale


def _seeds_y(z):
    """(y_0, y_1) at z > 0 from their closed forms."""
    s, c = math.sin(z), math.cos(z)
    zz = z * z
    # zz == 0 below z ~ 1e-162, where -cos z/z^2 is far below -1e308
    return -c / z, (-c / zz if zz else -math.inf) - s / z


def _upward_y(n, z, y0, y1):
    """y_n from y_0 and y_1 by the upward recurrence.

    The same +, *, / sequence serves a float or an array z, so sph_y and
    sph_y_array agree bit for bit. An overflowed recurrence is left as it
    ends, -inf or nan; the callers map nan to -inf.
    """
    if n == 0:
        return y0
    prev, cur = y0, y1
    for m in range(1, n):
        prev, cur = cur, (2 * m + 1) / z * cur - prev
    return cur


def sph_y(n: int, z: float) -> float:
    """Second-kind spherical Bessel y_n(z) for n >= 0, z > 0."""
    _check_n(n)
    _check_z(z, positive_only=True)
    y = _upward_y(n, z, *_seeds_y(z))
    # nan only from -inf - (-inf) after the recurrence overflowed
    return -math.inf if math.isnan(y) else y


def _seed_columns(seeds, z):
    """Two float arrays from the per-point closed-form seeds.

    The seeds stay on `math`: numpy's vectorised sin/cos/exp may differ
    from libm in the last bit, and the recurrences only use +, -, *, /,
    which numpy rounds exactly as Python does.
    """
    pairs = np.array([seeds(x) for x in z.tolist()], dtype=float)
    return pairs.reshape(-1, 2).T


def _miller_j(n, z, j0, j1):
    """Downward pass for j_n (n >= 2) at every z > 0 at once.

    Each column runs the scalar recurrence from its own start order. Columns
    are sorted by z, descending, so the columns already seeded at order m
    form a prefix; the rest are still zero in every buffer, and zero stays
    zero under the recurrence. The overflow rescale is applied per column.
    """
    order = np.argsort(-z, kind="stable")
    zs = z[order]
    starts = [_start_order(n, x) for x in zs.tolist()]  # non-increasing
    size = zs.size
    full = [np.zeros(size) for _ in range(3)]  # f_{m+1}, f_m, scratch
    coef = np.zeros(size)
    saved = np.zeros(size)
    active = 0
    # Upper bound on |f_m| and |f_{m+1}| over the seeded columns; the exact
    # per-column overflow test runs only once the bound could reach it.
    bound = bound1 = 0.0
    # overflow to inf / nan stays silent, as in float arithmetic
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for m in range(starts[0], 0, -1):
            if active < size and starts[active] == m:
                first = active
                while active < size and starts[active] == m:
                    active += 1
                full[1][first:active] = _SEED
                bound = max(bound, _SEED)
                zv, cv = zs[:active], coef[:active]
                zmin = zs[active - 1]
                f1, f, out = (buf[:active] for buf in full)
            np.divide(2 * m + 1, zv, out=cv)
            np.multiply(cv, f, out=out)
            np.subtract(out, f1, out=out)
            f1, f, out = f, out, f1
            full = [full[1], full[2], full[0]]
            bound, bound1 = (2 * m + 1) / zmin * bound + bound1, bound
            if m - 1 == n:
                saved[:] = full[1]
            if not bound <= _CHECK_AT:  # also once a column has gone inf / nan
                big = np.flatnonzero(np.abs(f) > _RESCALE_AT)
                if big.size:
                    f[big] *= _RESCALE_BY
                    f1[big] *= _RESCALE_BY
                    if m - 1 <= n:
                        saved[big] *= _RESCALE_BY
                bound = float(np.abs(f).max())
                bound1 = float(np.abs(f1).max())
        fk1, fk = full[0], full[1]
        j0, j1 = j0[order], j1[order]
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / fk, j1 / fk1)
        result = np.empty(size)
        result[order] = saved * scale
    return result


def sph_j_array(n: int, z) -> np.ndarray:
    """j_n at every element of z (z >= 0), shaped like z.

    One downward recurrence covers the whole array; each element gets the
    scalar start order and rescaling, so the result equals sph_j(n, x)
    bit for bit at every x.
    """
    _check_n(n)
    z = _check_z_array(z, positive_only=False)
    flat = z.ravel()
    out = np.zeros(flat.size)
    if n == 0:
        out[flat == 0] = 1.0
    small = np.flatnonzero((flat > 0) & (flat < _SERIES_BELOW))
    if small.size:
        out[small] = _series_j(n, flat[small])
    pos = np.flatnonzero(flat >= _SERIES_BELOW)
    if pos.size:
        zs = flat[pos]
        j0, j1 = _seed_columns(_seeds_j, zs)
        if n == 0:
            out[pos] = j0
        elif n == 1:
            out[pos] = j1
        else:
            out[pos] = _miller_j(n, zs, j0, j1)
    return out.reshape(z.shape)


def sph_y_array(n: int, z) -> np.ndarray:
    """y_n at every element of z (z > 0), shaped like z.

    One vectorised upward recurrence; equals sph_y(n, x) bit for bit.
    """
    _check_n(n)
    z = _check_z_array(z, positive_only=True)
    flat = z.ravel()
    # overflow to inf / nan stays silent, as in float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        y = _upward_y(n, flat, *_seed_columns(_seeds_y, flat))
    y[np.isnan(y)] = -np.inf
    return y.reshape(z.shape)


def _value(kind: BesselKind, n: int, z: float) -> float:
    if kind is BesselKind.FIRST:
        return sph_j(n, z)
    if kind is BesselKind.SECOND:
        return sph_y(n, z)
    raise DomainError(f"unknown kind {kind!r}")


def sph_deriv(kind: BesselKind, n: int, z: float) -> float:
    """d/dz of the chosen kind at integer order n.

    Uses f_n' = f_{n-1} - ((n+1)/z) f_n; for n = 0, f_0' = -f_1 holds for
    both kinds. Second-kind derivatives require z > 0; first-kind requires
    z > 0 as well because the recurrence divides by z (the z = 0 limits of
    j_n' are not needed by the dynamics, which evaluates at z > 0).
    """
    _check_n(n)
    _check_z(z, positive_only=True)
    if n == 0:
        return -_value(kind, 1, z)
    d = _value(kind, n - 1, z) - (n + 1) / z * _value(kind, n, z)
    # nan only from -inf + inf once y_{n-1} and y_n have both overflowed
    return math.inf if math.isnan(d) else d


def sph_second_deriv(kind: BesselKind, n: int, z: float) -> float:
    """d^2/dz^2 from the values of the chosen kind, never from the
    defining differential equation, so it can be used to verify that
    equation.

    Two steps of (2n+1) f_n' = n f_{n-1} - (n+1) f_{n+1}, which both kinds
    obey (NIST DLMF 10.51), give

        (2n+1) f_n'' = n(n-1)/(2n-1) f_{n-2}
                       - (n^2/(2n-1) + (n+1)^2/(2n+3)) f_n
                       + (n+1)(n+2)/(2n+3) f_{n+2},

    where the first term is absent for n <= 1. Nothing cancels in it at
    small z, unlike the derivative recurrence applied twice, whose 1/z terms
    cost j_n'' 7e-11 relative accuracy at z = 0.08. For y_n'' the two are
    alike: against mpmath over n <= 12 and 40 log-spaced z in [0.08, 1.2e3],
    the error as a fraction of the largest term of the Bessel equation is at
    most 1.8e-15, against 1.5e-15 for the recurrence applied twice.

    Just inside the float range, where y_{n+2} (up to 4 times larger than
    y_n'') has overflowed but y_n has not, the same combination is formed
    from the ratios y_{n+1}/y_n = (2n+1)/z - y_{n-1}/y_n and y_{n+2}/y_{n+1}
    = (2n+3)/z - y_n/y_{n+1}, which stay finite, and multiplied by y_n last;
    y_n'' is then finite up to its own overflow, and -inf past it.
    """
    _check_n(n)
    _check_z(z, positive_only=True)
    a = n * n / (2 * n - 1) + (n + 1) ** 2 / (2 * n + 3)
    ap = (n + 1) * (n + 2) / (2 * n + 3)
    fm = n * (n - 1) / (2 * n - 1) * _value(kind, n - 2, z) if n > 1 else 0.0
    f = _value(kind, n, z)
    d = (fm - a * f + ap * _value(kind, n + 2, z)) / (2 * n + 1)
    if not math.isfinite(d) and math.isfinite(f):
        # y_{-1} is j_0, outside _value's orders, so n = 0 takes y_1/y_0 as is
        r1 = (
            _value(kind, 1, z) / f if n == 0
            else (2 * n + 1) / z - _value(kind, n - 1, z) / f
        )
        r2 = (2 * n + 3) / z - 1 / r1
        d = (fm / f - a + ap * r1 * r2) / (2 * n + 1) * f
    # nan only from inf - inf once the second-kind values have overflowed
    return -math.inf if math.isnan(d) else d
