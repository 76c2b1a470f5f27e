"""Spherical Bessel functions of integer order, first and second kind.

These are the radial building blocks for the closed-form oscillator pair.
Evaluation is recurrence-based and self-contained, with one rule for each
direction of the three-term recurrence:

* first kind j_n, by where z lies against the order n:
  - below z = 1, the ascending power series, for every order: the closed
    form j_1 = sin z/z^2 - cos z/z cancels as z -> 0;
  - where z >= n, the upward recurrence from the closed forms of j_0 and
    j_1. It is stable while the order stays below z (Gautschi, SIAM Review
    9 (1967) 24-82; DLMF 10.51), and costs n steps at any finite z;
  - where 1 <= z < n, Miller's downward recurrence from a padded start
    order, normalised against j_0 or j_1. The closed-form pair never needs
    it: inside a mode's recording window its argument stays at or above
    n + 1/2.
* second kind y_n: the same upward recurrence seeded with the closed forms
  of y_0 and y_1; y is the dominant solution so upward is stable for every
  z. y_n(z) is negative and grows in size with n for z < n, and goes to
  -inf as z -> 0; where it passes the float range the result is -inf: y_1
  once z*z underflows to 0, and y_n once the recurrence overflows (which
  would otherwise go on to inf - inf = nan two orders later).

Derivatives use f_n' = f_{n-1} - ((n+1)/z) f_n (and f_0' = -f_1); f_n''
comes, for both kinds, from the values of f_{n-2}, f_n and f_{n+2}, which
do not cancel at small z. Past the float range y_n' is +inf and y_n'' is
-inf.

sph_j_array / sph_y_array evaluate one order over a whole array of z. They
perform the same IEEE operations per element as the scalar functions, so
their results are bitwise equal. The series and the upward recurrence are
one function each, serving a float or an array z; the descent is one
scalar loop, which sph_j_array runs over its points with 1 <= z < n only.
numpy is imported by the array functions alone, so the scalar ones load no
numpy.
"""

from __future__ import annotations

import enum
import math

from .errors import POSITIVE, DomainError, finite, integer, reals

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
# Unnormalised value seeded at the start order of the downward pass.
_SEED = 1e-30
# j_n(z) comes from its ascending series for 0 <= z < _SERIES_BELOW. There
# z^2/2 < 0.5, so the first omitted term, the tenth, is below 1e-19 of the
# sum for every n. Above the threshold the closed-form j_1 =
# sin z/z^2 - cos z/z, which seeds both recurrences, no longer cancels.
# Worst relative error of j_1 on 300 log-spaced z in [0.05, 1.5) against
# the 40-digit series: 7.5e-14 with the series below 0.08 (5 terms), 4.1e-15
# below 0.3 (6 terms), 3.0e-15 below 0.5 (7 terms) and 5.3e-16 below 1 (9
# terms), where every order n <= 12 is within 8.4e-16.
_SERIES_BELOW = 1.0
_SERIES_TERMS = 9
# Every pass is linear in the order, so the order is bounded.
_ORDER_MAX = 100_000


class BesselKind(enum.Enum):
    FIRST = "j"
    SECOND = "y"


def _check_z_array(z, positive_only):
    import numpy as np

    arr = reals("z", z)
    if np.any(arr < 0):
        raise DomainError("z must be non-negative")
    if positive_only and np.any(arr == 0):
        raise DomainError("second-kind functions are singular at z = 0")
    return arr


def _start_order(n: int, z: float) -> int:
    """Order at which the downward pass for j_n(z), 1 <= z < n, is seeded.

    Miller's algorithm: seed a tiny value above the padded start order and
    recur down; the minimal solution j dominates the descent. The pad must
    clear the turning point m ~ z with room to spare: 20 extra orders on
    top of 1.5 z, and at least 40. With z < n the pass starts below order
    2.5 n + 41. Against 40-digit mpmath on 60 log-spaced z in [1, n), the
    error relative to max(|j_n|, 1/z) was at most 1.7e-15 for n in
    {2, 3, 5, 9, 12, 30, 100, 150}.
    """
    return n + max(40, math.ceil(1.5 * z) + 20)


def _seeds_j(z):
    """(j_0, j_1) at z > 0 from their closed forms."""
    s, c = math.sin(z), math.cos(z)
    return s / z, s / (z * z) - c / z


def _series_j(n, z):
    """j_n(z) = z^n/(2n+1)!! * sum_s (-z^2/2)^s / (s! (2n+3)(2n+5)...(2n+2s+1)).

    The same +, *, / sequence serves a float or an array z, so sph_j and
    sph_j_array agree bit for bit; at z = 0 it gives j_0 = 1 and j_n = 0.
    The leading factor goes last, one z/(2i+1) at a time, so a result below
    the float range underflows gradually instead of through z^n.
    """
    x = -0.5 * z * z
    term = total = 1.0
    for s in range(1, _SERIES_TERMS + 1):
        term = term * x / (s * (2 * n + 2 * s + 1))
        total = total + term
    for i in range(1, n + 1):
        total = total * z / (2 * i + 1)
    return total


def _descent(n: int, z: float) -> float:
    """j_n(z) for 1 <= z < n by Miller's downward recurrence."""
    fk1 = 0.0          # f_{start+1}
    fk = _SEED         # f_{start}
    saved = 0.0        # f_n once the descent reaches it; rescaling 0.0 keeps it 0.0
    for m in range(_start_order(n, z), 0, -1):
        fk1, fk = fk, (2 * m + 1) / z * fk - fk1
        if m - 1 == n:
            saved = fk
        if abs(fk) > _RESCALE_AT:
            fk = fk * _RESCALE_BY
            fk1 = fk1 * _RESCALE_BY
            saved = saved * _RESCALE_BY
    # After the loop fk is the unnormalised f_0 and fk1 is f_1.
    # Normalise against whichever closed form is better conditioned.
    j0, j1 = _seeds_j(z)
    if abs(j0) >= abs(j1):
        scale = j0 / fk
    else:
        scale = j1 / fk1
    return saved * scale


def _upward(n, z, f0, f1):
    """f_n from f_0 and f_1 by the upward recurrence, for j or y.

    The same +, *, / sequence serves a float or an array z, so the scalar
    and array functions agree bit for bit. An overflowed y recurrence is
    left as it ends, -inf or nan; the callers map nan to -inf.
    """
    if n == 0:
        return f0
    prev, cur = f0, f1
    for m in range(1, n):
        prev, cur = cur, (2 * m + 1) / z * cur - prev
    return cur


def sph_j(n: int, z: float) -> float:
    """First-kind spherical Bessel j_n(z) for 0 <= n <= 1e5 and finite z >= 0."""
    n, z = integer("order", n, 0, _ORDER_MAX), finite("z", z, 0.0)
    if z < _SERIES_BELOW:
        return _series_j(n, z)
    if z < n:
        return _descent(n, z)
    return _upward(n, z, *_seeds_j(z))


def _seeds_y(z):
    """(y_0, y_1) at z > 0 from their closed forms."""
    s, c = math.sin(z), math.cos(z)
    zz = z * z
    # zz == 0 below z ~ 1e-162, where -cos z/z^2 is far below -1e308
    return -c / z, (-c / zz if zz else -math.inf) - s / z


def sph_y(n: int, z: float) -> float:
    """Second-kind spherical Bessel y_n(z) for 0 <= n <= 1e5, z > 0."""
    n, z = integer("order", n, 0, _ORDER_MAX), finite("z", z, 0.0)
    if z == 0.0:
        raise DomainError("second-kind functions are singular at z = 0")
    y = _upward(n, z, *_seeds_y(z))
    # nan only from -inf - (-inf) after the recurrence overflowed
    return -math.inf if math.isnan(y) else y


def _seed_columns(seeds, z):
    """Two float arrays from the per-point closed-form seeds.

    The seeds stay on `math`: numpy's vectorised sin/cos/exp may differ
    from libm in the last bit, and the recurrences only use +, -, *, /,
    which numpy rounds exactly as Python does.
    """
    import numpy as np

    pairs = np.array([seeds(x) for x in z.tolist()], dtype=float)
    return pairs.reshape(-1, 2).T


def sph_j_array(n: int, z) -> np.ndarray:
    """j_n at every element of z (z >= 0), shaped like z.

    Each element takes sph_j's rule for its z: the series and the upward
    recurrence run vectorised over their points, the descent point by
    point, so the result equals sph_j(n, x) bit for bit at every x.
    """
    import numpy as np

    n = integer("order", n, 0, _ORDER_MAX)
    z = _check_z_array(z, positive_only=False)
    flat = z.ravel()
    out = np.empty(flat.size)
    small = flat < _SERIES_BELOW
    out[small] = _series_j(n, flat[small])
    up = flat >= max(n, _SERIES_BELOW)
    out[up] = _upward(n, flat[up], *_seed_columns(_seeds_j, flat[up]))
    down = ~(small | up)
    out[down] = [_descent(n, x) for x in flat[down].tolist()]
    return out.reshape(z.shape)


def sph_y_array(n: int, z) -> np.ndarray:
    """y_n at every element of z (z > 0), shaped like z.

    One vectorised upward recurrence; equals sph_y(n, x) bit for bit.
    """
    import numpy as np

    n = integer("order", n, 0, _ORDER_MAX)
    z = _check_z_array(z, positive_only=True)
    flat = z.ravel()
    # overflow to inf / nan stays silent, as in float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        y = _upward(n, flat, *_seed_columns(_seeds_y, flat))
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
    n, z = integer("order", n, 0, _ORDER_MAX), finite("z", z, POSITIVE)
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
    n, z = integer("order", n, 0, _ORDER_MAX), finite("z", z, POSITIVE)
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
