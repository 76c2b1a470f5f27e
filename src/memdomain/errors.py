"""Exception types shared across the package, and its one input gate.

Every error raised on a violated contract derives from MemdomainError so
callers can distinguish library failures from programming mistakes. Each
public scalar input passes `finite` or `integer` once per call, and each
array input `reals`; one outside its domain raises DomainError, which is
also a ValueError.
"""

import math
import numbers
import sys

_MAX = sys.float_info.max
# the least float above 0: finite(name, x, POSITIVE) admits exactly x > 0
POSITIVE = math.ulp(0.0)


class MemdomainError(Exception):
    """Base class for all library errors."""


class DomainError(MemdomainError, ValueError):
    """Argument outside the mathematical domain of a function."""


class UnsupportedBranch(MemdomainError):
    """The growing-frequency solution branch (negative order) was requested.

    Only the decaying branch is implemented; the mirrored branch maps
    n -> -(n+1) and is excluded by design.
    """


class RealityViolation(MemdomainError):
    """Common frequency would be imaginary: the mode is over-damped here."""


class NeverRecordable(MemdomainError):
    """Mode momentum sits below the initial threshold; no recording window."""


class ModeDead(MemdomainError):
    """Queried time is at or past the end of the mode's recording window."""


class StepSizeUnderflow(MemdomainError):
    """Adaptive integrator pushed the step size below the resolvable floor."""


class CutoffTooSmall(MemdomainError):
    """Fock-space truncation cannot hold the requested state accurately."""


def finite(name: str, x, lo: float = -_MAX) -> float:
    """x as a finite float >= lo, else DomainError; bools, non-numbers and
    ints beyond the float range are refused. A plain float pays one type
    test and one chained comparison, which nan and +-inf fail."""
    if type(x) is float and lo <= x <= _MAX:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    if not -_MAX <= x <= _MAX:
        raise DomainError(f"{name} must be finite, got {x!r}")
    if x < lo:
        bound = "> 0" if lo == POSITIVE else f">= {lo:g}"
        raise DomainError(f"{name} must be {bound}, got {x!r}")
    return float(x)


def integer(name: str, n, lo: float = 0, hi: float = _MAX) -> int:
    """n as an int in [lo, hi], else DomainError; bools and non-integers are
    refused, and by default so is an int beyond the float range."""
    if type(n) is int and lo <= n <= hi:
        return n
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if not lo <= n <= hi:
        raise DomainError(f"{name} must be in [{lo:g}, {hi:g}], got {n!r}")
    return int(n)


def reals(name: str, x):
    """x as a float array of finite reals (a float64 array as itself), else
    DomainError for ragged nestings, bools, complex numbers and non-numbers.
    numpy holds ints beyond int64 as objects; an object array passes
    `finite` element by element, so it agrees with the scalar gate.
    numpy is imported here, so the scalar gates load no numeric module."""
    import numpy as np

    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be an array of real numbers: {exc}") from None
    if arr.dtype.kind == "O":
        return np.array([finite(name, v) for v in arr.flat]).reshape(arr.shape)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr
