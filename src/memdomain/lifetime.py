"""The scalar mode model: modes, frequencies, windows, thresholds, lifetimes.

The base of the package: it imports only the standard library and
memdomain.errors, so the registry runs without numpy. A mode (k, n) has the
frequency w(t) = omega0 exp(-L t / (2n+1)), omega0 = c k, and the common
frequency Omega(t) = sqrt(w^2 - L^2/4). It can hold a recording while its
frequency stays above L/2, which lasts

    T = ((2n+1)/L) * ln(2 omega0 / L).

Equivalently, the momentum threshold k_thr(n, t) = k0 * exp(L t / (2n+1))
with k0 = L/(2c) sweeps upward and kills the mode when it passes k. The
associated domain size is 2 pi / k_thr (the 2 pi is a convention; only
ratios of domain sizes are physical).

The decay exponent Lambda(t) ties the picture together:

    exp(-2 Lambda) = exp(-t g) * sinh(g (T - t)) / sinh(g T),  g = L/(2n+1)

computed, each sinh divided by its leading exponential, as
Lambda = g t - ln(expm1(-2 g (T - t)) / expm1(-2 g T)) / 2: both expm1 values
lie in (-1, 0) for 0 <= t < T, so no term leaves the float range however
large g T is, and Lambda(0) is exactly 0.0. The common frequency obeys
Omega(t) = Omega(0) * exp(-Lambda(t)) exactly, which the tests exploit as a
consistency identity.
"""

import dataclasses
import math
import sys
from dataclasses import dataclass

from .errors import POSITIVE, ModeDead, NeverRecordable, RealityViolation
from .errors import UnsupportedBranch, finite, integer

__all__ = [
    "SystemParams",
    "ModeIndex",
    "omega_mode",
    "common_frequency",
    "recording_window",
    "open_window",
    "momentum_threshold",
    "domain_size",
    "lambda_lifetime",
    "mode_alive",
    "alive_at",
    "LifetimeProfile",
    "lifetime_profile",
    "DomainSnapshot",
    "domain_snapshot",
    "FigureSpec",
    "default_figure_spec",
    "curve_table",
    "FIGURE_NAMES",
]


# Relative slack when deciding whether w^2 - L^2/4 is a rounded zero at the
# window boundary rather than a genuine reality violation.
_BOUNDARY_SLACK = 1e-12

_MAX = sys.float_info.max
# the largest mode index n for which 2n + 1 is still a float
_N_MAX = _MAX / 2


@dataclass(frozen=True)
class SystemParams:
    """Global medium parameters: damping L and propagation speed c.

    The reference frequency of momentum k is omega0 = c * k, and the initial
    momentum threshold is k0 = L / (2c). L, c, k0 and each omega0 must be
    finite and > 0 as floats (no overflow, no underflow to 0); else
    DomainError.
    """

    L: float
    c: float = 1.0

    def __post_init__(self):
        finite("L", self.L, POSITIVE)
        finite("c", self.c, POSITIVE)
        finite("k0 = L/(2c)", self.k0, POSITIVE)

    @property
    def k0(self) -> float:
        return self.L / (2 * self.c)

    def omega0(self, k: float) -> float:
        return finite("omega0 = c*k", self.c * k, POSITIVE)


@dataclass(frozen=True)
class ModeIndex:
    """A single mode: finite momentum k > 0 and integer index n >= 0 with
    2n + 1 a float, stored as given; else DomainError, or UnsupportedBranch
    for n < 0."""

    k: float
    n: int

    def __post_init__(self):
        if integer("n", self.n, -math.inf, _N_MAX) < 0:
            raise UnsupportedBranch(
                "negative n selects the growing-frequency branch n -> -(n+1), "
                "which is not implemented"
            )
        finite("k", self.k, POSITIVE)


def omega_mode(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """Mode frequency w(t) = omega0 * exp(-L t / (2n+1)) at t >= 0."""
    return params.omega0(mode.k) * math.exp(-params.L * finite("t", t, 0.0) / (2 * mode.n + 1))


def common_frequency(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """Omega(t) = sqrt(w(t)^2 - L^2/4), real inside the reality window.

    A rounded-to-negative value within 1e-12 of zero (relative to L^2/4) is
    clamped to 0 so the window endpoint itself evaluates cleanly; anything
    below that raises RealityViolation. DomainError when w^2 overflows or
    L^2/4 leaves the float range.
    """
    w = omega_mode(params, mode, t)
    quarter = finite("L^2/4", params.L * params.L / 4, POSITIVE)
    val = finite("w(t)^2", w * w) - quarter
    if val < 0:
        if val >= -_BOUNDARY_SLACK * quarter:
            return 0.0
        raise RealityViolation(
            f"w(t)^2 = {w * w:.6g} below L^2/4 = {quarter:.6g} at t = {t:.6g}: "
            "mode is over-damped here"
        )
    return math.sqrt(val)


def _window(params: SystemParams, k: float, n: int) -> tuple:
    """(ratio, T): ratio = 2 omega0 / L = 2 (c k) / L and the window end
    T = ((2n+1)/L) ln(ratio), the one place these float operations are
    written. No gate: T is nan unless 1 <= ratio <= max, and may pass the
    float range; the callers word or route what is left."""
    ratio = 2 * (params.c * k) / params.L
    if 1.0 <= ratio <= _MAX:
        return ratio, (2 * n + 1) / params.L * math.log(ratio)
    return ratio, math.nan


def recording_window(params: SystemParams, mode: ModeIndex) -> float:
    """Window length T = ((2n+1)/L) ln(2 omega0 / L) for the mode; 0.0 for
    the degenerate boundary case 2 omega0 = L. Raises NeverRecordable when
    2 omega0 < L (the mode sits below threshold from the start),
    DomainError when 2 omega0 / L or T passes the float range. The float
    operations are _window's, which alive_at tests t < T on, so the
    registry's decay sweep and this window agree to the last bit."""
    w0 = params.omega0(mode.k)
    ratio, T = _window(params, mode.k, mode.n)
    finite("2 omega0 / L", ratio)
    if ratio < 1.0:
        raise NeverRecordable(
            f"2 omega0 = {2 * w0:.6g} is below L = {params.L:.6g}; "
            "mode is never above threshold"
        )
    return finite("window T", T)


def open_window(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """T of a mode alive at t, on [0, T): DomainError unless t is finite and
    >= 0 (nan too), ModeDead at or past T, NeverRecordable below k0."""
    t = finite("t", t, 0.0)
    T = recording_window(params, mode)
    if t >= T:
        raise ModeDead(f"t = {t:.6g} is at or past the window end T = {T:.6g}")
    return T


def momentum_threshold(params: SystemParams, n: int, t: float) -> float:
    """k_thr(n, t) = k0 * exp(L t / (2n+1)): lowest recordable momentum, for
    n >= 0, t >= 0; math.inf past the float range (no mode can record)."""
    x = params.L * finite("t", t, 0.0) / (2 * integer("n", n, 0, _N_MAX) + 1)
    try:
        return params.k0 * math.exp(x)
    except OverflowError:
        return math.inf


def domain_size(params: SystemParams, n: int, t: float) -> float:
    """Linear domain size 2 pi / k_thr(n, t) (conventional prefactor); 0.0
    once k_thr is past the float range, DomainError if the size is."""
    return finite("domain size", 2 * math.pi / momentum_threshold(params, n, t))


def _gamma(params: SystemParams, n: int) -> float:
    return params.L / (2 * n + 1)


def lambda_lifetime(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """Decay exponent Lambda(t) on [0, T), behind open_window."""
    T = open_window(params, mode, t)
    g = _gamma(params, mode.n)
    return _lambda_at(t, T, g, math.expm1(-2 * g * T))


def _lambda_at(t: float, T: float, g: float, expm1_2gT: float) -> float:
    """Lambda(t) for 0 <= t < T given the mode's g and expm1(-2 g T)."""
    return g * t - 0.5 * math.log(math.expm1(-2 * g * (T - t)) / expm1_2gT)


def mode_alive(params: SystemParams, mode: ModeIndex, t: float) -> bool:
    """True while t < T (t >= 0); never-recordable modes are dead at every t."""
    t = finite("t", t, 0.0)
    try:
        T = recording_window(params, mode)
    except NeverRecordable:
        return False
    return t < T


def alive_at(params: SystemParams, k: float, n: int, t: float) -> bool:
    """mode_alive(params, ModeIndex(k, n), t) without building the mode, for
    a float momentum k and a float t >= 0 that the caller has gated.

    Where plain floats decide it (n an int in ModeIndex's range, 2 c k / L
    in [1, max], T finite) this is the one test t < T(k, n). Anything else,
    a ratio below 1, a value past the float range, an n beyond 2n + 1 being
    a float, goes through mode_alive: the same decision, or the same error.
    """
    if type(n) is int and 0 <= n <= _N_MAX:
        T = _window(params, k, n)[1]
        if T <= _MAX:
            return t < T
    return mode_alive(params, ModeIndex(k=k, n=n), t)


@dataclass(frozen=True)
class LifetimeProfile:
    """Sampled Lambda(t) for one mode over its recording window, as
    lifetime_profile builds it: times strictly increase and lambdas never
    decrease."""

    mode: ModeIndex
    window: float
    times: tuple
    lambdas: tuple


def lifetime_profile(
    params: SystemParams, mode: ModeIndex, points: int = 2000, ceiling: float = math.inf
) -> LifetimeProfile:
    """Sample Lambda on the uniform grid t_j = T j / points, j < points.

    Sampling stops after the first value above `ceiling` (that value is
    kept, so a truncated profile ends just past the ceiling); inf means none.
    """
    points = integer("points", points, 2)
    if ceiling != math.inf:
        finite("ceiling", ceiling)
    T = recording_window(params, mode)
    if T == 0.0:
        raise NeverRecordable(f"mode (k={mode.k}, n={mode.n}) has a degenerate window")
    g = _gamma(params, mode.n)
    expm1_2gT = math.expm1(-2 * g * T)
    ts, ls = [], []
    for j in range(points):
        t = T * j / points
        lam = _lambda_at(t, T, g, expm1_2gT)
        ts.append(t)
        ls.append(lam)
        if lam > ceiling:
            break
    return LifetimeProfile(mode=mode, window=T, times=tuple(ts), lambdas=tuple(ls))


@dataclass(frozen=True)
class DomainSnapshot:
    """Which momenta from a query set are still recordable at (n, t)."""

    n: int
    t: float
    threshold: float
    size: float
    alive: tuple


def domain_snapshot(params: SystemParams, n: int, t: float, query_ks) -> DomainSnapshot:
    thr = momentum_threshold(params, n, t)
    alive = tuple(k for k in query_ks if mode_alive(params, ModeIndex(k=k, n=n), t))
    return DomainSnapshot(n=n, t=t, threshold=thr, size=domain_size(params, n, t), alive=alive)


FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4")

_FIGURE_MODES = {
    # low/high momentum pairs at fixed n = 1; k1 = k3/10, k2 = k4/10
    "fig1": tuple((k, 1) for k in (0.6, 0.8, 6.0, 8.0)),
    # fixed momentum, increasing mode index
    "fig2": tuple((2.0, n) for n in (1, 2, 3, 4, 5)),
    # barely-recordable momentum across odd n
    "fig3": tuple((0.55, n) for n in (1, 3, 5, 7, 9)),
    # far-above-threshold momentum across odd n
    "fig4": tuple((55.0, n) for n in (1, 3, 5, 7, 9)),
}


@dataclass(frozen=True)
class FigureSpec:
    """Full description of one lifetime figure: its (k, n) modes, the
    system, and the t grid of lifetime_profile (points, ceiling). The
    ordinate is the decay exponent Lambda itself."""

    figure: str
    L: float = 1.0
    c: float = 1.0
    modes: tuple = ()
    ceiling: float = 10.0
    points: int = 2000

    def curve_id(self, k: float, n: int) -> str:
        return f"k{k:g}_n{n}"

    def params(self) -> SystemParams:
        return SystemParams(L=self.L, c=self.c)


def default_figure_spec(name: str, **overrides) -> FigureSpec:
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r}; expected one of {FIGURE_NAMES}")
    spec = FigureSpec(figure=name, modes=_FIGURE_MODES[name])
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec


def curve_table(spec: FigureSpec):
    """Rows (curve_id, t, Lambda) for every curve of the figure.

    Curves are ordered by curve_id and rows by t; every mode must be
    recordable (lifetime_profile's NeverRecordable propagates, no partial
    table).
    """
    params = spec.params()
    rows = []
    curves = sorted(spec.modes, key=lambda kn: spec.curve_id(*kn))
    for k, n in curves:
        cid = spec.curve_id(k, n)
        profile = lifetime_profile(
            params, ModeIndex(k=k, n=n), points=spec.points, ceiling=spec.ceiling
        )
        rows.extend((cid, t, lam) for t, lam in zip(profile.times, profile.lambdas))
    return rows
