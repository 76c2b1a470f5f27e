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

and the common frequency obeys Omega(t) = Omega(0) * exp(-Lambda(t))
exactly, which the tests exploit as a consistency identity.
"""

import dataclasses
import math
import operator
from dataclasses import dataclass

from .errors import ModeDead, NeverRecordable, RealityViolation, UnsupportedBranch

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
    "frequency_from_lambda",
    "mode_alive",
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


@dataclass(frozen=True)
class SystemParams:
    """Global medium parameters: damping L and propagation speed c.

    The reference frequency of momentum k is omega0 = c * k, and the initial
    momentum threshold is k0 = L / (2c).
    """

    L: float
    c: float = 1.0

    def __post_init__(self):
        for name in ("L", "c"):
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ValueError(f"{name} must be a number, got {val!r}")
            if not math.isfinite(val) or val <= 0:
                raise ValueError(f"{name} must be positive and finite, got {val!r}")

    @property
    def k0(self) -> float:
        return self.L / (2 * self.c)

    def omega0(self, k: float) -> float:
        return self.c * k


@dataclass(frozen=True)
class ModeIndex:
    """A single mode: momentum k > 0 and non-negative integer index n."""

    k: float
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise UnsupportedBranch(
                "negative n selects the growing-frequency branch n -> -(n+1), "
                "which is not implemented"
            )
        if not isinstance(self.k, (int, float)) or isinstance(self.k, bool):
            raise ValueError(f"k must be a number, got {self.k!r}")
        if not math.isfinite(self.k) or self.k <= 0:
            raise ValueError(f"k must be positive and finite, got {self.k!r}")


def omega_mode(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """Mode frequency w(t) = omega0 * exp(-L t / (2n+1))."""
    return params.omega0(mode.k) * math.exp(-params.L * t / (2 * mode.n + 1))


def common_frequency(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """Omega(t) = sqrt(w(t)^2 - L^2/4), real inside the reality window.

    A rounded-to-negative value within 1e-12 of zero (relative to L^2/4) is
    clamped to 0 so the window endpoint itself evaluates cleanly; anything
    below that raises RealityViolation.
    """
    w = omega_mode(params, mode, t)
    quarter = params.L * params.L / 4
    val = w * w - quarter
    if val < 0:
        if val >= -_BOUNDARY_SLACK * quarter:
            return 0.0
        raise RealityViolation(
            f"w(t)^2 = {w * w:.6g} below L^2/4 = {quarter:.6g} at t = {t:.6g}: "
            "mode is over-damped here"
        )
    return math.sqrt(val)


def recording_window(params: SystemParams, mode: ModeIndex) -> float:
    """Window length T for the mode; 0.0 for the degenerate boundary case
    2 omega0 = L. Raises NeverRecordable when 2 omega0 < L (the mode sits
    below threshold from the start)."""
    w0 = params.omega0(mode.k)
    ratio = 2 * w0 / params.L
    if ratio < 1.0:
        raise NeverRecordable(
            f"2 omega0 = {2 * w0:.6g} is below L = {params.L:.6g}; "
            "mode is never above threshold"
        )
    return (2 * mode.n + 1) / params.L * math.log(ratio)


def open_window(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """T of a mode alive at t, the gate of what exists only on [0, T): raises
    ValueError for t < 0, ModeDead at or past T, NeverRecordable below k0."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    T = recording_window(params, mode)
    if t >= T:
        raise ModeDead(f"t = {t:.6g} is at or past the window end T = {T:.6g}")
    return T


def momentum_threshold(params: SystemParams, n: int, t: float) -> float:
    """k_thr(n, t) = k0 * exp(L t / (2n+1)): lowest recordable momentum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return params.k0 * math.exp(params.L * t / (2 * n + 1))


def domain_size(params: SystemParams, n: int, t: float) -> float:
    """Linear domain size 2 pi / k_thr(n, t) (conventional prefactor)."""
    return 2 * math.pi / momentum_threshold(params, n, t)


def _gamma(params: SystemParams, n: int) -> float:
    return params.L / (2 * n + 1)


def lambda_lifetime(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """Decay exponent Lambda(t) on [0, T), behind open_window."""
    T = open_window(params, mode, t)
    g = _gamma(params, mode.n)
    return _lambda_at(t, T, g, math.sinh(g * T))


def _lambda_at(t: float, T: float, g: float, sinh_gT: float) -> float:
    """Lambda(t) for 0 <= t < T given the mode's constants g and sinh(g T)."""
    val = math.exp(-t * g) * math.sinh(g * (T - t)) / sinh_gT
    return -0.5 * math.log(val) + 0.0  # + 0.0 turns -0.0 at t=0 into 0.0


def frequency_from_lambda(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """Omega(0) * exp(-Lambda(t)); equals the direct common frequency."""
    lam = lambda_lifetime(params, mode, t)
    return common_frequency(params, mode, 0.0) * math.exp(-lam)


def mode_alive(params: SystemParams, mode: ModeIndex, t: float) -> bool:
    """True while t < T; never-recordable modes are dead at every t."""
    try:
        T = recording_window(params, mode)
    except NeverRecordable:
        return False
    return t < T


@dataclass(frozen=True)
class LifetimeProfile:
    """Sampled Lambda(t) for one mode over its recording window."""

    mode: ModeIndex
    window: float
    times: tuple
    lambdas: tuple

    def __post_init__(self):
        if len(self.times) != len(self.lambdas):
            raise ValueError("times and lambdas must have equal length")
        # neighbour comparisons, not differences: inf - inf would hide a
        # repeat; a nan compares false either way and passes
        ts, ls = self.times, self.lambdas
        if any(map(operator.ge, ts, ts[1:])):
            raise ValueError("times must be strictly increasing")
        if any(map(operator.gt, ls, ls[1:])):
            raise ValueError("lambdas must be non-decreasing")


def lifetime_profile(
    params: SystemParams, mode: ModeIndex, points: int = 2000, ceiling: float = math.inf
) -> LifetimeProfile:
    """Sample Lambda on the uniform grid t_j = T j / points, j < points.

    Sampling stops after the first value above `ceiling` (that value is
    kept, so a truncated profile ends just past the ceiling).
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    T = recording_window(params, mode)
    if T == 0.0:
        raise NeverRecordable(f"mode (k={mode.k}, n={mode.n}) has a degenerate window")
    g = _gamma(params, mode.n)
    sinh_gT = math.sinh(g * T)
    ts, ls = [], []
    for j in range(points):
        t = T * j / points
        lam = _lambda_at(t, T, g, sinh_gT)
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
    """Full description of one lifetime figure.

    ordinate_scale converts the decay exponent into a recall time; only the
    proportionality is modelled, so the constant defaults to 1.0 and is kept
    here so downstream consumers can see it was a choice.
    """

    figure: str
    L: float = 1.0
    c: float = 1.0
    modes: tuple = ()
    ceiling: float = 10.0
    points: int = 2000
    ordinate_scale: float = 1.0

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
    """Rows (curve_id, t, scaled Lambda) for every curve of the figure.

    Curves are ordered by curve_id and rows by t; every mode must be
    recordable (lifetime_profile's NeverRecordable propagates, no partial table).
    """
    params = spec.params()
    rows = []
    curves = sorted(spec.modes, key=lambda kn: spec.curve_id(*kn))
    for k, n in curves:
        cid = spec.curve_id(k, n)
        profile = lifetime_profile(
            params, ModeIndex(k=k, n=n), points=spec.points, ceiling=spec.ceiling
        )
        for t, lam in zip(profile.times, profile.lambdas):
            rows.append((cid, t, spec.ordinate_scale * lam))
    return rows
