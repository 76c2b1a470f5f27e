"""Damped/amplified oscillator pair with an exponentially decaying frequency.

The model couples two mirrored lines,

    u'' + L u' + w(t)^2 u = 0        (damped)
    v'' - L v' + w(t)^2 v = 0        (amplified)

with w(t) = omega0 * exp(-L t / (2n+1)) for mode index n. The substitution
x = exp(-t/alpha), z = epsilon * x with alpha = (2n+1)/L and
epsilon = omega0 * alpha turns both lines into the spherical Bessel equation,
so the pair has the closed form

    u = M_n(z) * x^(n+1),    v = M_n(z) * x^(-n),
    M_n = a * j_n + b * y_n.

`closed_form_trajectory` samples (u, v, r) on a time grid with one Bessel
pass per line; `closed_form_state` gives (u, u', v, v') at one time, the
start an integration needs.

Both lines also collapse onto a single parametric oscillator
r'' + Omega(t)^2 r = 0 with Omega = sqrt(w^2 - L^2/4) via
u = r/sqrt(2) * exp(-Lt/2), v = r/sqrt(2) * exp(+Lt/2); Omega is real only
while the frequency stays above L/2 (the reality window).

The adaptive oracle `integrate_pair` uses the same structure: it integrates
the amplified line v and derives u = exp(-Lt) v and r = sqrt(2) v exp(-Lt/2)
from it. It integrates the damped line as well only for a start whose u half
is not the image of its v half, which no closed-form start is.

The mirrored branch n -> -(n+1) (growing frequency) is excluded by design.
SystemParams, ModeIndex, omega_mode and common_frequency belong to the
numpy-free scalar model in memdomain.lifetime and are re-exported here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import BesselKind, sph_deriv, sph_j, sph_j_array, sph_y, sph_y_array
from .errors import GridTooCoarse
from .lifetime import ModeIndex, SystemParams, common_frequency, omega_mode
from .ode import integrate_oscillator

__all__ = [
    "SystemParams",
    "ModeIndex",
    "SubstitutionParams",
    "Trajectory",
    "omega_mode",
    "common_frequency",
    "substitution",
    "closed_form_state",
    "closed_form_trajectory",
    "integrate_pair",
    "residual",
]


@dataclass(frozen=True)
class SubstitutionParams:
    """Derived substitution constants for one (params, mode) pair."""

    alpha: float  # (2n+1)/L, the mode's decay time scale
    epsilon: float  # omega0 * alpha, the t = 0 Bessel argument
    n: int

    def x(self, t: float) -> float:
        return math.exp(-t / self.alpha)

    def z(self, t: float) -> float:
        return self.epsilon * self.x(t)


@dataclass
class Trajectory:
    """Sampled pair solution. r is the parametric-oscillator radius, which
    satisfies u * v = r^2 / 2 whenever u and v share one undamped solution,
    as every closed-form pair does. meta is empty for the closed form and
    holds the solver statistics of an integrated pair."""

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name in ("u", "v", "r"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.times.shape:
                raise ValueError(f"{name} length does not match times")
            setattr(self, name, arr)
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


def substitution(params: SystemParams, mode: ModeIndex) -> SubstitutionParams:
    alpha = (2 * mode.n + 1) / params.L
    return SubstitutionParams(alpha=alpha, epsilon=params.omega0(mode.k) * alpha, n=mode.n)


def _combination(j, y, mode_n: int, z, coeffs):
    """M_n(z) = a j_n(z) + b y_n(z) through the scalar or array kernels j, y."""
    a, b = coeffs
    m = a * j(mode_n, z)
    if b != 0.0:
        m = m + b * y(mode_n, z)
    return m


def closed_form_state(
    params: SystemParams, mode: ModeIndex, t: float, coeffs=(1.0, 0.0)
) -> tuple[float, float, float, float]:
    """(u, du/dt, v, dv/dt) at time t; derivatives via the chain rule
    d/dt f(z) x^p = -(x^p/alpha) (z f'(z) + p f(z))."""
    sub = substitution(params, mode)
    x = sub.x(t)
    z = sub.z(t)
    n = mode.n
    a, b = coeffs
    m = _combination(sph_j, sph_y, n, z, coeffs)
    mp_ = a * sph_deriv(BesselKind.FIRST, n, z)
    if b != 0.0:
        mp_ += b * sph_deriv(BesselKind.SECOND, n, z)
    u = m * x ** (n + 1)
    v = m * x ** (-n)
    du = -(x ** (n + 1) / sub.alpha) * (z * mp_ + (n + 1) * m)
    dv = -(x ** (-n) / sub.alpha) * (z * mp_ - n * m)
    return u, du, v, dv


def closed_form_trajectory(
    params: SystemParams, mode: ModeIndex, t_grid, coeffs=(1.0, 0.0)
) -> Trajectory:
    """Closed-form (u, v, r) on a time grid, one Bessel pass per line.

    The per-point factors use `math` so each u and v sample equals
    closed_form_state's at that time bit for bit.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    sub = substitution(params, mode)
    n = mode.n
    times = t_grid.tolist()
    x = [sub.x(t) for t in times]
    m = _combination(sph_j_array, sph_y_array, n, sub.epsilon * np.array(x), coeffs)
    # Python's float pow, not np.power, which can differ in the last bit
    u = m * np.array([xi ** (n + 1) for xi in x])
    v = m * np.array([xi ** (-n) for xi in x])
    r = math.sqrt(2.0) * u * np.array([math.exp(params.L * t / 2) for t in times])
    return Trajectory(t_grid, u, v, r)


def integrate_pair(
    params: SystemParams,
    mode: ModeIndex,
    init,
    t_grid,
    rel_tol: float = 1e-10,
) -> Trajectory:
    """Adaptive-RK oracle for the pair: init = (u, du, v, dv) at t_grid[0].

    The amplified line v is integrated. u and v share one undamped solution
    w (u = exp(-Lt/2) w, v = exp(+Lt/2) w), so u = exp(-Lt) v and
    r = sqrt(2) v exp(-Lt/2) follow from it. The damped line u is integrated
    too only when its start is not the image of v's start,
    (exp(-L t0) v0, exp(-L t0) (dv0 - L v0)), to within the stepper's own
    error scale rel_tol (1 + |image|); closed_form_state starts always are.
    r comes from v in either case. meta holds rel_tol and, under "v" and
    "u", each integrated line's step statistics (see
    memdomain.ode.integrate_oscillator); "u" is None when u was derived.
    """
    init = tuple(float(q) for q in init)
    if len(init) != 4:
        raise ValueError("init must be (u, du, v, dv)")

    # omega_mode with its constants hoisted; the same operations in the
    # same order, so the same rounding
    w0 = params.omega0(mode.k)
    neg_l = -params.L
    order = 2 * mode.n + 1
    exp = math.exp

    def w2(t):
        w = w0 * exp(neg_l * t / order)
        return w * w

    t_grid = np.asarray(t_grid, dtype=float)
    u0, du0, v0, dv0 = init
    v, _, v_stats = integrate_oscillator(w2, neg_l, v0, dv0, t_grid, rel_tol)
    shift = exp(neg_l * float(t_grid[0]))
    image = (shift * v0, shift * (dv0 - params.L * v0))
    # written so that a nan start takes the integrating branch and fails there
    if all(abs(q - q_img) <= rel_tol * (1.0 + abs(q_img))
           for q, q_img in zip((u0, du0), image)):
        u, u_stats = v * np.exp(neg_l * t_grid), None
    else:
        u, _, u_stats = integrate_oscillator(w2, params.L, u0, du0, t_grid, rel_tol)
    r = math.sqrt(2.0) * v * np.exp(neg_l * t_grid / 2)
    return Trajectory(t_grid, u, v, r, meta={"rel_tol": rel_tol, "v": v_stats, "u": u_stats})


def residual(params: SystemParams, mode: ModeIndex, trajectory: Trajectory):
    """Per-sample residuals of both lines on the grid interior.

    Derivatives come from 4th-order central differences, so the first and
    last two samples carry no residual. Returns (times, res_u, res_v) with
    times = trajectory.times[2:-2]. Raises GridTooCoarse for fewer than 5
    samples, non-uniform spacing, or spacing above 1e-2 * alpha_n.
    """
    t = trajectory.times
    if t.size < 5:
        raise GridTooCoarse("need at least 5 samples for the 4th-order stencil")
    steps = np.diff(t)
    h = float(np.mean(steps))
    if np.max(np.abs(steps - h)) > 1e-8 * h:
        raise GridTooCoarse("residual check requires a uniform grid")
    sub = substitution(params, mode)
    if h > 1e-2 * sub.alpha:
        raise GridTooCoarse(
            f"spacing {h:.3g} exceeds 1e-2 * alpha_n = {1e-2 * sub.alpha:.3g}"
        )

    def derivs(f):
        d1 = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
        d2 = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (
            12 * h * h
        )
        return d1, d2

    ti = t[2:-2]
    w2 = np.array([omega_mode(params, mode, float(s)) ** 2 for s in ti])
    du, ddu = derivs(trajectory.u)
    dv, ddv = derivs(trajectory.v)
    res_u = ddu + params.L * du + w2 * trajectory.u[2:-2]
    res_v = ddv - params.L * dv + w2 * trajectory.v[2:-2]
    return ti, res_u, res_v
