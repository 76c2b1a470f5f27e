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
from it. For a start whose u half is not the image of its v half, which no
closed-form start is, it also integrates U = exp(Lt) u, which solves v's
equation, and takes u = exp(-Lt) U.

The mirrored branch n -> -(n+1) (growing frequency) is excluded by design.
SystemParams, ModeIndex, omega_mode and common_frequency belong to the
numpy-free scalar model in memdomain.lifetime and are re-exported here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import BesselKind, sph_deriv, sph_j, sph_j_array, sph_y, sph_y_array
from .errors import DomainError, finite
from .lifetime import ModeIndex, SystemParams, common_frequency, omega_mode
from .ode import integrate_oscillator, time_grid

# The largest phase (integral of w dt) integrate_pair steps through: about
# 3.2 DOP853 steps a radian, at about 15 us of Python each; the memory
# follows the grid, not the steps. evolve --method ode --points 500 at L 1,
# n 0, k 1e9 took 0.8-1.0 s and 34 MB peak RSS at 1e4 rad, and 7.8 s and
# 34 MB at 1e5 (2-core Xeon, Python 3.11). The benchmark inputs reach 830
# (L 1, k 55, n 9, t to 30) and the test suite 1.2e4 (k 1e9, t to 1.2e-5).
_PHASE_MAX = 1e5

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

    def x(self, t: float) -> float:
        return math.exp(-t / self.alpha)

    def z(self, t: float) -> float:
        return self.epsilon * self.x(t)


@dataclass
class Trajectory:
    """Sampled pair solution, float64 arrays on a grid that passed time_grid.
    r is the parametric-oscillator radius: u * v = r^2 / 2 whenever u and v
    share one undamped solution, as every closed-form pair does. meta is
    empty for the closed form and holds an integrated pair's solver stats."""

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    meta: dict = field(default_factory=dict)


def substitution(params: SystemParams, mode: ModeIndex) -> SubstitutionParams:
    alpha = (2 * mode.n + 1) / params.L
    return SubstitutionParams(alpha=alpha, epsilon=params.omega0(mode.k) * alpha)


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
    d/dt f(z) x^p = -(x^p/alpha) (z f'(z) + p f(z)). DomainError for a t
    at which x underflows to 0 or x^(n+1) or x^-n leaves the float range."""
    t = finite("t", t)
    sub = substitution(params, mode)
    n = mode.n
    try:
        x = sub.x(t)
        xu, xv = x ** (n + 1), x ** (-n)
        in_range = x > 0.0  # x^-0 = 1 does not fail where x underflows
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise DomainError(f"x, x^(n+1) or x^-n leaves the float range at t = {t:g}")
    z = sub.epsilon * x
    a, b = coeffs
    m = _combination(sph_j, sph_y, n, z, coeffs)
    mp_ = a * sph_deriv(BesselKind.FIRST, n, z)
    if b != 0.0:
        mp_ += b * sph_deriv(BesselKind.SECOND, n, z)
    u = m * xu
    v = m * xv
    du = -(xu / sub.alpha) * (z * mp_ + (n + 1) * m)
    dv = -(xv / sub.alpha) * (z * mp_ - n * m)
    return u, du, v, dv


def closed_form_trajectory(
    params: SystemParams, mode: ModeIndex, t_grid, coeffs=(1.0, 0.0)
) -> Trajectory:
    """Closed-form (u, v, r) on a time grid, one Bessel pass per line.

    t_grid must pass time_grid(t_grid, 1). The per-point factors use `math`
    so each u and v sample equals closed_form_state's at that time bit for
    bit; a time at which one leaves the float range, or x underflows to 0,
    is a DomainError before the pass.
    """
    t_grid = time_grid(t_grid, 1)
    sub = substitution(params, mode)
    n = mode.n
    times = t_grid.tolist()
    # Python's float pow, not np.power, which can differ in the last bit
    try:
        x = [sub.x(t) for t in times]
        xu = np.array([xi ** (n + 1) for xi in x])
        xv = np.array([xi ** (-n) for xi in x])
        grow = np.array([math.exp(params.L * t / 2) for t in times])
        in_range = x[-1] > 0.0  # the smallest x; x^-0 = 1 does not fail at 0
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise DomainError(f"x, x^(n+1), x^-n or e^(Lt/2) leaves the float range"
                          f" for t in [{times[0]:g}, {times[-1]:g}]")
    m = _combination(sph_j_array, sph_y_array, n, sub.epsilon * np.array(x), coeffs)
    u = m * xu
    v = m * xv
    r = math.sqrt(2.0) * u * grow
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
    when u's start is the image of v's start,
    (exp(-L t0) v0, exp(-L t0) (dv0 - L v0)), to within the stepper's own
    error scale rel_tol (1 + |image|), as closed_form_state starts always
    are; then u = exp(-Lt) v. Otherwise the amplified line U = exp(Lt) u,
    which solves v's equation, is integrated from
    (exp(L t0) u0, exp(L t0) (du0 + L u0)) with v's damping, and
    u = exp(-Lt) U: so u is integrated at v's scale, not under an absolute
    tolerance far larger than a decayed u. r = sqrt(2) v exp(-Lt/2) comes
    from v in either case. Each line steps freely from the first grid time
    to the last, and its values in between come from the dense output
    (memdomain.ode.integrate_oscillator), so the steps do not depend on the
    grid times between. meta holds rel_tol and the step statistics of v
    under "v" and of U under "u"; "u" is None when u was derived from v.
    A v or U that leaves the float range before the last grid time is a
    DomainError naming the time, and so is a U whose exp(L t0) does. So is,
    before the first step, a grid whose phase, the integral of w dt from the
    first grid time to the last, is above 1e5: with z = epsilon x(t) that
    phase is exactly z(t_0) - z(t_end), the fall of the Bessel argument.
    """
    init = tuple(init)
    if len(init) != 4:
        raise ValueError("init must be (u, du, v, dv)")
    u0, du0, v0, dv0 = map(finite, ("u0", "du0", "v0", "dv0"), init)
    t_grid = time_grid(t_grid, 2)
    sub = substitution(params, mode)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are refused
        z_start, z_end = sub.epsilon * np.exp(-t_grid[[0, -1]] / sub.alpha)
    phase = float(z_start - z_end)
    if not phase <= _PHASE_MAX:
        raise DomainError(
            f"the phase of w over [{t_grid[0]:g}, {t_grid[-1]:g}] is {phase:.6g} rad"
            f" (the fall of z), above the integrator's limit {_PHASE_MAX:g}"
        )

    # omega_mode with its constants hoisted; the same operations in the
    # same order, so the same rounding
    w0 = params.omega0(mode.k)
    neg_l = -params.L
    order = 2 * mode.n + 1
    exp = math.exp

    def w2(t):
        w = w0 * exp(neg_l * t / order)
        return w * w

    v, v_stats = integrate_oscillator(w2, neg_l, v0, dv0, t_grid, rel_tol)
    t0 = float(t_grid[0])
    shift = exp(neg_l * t0)
    image = (shift * v0, shift * (dv0 - params.L * v0))
    if all(abs(q - q_img) <= rel_tol * (1.0 + abs(q_img))
           for q, q_img in zip((u0, du0), image)):
        lifted, u_stats = v, None
    else:
        try:
            lift = exp(params.L * t0)
        except OverflowError:
            raise DomainError(f"exp(L t0) leaves the float range at t0 = {t0:g}") from None
        lifted, u_stats = integrate_oscillator(
            w2, neg_l, lift * u0, lift * (du0 + params.L * u0), t_grid, rel_tol)
    u = lifted * np.exp(neg_l * t_grid)
    r = math.sqrt(2.0) * v * np.exp(neg_l * t_grid / 2)
    return Trajectory(t_grid, u, v, r, meta={"rel_tol": rel_tol, "v": v_stats, "u": u_stats})


def residual(params: SystemParams, mode: ModeIndex, trajectory: Trajectory):
    """Per-sample residuals of both lines on the grid interior.

    Derivatives come from 4th-order central differences, so the first and
    last two samples carry no residual. Returns (times, res_u, res_v) with
    times = trajectory.times[2:-2]. Raises ValueError when u or v does not
    match times in shape, and DomainError for fewer than 5 samples, a
    spacing that is not uniform and positive, or one above 1e-2 * alpha_n.
    """
    t = trajectory.times
    if trajectory.u.shape != t.shape or trajectory.v.shape != t.shape:
        raise ValueError("u and v must match times in shape")
    if t.size < 5:
        raise DomainError("need at least 5 samples for the 4th-order stencil")
    steps = np.diff(t)
    h = float(np.mean(steps))
    if not (h > 0 and np.max(np.abs(steps - h)) <= 1e-8 * h):
        raise DomainError("residual check requires a uniform, increasing grid")
    sub = substitution(params, mode)
    if h > 1e-2 * sub.alpha:
        raise DomainError(
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
