"""Oscillator pair: closed form vs adaptive oracle, identities, guards."""

import itertools
import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memdomain.oscillator
from memdomain.bessel import BesselKind, sph_deriv, sph_j, sph_second_deriv, sph_y
from memdomain.errors import (
    DomainError,
    RealityViolation,
    StepSizeUnderflow,
    UnsupportedBranch,
)
from memdomain.oscillator import (
    ModeIndex,
    SystemParams,
    Trajectory,
    closed_form_state,
    closed_form_trajectory,
    common_frequency,
    integrate_pair,
    omega_mode,
    residual,
    substitution,
)
from memdomain.cli import main
from memdomain.lifetime import recording_window
from memdomain.ode import (
    _A,
    _A_DENSE,
    _B,
    _B3,
    _C,
    _C_DENSE,
    _D,
    _E3,
    _E5,
    integrate_oscillator,
)

from _oracles import vector_damped_oscillator

PARAMS = SystemParams(L=1.0)
MODE2 = ModeIndex(k=2.0, n=1)  # omega0 = 2, window T = 3 ln 4


def integrate_line(omega_sq, damping, init, grid, rel_tol=1e-10):
    """One line of the stepper: q on the grid, as the vector reference in
    _oracles returns it."""
    q, _ = integrate_oscillator(omega_sq, damping, *init, grid, rel_tol)
    return q


def analytic_residuals(params, mode, t, coeffs=(1.0, 0.0)):
    """Residuals of both lines with derivatives taken analytically.

    The chain rule for f(z) x^p gives d/dt = -(1/alpha) x^p (z f' + p f);
    applying it twice needs M'' which comes from the derivative recurrence
    applied twice, keeping this check independent of the Bessel equation.
    """
    sub = substitution(params, mode)
    a, b = coeffs
    n = mode.n
    x = sub.x(t)
    z = sub.z(t)
    m = a * sph_j(n, z) + b * sph_y(n, z)
    mp_ = a * sph_deriv(BesselKind.FIRST, n, z) + b * sph_deriv(BesselKind.SECOND, n, z)
    mpp = a * sph_second_deriv(BesselKind.FIRST, n, z) + b * sph_second_deriv(
        BesselKind.SECOND, n, z
    )
    al = sub.alpha
    w2 = omega_mode(params, mode, t) ** 2
    u = m * x ** (n + 1)
    du = -(x ** (n + 1) / al) * (z * mp_ + (n + 1) * m)
    ddu = (x ** (n + 1) / al**2) * (
        z * ((n + 2) * mp_ + z * mpp) + (n + 1) * (z * mp_ + (n + 1) * m)
    )
    v = m * x ** (-n)
    dv = -(x ** (-n) / al) * (z * mp_ - n * m)
    ddv = (x ** (-n) / al**2) * (z * z * mpp + (1 - 2 * n) * z * mp_ + n * n * m)
    res_u = ddu + params.L * du + w2 * u
    res_v = ddv - params.L * dv + w2 * v
    return res_u, res_v, u, v


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(L=0.0)
        with pytest.raises(ValueError):
            SystemParams(L=-1.0)
        with pytest.raises(ValueError):
            SystemParams(L=1.0, c=math.inf)
        with pytest.raises(ValueError):
            ModeIndex(k=0.0, n=1)
        with pytest.raises(ValueError):
            ModeIndex(k=2.0, n=0.5)  # type: ignore[arg-type]

    def test_huge_int_is_not_finite(self):
        for build in (lambda: ModeIndex(k=10**400, n=1),
                      lambda: SystemParams(L=10**400)):
            with pytest.raises(DomainError, match="must be finite"):
                build()

    def test_fields_keep_their_values(self):
        # validated, not converted: an int k stays an int
        mode = ModeIndex(k=2, n=1)
        assert repr(mode) == "ModeIndex(k=2, n=1)"
        assert repr(SystemParams(L=1)) == "SystemParams(L=1, c=1.0)"
        with pytest.raises(UnsupportedBranch):
            ModeIndex(k=2.0, n=-10**400)

    def test_negative_n_is_the_excluded_branch(self):
        with pytest.raises(UnsupportedBranch):
            ModeIndex(k=2.0, n=-1)
        with pytest.raises(UnsupportedBranch):
            ModeIndex(k=2.0, n=-3)

    def test_threshold_momentum(self):
        assert SystemParams(L=1.0, c=1.0).k0 == 0.5
        assert SystemParams(L=2.0, c=4.0).k0 == 0.25

    def test_substitution_reconstructs_params(self):
        # dyadic parameters reconstruct bit-identically across every n
        for L, k in [(1.0, 2.0), (0.5, 4.0), (2.0, 0.75)]:
            params = SystemParams(L=L)
            for n in [0, 1, 2, 5, 17, 100]:
                sub = substitution(params, ModeIndex(k=k, n=n))
                assert (2 * n + 1) / sub.alpha == L
                assert sub.epsilon / sub.alpha == params.omega0(k)


class TestFrequencies:
    def test_omega_examples(self):
        assert omega_mode(PARAMS, MODE2, 0.0) == 2.0
        # large n: frequency barely moves
        huge = ModeIndex(k=2.0, n=10**6)
        assert omega_mode(PARAMS, huge, 5.0) == pytest.approx(2.0, rel=1e-5)

    def test_common_frequency_window(self):
        assert common_frequency(PARAMS, MODE2, 0.0) == pytest.approx(
            math.sqrt(3.75), rel=1e-15
        )
        T = 3 * math.log(4)
        assert common_frequency(PARAMS, MODE2, T) == pytest.approx(0.0, abs=1e-7)
        with pytest.raises(RealityViolation):
            common_frequency(PARAMS, MODE2, T + 0.1)

    def test_omega_monotone_decay(self):
        ts = np.linspace(0.0, 3.0, 50)
        ws = [omega_mode(PARAMS, MODE2, float(t)) for t in ts]
        assert all(a > b for a, b in zip(ws, ws[1:]))


class TestClosedForm:
    def test_initial_values_equal(self):
        for n in [0, 1, 4]:
            mode = ModeIndex(k=2.0, n=n)
            eps = substitution(PARAMS, mode).epsilon
            traj = closed_form_trajectory(PARAMS, mode, [0.0])
            assert traj.u[0] == pytest.approx(sph_j(n, eps), rel=1e-14)
            assert traj.v[0] == pytest.approx(sph_j(n, eps), rel=1e-14)

    def test_n0_elementary_form(self):
        mode = ModeIndex(k=2.0, n=0)
        traj = closed_form_trajectory(PARAMS, mode, [0.0, 0.4, 1.3, 2.8])
        for t, u, v in zip(traj.times.tolist(), traj.u, traj.v):
            x = math.exp(-t)
            z = 2 * x
            assert u == pytest.approx(math.sin(z) / z * x, rel=1e-13)
            assert v == pytest.approx(math.sin(z) / z, rel=1e-13)

    def test_linearity_in_coeffs(self):
        one = closed_form_trajectory(PARAMS, MODE2, [1.1], coeffs=(1.0, 0.5))
        two = closed_form_trajectory(PARAMS, MODE2, [1.1], coeffs=(2.0, 1.0))
        assert two.u[0] == 2 * one.u[0] and two.v[0] == 2 * one.v[0]

    def test_product_identity(self):
        # u * v = r^2 / 2 for every mode and any coefficients
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 11))
            mode = ModeIndex(k=2.0, n=n)
            t = float(rng.uniform(0.0, 3.0))
            coeffs = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            traj = closed_form_trajectory(PARAMS, mode, [t], coeffs)
            u, v, r = traj.u[0], traj.v[0], traj.r[0]
            assert u * v == pytest.approx(r * r / 2, rel=1e-10, abs=1e-14)

    def test_analytic_residuals_vanish(self):
        # 200 random times, n <= 10, both basis solutions and a mix
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(0, 11))
            mode = ModeIndex(k=2.0, n=n)
            t = float(rng.uniform(0.0, 4.0))
            for coeffs in [(1.0, 0.0), (0.0, 1.0), (0.7, -0.4)]:
                res_u, res_v, u, v = analytic_residuals(PARAMS, mode, t, coeffs)
                assert abs(res_u) <= 1e-8 * (1 + abs(u)), (n, t, coeffs)
                assert abs(res_v) <= 1e-8 * (1 + abs(v)), (n, t, coeffs)

    def test_refused_before_the_bessel_pass(self, monkeypatch):
        # malformed grids, and grids on which x underflows or x^-n or
        # e^(Lt/2) overflows (x underflows to 0 at t = 2300 here), name t
        # and not z
        def no_pass(*args):
            raise AssertionError("Bessel pass on a refused input")

        for name in ("sph_j", "sph_j_array"):
            monkeypatch.setattr(f"memdomain.oscillator.{name}", no_pass)
        for grid in ([0.0, math.nan], [0.0, 1.0, math.inf], [[0.0, 1.0]], [],
                     [0.0, 1.0, 1.0], [False, True], ["0", "1"], [0.0, [1.0, 2.0]]):
            with pytest.raises(DomainError, match="t_grid"):
                closed_form_trajectory(PARAMS, MODE2, grid)
        for grid in ([0.0, 2000.0], [2300.0], [-3000.0, 0.0]):
            with pytest.raises(DomainError, match="float range for t in"):
                closed_form_trajectory(PARAMS, MODE2, grid)
        for t in (2300.0, 1e300, -1e300):
            with pytest.raises(DomainError, match="float range at t ="):
                closed_form_state(PARAMS, MODE2, t)
        # for n = 0, x underflows to 0 at t = 800 while x^1 and x^-0 do not fail
        mode0 = ModeIndex(k=2.0, n=0)
        with pytest.raises(DomainError, match="float range at t = 800"):
            closed_form_state(PARAMS, mode0, 800.0)
        with pytest.raises(DomainError, match=r"float range for t in \[0, 800\]"):
            closed_form_trajectory(PARAMS, mode0, [0.0, 800.0])

    def test_window_never_reaches_the_descent(self, monkeypatch, tmp_path):
        # inside the window z = epsilon e^(-t/alpha) falls to n + 1/2 at T,
        # so j_n comes from the series or the upward pass, never the descent
        def no_descent(*args):
            raise AssertionError("first-kind descent inside a recording window")

        monkeypatch.setattr("memdomain.bessel._descent", no_descent)
        for k, n in itertools.product(np.geomspace(0.6, 1e3, 9).tolist(), range(13)):
            mode = ModeIndex(k=k, n=n)
            end = 0.999 * recording_window(PARAMS, mode)
            closed_form_trajectory(PARAMS, mode, np.linspace(0.0, end, 50))
            closed_form_state(PARAMS, mode, end)
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--L", "1", "--k", "2", "--n", "1", "--t-max", "3",
                     "--points", "60", "--method", "both", "--out", "traj.csv"]) == 0

    def test_derivative_state_matches_finite_differences(self):
        h = 1e-6
        for n in [0, 1, 3]:
            mode = ModeIndex(k=2.0, n=n)
            for t in [0.3, 1.7]:
                _, du, _, dv = closed_form_state(PARAMS, mode, t)
                near = closed_form_trajectory(PARAMS, mode, [t - h, t + h])
                assert du == pytest.approx((near.u[1] - near.u[0]) / (2 * h), abs=1e-8)
                assert dv == pytest.approx((near.v[1] - near.v[0]) / (2 * h), abs=1e-8)


def per_point_trajectory(params, mode, grid, coeffs):
    """The closed form evaluated one sample at a time with scalar Bessel
    calls: the reference the array path must match bit for bit."""
    sub = substitution(params, mode)
    a, b = coeffs
    n = mode.n
    u, v, r = [], [], []
    for t in grid:
        x = math.exp(-float(t) / sub.alpha)
        z = sub.epsilon * x
        m = a * sph_j(n, z)
        if b != 0.0:
            m += b * sph_y(n, z)
        u.append(m * x ** (n + 1))
        v.append(m * x ** (-n))
        r.append(math.sqrt(2.0) * u[-1] * math.exp(params.L * t / 2))
    return np.array(u), np.array(v), np.array(r)


class TestTrajectoryArrayPath:
    @pytest.mark.parametrize("k,n", [(2.0, 1), (0.55, 7), (8.0, 0), (55.0, 9)])
    @pytest.mark.parametrize("coeffs", [(1.0, 0.0), (0.7, -0.3), (0.0, 1.0)])
    def test_bitwise_equals_per_point(self, k, n, coeffs):
        mode = ModeIndex(k=k, n=n)
        window = (2 * n + 1) * math.log(2 * k)
        grid = np.linspace(0.0, 0.9 * window, 301)
        traj = closed_form_trajectory(PARAMS, mode, grid, coeffs)
        u, v, r = per_point_trajectory(PARAMS, mode, grid, coeffs)
        assert np.array_equal(traj.u, u)
        assert np.array_equal(traj.v, v)
        assert np.array_equal(traj.r, r)


class TestRadius:
    def test_consistent_from_both_lines(self):
        traj = closed_form_trajectory(PARAMS, MODE2, [0.0, 0.9, 2.2])
        for t, u, v, r in zip(traj.times.tolist(), traj.u, traj.v, traj.r):
            assert r == pytest.approx(math.sqrt(2) * u * math.exp(PARAMS.L * t / 2), rel=1e-14)
            assert r == pytest.approx(math.sqrt(2) * v * math.exp(-PARAMS.L * t / 2), rel=1e-12)

    def test_radius_equation_inside_window(self):
        # r'' + Omega^2 r = 0, second derivative from a 4th-order stencil
        rng = np.random.default_rng(3)
        h = 1e-3
        T = 3 * math.log(4)
        for _ in range(100):
            t = float(rng.uniform(5 * h, T - 5 * h))
            rs = closed_form_trajectory(PARAMS, MODE2, [t + i * h for i in (-2, -1, 0, 1, 2)]).r
            ddr = (-rs[4] + 16 * rs[3] - 30 * rs[2] + 16 * rs[1] - rs[0]) / (12 * h * h)
            om = common_frequency(PARAMS, MODE2, t)
            assert abs(ddr + om * om * rs[2]) <= 1e-8, t

    def test_wronskian_of_independent_solutions_constant(self):
        # W = r1 r2' - r1' r2 for the (a,b) = (1,0) and (0,1) solutions; the
        # closed form gives W = -2 / (alpha * epsilon) at every time.
        sub = substitution(PARAMS, MODE2)
        expected = -2.0 / (sub.alpha * sub.epsilon)

        def radius_state(t, coeffs):
            u, du, _, _ = closed_form_state(PARAMS, MODE2, t, coeffs)
            e = math.exp(PARAMS.L * t / 2)
            r = math.sqrt(2) * u * e
            dr = math.sqrt(2) * e * (du + PARAMS.L / 2 * u)
            return r, dr

        for t in np.linspace(0.0, 3.5, 40):
            r1, dr1 = radius_state(float(t), (1.0, 0.0))
            r2, dr2 = radius_state(float(t), (0.0, 1.0))
            w = r1 * dr2 - dr1 * r2
            assert w == pytest.approx(expected, rel=1e-8)


class TestIntegration:
    def test_matches_closed_form(self):
        for n in [0, 1, 2]:
            mode = ModeIndex(k=2.0, n=n)
            tmax = 3.0 if n == 0 else (2 * n + 1) * math.log(4)
            grid = np.linspace(0.0, tmax, 401)
            init = closed_form_state(PARAMS, mode, 0.0)
            traj = integrate_pair(PARAMS, mode, init, grid, rel_tol=1e-10)
            ref = closed_form_trajectory(PARAMS, mode, grid)
            assert np.max(np.abs(traj.u - ref.u)) <= 1e-6
            assert np.max(np.abs(traj.v - ref.v)) <= 1e-6

    def test_step_clipped_to_grid_time_lands_exactly(self):
        # when every step was clipped to the next grid time, t + (target - t)
        # fell one ulp short of a grid time here, and the sliver left raised
        # StepSizeUnderflow at t = 0.00995669
        params = SystemParams(L=1.0)
        mode = ModeIndex(k=3.148719109108496, n=1)
        grid = np.linspace(0.0, 4.968385880412281, 500)
        init = closed_form_state(params, mode, 0.0)
        traj = integrate_pair(params, mode, init, grid)
        ref = closed_form_trajectory(params, mode, grid)
        assert np.max(np.abs(traj.u - ref.u)) <= 1e-6
        assert np.max(np.abs(traj.v - ref.v)) <= 1e-6

    def test_zero_data_stays_zero(self):
        grid = np.linspace(0.0, 2.0, 51)
        traj = integrate_pair(PARAMS, MODE2, (0.0, 0.0, 0.0, 0.0), grid)
        assert np.all(traj.u == 0.0) and np.all(traj.v == 0.0)
        assert np.all(traj.r == 0.0)
        assert traj.meta["u"] is None

    def test_closed_form_start_integrates_v_only(self):
        # u = exp(-Lt) v and r = sqrt(2) v exp(-Lt/2) at absolute t, also
        # for a grid that starts after t = 0
        for t0 in (0.0, 0.75):
            grid = np.linspace(t0, 3.0, 201)
            init = closed_form_state(PARAMS, MODE2, t0)
            traj = integrate_pair(PARAMS, MODE2, init, grid)
            assert traj.meta["u"] is None
            assert traj.meta["v"]["accepted"] > 0
            assert np.array_equal(traj.u, traj.v * np.exp(-PARAMS.L * grid))
            assert traj.u[0] == pytest.approx(init[0], rel=1e-15)
            ref = closed_form_trajectory(PARAMS, MODE2, grid)
            for line in ("u", "v", "r"):
                assert np.max(np.abs(getattr(traj, line) - getattr(ref, line))) <= 1e-8

    def test_closed_form_starts_take_the_single_line_branch(self):
        # the two halves of a closed-form start agree to about 1 ulp, far
        # inside the tightest rel_tol, for either kind and any start time
        rng = random.Random(4)
        for _ in range(300):
            params = SystemParams(L=rng.uniform(0.1, 5.0), c=rng.uniform(0.5, 2.0))
            k = math.exp(rng.uniform(0.01, 4.5)) * params.L / (2 * params.c)
            mode = ModeIndex(k=k, n=rng.randrange(13))
            t0 = rng.uniform(0.0, 0.95) * recording_window(params, mode)
            coeffs = rng.choice([(1.0, 0.0), (0.0, 1.0), (0.7, -0.4)])
            init = closed_form_state(params, mode, t0, coeffs)
            traj = integrate_pair(params, mode, init, [t0, t0 + 1e-3], rel_tol=1e-13)
            assert traj.meta["u"] is None, (params, mode, t0, coeffs)

    @staticmethod
    def _lifted_line(mode, init, grid, rel_tol=1e-10):
        """u from a start (u0, du0) at grid[0] as integrate_pair takes it
        when that start is not the image of v's: the amplified line
        U = exp(Lt) u on the vector reference, times exp(-Lt)."""
        (u0, du0), t0 = init, float(grid[0])
        lift = math.exp(PARAMS.L * t0)
        start = (lift * u0, lift * (du0 + PARAMS.L * u0))
        lifted = vector_damped_oscillator(_mode_w2(PARAMS, mode), -PARAMS.L, start, grid,
                                          rel_tol)
        return lifted * np.exp(-PARAMS.L * grid)

    def test_mismatched_start_integrates_both_lines(self):
        grid = np.linspace(0.0, 3.0, 121)
        init = (1.0, 0.0, 0.0, 1.0)
        traj = integrate_pair(PARAMS, MODE2, init, grid)
        assert traj.meta["u"] is not None
        _assert_bitwise(traj.u, self._lifted_line(MODE2, init[:2], grid))
        v_ref = vector_damped_oscillator(_mode_w2(PARAMS, MODE2), -PARAMS.L, init[2:], grid)
        _assert_bitwise(traj.v, v_ref)
        _assert_bitwise(traj.r, math.sqrt(2.0) * traj.v * np.exp(-PARAMS.L * grid / 2))

    def test_perturbed_closed_form_start_integrates_both_lines(self):
        grid = np.linspace(0.0, 3.0, 121)
        u0, du0, v0, dv0 = closed_form_state(PARAMS, MODE2, 0.0)
        for init in ((u0 + 1e-6, du0, v0, dv0), (u0, du0 - 1e-6, v0, dv0)):
            traj = integrate_pair(PARAMS, MODE2, init, grid)
            assert traj.meta["u"] is not None
            _assert_bitwise(traj.u, self._lifted_line(MODE2, init[:2], grid))

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
    def test_branch_follows_the_rel_tol_scale(self, rel_tol):
        # the image of v's start, then u and u' moved to just inside and
        # just outside rel_tol (1 + |image|)
        grid = np.linspace(1.0, 3.0, 81)
        v0, dv0 = 0.3, -0.7
        shift = math.exp(-PARAMS.L * 1.0)
        image = (shift * v0, shift * (dv0 - PARAMS.L * v0))
        for which in (0, 1):
            for factor, integrates_u in ((0.99, False), (1.01, True)):
                start = list(image)
                start[which] += factor * rel_tol * (1.0 + abs(image[which]))
                traj = integrate_pair(PARAMS, MODE2, (*start, v0, dv0), grid, rel_tol)
                assert (traj.meta["u"] is not None) == integrates_u, (which, factor)
                if integrates_u:
                    ref = self._lifted_line(MODE2, start, grid, rel_tol)
                    _assert_bitwise(traj.u, ref)
                else:
                    assert np.array_equal(traj.u, traj.v * np.exp(-PARAMS.L * grid))

    def test_non_finite_u_start_is_not_dropped(self):
        # u is derived from v, but a nan u start is refused, not ignored
        grid = np.linspace(0.0, 1.0, 11)
        _, du0, v0, dv0 = closed_form_state(PARAMS, MODE2, 0.0)
        with pytest.raises(DomainError, match="u0 must be finite"):
            integrate_pair(PARAMS, MODE2, (math.nan, du0, v0, dv0), grid)

    def test_lift_past_the_float_range(self):
        # U = exp(Lt) u cannot start where exp(L t0) overflows; v can
        grid = [800.0, 801.0]
        integrate_pair(PARAMS, MODE2, (0.0, 0.0, 0.0, 1.0), grid)
        with pytest.raises(DomainError, match="exp.L t0. leaves the float range at t0 = 800"):
            integrate_pair(PARAMS, MODE2, (1.0, 0.0, 0.0, 1.0), grid)

    def test_time_reversal_maps_lines(self):
        # v integrated forward equals the damped line driven by the
        # time-reversed frequency schedule, started from the mapped endpoint.
        T0 = 2.5
        grid = np.linspace(0.0, T0, 301)
        _, _, v0, dv0 = closed_form_state(PARAMS, MODE2, 0.0)

        def w2(t):
            return omega_mode(PARAMS, MODE2, t) ** 2

        fwd = integrate_line(w2, -PARAMS.L, (v0, dv0), grid, 1e-10)
        _, _, vT, dvT = closed_form_state(PARAMS, MODE2, T0)

        def w2_rev(t):
            return omega_mode(PARAMS, MODE2, T0 - t) ** 2

        back = integrate_line(w2_rev, +PARAMS.L, (vT, -dvT), grid, 1e-10)
        assert np.max(np.abs(back - fwd[::-1])) <= 1e-6

    def test_refused_before_the_first_step(self):
        # the grid, the start, the damping and rel_tol are checked before
        # the stepper evaluates the frequency once
        def no_step(t):
            raise AssertionError("stepped on a refused input")

        line = (no_step, 1.0, 1.0, 0.0)
        for grid in ([0.0, math.inf], [0.0, math.nan], [[0.0, 1.0]], [0.0], [1.0, 0.0],
                     [0.0, [1.0, 2.0]]):
            with pytest.raises(DomainError, match="t_grid"):
                integrate_oscillator(*line, grid, 1e-10)
        grid = [0.0, 1.0]
        for i, bad in itertools.product(range(3), (math.nan, -math.inf, True, "1")):
            args = list(line)
            args[i + 1] = bad
            with pytest.raises(DomainError, match="must be"):
                integrate_oscillator(*args, grid, 1e-10)
        for tol in (math.nan, "1e-10", True, 1e-2):
            with pytest.raises(DomainError, match="rel_tol"):
                integrate_oscillator(*line, grid, tol)

    def test_phase_limit_refused_before_the_first_step(self, monkeypatch):
        # at L 1, k 1e9, n 0 the phase of w over [0, t] is 1e9 (1 - e^-t);
        # t_limit makes it 1e5. Just above, the grid is refused before the
        # stepper is called; just below, the stepper is reached
        def no_step(*args):
            raise AssertionError("reached the stepper")

        monkeypatch.setattr(memdomain.oscillator, "integrate_oscillator", no_step)
        mode = ModeIndex(k=1e9, n=0)
        start = closed_form_state(PARAMS, mode, 0.0)
        t_limit = -math.log1p(-1e5 / 1e9)
        with pytest.raises(DomainError, match=r"is 100000 rad .* limit 100000$"):
            integrate_pair(PARAMS, mode, start, [0.0, t_limit * (1 + 1e-6)])
        with pytest.raises(AssertionError, match="reached the stepper"):
            integrate_pair(PARAMS, mode, start, [0.0, t_limit * (1 - 1e-6)])

    def test_phase_past_ten_thousand_rad(self):
        # 1.2e4 rad at L 1, k 1e9, n 0, about 40 000 steps; it read 1.3e-7
        # of each line's size against the closed form
        mode = ModeIndex(k=1e9, n=0)
        grid = np.linspace(0.0, -math.log1p(-1.2e4 / 1e9), 201)
        traj = integrate_pair(PARAMS, mode, closed_form_state(PARAMS, mode, 0.0), grid)
        closed = closed_form_trajectory(PARAMS, mode, grid)
        assert traj.meta["v"]["accepted"] > 30000
        for line in ("u", "v", "r"):
            ref = getattr(closed, line)
            assert np.max(np.abs(getattr(traj, line) - ref)) <= 1e-6 * np.max(np.abs(ref)), line

    def test_memory_bounded_by_the_grid(self):
        # the stepper keeps one row of doubles for each step that holds a
        # grid time, so its memory follows the grid, not the steps: at
        # k 1e5, n 0 the phase over [0, t] is about 1e5 t, so these two
        # 200-point grids span about 1e2 and 1e3 rad. Keeping every step
        # end, 32 bytes a step, peaked at 136 KB and 1.03 MB here
        mode = ModeIndex(k=1e5, n=0)
        start = closed_form_state(PARAMS, mode, 0.0)
        integrate_pair(PARAMS, mode, start, [0.0, 1e-4])  # first-call imports
        peaks, steps = [], []
        for t_max in (1e-3, 1e-2):
            tracemalloc.start()
            try:
                traj = integrate_pair(PARAMS, mode, start, np.linspace(0.0, t_max, 200))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert traj.meta["u"] is None
            steps.append(traj.meta["v"]["accepted"])
        assert steps[1] > 5 * steps[0] > 1000
        assert abs(peaks[1] - peaks[0]) <= 1024

    def test_rejects_bad_tolerance(self):
        grid = np.linspace(0.0, 1.0, 11)
        init = closed_form_state(PARAMS, MODE2, 0.0)
        for bad in (1e-14, 1e-2, 0.0):
            with pytest.raises(ValueError):
                integrate_pair(PARAMS, MODE2, init, grid, rel_tol=bad)

    def test_step_underflow_on_singular_coefficient(self):
        def w2(t):
            return 1.0 / abs(1.5 - t)

        grid = np.array([0.0, 3.0])
        with pytest.raises(StepSizeUnderflow):
            integrate_line(w2, 1.0, (1.0, 0.0), grid, 1e-10)


class TestResidualCheck:
    def test_closed_form_passes(self):
        grid = np.linspace(0.0, 3.0, 2001)
        traj = closed_form_trajectory(PARAMS, MODE2, grid)
        _, res_u, res_v = residual(PARAMS, MODE2, traj)
        assert np.max(np.abs(res_u)) <= 1e-8
        assert np.max(np.abs(res_v)) <= 1e-8

    def test_zero_trajectory_zero_residual(self):
        grid = np.linspace(0.0, 1.0, 101)
        z = np.zeros_like(grid)
        traj = Trajectory(grid, z, z, z)
        _, res_u, res_v = residual(PARAMS, MODE2, traj)
        assert np.all(res_u == 0.0) and np.all(res_v == 0.0)

    def test_corruption_is_localized(self):
        grid = np.linspace(0.0, 3.0, 2001)
        traj = closed_form_trajectory(PARAMS, MODE2, grid)
        traj.u[700] += 1e-3
        _, res_u, _ = residual(PARAMS, MODE2, traj)
        peak = int(np.argmax(np.abs(res_u)))
        assert np.max(np.abs(res_u)) > 1e-3
        assert abs((peak + 2) - 700) <= 2  # interior offset of the stencil
        far = np.abs(res_u[np.abs(np.arange(res_u.size) + 2 - 700) > 4])
        assert np.max(far) <= 1e-8

    def test_refuses_caller_built_lines_off_the_grid(self):
        # a caller-built Trajectory is checked where it enters: lines that
        # do not match the times, and times that do not increase
        t = np.linspace(0.0, 0.04, 5)
        with pytest.raises(ValueError, match="match times"):
            residual(PARAMS, MODE2, Trajectory(t, np.zeros(4), np.zeros(5), np.zeros(5)))
        with pytest.raises(ValueError, match="match times"):
            residual(PARAMS, MODE2, Trajectory(t, np.zeros(5), np.zeros(6), np.zeros(5)))
        for bad in (np.zeros(5), t[::-1], np.full(5, math.nan)):
            with pytest.raises(DomainError, match="uniform, increasing"):
                residual(PARAMS, MODE2, Trajectory(bad, *[np.zeros(5)] * 3))

    def test_grid_guards(self):
        with pytest.raises(DomainError):
            residual(PARAMS, MODE2, closed_form_trajectory(PARAMS, MODE2, np.linspace(0, 1, 4)))
        # spacing above 1e-2 * alpha (alpha = 3 here)
        with pytest.raises(DomainError):
            residual(PARAMS, MODE2, closed_form_trajectory(PARAMS, MODE2, np.linspace(0, 3, 51)))
        jitter = np.linspace(0.0, 1.0, 101)
        jitter[50] += 2e-4
        with pytest.raises(DomainError):
            residual(PARAMS, MODE2, closed_form_trajectory(PARAMS, MODE2, jitter))


class TestTrajectoryType:
    def test_product_invariant_on_sampled_data(self):
        grid = np.linspace(0.0, 2.0, 101)
        traj = closed_form_trajectory(PARAMS, MODE2, grid)
        lhs = traj.u * traj.v
        rhs = traj.r**2 / 2
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-15)


def _mode_w2(params, mode):
    """omega_mode squared as integrate_pair squares it (w * w, which can
    differ from w ** 2 in the last bit)."""

    def w2(t):
        w = omega_mode(params, mode, t)
        return w * w

    return w2


def _crosscheck_modes(seed):
    """40 modes shaped like the benchmark's ODE checks: for each n = 0..3,
    ten momenta log-stratified over [0.6, 8] with a seeded jitter."""
    rng = random.Random(seed)
    lo, hi = math.log(0.6), math.log(8.0)
    width = (hi - lo) / 10
    return [(math.exp(lo + (i + 0.5 + 0.2 * (rng.random() - 0.5)) * width), n)
            for n in range(4) for i in range(10)]


def _assert_bitwise(got, ref):
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestTableau:
    """ode's written-out DOP853 constants against independent sources: the
    order conditions they must meet, and scipy's own copy of the tableau."""

    def test_row_sums_are_the_nodes(self):
        # c_i = sum_j a_ij for the twelve stages and the three dense ones;
        # stage 16, whose node the stepper never needs, sits at 7/9
        nodes = (*_C[1:], *_C_DENSE, 7 / 9)
        for row, c in zip((*_A[1:], *_A_DENSE), nodes, strict=True):
            # each entry is within half an ulp of its exact value
            bound = len(row) * math.ulp(max(map(abs, row))) / 2
            assert abs(math.fsum(row) - c) <= bound, (row, c)

    def test_quadrature_conditions(self):
        # sum_i b_i c_i^(m-1) = 1/m up to the order of each weight row: 8
        # for the propagating weights, 3 for the embedded 3rd-order ones;
        # the error rows are differences of such rows, so they sum to 0 up
        # to 5 (e5) and 3 (e3)
        def moment(weights, m):
            return math.fsum(w * c ** (m - 1) for w, c in zip(weights, _C, strict=True))

        for m in range(1, 9):
            assert abs(moment(_B, m) - 1 / m) <= 1e-15, m
        for m in range(1, 4):
            assert abs(moment(_B3, m) - 1 / m) <= 1e-15, m
            assert abs(moment(_E3, m)) <= 1e-15, m
        for m in range(1, 6):
            assert abs(moment(_E5, m)) <= 1e-15, m
        # and no higher: the orders are exact
        assert abs(moment(_B, 9) - 1 / 9) > 1e-6
        assert abs(moment(_E5, 6)) > 1e-6 and abs(moment(_E3, 4)) > 1e-6

    def test_against_scipy(self):
        # scipy's dop853_coefficients, from the same published tableau, to
        # within 1 ulp of each entry; a zero there is a zero here
        from scipy.integrate._ivp import dop853_coefficients as ref

        def same(ours, theirs):
            ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
            assert ours.shape == theirs.shape
            assert np.all(np.abs(ours - theirs) <= np.spacing(np.abs(theirs)))
            assert np.array_equal(ours == 0.0, theirs == 0.0)

        same(_C, ref.C[:12])
        same(_C_DENSE, ref.C[13:15])
        for i, row in enumerate(_A):
            same(row, ref.A[i, :i])
        for i, row in enumerate(_A_DENSE, start=13):
            same(row, ref.A[i, :i])
        same(_B, ref.B)
        same(_E5, ref.E5[:12])
        same(_E3, ref.E3[:12])
        # neither error row weighs the end value k_13
        assert ref.E5[12] == ref.E3[12] == 0.0
        same(_D, ref.D)


class TestStepperAgainstVectorForm:
    """The float stepper against the numpy-vector DOP853 integrator
    kept in _oracles: the same steps and roundings, so equal bit for bit."""

    def test_tableau_pattern_the_stepper_assumes(self):
        # the stepper names and reads only the nonzero entries: these are
        # the zeros it skips, by 1-based stage. Neither error row weighs the
        # end value, and the last stage sits at t + h, where the end value
        # is evaluated with it
        def zeros(row):
            return [j + 1 for j, a in enumerate(row) if not a]

        assert [zeros(row) for row in _A] == [[]] * 3 + [[2]] * 2 + [[2, 3]] * 7
        assert [zeros(row) for row in (_B, _E5, _E3, *_D)] == [[2, 3, 4, 5]] * 7
        assert [zeros(row) for row in _A_DENSE] == [
            [2, 3, 4, 5, 6], [2, 3, 4, 5, 9, 10], [2, 3, 4, 5, 10, 11, 12]]
        assert len(_B) == len(_E5) == len(_E3) == 12
        assert _C[11] == 1.0

    @pytest.mark.parametrize("n", range(4))
    def test_crosscheck_modes(self, n):
        params = SystemParams(L=1.0)
        for k, order in _crosscheck_modes(1):
            if order != n:
                continue
            mode = ModeIndex(k=k, n=n)
            grid = np.linspace(0.0, 0.9 * (2 * n + 1) * math.log(2 * k), 500)
            init = closed_form_state(params, mode, 0.0)
            traj = integrate_pair(params, mode, init, grid)
            w2 = _mode_w2(params, mode)
            v_ref = vector_damped_oscillator(w2, -params.L, init[2:], grid)
            _assert_bitwise(traj.v, v_ref)
            for damping, line in ((params.L, init[:2]), (-params.L, init[2:])):
                ref = vector_damped_oscillator(w2, damping, line, grid)
                _assert_bitwise(integrate_line(w2, damping, line, grid), ref)
            # u is derived from v, not integrated
            assert traj.meta["u"] is None
            closed = closed_form_trajectory(params, mode, grid)
            assert np.max(np.abs(traj.u - closed.u)) <= 1e-6

    def test_zero_data(self):
        grid = np.linspace(0.0, 2.0, 51)
        w2 = _mode_w2(PARAMS, MODE2)
        for init in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
            for damping in (PARAMS.L, -PARAMS.L):
                ref = vector_damped_oscillator(w2, damping, init, grid)
                _assert_bitwise(integrate_line(w2, damping, init, grid), ref)

    def test_time_reversal_case(self):
        T0 = 2.5
        grid = np.linspace(0.0, T0, 301)
        _, _, vT, dvT = closed_form_state(PARAMS, MODE2, T0)

        def w2_rev(t):
            return omega_mode(PARAMS, MODE2, T0 - t) ** 2

        ref = vector_damped_oscillator(w2_rev, +PARAMS.L, (vT, -dvT), grid)
        _assert_bitwise(integrate_line(w2_rev, +PARAMS.L, (vT, -dvT), grid), ref)

    def test_grid_landing_repro(self):
        params = SystemParams(L=1.0)
        mode = ModeIndex(k=3.148719109108496, n=1)
        grid = np.linspace(0.0, 4.968385880412281, 500)
        init = closed_form_state(params, mode, 0.0)
        w2 = _mode_w2(params, mode)
        traj = integrate_pair(params, mode, init, grid)
        _assert_bitwise(traj.v, vector_damped_oscillator(w2, -params.L, init[2:], grid))
        u_ref = vector_damped_oscillator(w2, params.L, init[:2], grid)
        _assert_bitwise(integrate_line(w2, params.L, init[:2], grid), u_ref)
        assert np.max(np.abs(traj.u - closed_form_trajectory(params, mode, grid).u)) <= 1e-6
        ref = vector_damped_oscillator(w2, params.L, init[:2], grid, 1e-8)
        _assert_bitwise(integrate_line(w2, params.L, init[:2], grid, 1e-8), ref)

    @staticmethod
    def _outcome(fn, *args):
        with np.errstate(all="ignore"):
            try:
                return fn(*args)
            except StepSizeUnderflow as exc:
                return str(exc)

    def test_singular_coefficient_underflows_on_both(self):
        def w2(t):
            return 1.0 / abs(1.5 - t)

        args = (w2, 1.0, (1.0, 0.0), np.array([0.0, 3.0]), 1e-10)
        ours = self._outcome(integrate_line, *args)
        assert isinstance(ours, str) and ours.startswith("step ")
        assert ours == self._outcome(vector_damped_oscillator, *args)

    @pytest.mark.parametrize("blowup", ["inf", "nan"])
    def test_overflowing_frequency_fails_alike(self, blowup):
        big = 1e300

        def w2(t):
            if t < 0.5:
                return 4.0
            return big * big if blowup == "inf" else big * big - big * big

        args = (w2, 1.0, (1.0, 0.0), np.linspace(0.0, 1.0, 11), 1e-10)
        ours = self._outcome(integrate_line, *args)
        assert isinstance(ours, str) and ours.endswith("at t = 0.5")
        assert ours == self._outcome(vector_damped_oscillator, *args)

    def test_non_finite_start_raises_instead_of_looping(self):
        # the vector form never returns here: its first step is nan. A nan
        # start is refused at entry; a nan frequency fails at the first step
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError, match="q0 must be finite"):
            integrate_line(lambda t: 1.0, 1.0, (math.nan, 0.0), grid)
        with pytest.raises(StepSizeUnderflow, match="step nan"):
            integrate_line(lambda t: math.nan, 1.0, (1.0, 0.0), grid)

    def test_init_must_be_a_pair(self):
        # the start of both lines, (u, du, v, dv), not of one
        grid = np.linspace(0.0, 1.0, 11)
        for init in ((1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0, 0.0)):
            with pytest.raises(ValueError, match="init must be"):
                integrate_pair(PARAMS, MODE2, init, grid)


# grid times as fractions of the span, each a lone point, a point and its
# next float up, or a point with five more 1e-9 of the span apart
GRID_PICKS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.sampled_from(("point", "ulp", "cluster"))),
    max_size=12,
)


def _picked_grid(t0, t1, picks):
    """A strictly increasing grid from t0 to t1 through the picked times."""
    times = {t0, t1}
    for frac, kind in picks:
        t = t0 + frac * (t1 - t0)
        times.add(t)
        if kind == "ulp":
            times.add(math.nextafter(t, math.inf))
        elif kind == "cluster":
            times.update(t + i * 1e-9 * (t1 - t0) for i in range(1, 6))
    return sorted(t for t in times if t0 <= t <= t1)


class TestDenseOutput:
    """The stepper takes free steps from the first grid time to the last and
    reads every grid time between them from DOP853's 7th-order dense
    output."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(GRID_PICKS)
    def test_steps_depend_on_the_grid_ends_only(self, picks):
        t0, t1 = 0.25, 3.0
        _, _, v0, dv0 = closed_form_state(PARAMS, MODE2, t0)
        w2 = _mode_w2(PARAMS, MODE2)
        q_ends, stats_ends = integrate_oscillator(w2, -PARAMS.L, v0, dv0, [t0, t1], 1e-10)
        grid = _picked_grid(t0, t1, picks)
        q, stats = integrate_oscillator(w2, -PARAMS.L, v0, dv0, grid, 1e-10)
        for key in ("accepted", "rejected"):
            assert stats[key] == stats_ends[key], key
        _assert_bitwise(q[[0, -1]], q_ends)
        assert q[0] == v0

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.floats(math.log(0.6), math.log(8.0)), st.integers(0, 3),
           st.floats(0.01, 1.0), GRID_PICKS)
    def test_nonuniform_grids_against_closed_form(self, log_k, n, reach, picks):
        """Modes shaped like the benchmark's ODE checks, on grids from t = 0
        to a random fraction of 0.9 T, with clustered points, points 1 ulp
        apart, or no point between the two ends. Each line's deviation is
        normalised by its size, the largest |value| of the closed form on
        401 uniform times over the same span. The worst measured over 3000
        such random grids was 4.1e-10 (v, n = 3), so the bound of 1e-8
        leaves a factor of 24. v also matches the vector reference bit for
        bit on every grid."""
        mode = ModeIndex(k=math.exp(log_k), n=n)
        t_end = reach * 0.9 * recording_window(PARAMS, mode)
        grid = _picked_grid(0.0, t_end, picks)
        init = closed_form_state(PARAMS, mode, 0.0)
        traj = integrate_pair(PARAMS, mode, init, grid)
        closed = closed_form_trajectory(PARAMS, mode, grid)
        sizes = closed_form_trajectory(PARAMS, mode, np.linspace(0.0, t_end, 401))
        for line in ("u", "v", "r"):
            dev = np.max(np.abs(getattr(traj, line) - getattr(closed, line)))
            assert dev <= 1e-8 * np.max(np.abs(getattr(sizes, line))), line
        ref = vector_damped_oscillator(_mode_w2(PARAMS, mode), -PARAMS.L, init[2:], grid)
        _assert_bitwise(traj.v, ref)

    def test_work_of_a_fixed_integration(self):
        """k = 2, n = 1 on 500 points over 0.9 T at rel_tol 1e-10 took 337
        RHS evaluations (24 accepted steps, none rejected); Dormand-Prince
        5(4) took 751, and stepping to every grid time 3001. The bound is
        the measured count plus 10 %, so a return to grid-bound stepping or
        to a lower-order pair fails here."""
        mode = ModeIndex(k=2.0, n=1)
        grid = np.linspace(0.0, 0.9 * recording_window(PARAMS, mode), 500)
        traj = integrate_pair(PARAMS, mode, closed_form_state(PARAMS, mode, 0.0), grid, 1e-10)
        assert traj.meta["v"]["nfev"] <= 370

    def test_clipped_last_step_lands_on_the_end_time(self):
        # the fourth and last step here is clipped to end at t1, and
        # t + (t1 - t) is one ulp short of t1; a fifth step of one ulp would
        # follow from there, so the last step lands on t1 itself
        t0, t1, w2 = -0.6761672351668376, 0.1593406821852569, 1.336775498775722
        q, stats = integrate_oscillator(lambda t: w2, 0.5, 1.0, 0.0, [t0, t1], 1e-3)
        _assert_bitwise(q, vector_damped_oscillator(lambda t: w2, 0.5, (1.0, 0.0),
                                                    [t0, t1], 1e-3))
        assert stats["accepted"] == 4 and stats["rejected"] == 0
        assert stats["h_min"] == 0.0037403438382729343

    @pytest.mark.parametrize("grid", [
        [1.0, math.nextafter(1.0, 2.0)],   # one ulp, below the step floor
        [0.0, 1e-14],                      # the floor itself
        [0.0, 5e-14, 6e-14],               # a tenth of the span below it
    ], ids=["one ulp", "1e-14", "6e-14"])
    def test_span_at_the_step_floor(self, grid):
        # the first step is at least min(floor, span), and a span under the
        # floor is one landing step; neither ends in StepSizeUnderflow
        init = closed_form_state(PARAMS, MODE2, grid[0])
        traj = integrate_pair(PARAMS, MODE2, init, grid)
        closed = closed_form_trajectory(PARAMS, MODE2, np.array(grid))
        assert np.abs(traj.v - closed.v).max() <= 1e-15
        assert traj.meta["v"]["rejected"] == 0
        w2 = _mode_w2(PARAMS, MODE2)
        _assert_bitwise(traj.v, vector_damped_oscillator(w2, -PARAMS.L, init[2:], grid))

    def test_solution_past_the_float_range(self):
        # v grows like e^(Lt) from the integrator's own error once the
        # frequency has decayed, and overflows near t = 735
        init = closed_form_state(PARAMS, MODE2, 0.0)
        for end in (1e4, 1e300):
            with pytest.raises(DomainError, match=r"leaves the float range at t = 73\d"):
                integrate_pair(PARAMS, MODE2, init, [0.0, 0.5, end])


def _mpmath_lines(params, mode, grid, coeffs=(1.0, 0.0)):
    """(u, v, r) of the closed-form pair with M_n = a j_n + b y_n on the
    grid, from mpmath's Bessel functions at 30 digits."""
    sub = substitution(params, mode)
    a, b = coeffs
    lines = [], [], []
    with mp.workdps(30):
        alpha, eps, order = mp.mpf(sub.alpha), mp.mpf(sub.epsilon), mp.mpf(mode.n) + 0.5
        for t in grid.tolist():
            x = mp.exp(-mp.mpf(t) / alpha)
            z = eps * x
            m = mp.sqrt(mp.pi / (2 * z)) * (a * mp.besselj(order, z) + b * mp.bessely(order, z))
            u = m * x ** (mode.n + 1)
            for line, value in zip(lines, (u, m * x ** (-mode.n),
                                           mp.sqrt(2) * u * mp.exp(params.L * mp.mpf(t) / 2))):
                line.append(float(value))
    return [np.array(line) for line in lines]


def _deviation(line, ref):
    """The largest deviation from ref, over ref's largest |value|."""
    return np.max(np.abs(line - ref)) / np.max(np.abs(ref))


class TestIntegratorAccuracy:
    PARAMS = SystemParams(L=1.0)
    MODE = ModeIndex(k=55.0, n=9)
    GRID = np.linspace(0.0, 30.0, 500)

    def test_large_mode_against_mpmath(self):
        """k = 55, n = 9 on 500 points up to t = 30 against mpmath's Bessel
        function. rel_tol = 1e-10 bounds each step's local error, with the
        same 1e-10 as an absolute floor on the amplified line v, of size
        6e3; over its 2 906 steps the global error reaches 1.3e-8 of the
        line's largest value. u = exp(-Lt) v and r = sqrt(2) v exp(-Lt/2)
        carry v's relative error, and read 6.3e-9 (u) and 1.3e-8 (r). r
        taken from an integrated damped line, of size 5e-4 under the same
        absolute floor, read 8.7e-3. The bound leaves a factor of 7; the
        closed form stays within 1e-12. The steps are about six times
        finer than the grid, so each of its 498 inner times lies in a step
        of its own, which evaluates the two dense stages."""
        params, mode, grid = self.PARAMS, self.MODE, self.GRID
        traj = integrate_pair(params, mode, closed_form_state(params, mode, 0.0), grid)
        closed = closed_form_trajectory(params, mode, grid)
        refs = _mpmath_lines(params, mode, grid)
        for name, ref in zip("uvr", refs):
            assert _deviation(getattr(traj, name), ref) <= 1e-7, name
            assert _deviation(getattr(closed, name), ref) <= 1e-12, name
        assert traj.meta["u"] is None
        stats = traj.meta["v"]
        assert stats["nfev"] == 1 + 12 * stats["accepted"] + 11 * stats["rejected"] + 2 * 498
        assert 0 < stats["h_min"] <= stats["h_max"] <= 30.0

    def test_non_image_u_against_mpmath(self):
        """The same mode with u started from the closed form of coeffs
        (1, 0.5) and v from (1, 0), so u's start is not the image of v's.
        u is integrated as U = exp(Lt) u, of v's size, and read 5.1e-9 of
        its size in 2 914 steps; integrated as the damped line itself, of
        size 7e-4 under the absolute floor rel_tol, it read 3.5e-8 in 1 177.
        The bound is 1e-8. v and r, taken from v, are as for the
        closed-form start."""
        params, mode, grid = self.PARAMS, self.MODE, self.GRID
        u0, du0, _, _ = closed_form_state(params, mode, 0.0, (1.0, 0.5))
        _, _, v0, dv0 = closed_form_state(params, mode, 0.0)
        traj = integrate_pair(params, mode, (u0, du0, v0, dv0), grid)
        assert traj.meta["u"] is not None
        ref_u, _, _ = _mpmath_lines(params, mode, grid, (1.0, 0.5))
        assert _deviation(traj.u, ref_u) <= 1e-8
        same_v = integrate_pair(params, mode, closed_form_state(params, mode, 0.0), grid)
        _assert_bitwise(traj.v, same_v.v)
        _assert_bitwise(traj.r, same_v.r)
