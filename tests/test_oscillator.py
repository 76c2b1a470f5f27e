"""Oscillator pair: closed form vs adaptive oracle, identities, guards."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from memdomain.bessel import BesselKind, sph_deriv, sph_j, sph_second_deriv, sph_y
from memdomain.errors import (
    GridTooCoarse,
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
from memdomain.lifetime import recording_window
from memdomain.ode import _A, _B4, _B5, _C, integrate_oscillator

from _oracles import vector_damped_oscillator

PARAMS = SystemParams(L=1.0)
MODE2 = ModeIndex(k=2.0, n=1)  # omega0 = 2, window T = 3 ln 4


def integrate_line(omega_sq, damping, init, grid, rel_tol=1e-10):
    """One line of the stepper as an array of (q, dq/dt) rows, the shape
    the vector reference in _oracles returns."""
    q, p, _ = integrate_oscillator(omega_sq, damping, *init, grid, rel_tol)
    return np.column_stack((q, p))


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
        # t + (target - t) falls one ulp short of a grid time here; the
        # remaining sliver used to raise StepSizeUnderflow at t = 0.00995669
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
    def _damped_line(mode, init, grid, rel_tol=1e-10):
        return vector_damped_oscillator(_mode_w2(PARAMS, mode), PARAMS.L, init, grid, rel_tol)

    def test_mismatched_start_integrates_both_lines(self):
        grid = np.linspace(0.0, 3.0, 121)
        init = (1.0, 0.0, 0.0, 1.0)
        traj = integrate_pair(PARAMS, MODE2, init, grid)
        assert traj.meta["u"] is not None
        _assert_bitwise(traj.u, self._damped_line(MODE2, init[:2], grid)[:, 0])
        v_ref = vector_damped_oscillator(_mode_w2(PARAMS, MODE2), -PARAMS.L, init[2:], grid)
        _assert_bitwise(traj.v, v_ref[:, 0])
        _assert_bitwise(traj.r, math.sqrt(2.0) * traj.v * np.exp(-PARAMS.L * grid / 2))

    def test_perturbed_closed_form_start_integrates_both_lines(self):
        grid = np.linspace(0.0, 3.0, 121)
        u0, du0, v0, dv0 = closed_form_state(PARAMS, MODE2, 0.0)
        for init in ((u0 + 1e-6, du0, v0, dv0), (u0, du0 - 1e-6, v0, dv0)):
            traj = integrate_pair(PARAMS, MODE2, init, grid)
            assert traj.meta["u"] is not None
            _assert_bitwise(traj.u, self._damped_line(MODE2, init[:2], grid)[:, 0])

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
                    ref = self._damped_line(MODE2, start, grid, rel_tol)
                    _assert_bitwise(traj.u, ref[:, 0])
                else:
                    assert np.array_equal(traj.u, traj.v * np.exp(-PARAMS.L * grid))

    def test_non_finite_u_start_is_not_dropped(self):
        grid = np.linspace(0.0, 1.0, 11)
        _, du0, v0, dv0 = closed_form_state(PARAMS, MODE2, 0.0)
        with pytest.raises(StepSizeUnderflow, match="step nan"):
            integrate_pair(PARAMS, MODE2, (math.nan, du0, v0, dv0), grid)

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
        assert np.max(np.abs(back[:, 0] - fwd[::-1, 0])) <= 1e-6

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

    def test_grid_guards(self):
        with pytest.raises(GridTooCoarse):
            residual(PARAMS, MODE2, closed_form_trajectory(PARAMS, MODE2, np.linspace(0, 1, 4)))
        # spacing above 1e-2 * alpha (alpha = 3 here)
        with pytest.raises(GridTooCoarse):
            residual(PARAMS, MODE2, closed_form_trajectory(PARAMS, MODE2, np.linspace(0, 3, 51)))
        jitter = np.linspace(0.0, 1.0, 101)
        jitter[50] += 2e-4
        with pytest.raises(GridTooCoarse):
            residual(PARAMS, MODE2, closed_form_trajectory(PARAMS, MODE2, jitter))


class TestTrajectoryType:
    def test_validation(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            Trajectory(t, np.zeros(4), np.zeros(5), np.zeros(5))
        bad = t.copy()
        bad[3] = bad[1]
        with pytest.raises(ValueError):
            Trajectory(bad, np.zeros(5), np.zeros(5), np.zeros(5))

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


class TestStepperAgainstVectorForm:
    """The float stepper against the numpy-vector Dormand-Prince integrator
    kept in _oracles: the same steps and roundings, so equal bit for bit."""

    def test_tableau_pattern_the_stepper_assumes(self):
        # zero entries are skipped, the last stage row is the 5th-order
        # weight row (first same as last) and the last two stages sit at t + h
        assert [i for i, a in enumerate(_A[6]) if not a] == [1]
        assert _B5 == _A[6] + (0.0,)
        assert [i for i, b in enumerate(_B4) if not b] == [1]
        assert all(all(row) for row in _A[1:6])
        assert _C[5] == _C[6] == 1.0

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
            _assert_bitwise(traj.v, v_ref[:, 0])
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
        _assert_bitwise(traj.v, vector_damped_oscillator(w2, -params.L, init[2:], grid)[:, 0])
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
        # the vector form never returns here: its first step is nan
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(StepSizeUnderflow, match="step nan"):
            integrate_line(lambda t: 1.0, 1.0, (math.nan, 0.0), grid)
        with pytest.raises(StepSizeUnderflow, match="step nan"):
            integrate_line(lambda t: math.nan, 1.0, (1.0, 0.0), grid)

    def test_init_must_be_a_pair(self):
        # the start of both lines, (u, du, v, dv), not of one
        grid = np.linspace(0.0, 1.0, 11)
        for init in ((1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0, 0.0)):
            with pytest.raises(ValueError, match="init must be"):
                integrate_pair(PARAMS, MODE2, init, grid)


class TestIntegratorAccuracy:
    def test_large_mode_against_mpmath(self):
        """k = 55, n = 9 on 500 points up to t = 30 against mpmath's Bessel
        function. rel_tol = 1e-10 bounds each step's local error, with the
        same 1e-10 as an absolute floor on the amplified line v, of size
        1e2; over its 26 000 steps the global error reaches 5.0e-8 of the
        line's largest value. u = exp(-Lt) v and r = sqrt(2) v exp(-Lt/2)
        carry v's relative error, and read 2.0e-8 (u) and 4.8e-8 (r). r
        taken from an integrated damped line, of size 1e-3 under the same
        absolute floor, read 1.2e-3. The bound leaves a factor of 20; the
        closed form stays within 1e-12."""
        params = SystemParams(L=1.0)
        mode = ModeIndex(k=55.0, n=9)
        grid = np.linspace(0.0, 30.0, 500)
        traj = integrate_pair(params, mode, closed_form_state(params, mode, 0.0), grid)
        closed = closed_form_trajectory(params, mode, grid)
        sub = substitution(params, mode)
        ref_u, ref_v, ref_r = [], [], []
        with mp.workdps(30):
            alpha, eps = mp.mpf(sub.alpha), mp.mpf(sub.epsilon)
            for t in grid.tolist():
                x = mp.exp(-mp.mpf(t) / alpha)
                z = eps * x
                m = mp.sqrt(mp.pi / (2 * z)) * mp.besselj(mp.mpf(mode.n) + 0.5, z)
                u = m * x ** (mode.n + 1)
                ref_u.append(float(u))
                ref_v.append(float(m * x ** (-mode.n)))
                ref_r.append(float(mp.sqrt(2) * u * mp.exp(params.L * mp.mpf(t) / 2)))
        for ref, ode, cf in ((ref_u, traj.u, closed.u), (ref_v, traj.v, closed.v),
                             (ref_r, traj.r, closed.r)):
            ref = np.array(ref)
            size = np.max(np.abs(ref))
            assert np.max(np.abs(ode - ref)) <= 1e-6 * size
            assert np.max(np.abs(cf - ref)) <= 1e-12 * size
        assert traj.meta["u"] is None
        stats = traj.meta["v"]
        assert stats["nfev"] == 1 + 6 * (stats["accepted"] + stats["rejected"])
        assert 0 < stats["h_min"] <= stats["h_max"] <= 30.0
