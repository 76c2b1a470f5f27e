"""Spherical Bessel module: frozen oracle values, identities, domain guards.

Expected values were computed with the independent references in _oracles.py
(ascending power series for the first kind; closed-form-seeded upward
recurrence for the second kind) at 50 significant digits, then frozen here.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from memdomain.bessel import (
    BesselKind,
    sph_deriv,
    sph_j,
    sph_j_array,
    sph_second_deriv,
    sph_y,
    sph_y_array,
)
from memdomain.errors import DomainError

from _oracles import bessel_deriv, oracle_deriv, series_sph_j, upward_sph_y

GRID_Z = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
GRID_N = range(0, 13)

# fmt: off
FROZEN_J = {
    (0, 0.5):  0.95885107720840600055,
    (1, 0.5):  0.16253703063606656886,
    (2, 1.0):  0.062035052011373861102,
    (5, 2.0):  0.002635169770244117349,
    (8, 3.0):  0.00014983375626892927106,
    (12, 10.0): 0.017215999744992806055,
    (3, 0.1):  9.5185197208655686299e-6,
}
FROZEN_Y = {
    (0, 1.0):  -0.5403023058681397174,
    (1, 1.0):  -1.3817732906760362241,
    (2, 1.0):  -3.6050175661599689548,
    (5, 2.0):  -18.591445311190985562,
    (12, 10.0): -0.40196424849784976283,
    (12, 0.1): -3.1630289796270616673e+24,
    (3, 0.5):  -246.13004692361646071,
}
# fmt: on


def _value(kind, n, z):
    return sph_j(n, z) if kind is BesselKind.FIRST else sph_y(n, z)


def _mp_j(n, z):
    """j_n(z) from mpmath's cylinder function, at the caller's precision."""
    z = mp.mpf(z)
    return mp.sqrt(mp.pi / (2 * z)) * mp.besselj(n + mp.mpf(1) / 2, z)


class TestFrozenValues:
    @pytest.mark.parametrize("key,expected", sorted(FROZEN_J.items()))
    def test_first_kind(self, key, expected):
        n, z = key
        assert sph_j(n, z) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("key,expected", sorted(FROZEN_Y.items()))
    def test_second_kind(self, key, expected):
        n, z = key
        assert sph_y(n, z) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_anchors(self):
        assert sph_j(0, math.pi / 2) == pytest.approx(2 / math.pi, rel=1e-15)
        assert sph_j(1, 0.5) == pytest.approx(0.1625370, abs=5e-8)
        assert sph_y(1, 1.0) == pytest.approx(-1.3817733, abs=5e-8)
        assert sph_deriv(BesselKind.FIRST, 0, math.pi) == pytest.approx(
            -1 / math.pi, rel=1e-13
        )
        # y0' = cos z / z^2 + sin z / z
        z = math.pi / 2
        assert sph_deriv(BesselKind.SECOND, 0, z) == pytest.approx(
            math.cos(z) / z**2 + math.sin(z) / z, rel=1e-13
        )

    def test_limits_at_zero(self):
        assert sph_j(0, 0.0) == 1.0
        for n in range(1, 8):
            assert sph_j(n, 0.0) == 0.0


class TestOracleGrid:
    def test_first_kind_grid(self):
        for n in GRID_N:
            for z in GRID_Z:
                ref = float(series_sph_j(n, z))
                assert sph_j(n, z) == pytest.approx(ref, rel=1e-12), (n, z)

    def test_second_kind_grid(self):
        for n in GRID_N:
            for z in GRID_Z:
                ref = float(upward_sph_y(n, z))
                assert sph_y(n, z) == pytest.approx(ref, rel=1e-12), (n, z)

    def test_deep_decay_rescaling(self):
        # z far below n exercises the overflow-guarded downward pass
        for n, z in [(5, 1e-8), (30, 0.3), (40, 2.0)]:
            ref = float(series_sph_j(n, z))
            assert sph_j(n, z) == pytest.approx(ref, rel=1e-12), (n, z)

    @pytest.mark.parametrize("z", [0.08, 0.1, 0.2, 0.3, 0.6, 0.99])
    def test_first_order_below_one_is_cancellation_free(self, z):
        # the closed form sin z/z^2 - cos z/z read 4.6e-14 at z = 0.08 and
        # 1.7e-15 at 0.3; the series below z = 1 holds j_1 to round-off
        ref = float(series_sph_j(1, z))
        assert abs(sph_j(1, z) - ref) <= 4e-16 * abs(ref)


class TestIdentities:
    def test_wronskian(self):
        # j_n(z) y_n'(z) - j_n'(z) y_n(z) = 1/z^2
        for n in GRID_N:
            for z in GRID_Z:
                w = sph_j(n, z) * sph_deriv(BesselKind.SECOND, n, z) - sph_deriv(
                    BesselKind.FIRST, n, z
                ) * sph_y(n, z)
                assert abs(w - 1 / z**2) <= 1e-10 / z**2, (n, z)

    def test_three_term_recurrence(self):
        # f_{n-1} + f_{n+1} = ((2n+1)/z) f_n, scaled by the largest member
        for kind in (BesselKind.FIRST, BesselKind.SECOND):
            for n in range(1, 12):
                for z in GRID_Z:
                    lhs = _value(kind, n - 1, z) + _value(kind, n + 1, z)
                    rhs = (2 * n + 1) / z * _value(kind, n, z)
                    scale = max(abs(lhs), abs(rhs), 1.0)
                    assert abs(lhs - rhs) <= 1e-12 * scale, (kind, n, z)

    def test_ode_residual(self):
        # z^2 f'' + 2z f' + (z^2 - n(n+1)) f = 0, second derivative obtained
        # from the recurrence applied twice (independent of the equation)
        for kind in (BesselKind.FIRST, BesselKind.SECOND):
            for n in GRID_N:
                for z in GRID_Z:
                    f = _value(kind, n, z)
                    res = (
                        z * z * sph_second_deriv(kind, n, z)
                        + 2 * z * sph_deriv(kind, n, z)
                        + (z * z - n * (n + 1)) * f
                    )
                    assert abs(res) <= 1e-9 * (1 + abs(f)), (kind, n, z)


class TestDerivatives:
    def test_against_oracle_derivative(self):
        cases = [
            (BesselKind.FIRST, 0, math.pi),
            (BesselKind.FIRST, 5, 2.0),
            (BesselKind.SECOND, 0, math.pi / 2),
            (BesselKind.SECOND, 3, 1.5),
        ]
        frozen = [
            -0.31830988618379067154,
            0.0061738834521829692441,
            0.63661977236758134308,
            8.7590168122516650737,
        ]
        for (kind, n, z), ref in zip(cases, frozen):
            assert sph_deriv(kind, n, z) == pytest.approx(ref, rel=1e-12)
            assert float(oracle_deriv(kind.value, n, z)) == pytest.approx(ref, rel=1e-12)

    def test_against_finite_differences(self):
        # 4th-order central differences at h = 1e-5: the second kind grows
        # like (n/z)^n, so a 2nd-order stencil's truncation term f''' h^2/6
        # would swamp the comparison in the steep corner (large n, small z).
        h = 1e-5
        for kind in (BesselKind.FIRST, BesselKind.SECOND):
            for n in GRID_N:
                for z in [0.5, 1.0, 2.0, 5.0, 10.0]:
                    fd = (
                        -_value(kind, n, z + 2 * h)
                        + 8 * _value(kind, n, z + h)
                        - 8 * _value(kind, n, z - h)
                        + _value(kind, n, z - 2 * h)
                    ) / (12 * h)
                    d = sph_deriv(kind, n, z)
                    assert abs(d - fd) <= 1e-10 * max(1.0, abs(d)), (kind, n, z)

    @pytest.mark.parametrize("kind", list(BesselKind))
    @pytest.mark.parametrize("z", [1e-300, 1e-8, 1e-4, 0.05])
    def test_small_z_against_mpmath(self, kind, z):
        # the recurrence's 1/z terms swamp j_n'' at small z, and z*z
        # underflows at 1e-300; y_n' and y_n'' past the float range are +inf
        # and -inf
        for n in range(6):
            for order, fn in ((1, sph_deriv), (2, sph_second_deriv)):
                got = fn(kind, n, z)
                ref = bessel_deriv(kind.value, n, z, order)
                if abs(ref) > 1.7e308:
                    assert got == math.copysign(math.inf, ref), (n, order)
                else:
                    assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-300), (n, order)

    @pytest.mark.parametrize("z", [0.08, 0.1, 0.3])
    def test_first_kind_second_derivative_above_series_range(self, z):
        # the derivative recurrence read 7.2e-11 (n = 1, z = 0.08) and
        # 4.9e-11 (n = 1, z = 0.1) here, and the value combination 4.9e-14
        # while j_1 came from its cancelling closed form; with j_1 from the
        # series it reads 2.2e-16
        for n in range(6):
            ref = float(bessel_deriv("j", n, z, 2, dps=60))
            got = sph_second_deriv(BesselKind.FIRST, n, z)
            assert abs(got - ref) <= 1e-15 * abs(ref), n

    @pytest.mark.parametrize("n,z", [(0, 2.39e-103), (2, 5.1e-62), (2, 6.3e-62),
                                     (5, 1.19e-38), (5, 1.47e-38)])
    def test_second_kind_second_derivative_near_overflow(self, n, z):
        # |y_n''| of 3.6e307 to 1.5e308, where y_{n+2} has already overflowed
        # and y_n'' comes from the ratio form
        ref = bessel_deriv("y", n, z, 2, dps=80)
        assert abs(ref) < 1.7e308
        got = sph_second_deriv(BesselKind.SECOND, n, z)
        assert abs(got - float(ref)) <= 1e-15 * abs(float(ref)), (got, ref)


class TestDomain:
    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            sph_j(-1, 1.0)
        with pytest.raises(DomainError):
            sph_j(2, -0.5)
        with pytest.raises(DomainError):
            sph_j(2, math.nan)
        with pytest.raises(DomainError):
            sph_j(2, math.inf)
        with pytest.raises(DomainError):
            sph_y(0, 0.0)
        with pytest.raises(DomainError):
            sph_y(3, -1.0)
        with pytest.raises(DomainError):
            sph_deriv(BesselKind.FIRST, 1, 0.0)
        with pytest.raises(DomainError):
            sph_j(1.5, 1.0)  # type: ignore[arg-type]
        # the kind is a BesselKind, not its letter
        with pytest.raises(DomainError, match="unknown kind 'j'"):
            sph_deriv("j", 2, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 12])
    def test_first_kind_at_the_z_limit(self, n):
        # z = 1e5, far above n, where the upward pass serves; error relative
        # to the 1/z envelope of j_n, against mpmath (at most 1.7e-16 here)
        z = 1e5
        assert abs(sph_j(n, z) - float(_mp_j(n, z))) * z <= 5e-16
        assert sph_j_array(n, [z, 2.0]).tolist() == [sph_j(n, z), sph_j(n, 2.0)]

    @pytest.mark.parametrize("z", [math.nextafter(1e5, math.inf), 1e20, 1e308])
    def test_first_kind_at_huge_z(self, z):
        # no z limit: the upward pass takes n steps at any finite z. The
        # reference is mpmath's j_n at 1e5 and above that the leading
        # asymptotic form sin(z - n pi/2)/z, whose k-th derivative shifts
        # the phase by k pi/2 and whose next term is n(n+1)/(2z) of it. The
        # working precision keeps z - pi from rounding back to z.
        n = 3
        got = {0: sph_j(n, z), 1: sph_deriv(BesselKind.FIRST, n, z),
               2: sph_second_deriv(BesselKind.FIRST, n, z)}
        assert sph_j_array(n, [2.0, z]).tolist() == [sph_j(n, 2.0), got[0]]
        with mp.workdps(int(math.log10(z)) + 40):
            for order, value in got.items():
                if z < 1e6:
                    ref = _mp_j(n, z) if order == 0 else bessel_deriv("j", n, z, order, dps=40)
                else:
                    ref = mp.sin(mp.mpf(z) - (n - order) * mp.pi / 2) / z
                assert math.isfinite(value)
                assert abs(mp.mpf(value) - ref) * z <= 1e-15, order

    def test_order_limit(self):
        for call in (lambda: sph_j(10**5 + 1, 1.0), lambda: sph_y(10**400, 1.0),
                     lambda: sph_y_array(10**5 + 1, [1.0])):
            with pytest.raises(DomainError, match=r"order must be in \[0, 100000\]"):
                call()

    def test_second_kind_blows_up_toward_zero(self):
        assert abs(sph_y(4, 1e-3)) > 1e12

    @pytest.mark.parametrize("n,z", [(1, 1e-300), (1, 5e-324), (0, 5e-324),
                                     (3, 1e-120), (4, 1e-120), (300, 1.0)])
    def test_second_kind_past_the_float_range_is_minus_inf(self, n, z):
        # y_1 once z*z underflows to 0 (it divided by zero), y_n once the
        # upward recurrence overflows (two orders on it gave inf - inf = nan)
        assert sph_y(n, z) == -math.inf
        assert sph_y_array(n, [z, 2.0]).tolist() == [-math.inf, sph_y(n, 2.0)]

    def test_second_kind_tiny_z_bitwise_ties(self):
        # from where z*z is still normal down to the smallest subnormal; y_0
        # stays finite down to z ~ 1e-308
        z = np.concatenate([np.geomspace(5e-324, 1e-150, 97), [1e-300]])
        for n in (0, 1, 2, 3, 12, 40):
            ref = np.array([sph_y(n, float(x)) for x in z])
            assert np.array_equal(sph_y_array(n, z), ref)
            assert not np.any(np.isnan(ref)) and np.all(ref < 0)
        assert sph_y(0, 1e-300) == -math.cos(1e-300) / 1e-300


# orders at whose z = n the first kind switches from the descent to the
# upward pass
SWITCH_N = (2, 5, 12, 30, 150)


def _switch_points(n):
    return [math.nextafter(n, 0), float(n), math.nextafter(n, math.inf)]


def _array_grid():
    """Log grid over [1e-3, 1.2e3] with the awkward cases mixed in: points
    out of order, repeated points, points below the series threshold
    (z < 1) interleaved with points of both recurrences, and z = n with its
    two float neighbours, either side of the switch between them."""
    z = np.geomspace(1e-3, 1.2e3, 241)
    extra = np.array([1e-8, 0.3, 2.0, 5.0, 5.0, 1045.0, 1e-3,
                      *(x for n in SWITCH_N for x in _switch_points(n))])
    z = np.concatenate([z, extra, z[::7]])
    return np.random.default_rng(7).permutation(z)


class TestArrayKernel:
    Z = _array_grid()

    # from n ~ 100 on, the downward pass rescales at z >= 1
    @pytest.mark.parametrize("n", [*range(13), 30, 40, 100, 150])
    def test_first_kind_bitwise_equals_scalar(self, n):
        z = np.concatenate([self.Z, [0.0, 0.0]])
        ref = np.array([sph_j(n, float(x)) for x in z])
        assert np.array_equal(sph_j_array(n, z), ref)
        if n in SWITCH_N:
            # both sides of the switch against mpmath, relative to
            # max(|j_n|, 1/z); the worst read 3.1e-15, at z = n = 150
            with mp.workdps(40):
                for x in _switch_points(n):
                    exact = _mp_j(n, x)
                    err = abs(sph_j(n, x) - exact) / max(abs(exact), 1 / mp.mpf(x))
                    assert err <= 1e-14, x

    # z at which the downward pass would rescale on the very step that
    # yields j_n. They lie below 1, so they pin the series branch's
    # scalar/array tie; at z >= 1 the pass cannot reach the rescale level
    # within the 40 orders between its seed and n.
    @pytest.mark.parametrize("n,z0", [(2, 2.6829164714990188e-06),
                                      (5, 3.1522790535124164e-06),
                                      (9, 3.73803325566539e-06),
                                      (12, 4.174987348650252e-06)])
    def test_rescale_on_saved_step(self, n, z0):
        z = np.concatenate([[z0], self.Z])
        ref = np.array([sph_j(n, float(x)) for x in z])
        assert np.array_equal(sph_j_array(n, z), ref)

    def test_overflowed_column_leaves_others_exact(self):
        # j_5(1e-100) would overflow the downward pass; the series branch
        # takes it (and underflows to 0), and the recurrence points beside
        # it must still match the scalar loop
        z = np.concatenate([[1e-100], self.Z])
        for n in (5, 12, 30, 150):
            ref = np.array([sph_j(n, float(x)) for x in z])
            assert np.array_equal(sph_j_array(n, z), ref, equal_nan=True)

    @pytest.mark.parametrize("n", [*range(13), 30, 40])
    def test_second_kind_bitwise_equals_scalar(self, n):
        # y_40 overflows to -inf near z = 1e-8 on both paths
        ref = np.array([sph_y(n, float(x)) for x in self.Z])
        assert np.array_equal(sph_y_array(n, self.Z), ref)

    @pytest.mark.parametrize("n", range(13))
    def test_against_scipy(self, n):
        # deviation as a fraction of the line's largest value
        z = np.geomspace(1e-3, 1.2e3, 241)
        for ours, ref in ((sph_j_array(n, z), spherical_jn(n, z)),
                          (sph_y_array(n, z), spherical_yn(n, z))):
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref)), n

    def test_first_order_small_z(self):
        # the closed form sin z/z^2 - cos z/z cancels here, to a negative
        # j_1(1e-8)
        for z in (1e-8, 1e-6, 1e-4):
            assert sph_j(1, z) == pytest.approx(spherical_jn(1, z), rel=1e-12)
        assert sph_j(1, 1e-300) == pytest.approx(1e-300 / 3, rel=1e-15)
        assert sph_j(2, 1e-30) == pytest.approx(1e-60 / 15, rel=1e-15)

    @pytest.mark.parametrize("n", [*range(13), 30])
    def test_small_z_against_references(self, n):
        # the series branch below z = 1 and the closed forms, the upward
        # pass and the descent just above it, down to z = 1e-300
        z = np.concatenate([np.geomspace(1e-300, 0.5, 151),
                            [0.08 * (1 - 2**-52), 0.08, 1 - 2**-53, 1.0]])
        ours = sph_j_array(n, z)
        assert np.array_equal(ours, [sph_j(n, float(x)) for x in z])
        ref = np.array([float(series_sph_j(n, float(x), dps=30)) for x in z])
        # below the normal float range both sides are subnormal or 0
        normal = np.abs(ref) >= 1e-290
        assert np.all(np.abs(ours - ref)[normal] <= 1e-12 * np.abs(ref)[normal])
        assert np.all(np.abs(ours[~normal]) <= 1e-290)
        # scipy.special.spherical_jn itself returns 0 once j_n drops below
        # about 1e-200 (j_1(1e-250) = 0), so it is compared above that only
        sc = spherical_jn(n, z)
        big = np.abs(ref) >= 1e-200
        assert np.all(np.abs(ours - sc)[big] <= 1e-12 * np.abs(sc)[big])

    def test_shapes(self):
        z = np.array([[0.5, 1.0], [2.0, 40.0]])
        out = sph_j_array(3, z)
        assert out.shape == (2, 2)
        assert out[1, 1] == sph_j(3, 40.0)
        assert sph_y_array(2, 1.5).shape == ()
        assert sph_y_array(2, 1.5) == sph_y(2, 1.5)
        assert sph_j_array(5, []).shape == (0,)
        assert sph_j_array(0, [0.0, 0]).tolist() == [1.0, 1.0]

    def test_rejects_bad_arguments(self):
        for n, z in [(-1, [1.0]), (1.5, [1.0]), (True, [1.0]), (2, [1.0, -0.5]),
                     (2, [math.nan]), (2, [1.0, math.inf]), (2, ["a"]),
                     (2, [True, False]), (2, [1 + 1j])]:
            with pytest.raises(DomainError):
                sph_j_array(n, z)
            with pytest.raises(DomainError):
                sph_y_array(n, z)
        with pytest.raises(DomainError):
            sph_y_array(3, [1.0, 0.0])
        # a ragged list is no array at all
        for fn in (sph_j_array, sph_y_array):
            with pytest.raises(DomainError, match="z must be an array of real numbers"):
                fn(2, [[1.0], [1.0, 2.0]])
