"""Recording window, threshold sweep, and decay-exponent tests.

The window length is cross-checked against a bisection root of the
common-frequency expression, which never sees the log formula.
"""

import ast
import dataclasses
import math
import operator
import random
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import memdomain.lifetime
import memdomain.oscillator
from memdomain.errors import DomainError, ModeDead, NeverRecordable, UnsupportedBranch
from memdomain.lifetime import (
    FIGURE_NAMES,
    FigureSpec,
    alive_at,
    curve_table,
    default_figure_spec,
    domain_size,
    domain_snapshot,
    lambda_lifetime,
    lifetime_profile,
    mode_alive,
    momentum_threshold,
    recording_window,
)
from memdomain.oscillator import ModeIndex, SystemParams, common_frequency, omega_mode

from _oracles import bisect_root

P = SystemParams(L=1.0, c=1.0)

# window for k = 2, n = 1 at L = c = 1; the decay exponent halfway through
# is exactly 0.5 ln 5
T21 = 3 * math.log(4.0)
LAM_HALF = 0.5 * math.log(5.0)


class TestWindow:
    def test_frozen_examples(self):
        assert recording_window(P, ModeIndex(k=2.0, n=1)) == pytest.approx(T21, rel=1e-12)
        assert recording_window(P, ModeIndex(k=2.0, n=4)) == pytest.approx(
            9 * math.log(4.0), rel=1e-12
        )

    def test_boundary_is_degenerate_not_fatal(self):
        # 2 omega0 == L exactly: zero-length window, not an error
        assert recording_window(P, ModeIndex(k=0.5, n=3)) == 0.0

    def test_rounded_negative_frequency_is_clamped_at_the_window_end(self):
        # at L 1, k 55, n 0, w(T)^2 - L^2/4 rounds to -2.2e-16, inside the
        # 1e-12 slack: the window end evaluates to 0, not RealityViolation
        mode = ModeIndex(k=55.0, n=0)
        T = recording_window(P, mode)
        assert omega_mode(P, mode, T) ** 2 - P.L**2 / 4 < 0
        assert common_frequency(P, mode, T) == 0.0

    def test_below_threshold_raises(self):
        with pytest.raises(NeverRecordable):
            recording_window(P, ModeIndex(k=0.4999, n=0))

    def test_bisection_oracle(self):
        # T is where the common frequency hits zero, i.e. omega^2 = L^2/4
        for k in (0.51, 0.7, 2.0, 8.0, 55.0):
            for n in (0, 1, 4, 9):
                mode = ModeIndex(k=k, n=n)
                T = recording_window(P, mode)

                def above(t):
                    return omega_mode(P, mode, t) ** 2 - P.L**2 / 4

                root = bisect_root(above, 0.0, 2 * T + 1.0, tol=1e-12)
                assert abs(root - T) <= 1e-10 * max(1.0, T)

    def test_odd_integer_scaling(self):
        # windows at fixed k scale as 2n+1
        for k in (0.51, 2.0, 55.0):
            for n in range(9):
                a = recording_window(P, ModeIndex(k=k, n=n))
                b = recording_window(P, ModeIndex(k=k, n=n + 1))
                assert b / a == pytest.approx((2 * n + 3) / (2 * n + 1), rel=1e-12)

    def test_monotone_in_momentum(self):
        ks = [0.51, 0.6, 1.0, 2.0, 10.0, 100.0]
        Ts = [recording_window(P, ModeIndex(k=k, n=2)) for k in ks]
        assert all(b > a for a, b in zip(Ts, Ts[1:]))

    def test_scales_with_damping(self):
        # L = 2, c = 1: threshold momentum doubles, window shrinks
        q = SystemParams(L=2.0, c=1.0)
        assert recording_window(q, ModeIndex(k=4.0, n=1)) == pytest.approx(
            T21 / 2, rel=1e-12
        )


class TestThreshold:
    def test_starts_at_k0(self):
        assert momentum_threshold(P, 0, 0.0) == P.k0 == 0.5

    def test_reaches_k_at_window_end(self):
        # the sweeping threshold arrives at k exactly when the window closes
        for k in (0.51, 2.0, 8.0, 55.0):
            for n in (0, 1, 5):
                T = recording_window(P, ModeIndex(k=k, n=n))
                assert momentum_threshold(P, n, T) == pytest.approx(k, rel=1e-12)

    def test_frozen_value(self):
        assert momentum_threshold(P, 1, T21) == pytest.approx(2.0, rel=1e-12)

    def test_alive_duality(self):
        # alive exactly while k is above the sweeping threshold
        mode = ModeIndex(k=2.0, n=1)
        T = recording_window(P, mode)
        for frac in (0.0, 0.3, 0.9, 0.999):
            t = frac * T
            assert mode_alive(P, mode, t)
            assert mode.k > momentum_threshold(P, mode.n, t)
        for t in (T, T * 1.5):
            assert not mode_alive(P, mode, t)
            assert mode.k <= momentum_threshold(P, mode.n, t) * (1 + 1e-12)

    def test_never_recordable_modes_report_dead(self):
        assert not mode_alive(P, ModeIndex(k=0.1, n=4), 0.0)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(
        hs.sampled_from([P, SystemParams(L=3.0, c=0.25), SystemParams(L=1e-300),
                         SystemParams(L=1e300)]),
        hs.floats(5e-324, 1e308) | hs.sampled_from([0.5, 0.5000000000000001, 6.0, 1e308]),
        hs.integers(0, 9) | hs.sampled_from([-1, True, 2**1022, 2**1023, 2**1024, 10**400]),
        hs.floats(0.0, 1e3) | hs.just("T"),
    )
    def test_alive_at_is_mode_alive(self, params, k, n, t):
        # the same decision, or the same error, as building the mode
        def outcome(fn, *args):
            try:
                return fn(*args)
            except Exception as exc:
                return type(exc), str(exc)

        def built(fn, *args):
            return fn(params, ModeIndex(k=k, n=n), *args)

        if t == "T":  # the window end itself, where one exists
            t = outcome(built, recording_window)
            t = t if isinstance(t, float) else 0.0
        assert outcome(alive_at, params, k, n, t) == outcome(built, mode_alive, t)

    def test_higher_n_sweeps_slower(self):
        ts = 2.5
        thr = [momentum_threshold(P, n, ts) for n in range(6)]
        assert all(b < a for a, b in zip(thr, thr[1:]))

    def test_domain_sizes(self):
        assert domain_size(P, 2, 0.0) == pytest.approx(4 * math.pi, rel=1e-12)
        assert domain_size(P, 1, T21) == pytest.approx(math.pi, rel=1e-12)
        # shrinkage over a full window is the frequency headroom ratio
        mode = ModeIndex(k=8.0, n=3)
        T = recording_window(P, mode)
        ratio = domain_size(P, 3, 0.0) / domain_size(P, 3, T)
        assert ratio == pytest.approx(2 * mode.k * P.c / P.L, rel=1e-12)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            momentum_threshold(P, -1, 0.0)

    @pytest.mark.parametrize("n,t", [(1.5, 1.0), (True, 1.0), (1, -1.0),
                                     (1, math.nan), (1, "x")])
    def test_n_and_t_outside_the_domain_rejected(self, n, t):
        with pytest.raises(DomainError):
            momentum_threshold(P, n, t)
        with pytest.raises(DomainError):
            domain_size(P, n, t)

    def test_past_the_float_range(self):
        # L t / (2n+1) = 1e6 / 3 is far past exp's range: no mode can record
        assert momentum_threshold(P, 1, 1e6) == math.inf
        assert domain_size(P, 1, 1e6) == 0.0
        assert momentum_threshold(P, 0, sys.float_info.max) == math.inf


class TestLambda:
    MODE = ModeIndex(k=2.0, n=1)

    def test_zero_at_start(self):
        assert lambda_lifetime(P, self.MODE, 0.0) == 0.0

    def test_frozen_midpoint(self):
        assert lambda_lifetime(P, self.MODE, T21 / 2) == pytest.approx(LAM_HALF, abs=1e-12)
        assert LAM_HALF == pytest.approx(0.8047189562170502, abs=1e-15)

    def test_strictly_increasing(self):
        vals = [lambda_lifetime(P, self.MODE, f * T21) for f in
                (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_diverges_at_window_end(self):
        assert lambda_lifetime(P, self.MODE, T21 * (1 - 1e-9)) > 9.0

    def test_dead_mode_raises(self):
        with pytest.raises(ModeDead):
            lambda_lifetime(P, self.MODE, T21)
        with pytest.raises(ModeDead):
            lambda_lifetime(P, self.MODE, T21 + 2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            lambda_lifetime(P, self.MODE, -0.1)

    def test_nan_time_rejected(self):
        # nan < 0 and nan >= T are both false; the gate refuses it anyway
        with pytest.raises(DomainError, match="finite"):
            lambda_lifetime(P, self.MODE, math.nan)

    def test_frequency_identity(self):
        # Omega(0) e^{-Lambda(t)} must reproduce the direct frequency; this
        # couples the hyperbolic expression to the exponential decay law
        for k, n in ((0.51, 0), (2.0, 1), (2.0, 4), (8.0, 2), (55.0, 9)):
            mode = ModeIndex(k=k, n=n)
            T = recording_window(P, mode)
            w_start = common_frequency(P, mode, 0.0)
            for frac in (0.0, 0.05, 0.31, 0.5, 0.77, 0.95, 0.999):
                t = frac * T
                direct = common_frequency(P, mode, t)
                via_lam = w_start * math.exp(-lambda_lifetime(P, mode, t))
                assert abs(via_lam - direct) <= 1e-10 * w_start

    def test_frozen_midpoint_frequency(self):
        lam = lambda_lifetime(P, self.MODE, T21 / 2)
        got = common_frequency(P, self.MODE, 0.0) * math.exp(-lam)
        assert got == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_underflowed_exponent(self):
        # k = 1e307, n = 0: exp(-2 Lambda) at t = 500 is about e^-1000, below
        # the floats; Lambda itself is about 500
        mode = ModeIndex(k=1e307, n=0)
        T, t, g = recording_window(P, mode), 500.0, P.L
        with mp.workdps(50):
            want = -(-t * g + mp.log(mp.sinh(mp.mpf(g) * (mp.mpf(T) - t)))
                     - mp.log(mp.sinh(mp.mpf(g) * T))) / 2
        got = lambda_lifetime(P, mode, t)
        assert abs(got - float(want)) <= 1e-12 * float(want)
        assert got == pytest.approx(500.0, rel=1e-6)

    def test_accuracy_against_mpmath(self):
        # seeded draws over the whole window range: omega0 = L (0.5 + 10^e)
        # puts ln(2 omega0 / L) = g T anywhere in [2e-6, 707], and t sits
        # uniformly in the window or log-close to either end. The reference
        # is the sinh form at 50 digits on the same float t, T and g; the
        # error is scaled to max(Lambda, 1), as Lambda grows from 0
        rng = random.Random(20261019)
        worst = 0.0
        for i in range(450):
            L = rng.choice((0.3, 1.0, 7.0))
            n = rng.choice((0, 1, 2, 5, 9, 40, 10**6))
            k = L * (0.5 + 10 ** rng.uniform(-6, 307))
            params, mode = SystemParams(L=L), ModeIndex(k=k, n=n)
            T, g = recording_window(params, mode), L / (2 * n + 1)
            u = rng.uniform(1, 15)
            t = T * (rng.random(), 10**-u, 1 - 10**-u)[i % 3]
            got = lambda_lifetime(params, mode, t)
            with mp.workdps(50):
                tt, TT, gg = mp.mpf(t), mp.mpf(T), mp.mpf(g)
                want = float((gg * tt - mp.log(mp.sinh(gg * (TT - tt)) / mp.sinh(gg * TT))) / 2)
            worst = max(worst, abs(got - want) / max(want, 1.0))
        assert worst <= 4e-16


class TestProfile:
    def test_grid_and_monotonicity(self):
        prof = lifetime_profile(P, ModeIndex(k=2.0, n=1), points=100)
        assert len(prof.times) == 100
        assert prof.window == pytest.approx(T21, rel=1e-12)
        for j, t in enumerate(prof.times):
            assert t == pytest.approx(T21 * j / 100, rel=1e-12, abs=1e-15)
        assert all(b > a for a, b in zip(prof.lambdas, prof.lambdas[1:]))

    def test_ceiling_truncates(self):
        prof = lifetime_profile(P, ModeIndex(k=2.0, n=1), points=2000, ceiling=2.0)
        assert len(prof.times) < 2000
        assert prof.lambdas[-1] > 2.0
        assert prof.lambdas[-2] <= 2.0

    def test_underflowed_exponent_profile(self):
        prof = lifetime_profile(P, ModeIndex(k=1e307, n=0))
        assert len(prof.lambdas) == 2000
        assert all(math.isfinite(lam) for lam in prof.lambdas)
        assert all(b >= a for a, b in zip(prof.lambdas, prof.lambdas[1:]))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            lifetime_profile(P, ModeIndex(k=2.0, n=1), points=1)

    def test_degenerate_window_rejected(self):
        with pytest.raises(NeverRecordable):
            lifetime_profile(P, ModeIndex(k=0.5, n=1))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        hs.floats(-4.0, 307.0).map(lambda e: 0.5 + 10.0**e)
        | hs.sampled_from([1e154, 1e200, 1e307]),
        hs.integers(0, 40) | hs.sampled_from([10**6, 10**12]),
        hs.integers(2, 3000),
        hs.floats(0.0, 1e3) | hs.just(math.inf),
    )
    def test_samples_are_ordered(self, k, n, points, ceiling):
        # the underflow regime (2ck/L past about 1e154) included
        prof = lifetime_profile(P, ModeIndex(k=k, n=n), points=points, ceiling=ceiling)
        assert len(prof.times) == len(prof.lambdas)
        assert all(map(operator.lt, prof.times, prof.times[1:]))
        assert all(map(operator.le, prof.lambdas, prof.lambdas[1:]))


class TestFigures:
    def test_names(self):
        assert FIGURE_NAMES == ("fig1", "fig2", "fig3", "fig4")
        with pytest.raises(ValueError):
            default_figure_spec("fig5")

    def test_default_modes(self):
        assert default_figure_spec("fig1").modes == ((0.6, 1), (0.8, 1), (6.0, 1), (8.0, 1))
        assert default_figure_spec("fig2").modes == tuple((2.0, n) for n in range(1, 6))
        assert default_figure_spec("fig3").modes == tuple((0.55, n) for n in (1, 3, 5, 7, 9))
        assert default_figure_spec("fig4").modes == tuple((55.0, n) for n in (1, 3, 5, 7, 9))

    def test_row_counts_and_order(self):
        # none of the default curves hits the ceiling before the grid ends
        for name, n_curves in (("fig1", 4), ("fig2", 5), ("fig3", 5), ("fig4", 5)):
            spec = default_figure_spec(name)
            rows = curve_table(spec)
            assert len(rows) == n_curves * spec.points
            assert rows == sorted(rows, key=lambda r: (r[0], r[1]))

    def test_curve_ids(self):
        rows = curve_table(default_figure_spec("fig1"))
        assert sorted({r[0] for r in rows}) == ["k0.6_n1", "k0.8_n1", "k6_n1", "k8_n1"]
        rows = curve_table(default_figure_spec("fig4", points=4))
        assert {r[0] for r in rows} == {"k55_n1", "k55_n3", "k55_n5", "k55_n7", "k55_n9"}

    def test_rows_match_direct_evaluation(self):
        spec = default_figure_spec("fig2", points=50)
        rows = [r for r in curve_table(spec) if r[0] == "k2_n3"]
        mode = ModeIndex(k=2.0, n=3)
        T = recording_window(P, mode)
        assert len(rows) == 50
        for j, (_, t, lam) in enumerate(rows):
            assert t == pytest.approx(T * j / 50, rel=1e-12, abs=1e-15)
            assert lam == pytest.approx(lambda_lifetime(P, mode, t), rel=1e-12, abs=1e-15)

    def test_ceiling_cuts_rows(self):
        spec = default_figure_spec("fig1", ceiling=1.0)
        rows = curve_table(spec)
        by_curve = {}
        for cid, t, lam in rows:
            by_curve.setdefault(cid, []).append(lam)
        for lams in by_curve.values():
            assert len(lams) < spec.points
            assert lams[-1] > 1.0
            assert all(v <= 1.0 for v in lams[:-1])

    def test_ordinate_scale(self):
        # the third column, headed lambda, equals lifetime_profile's Lambda;
        # a spec carries no scale to apply to it
        spec = default_figure_spec("fig2", points=20)
        rows = curve_table(spec)
        expected = []
        for k, n in sorted(spec.modes, key=lambda kn: spec.curve_id(*kn)):
            prof = lifetime_profile(P, ModeIndex(k=k, n=n), points=20, ceiling=spec.ceiling)
            expected += [(spec.curve_id(k, n), t, lam)
                         for t, lam in zip(prof.times, prof.lambdas)]
        assert rows == expected
        assert [f.name for f in dataclasses.fields(spec)] == [
            "figure", "L", "c", "modes", "ceiling", "points"]
        with pytest.raises(TypeError):
            default_figure_spec("fig2", ordinate_scale=2.0)

    def test_unrecordable_spec_rejected(self):
        with pytest.raises(NeverRecordable):
            curve_table(default_figure_spec("fig1", L=20.0))

    def test_window_separation(self):
        # the far-above-threshold figure lives much longer than the barely
        # recordable one at every n
        for n in (1, 3, 5, 7, 9):
            near = recording_window(P, ModeIndex(k=0.55, n=n))
            far = recording_window(P, ModeIndex(k=55.0, n=n))
            assert far / near > 10.0


class TestSnapshot:
    def test_filters_by_threshold(self):
        snap = domain_snapshot(P, 1, T21, query_ks=(0.4, 1.9, 2.0, 2.1, 30.0))
        assert snap.threshold == pytest.approx(2.0, rel=1e-12)
        assert snap.alive == (2.1, 30.0)
        assert snap.size == pytest.approx(math.pi, rel=1e-12)

    def test_at_start_everything_above_k0_lives(self):
        snap = domain_snapshot(P, 3, 0.0, query_ks=(0.49, 0.5, 0.51, 5.0))
        assert snap.alive == (0.51, 5.0)


def _module_level_imports(name: str) -> set:
    """What memdomain.<name> imports when it loads: top-level package names
    for absolute imports, memdomain.<module> for the package's own modules.
    Imports inside functions (the lazy ones) are left out."""
    path = Path(memdomain.lifetime.__file__).with_name(f"{name}.py")
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level:
                found.update(
                    [f"memdomain.{child.module}"] if child.module
                    else (f"memdomain.{alias.name}" for alias in child.names)
                )
            elif isinstance(child, ast.ImportFrom):
                found.add(child.module.partition(".")[0])
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def _non_stdlib(imports: set) -> set:
    return {m for m in imports if m not in sys.stdlib_module_names}


class TestImportGraph:
    """lifetime is the stdlib-only base that memory (and so the registry
    commands) stands on; the numeric stack stays out of it."""

    def test_lifetime_is_stdlib_only(self):
        assert _non_stdlib(_module_level_imports("lifetime")) <= {"memdomain.errors"}

    def test_memory_rests_on_lifetime_only(self):
        imports = _non_stdlib(_module_level_imports("memory"))
        assert "memdomain.lifetime" in imports
        assert imports <= {"memdomain.errors", "memdomain.lifetime"}

    def test_fock_skips_the_trajectory_stack(self):
        imports = _module_level_imports("fock")
        assert "memdomain.lifetime" in imports
        assert not imports & {"memdomain.oscillator", "memdomain.bessel", "memdomain.ode"}
        assert _non_stdlib(imports) <= {"memdomain.errors", "memdomain.lifetime"}

    def test_bessel_loads_numpy_in_its_array_functions_only(self):
        # the scalar functions behind the bessel command need no numpy
        assert _non_stdlib(_module_level_imports("bessel")) <= {"memdomain.errors"}

    def test_package_imports_no_scipy(self):
        # scipy serves the tests as an oracle; no module of the package
        # imports it, at module level or inside a function
        found = []
        for path in sorted(Path(memdomain.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                found += [(path.name, m) for m in names if m.partition(".")[0] == "scipy"]
        assert found == []

    def test_oscillator_reexports_the_scalar_model(self):
        for name in ("SystemParams", "ModeIndex", "omega_mode", "common_frequency"):
            assert name in memdomain.oscillator.__all__
            assert getattr(memdomain.oscillator, name) is getattr(memdomain.lifetime, name)
