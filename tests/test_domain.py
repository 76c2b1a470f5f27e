"""One domain contract for every public scalar input of the library.

Each public function of lifetime, bessel, fock, memory, oscillator and ode,
the TwoModeState and PairedBlock constructors, and the joint-basis builders
the tests keep in _oracles, are fed, in every scalar argument, the
values that broke some layer before they all went through memdomain.errors:
nan, +-inf, -0.0, the least and the largest float, 1e-300 and 1e300, an int
beyond the float range, a bool and a string, mixed with ordinary numbers.
The time grids of the two pair routes (closed_form_trajectory and
integrate_pair) are fed the same values as grid times, and 2-D, empty,
one-point and unordered grids. The functions of a mode are also fed system
and mode parameters L, c and k at those float extremes, where k0, c*k,
2ck/L, w^2 or the window T can leave the float range. Each call either
returns finite numbers or raises ValueError / MemdomainError; the only
infinities allowed are the documented ones. Malformed grids and starts are
refused with DomainError at entry, never by a failing Bessel pass or ODE
step (StepSizeUnderflow).
"""

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import _oracles
from memdomain import bessel, errors, fock, lifetime, memory, ode, oscillator
from memdomain.bessel import BesselKind
from memdomain.errors import DomainError, MemdomainError

EXTREME = [5e-324, 1e-300, 1e300, sys.float_info.max]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, *EXTREME, 10**400, True, "x"]
SCALAR = (
    st.sampled_from(SPECIAL)
    | st.floats(-2.0, 20.0, allow_nan=False)
    | st.integers(-2, 12)
)

P = lifetime.SystemParams(L=1.0)
MODE = lifetime.ModeIndex(k=2.0, n=1)
MODE0 = lifetime.ModeIndex(k=2.0, n=0)
FIRST, SECOND = BesselKind.FIRST, BesselKind.SECOND
GRID = [0.0, 0.5, 1.0]
START = oscillator.closed_form_state(P, MODE, 0.0)


def _w2(t):
    return 4.0


def _pair(start=START, grid=GRID, rel_tol=1e-10):
    return oscillator.integrate_pair(P, MODE, start, grid, rel_tol)


def _trajectory(grid):
    return oscillator.closed_form_trajectory(P, MODE, grid)


def _registry(p=P, m=MODE):
    reg = memory.MemoryRegistry()
    memory.record(reg, memory.StimulusSpectrum(((m.k, m.n, 1.0), (8.0, 3, 0.5))), 0.0, p)
    return reg


def _record(p, m, t):
    return memory.record(_registry(p, m), memory.StimulusSpectrum(((m.k, m.n, 1.0),)), t, p)


def _decay(p, m, t):
    return memory.decay_codes(_registry(p, m), t, p)


def _recall(p, m, energy, t):
    reg = _registry(p, m)
    memory.decay_codes(reg, t, p)
    return memory.recall(reg, memory.StimulusSpectrum(((m.k, m.n, 1.0),)), energy, t, p)


def _figure(p, m, points, ceiling):
    spec = lifetime.default_figure_spec("fig1", L=p.L, c=p.c, points=points, ceiling=ceiling)
    return lifetime.curve_table(spec)


# name -> (call on (params, mode, *drawn scalars), number of scalars,
# allowed infinities); test_scalar_inputs_stay_in_domain passes P and MODE
MODEL_CALLS = {
    "omega_mode": (lifetime.omega_mode, 1, ()),
    "common_frequency": (lifetime.common_frequency, 1, ()),
    "recording_window": (lifetime.recording_window, 0, ()),
    "open_window": (lifetime.open_window, 1, ()),
    "momentum_threshold": (
        lambda p, m, n, t: lifetime.momentum_threshold(p, n, t), 2, (math.inf,)),
    "domain_size": (lambda p, m, n, t: lifetime.domain_size(p, n, t), 2, ()),
    "lambda_lifetime": (lifetime.lambda_lifetime, 1, ()),
    "mode_alive": (lifetime.mode_alive, 1, ()),
    "lifetime_profile": (lifetime.lifetime_profile, 2, ()),
    "domain_snapshot": (
        lambda p, m, n, t, k: lifetime.domain_snapshot(p, n, t, [k]), 3, (math.inf,)),
    "curve_table": (_figure, 2, ()),
    "coupling_frequencies": (fock.coupling_frequencies, 1, ()),
    "mixing_angle": (fock.mixing_angle, 1, ()),
    "build_hamiltonians": (_oracles.build_hamiltonians, 2, ()),
    "closed_form_state": (oscillator.closed_form_state, 1, ()),
    "record": (_record, 1, ()),
    "decay_codes": (_decay, 1, ()),
    "recall": (_recall, 2, ()),
}

# name -> (call on the drawn scalars, number of scalars, allowed infinities)
CALLS = {
    **{name: (functools.partial(call, P, MODE), arity, allowed)
       for name, (call, arity, allowed) in MODEL_CALLS.items()},
    "SystemParams": (lambda L, c: lifetime.SystemParams(L=L, c=c), 2, ()),
    "ModeIndex": (lambda k, n: lifetime.ModeIndex(k=k, n=n), 2, ()),
    "sph_j": (bessel.sph_j, 2, ()),
    "sph_y": (bessel.sph_y, 2, (-math.inf,)),
    "sph_j_array": (lambda n: bessel.sph_j_array(n, [0.5, 2.0]), 1, ()),
    "sph_y_array": (lambda n: bessel.sph_y_array(n, [0.5, 2.0]), 1, (-math.inf,)),
    "sph_deriv j": (lambda n, z: bessel.sph_deriv(FIRST, n, z), 2, ()),
    "sph_deriv y": (lambda n, z: bessel.sph_deriv(SECOND, n, z), 2, (math.inf,)),
    "sph_second_deriv j": (
        lambda n, z: bessel.sph_second_deriv(FIRST, n, z), 2, ()),
    "sph_second_deriv y": (
        lambda n, z: bessel.sph_second_deriv(SECOND, n, z), 2, (-math.inf,)),
    "ladder": (_oracles.ladder, 1, ()),
    "pair_ladders": (_oracles.pair_ladders, 1, ()),
    "number_operators": (_oracles.number_operators, 1, ()),
    "bogoliubov_theta_coeffs": (fock.bogoliubov_theta_coeffs, 1, ()),
    "bogoliubov_time_coeffs": (fock.bogoliubov_time_coeffs, 2, ()),
    "default_cutoff": (fock.default_cutoff, 1, ()),
    "vacuum_state": (fock.vacuum_state, 1, ()),
    "squeezed_vacuum": (fock.squeezed_vacuum, 3, ()),
    "squeezed_vacuum default cutoff": (fock.squeezed_vacuum, 2, ()),
    "vacuum_overlap": (lambda g, t, tp: fock.vacuum_overlap([g], t, tp), 3, ()),
    "pair_coupling": (fock.pair_coupling, 2, ()),
    "k2_single_mode": (_oracles.k2_single_mode, 1, ()),
    "k2_generator": (_oracles.k2_generator, 1, ()),
    "brute_force_evolve": (
        lambda t: fock.brute_force_evolve(
            fock.pair_coupling(0.5, 8), t, fock.vacuum_state(8)), 1, ()),
    "StimulusComponent": (memory.StimulusComponent, 3, ()),
    "TwoModeState": (lambda a, b: fock.TwoModeState((a, b)), 2, ()),
    "PairedBlock": (lambda a, b, c: fock.PairedBlock((a, b), (c,)), 3, ()),
    "is_forgotten": (
        lambda t: memory.is_forgotten(_registry().codes["code000001"], t, P), 1, ()),
    "closed_form_trajectory grid": (lambda a, b: _trajectory([a, b]), 2, ()),
    "closed_form_trajectory one-point grid": (lambda t: _trajectory([t]), 1, ()),
    "integrate_pair grid end": (lambda t: _pair(grid=[0.0, 0.5, t]), 1, ()),
    "integrate_pair start": (lambda u, du, v, dv: _pair((u, du, v, dv)), 4, ()),
    "integrate_pair rel_tol": (lambda tol: _pair(rel_tol=tol), 1, ()),
    "integrate_oscillator": (
        lambda damping, q0, p0: ode.integrate_oscillator(_w2, damping, q0, p0, GRID, 1e-10),
        3, ()),
}


def _numbers(obj):
    """Every float or complex inside a result, however it is nested."""
    if isinstance(obj, (bool, int, str, type(None))):
        return
    if isinstance(obj, (float, complex, np.number)):
        yield complex(obj)
    elif isinstance(obj, np.ndarray):
        yield from obj.astype(complex).ravel().tolist()
    elif sparse.issparse(obj):
        yield from _numbers(obj.data)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _numbers(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))


def _in_domain(call, args, allowed):
    try:
        result = call(*args)
    except (ValueError, MemdomainError):
        return
    for z in _numbers(result):
        for part in (z.real, z.imag):
            assert math.isfinite(part) or part in allowed, (args, result)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_scalar_inputs_stay_in_domain(name):
    call, arity, allowed = CALLS[name]

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.tuples(*[SCALAR] * arity))
    def check(args):
        _in_domain(call, args, allowed)

    check()


MODEL_FLOAT = st.sampled_from(EXTREME) | st.floats(0.1, 60.0)


@pytest.mark.parametrize("name", sorted(MODEL_CALLS))
def test_model_parameters_stay_in_domain(name):
    call, arity, allowed = MODEL_CALLS[name]

    def with_model(L, c, k, n, *args):
        return call(lifetime.SystemParams(L=L, c=c), lifetime.ModeIndex(k=k, n=n), *args)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.tuples(MODEL_FLOAT, MODEL_FLOAT, MODEL_FLOAT, st.integers(0, 12),
                     *[SCALAR] * arity))
    def check(args):
        _in_domain(with_model, args, allowed)

    check()


# each of these returned nan or raised OverflowError or TypeError before
# every layer shared one gate
REFUSED = {
    "lambda_lifetime at t = nan": lambda: lifetime.lambda_lifetime(P, MODE, math.nan),
    "ModeIndex huge k": lambda: lifetime.ModeIndex(k=10**400, n=1),
    "SystemParams huge L": lambda: lifetime.SystemParams(L=10**400),
    "sph_j huge z": lambda: bessel.sph_j(3, 10**400),
    "squeezed_vacuum huge gamma": lambda: fock.squeezed_vacuum(10**400, 1.0),
    "squeezed_vacuum string t": lambda: fock.squeezed_vacuum(1.0, "x"),
    "vacuum_overlap huge gamma": lambda: fock.vacuum_overlap([10**400], 1, 0),
    "default_cutoff huge": lambda: fock.default_cutoff(10**400),
    "default_cutoff string": lambda: fock.default_cutoff("x"),
    "momentum_threshold n = 1.5": lambda: lifetime.momentum_threshold(P, 1.5, 1.0),
    "momentum_threshold n = True": lambda: lifetime.momentum_threshold(P, True, 1.0),
    "momentum_threshold t = -1": lambda: lifetime.momentum_threshold(P, 1, -1),
    "momentum_threshold t = nan": lambda: lifetime.momentum_threshold(P, 1, math.nan),
    "SystemParams k0 underflows": lambda: lifetime.SystemParams(L=5e-324),
    "ModeIndex 2n + 1 past the float range": lambda: lifetime.ModeIndex(k=2.0, n=10**308),
    "momentum_threshold 2n + 1 past the float range": lambda: lifetime.momentum_threshold(
        P, 10**308, 1.0),
    "recording_window 2ck/L overflows": lambda: lifetime.recording_window(
        P, lifetime.ModeIndex(k=1e308, n=1)),
    "recording_window T overflows": lambda: lifetime.recording_window(
        lifetime.SystemParams(L=5e-324, c=1e-300), MODE),
    "common_frequency w^2 overflows": lambda: lifetime.common_frequency(
        P, lifetime.ModeIndex(k=1e200, n=1), 0.0),
    "ladder above the cutoff limit": lambda: _oracles.ladder(100_001),
    "vacuum_state above the cutoff limit": lambda: fock.vacuum_state(100_001),
    "squeezed_vacuum above the cutoff limit": lambda: fock.squeezed_vacuum(
        0.5, 1.0, cutoff=100_001),
    "k2_single_mode above the cutoff limit": lambda: _oracles.k2_single_mode(100_001),
    **{f"{fn.__name__} above the joint limit": functools.partial(fn, 513)
       for fn in (_oracles.pair_ladders, _oracles.number_operators, _oracles.k2_generator)},
    "pair_coupling above the block limit": lambda: fock.pair_coupling(0.5, 1025),
    "build_hamiltonians above the joint limit": lambda: _oracles.build_hamiltonians(
        P, MODE, 0.0, 513),
    # a block past its limit is refused as it is built, before it can reach
    # brute_force_evolve; one read from a joint matrix past the joint limit
    "brute_force_evolve above the block limit": lambda: fock.brute_force_evolve(
        fock.PairedBlock(np.zeros(1026), np.zeros(1025)), 0.1, fock.vacuum_state(8)),
    "paired_block above the joint limit": lambda: _oracles.paired_block(
        sparse.csr_matrix((514**2, 514**2))),
    # pair_coupling(0.5, 8) has paired-block 1-norm 7.5
    "brute_force_evolve t * 1-norm just above 4 * 2^20": lambda: fock.brute_force_evolve(
        fock.pair_coupling(0.5, 8), 4 * 2**20 / 7.5 * (1 + 1e-12), fock.vacuum_state(8)),
    **{f"TwoModeState coefficient {c!r}": functools.partial(fock.TwoModeState, (c, 0.0))
       for c in (True, "1", None, math.nan, math.inf, 10**400, 1e300)},
    # before the grid had one rule and the pair routes joined the gate, most
    # of these raised TypeError, ZeroDivisionError or OverflowError, stepped
    # until StepSizeUnderflow, or named an internal variable
    "closed_form_state t = nan": lambda: oscillator.closed_form_state(P, MODE, math.nan),
    "closed_form_state string t": lambda: oscillator.closed_form_state(P, MODE, "1"),
    "closed_form_state x underflows": lambda: oscillator.closed_form_state(P, MODE, 2300.0),
    "closed_form_trajectory past the float range": lambda: _trajectory([0.0, 2000.0]),
    # for n = 0 no power of x fails where x = e^(-Lt) underflows to 0
    "closed_form_state n = 0, x underflows": lambda: oscillator.closed_form_state(
        P, MODE0, 800.0),
    "closed_form_trajectory n = 0, x underflows": lambda: oscillator.closed_form_trajectory(
        P, MODE0, [0.0, 800.0]),
    # v overflows near t = 735
    "integrate_pair past the float range": lambda: _pair(grid=[0.0, 0.5, 1e4]),
    # a phase of about 1e6 rad, which would take some 3e7 steps
    "integrate_pair phase above its limit": lambda: oscillator.integrate_pair(
        P, lifetime.ModeIndex(k=1e9, n=0), START, [0.0, 1e-3]),
    **{f"{name} grid {grid!r}": functools.partial(call, grid=grid)
       for name, call in (("closed_form_trajectory", _trajectory), ("integrate_pair", _pair))
       for grid in ([[0.0, 1.0]], [0.0, 1.0, math.inf], [0.0, math.nan], [0.0, math.inf],
                    [False, True], ["0", "1"], "01", [0.0, 1.0, 1.0], [],
                    [0.0, [1.0, 2.0]])},
    "integrate_pair one-point grid": lambda: _pair(grid=[0.0]),
    **{f"integrate_pair start {bad!r} at {i}": functools.partial(
        _pair, START[:i] + (bad,) + START[i + 1:])
       for i in range(4) for bad in (math.nan, math.inf, True, "1")},
    "integrate_pair string rel_tol": lambda: _pair(rel_tol="1e-10"),
    "integrate_oscillator nan damping": lambda: ode.integrate_oscillator(
        _w2, math.nan, 1.0, 0.0, GRID, 1e-10),
    "integrate_oscillator bool q0": lambda: ode.integrate_oscillator(
        _w2, 1.0, True, 0.0, GRID, 1e-10),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_with_domain_error(name):
    with pytest.raises(DomainError):
        REFUSED[name]()


def test_array_gate_agrees_with_scalar_gate_past_int64():
    # numpy holds such ints as objects; each passes errors.finite as a scalar would
    got = errors.reals("t", [10**20])
    assert got.dtype == float and got.tolist() == [1e20]
    assert errors.reals("t", [[1], [10**20]]).tolist() == [[1.0], [1e20]]
    for bad, message in (([1, 10**400], "t must be finite"),
                         ([True, 10**20], "t must be a real number, got True"),
                         ([None, 10**20], "t must be a real number, got None"),
                         ([1j, 10**20], "t must be a real number")):
        with pytest.raises(DomainError, match=message):
            errors.reals("t", bad)
    # the time itself is what leaves the float range, not its element type
    with pytest.raises(DomainError, match=r"float range for t in \[0, 1e\+20\]"):
        _trajectory([0, 10**20])


def test_numpy_integer_is_a_plain_int():
    # numpy integers pass the integer gate and come back as Python ints
    got = errors.integer("n", np.int64(3))
    assert type(got) is int and got == 3
