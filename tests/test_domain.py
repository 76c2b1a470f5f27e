"""One domain contract for every public scalar input of the library.

Each public function of lifetime, bessel, fock and memory is fed, in every
scalar argument, the values that broke some layer before they all went
through memdomain.errors: nan, +-inf, -0.0, the least and the largest float,
an int beyond the float range, a bool and a string, mixed with ordinary
numbers. Each call either returns finite numbers or raises ValueError /
MemdomainError; the only infinities allowed are the documented ones.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from memdomain import bessel, fock, lifetime, memory
from memdomain.bessel import BesselKind
from memdomain.errors import DomainError, MemdomainError

SPECIAL = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, sys.float_info.max,
    10**400, True, "x",
]
SCALAR = (
    st.sampled_from(SPECIAL)
    | st.floats(-2.0, 20.0, allow_nan=False)
    | st.integers(-2, 12)
)

P = lifetime.SystemParams(L=1.0)
MODE = lifetime.ModeIndex(k=2.0, n=1)
FIRST, SECOND = BesselKind.FIRST, BesselKind.SECOND


def _registry():
    reg = memory.MemoryRegistry()
    memory.record(reg, memory.StimulusSpectrum(((2.0, 1, 1.0), (8.0, 3, 0.5))), 0.0, P)
    return reg


def _recall(energy, t):
    reg = _registry()
    memory.decay_codes(reg, t, P)
    return memory.recall(reg, memory.StimulusSpectrum(((2.0, 1, 1.0),)), energy, t, P)


def _figure(points, ceiling, scale):
    spec = lifetime.default_figure_spec(
        "fig1", points=points, ceiling=ceiling, ordinate_scale=scale
    )
    return lifetime.curve_table(spec)


# name -> (call on the drawn scalars, number of scalars, allowed infinities)
CALLS = {
    "SystemParams": (lambda L, c: lifetime.SystemParams(L=L, c=c), 2, ()),
    "ModeIndex": (lambda k, n: lifetime.ModeIndex(k=k, n=n), 2, ()),
    "omega_mode": (lambda t: lifetime.omega_mode(P, MODE, t), 1, ()),
    "common_frequency": (lambda t: lifetime.common_frequency(P, MODE, t), 1, ()),
    "open_window": (lambda t: lifetime.open_window(P, MODE, t), 1, ()),
    "momentum_threshold": (
        lambda n, t: lifetime.momentum_threshold(P, n, t), 2, (math.inf,)),
    "domain_size": (lambda n, t: lifetime.domain_size(P, n, t), 2, ()),
    "lambda_lifetime": (lambda t: lifetime.lambda_lifetime(P, MODE, t), 1, ()),
    "frequency_from_lambda": (
        lambda t: lifetime.frequency_from_lambda(P, MODE, t), 1, ()),
    "mode_alive": (lambda t: lifetime.mode_alive(P, MODE, t), 1, ()),
    "lifetime_profile": (
        lambda points, ceiling: lifetime.lifetime_profile(P, MODE, points, ceiling),
        2, ()),
    "domain_snapshot": (
        lambda n, t, k: lifetime.domain_snapshot(P, n, t, [k]), 3, (math.inf,)),
    "curve_table": (_figure, 3, ()),
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
    "ladder": (fock.ladder, 1, ()),
    "pair_ladders": (fock.pair_ladders, 1, ()),
    "number_operators": (fock.number_operators, 1, ()),
    "coupling_frequencies": (
        lambda t: fock.coupling_frequencies(P, MODE, t), 1, ()),
    "mixing_angle": (lambda t: fock.mixing_angle(P, MODE, t), 1, ()),
    "bogoliubov_theta_coeffs": (fock.bogoliubov_theta_coeffs, 1, ()),
    "bogoliubov_time_coeffs": (fock.bogoliubov_time_coeffs, 2, ()),
    "default_cutoff": (fock.default_cutoff, 1, ()),
    "vacuum_state": (fock.vacuum_state, 1, ()),
    "squeezed_vacuum": (fock.squeezed_vacuum, 3, ()),
    "squeezed_vacuum default cutoff": (fock.squeezed_vacuum, 2, ()),
    "vacuum_overlap": (lambda g, t, tp: fock.vacuum_overlap([g], t, tp), 3, ()),
    "build_hamiltonians": (
        lambda t, cutoff: fock.build_hamiltonians(P, MODE, t, cutoff), 2, ()),
    "pair_coupling": (fock.pair_coupling, 2, ()),
    "k2_single_mode": (fock.k2_single_mode, 1, ()),
    "k2_generator": (fock.k2_generator, 1, ()),
    "brute_force_evolve": (
        lambda t: fock.brute_force_evolve(
            fock.pair_coupling(0.5, 8), t, fock.vacuum_state(8)), 1, ()),
    "StimulusComponent": (memory.StimulusComponent, 3, ()),
    "record": (lambda t: memory.record(_registry(), memory.StimulusSpectrum(
        ((2.0, 1, 1.0),)), t, P), 1, ()),
    "decay_codes": (lambda t: memory.decay_codes(_registry(), t, P), 1, ()),
    "recall": (_recall, 2, ()),
    "is_forgotten": (
        lambda t: memory.is_forgotten(_registry().codes["code000001"], t, P), 1, ()),
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


@pytest.mark.parametrize("name", sorted(CALLS))
def test_scalar_inputs_stay_in_domain(name):
    call, arity, allowed = CALLS[name]

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.tuples(*[SCALAR] * arity))
    def check(args):
        try:
            result = call(*args)
        except (ValueError, MemdomainError):
            return
        for z in _numbers(result):
            for part in (z.real, z.imag):
                assert math.isfinite(part) or part in allowed, (args, result)

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
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_with_domain_error(name):
    with pytest.raises(DomainError):
        REFUSED[name]()
