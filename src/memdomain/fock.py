"""Truncated two-mode Fock space: squeezing, pairing, and dissipative flow.

The damped mode A and its mirror Atilde live on a joint occupation basis
|m_A, m_Atilde> truncated at `cutoff` quanta per mode. The quadratic
Hamiltonian has three pieces

    H0  = (1/2) W0 (A^. A - At^. At)            (W0 = w0 (W^2/w0^2 + 1))
    HI1 = -(1/4) W1 [(A^2 + A^.2) - (At^2 + At^.2)]
    HI2 = i G (A^. At^. - A At),   G = L/2

(dagger written ^.). HI1 can be rotated away by exp(-i theta K2) with
tanh theta = -W1/W0 (mixing_angle returns theta as a float); HI2 then
drives the vacuum into the paired squeezed state with coefficients
tanh^m(G t)/cosh(G t) on |m, m>. The closed forms here use plain math; the
joint-basis matrices that check them live with the tests.

The oracle uses structure, not formulas: the pair coupling conserves
m_A - m_Atilde, so it maps the paired states |m, m> into themselves and
couples |m, m> only to |m+-1, m+-1>. Its paired block B is a PairedBlock:
a real diagonal and the complex sub-diagonal b_m = B[m+1, m], with
B[m, m+1] = conj(b_m), so it is self-adjoint by construction.
pair_coupling writes that block from the ladder entries sqrt(m+1), without
the (cutoff+1)^2-dim joint matrix; the tests tie it byte for byte to the
block read out of the Kronecker build of the ladders. brute_force_evolve
turns t times the block into a real symmetric tridiagonal matrix with a
diagonal unitary of phases and exponentiates that by a real
eigendecomposition (numpy.linalg.eigh).

A TwoModeState is its coefficients (its cutoff is len(coeffs) - 1) and
checks only what a caller-built state needs: numbers, finite, normalized.

Truncation policy: tails scale as tanh^{2(m+1)}(G t), so the default cutoff
is the smallest m with tanh^{2(m+1)} < 1e-12, at least 8; a default above
the single-mode limit below is refused, not clamped. squeezed_vacuum, the
one place an explicit cutoff meets G t, refuses one whose tail exceeds
1e-12 (CutoffTooSmall).

Cost limits, checked before anything is allocated (DomainError above
them): a cutoff of at most 100000 for paired states (vacuum_state,
squeezed_vacuum), whose size grows as the cutoff, and a cutoff in
[1, 1024] for a paired block (pair_coupling, PairedBlock), whose dense
eigendecomposition grows as its cube. Evolving the vacuum on a block took
35 ms at cutoff 512, 0.23 s and a 73 MB process at 1024, and 1.6 s at 2048
(one BLAS thread, 2-core Xeon); 1024 serves the CLI's oracle, padded to
1.5 times the closed form's cutoff, up to gamma t = 2.296. A cutoff too
small for the evolved state is left to brute_force_evolve's top-two-level
check (CutoffTooSmall); it also refuses a 1-norm of t times the paired
block above 4 * 2^20, where its phases lose accuracy.

numpy is imported by the block functions alone, so the closed forms load
no numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import POSITIVE, CutoffTooSmall, DomainError, finite, integer, reals
from .lifetime import ModeIndex, SystemParams, common_frequency, open_window

__all__ = [
    "TAIL_BOUND",
    "TwoModeState",
    "PairedBlock",
    "coupling_frequencies",
    "mixing_angle",
    "bogoliubov_theta_coeffs",
    "bogoliubov_time_coeffs",
    "default_cutoff",
    "vacuum_state",
    "squeezed_vacuum",
    "expected_pair_number",
    "inner_product",
    "vacuum_overlap",
    "pair_coupling",
    "brute_force_evolve",
]

# all truncation-induced norm defects must stay below this
TAIL_BOUND = 1e-12

_CUTOFF_MIN = 8

# cost limits on an explicit cutoff (module docstring)
_MODE_CUTOFF_LIMIT = 100_000
_BLOCK_CUTOFF_LIMIT = 1024
# largest ||t * paired block||_1 brute_force_evolve exponentiates
_PHASE_NORM_LIMIT = 4.0 * 2**20


def _block_cutoff(cutoff) -> int:
    """cutoff as an int in [1, 1024], the paired-block range; else DomainError."""
    return integer("cutoff", cutoff, 1, _BLOCK_CUTOFF_LIMIT)


def coupling_frequencies(params: SystemParams, mode: ModeIndex, t: float):
    """(W0, W1) = w0 (W^2/w0^2 +- 1) evaluated at time t."""
    w0 = params.omega0(mode.k)
    finite("omega0^2", w0 * w0, POSITIVE)  # w0**2 raises OverflowError past the range
    w_sq = common_frequency(params, mode, t) ** 2
    return w0 * (w_sq / w0**2 + 1.0), w0 * (w_sq / w0**2 - 1.0)


def mixing_angle(params: SystemParams, mode: ModeIndex, t: float) -> float:
    """Angle theta with tanh theta = -W1/W0 on [0, T) (open_window); diverges at T."""
    open_window(params, mode, t)
    w0_sum, w0_diff = coupling_frequencies(params, mode, t)
    return math.atanh(-w0_diff / w0_sum)


def _cosh_sinh(x: float):
    """(cosh x, sinh x) for |x| <= 710, where cosh stays in the float range."""
    if not abs(x) <= 710.0:
        raise DomainError(f"cosh({x:g}) is beyond the float range")
    return math.cosh(x), math.sinh(x)


def bogoliubov_theta_coeffs(theta: float):
    """Hyperbolic mixing weights (cosh(theta/2), sinh(theta/2)), |theta| <= 1420."""
    return _cosh_sinh(finite("theta", theta) / 2)


def bogoliubov_time_coeffs(gamma: float, t: float):
    """Dissipative-flow weights (cosh(gamma t), sinh(gamma t)), |gamma t| <= 710."""
    return _cosh_sinh(finite("gamma", gamma) * finite("t", t))


def _tail_cutoff(gamma_t: float) -> int:
    """Paired occupation keeping tanh^{2(m+1)} below TAIL_BOUND."""
    th = math.tanh(abs(gamma_t))
    if th == 0.0:
        return 0
    if th == 1.0:
        raise CutoffTooSmall(
            f"tanh({gamma_t:g}) rounds to 1; no finite cutoff bounds the tail"
        )
    return math.ceil(6 * math.log(10.0) / -math.log(th))


def default_cutoff(gamma_t: float) -> int:
    """Smallest paired occupation keeping tanh^{2(m+1)} below TAIL_BOUND, at
    least 8; DomainError when it is above the single-mode limit 100000."""
    gamma_t = finite("gamma_t", gamma_t)
    need = _tail_cutoff(gamma_t)
    if need > _MODE_CUTOFF_LIMIT:
        raise DomainError(
            f"gamma_t = {gamma_t:g} needs cutoff {need} to keep the tail below "
            f"{TAIL_BOUND:g}, above the limit {_MODE_CUTOFF_LIMIT}"
        )
    return max(need, _CUTOFF_MIN)


@dataclass(frozen=True)
class TwoModeState:
    """Paired state sum_m c_m |m, m> on occupations 0..cutoff, where cutoff
    is len(coeffs) - 1; equal occupations by construction.

    coeffs holds real or complex numbers as given; a bool, a non-number, a
    non-finite value or a norm^2 more than 1e-7 away from 1 is refused with
    DomainError.
    """

    coeffs: tuple

    def __post_init__(self):
        for kind in set(map(type, self.coeffs)):
            if issubclass(kind, bool) or not issubclass(kind, numbers.Complex):
                bad = next(c for c in self.coeffs if type(c) is kind)
                raise DomainError(f"coefficients must be numbers, got {bad!r}")
        try:
            norm = self.norm_sq()
        except OverflowError:  # |c|^2 past the float range
            norm = math.inf
        if not abs(norm - 1.0) <= 1e-7:  # a nan or inf coefficient fails too
            raise DomainError(
                f"coefficients must be finite with norm^2 within 1e-7 of 1, got {norm!r}"
            )

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coeffs))


def vacuum_state(cutoff: int) -> TwoModeState:
    cutoff = integer("cutoff", cutoff, 0, _MODE_CUTOFF_LIMIT)
    return TwoModeState((1.0,) + (0.0,) * cutoff)


def squeezed_vacuum(gamma: float, t: float, cutoff: int | None = None) -> TwoModeState:
    """Paired squeezed vacuum with c_m = tanh^m(gamma t)/cosh(gamma t), at
    default_cutoff(gamma t) or an explicit cutoff whose tail is within
    TAIL_BOUND (else CutoffTooSmall)."""
    gt = finite("gamma", gamma) * finite("t", t)
    # CutoffTooSmall once tanh(gt) rounds to 1, before cosh(gt) overflows
    need = _tail_cutoff(gt)
    if cutoff is None:
        cutoff = default_cutoff(gt)
    cutoff = integer("cutoff", cutoff, 1, _MODE_CUTOFF_LIMIT)
    th, ch = math.tanh(gt), math.cosh(gt)
    tail = abs(th) ** (2 * (cutoff + 1))
    if tail > TAIL_BOUND:
        raise CutoffTooSmall(
            f"truncation tail {tail:.3e} exceeds {TAIL_BOUND:g}; need cutoff >= {need}"
        )
    return TwoModeState(tuple(th**m / ch for m in range(cutoff + 1)))


def expected_pair_number(state: TwoModeState):
    """(n_A, n_Atilde); identical by pairing, so one number is returned twice."""
    n = float(sum(m * abs(c) ** 2 for m, c in enumerate(state.coeffs)))
    return n, n


def inner_product(bra: TwoModeState, ket: TwoModeState):
    """<bra|ket> over the shared paired basis."""
    acc = 0j
    for cb, ck in zip(bra.coeffs, ket.coeffs):
        acc += cb.conjugate() * ck
    return acc.real if acc.imag == 0.0 else acc


def _log_cosh(x: float) -> float:
    # overflow-safe: cosh x = e^{|x|}(1 + e^{-2|x|})/2
    ax = abs(x)
    return ax + math.log1p(math.exp(-2 * ax)) - math.log(2.0)


def vacuum_overlap(gammas, t: float, t_prime: float) -> float:
    """prod_k 1/cosh(gamma_k (t - t')), computed in the log domain.

    The mode count plays the role of volume: the overlap decays
    exponentially in the number of modes whenever t != t'.
    """
    dt = finite("t", t, 0.0) - finite("t_prime", t_prime, 0.0)
    total = 0.0
    for g in gammas:
        total += _log_cosh(finite("gamma", g) * dt)
    return math.exp(-total)


@dataclass(frozen=True, eq=False)
class PairedBlock:
    """The paired block B of a generator that keeps the paired states
    |m, m> (m = 0..cutoff) invariant and couples |m, m> only to
    |m+-1, m+-1>: diag holds B[m, m], real, and sub holds b_m = B[m+1, m];
    B[m, m+1] is conj(b_m), so B is self-adjoint by construction.

    Both are copied into read-only float and complex arrays, each -0.0 part
    stored as 0.0, so that no zero part carries a sign into the phases of
    brute_force_evolve. The diagonal must be finite reals and sub finite and
    one entry shorter, with a cutoff len(diag) - 1 in [1, 1024]; else
    DomainError (or ValueError for the lengths).
    """

    diag: np.ndarray
    sub: np.ndarray

    def __post_init__(self):
        import numpy as np

        diag = reals("diagonal", self.diag) + 0.0
        try:
            sub = np.asarray(self.sub, dtype=complex) + complex(0)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"sub-diagonal must be an array of numbers: {exc}") from None
        if diag.ndim != 1 or sub.shape != (diag.size - 1,):
            raise ValueError(
                f"a paired block has a diagonal of n+1 and a sub-diagonal of n "
                f"entries, got shapes {diag.shape} and {sub.shape}"
            )
        _block_cutoff(sub.size)
        if not np.all(np.isfinite(sub)):
            raise DomainError("sub-diagonal must be finite")
        diag.flags.writeable = sub.flags.writeable = False
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sub", sub)

    @property
    def cutoff(self) -> int:
        return self.sub.size


def pair_coupling(gamma: float, cutoff: int) -> PairedBlock:
    """The paired block of the pair-creation coupling i*gamma*(A+ At+ - A At).

    Evolving the vacuum under it for time t produces the squeezed pair state
    with parameter gamma*t; with gamma = L/2 it is the block of HI2. Its
    diagonal is 0, and A+ At+ takes |m, m> to |m+1, m+1> with the ladder
    entries sqrt(m+1) sqrt(m+1), so b_m = i gamma sqrt(m+1) sqrt(m+1),
    bit for bit the entry of the joint matrix's Kronecker build.
    """
    import numpy as np

    cutoff = _block_cutoff(cutoff)
    coef = 1j * finite("gamma", gamma)
    amp = np.sqrt(np.arange(1, cutoff + 1, dtype=float)) + 0j  # the ladder's entries
    # the complex products of that build, A+ as the conjugate of A
    return PairedBlock(np.zeros(cutoff + 1), coef * (amp.conj() * amp.conj()))


def brute_force_evolve(block: PairedBlock, t: float, init: TwoModeState) -> TwoModeState:
    """Evolve init by exp(-i t B) on the paired sector |m, m>, B the block.

    Used as the independent oracle for the closed-form squeezed vacuum; no
    coefficient formula enters. The block's cutoff n must be at least
    init.cutoff, else ValueError. ||t B||_1 above 4 * 2^20 is refused with
    DomainError before the decomposition: each phase lam below is accurate
    to about ||t B|| 2^-52, about 1e-9 rad at that bound.

    With b_m = B[m+1, m], the diagonal unitary D of phases d_0 = 1,
    d_{m+1} = d_m b_m/|b_m| (d_{m+1} = d_m where b_m = 0) turns t B into the
    real symmetric tridiagonal T = D^H t B D, with diagonal t B[m, m] and
    off-diagonal t |b_m|. T = U diag(lam) U^T comes from numpy.linalg.eigh,
    and exp(-i t B) v = D U diag(exp(-i lam)) U^T D^H v; the coefficients
    still come from the block alone. Where the exact flow is real (as under
    pair_coupling) the coefficients carry round-off imaginary parts of
    about 1e-15, and at large cutoffs their last bits can depend on the
    BLAS thread count. Raises CutoffTooSmall when the evolved state puts
    more than 1e-8 of its mass on the top two occupation levels of either
    mode (the truncated dynamics is untrustworthy past that point).
    """
    import numpy as np

    t = finite("t", t)
    if not isinstance(block, PairedBlock):
        raise TypeError(
            f"brute_force_evolve takes a PairedBlock (pair_coupling builds one), "
            f"got {type(block).__name__}"
        )
    n = block.cutoff
    if init.cutoff > n:
        raise ValueError("initial state does not fit inside the block's cutoff")
    diag, lower = block.diag, block.sub
    with np.errstate(over="ignore"):  # an overflowed t * block fails the norm check
        t_diag, t_lower = t * diag, t * lower
    # the 1-norm of t B, column by column; |t B[m, m+1]| = |t b_m|
    col_sums = np.abs(t_diag)
    col_sums[1:] += np.abs(t_lower)
    col_sums[:-1] += np.abs(t_lower)
    norm = float(col_sums.max())
    if not norm <= _PHASE_NORM_LIMIT:  # nan and inf too
        raise DomainError(f"1-norm {norm:g} of t times the paired block is above 4 * 2^20")
    # the phase of each b_m = B[m+1, m], from its parts scaled to at most 1
    # in size, so that neither a subnormal nor a huge b_m loses it
    big = np.maximum(np.abs(lower.real), np.abs(lower.imag))
    linked = big != 0
    re, im = lower.real[linked] / big[linked], lower.imag[linked] / big[linked]
    size = np.hypot(re, im)
    unit = np.ones(n, complex)
    unit.real[linked], unit.imag[linked] = re / size, im / size
    phase = np.concatenate(([1.0 + 0j], np.cumprod(unit)))
    off = np.copysign(np.abs(t_lower), t)  # t |b_m|
    tri = np.zeros((n + 1, n + 1))
    tri.flat[:: n + 2] = t_diag
    tri.flat[1 :: n + 2] = off
    tri.flat[n + 1 :: n + 2] = off
    lam, u = np.linalg.eigh(tri)
    vec = np.zeros(n + 1, dtype=complex)
    vec[: init.cutoff + 1] = init.coeffs
    out = phase * (u @ (np.exp(-1j * lam) * (u.T @ (phase.conj() * vec))))
    mass = np.abs(out) ** 2
    # for a paired state the top-two-level union of either mode is these two
    top = mass[n - 1] + mass[n]
    if top > 1e-8:
        raise CutoffTooSmall(
            f"{top:.3e} of the state reached the top two levels; raise the cutoff"
        )
    return TwoModeState(tuple(c.real if c.imag == 0.0 else c for c in out.tolist()))
