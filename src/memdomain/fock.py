"""Truncated two-mode Fock space: squeezing, pairing, and dissipative flow.

The damped mode A and its mirror Atilde live on a joint occupation basis
|m_A, m_Atilde> truncated at `cutoff` quanta per mode. Three pieces of the
quadratic Hamiltonian are built from ladder matrices:

    H0  = (1/2) W0 (A^. A - At^. At)            (W0 = w0 (W^2/w0^2 + 1))
    HI1 = -(1/4) W1 [(A^2 + A^.2) - (At^2 + At^.2)]
    HI2 = i G (A^. At^. - A At),   G = L/2

(dagger written ^.). HI1 can be rotated away by exp(-i theta K2) with
tanh theta = -W1/W0; HI2 then drives the vacuum into the paired squeezed
state with coefficients tanh^m(G t)/cosh(G t) on |m, m>. All of that is
checked against a brute-force evolution under the matrix generator, so the
closed forms and the matrix layer validate each other.

The builders return plain scipy.sparse csr matrices on the joint basis and
mixing_angle returns theta as a float. Each joint operator but the pair
coupling is a single-mode one (a, a^. a, a^2 + a^.2, the K2 factor) placed
on both modes by one Kronecker embedding, (s (x) 1, 1 (x) s). Their
algebraic form (self-adjoint; H0 and HI1 real symmetric; HI2 and K2 i times
a real matrix; number operators diagonal and non-negative) is pinned by the
tests, not re-checked on every build.

The oracle uses structure, not formulas: HI2 conserves m_A - m_Atilde, so
it maps the paired states |m, m> into themselves and couples |m, m> only
to |m+-1, m+-1>. brute_force_evolve, the one function that takes a matrix
from its caller, reads the generator's paired columns and their paired
block by sparse indexing and checks its shape, that invariance, that the
paired block is tridiagonal (a wider band is refused) and that it is
self-adjoint. A diagonal unitary of phases turns t times that
(cutoff+1)-dim block into a real symmetric tridiagonal matrix, which it
exponentiates by a real eigendecomposition (numpy.linalg.eigh), instead of
working on all (cutoff+1)^2 joint states.
pair_coupling writes its entries directly, bit for bit the Kronecker
product of the ladders that the tests keep as its reference.

A TwoModeState is its coefficients (its cutoff is len(coeffs) - 1) and
checks only what a caller-built state needs: numbers, finite, normalized.

Truncation policy: tails scale as tanh^{2(m+1)}(G t), so the default cutoff
is the smallest m with tanh^{2(m+1)} < 1e-12, at least 8; a default above
the single-mode limit below is refused, not clamped. squeezed_vacuum, the
one place an explicit cutoff meets G t, refuses one whose tail exceeds
1e-12 (CutoffTooSmall). Commutator and
conjugation identities are asserted on interior occupations only; the
boundary rows of a truncated ladder matrix cannot satisfy them.

Cost limits, checked before anything is allocated (DomainError above
them): a cutoff of at most 100000 for single-mode and paired objects
(ladder, k2_single_mode, vacuum_state, squeezed_vacuum), whose size grows
as the cutoff, and a cutoff in [1, 512] for the joint basis (pair_ladders,
number_operators, build_hamiltonians, pair_coupling, k2_generator,
brute_force_evolve), whose matrices grow as its square: pair_coupling at
512 holds 524288 nonzeros. A cutoff too small for the evolved state is
left to brute_force_evolve's top-two-level check (CutoffTooSmall); it also
refuses a 1-norm of t times the paired block above 4 * 2^20, where its
phases lose accuracy.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import POSITIVE, CutoffTooSmall, DomainError, finite, integer
from .lifetime import ModeIndex, SystemParams, common_frequency, open_window

__all__ = [
    "TAIL_BOUND",
    "TwoModeState",
    "ladder",
    "pair_ladders",
    "number_operators",
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
    "build_hamiltonians",
    "k2_generator",
    "k2_single_mode",
    "pair_coupling",
    "brute_force_evolve",
]

# all truncation-induced norm defects must stay below this
TAIL_BOUND = 1e-12

_CUTOFF_MIN = 8

# cost limits on an explicit cutoff (module docstring)
_MODE_CUTOFF_LIMIT = 100_000
_JOINT_CUTOFF_LIMIT = 512
# largest ||t * paired block||_1 brute_force_evolve exponentiates
_PHASE_NORM_LIMIT = 4.0 * 2**20


def _joint_cutoff(cutoff) -> int:
    """cutoff as an int in [1, 512], the joint-basis range; else DomainError."""
    return integer("cutoff", cutoff, 1, _JOINT_CUTOFF_LIMIT)


def ladder(cutoff: int) -> sparse.csr_matrix:
    """Single-mode annihilation matrix on occupations 0..cutoff."""
    cutoff = integer("cutoff", cutoff, 1, _MODE_CUTOFF_LIMIT)
    amp = np.sqrt(np.arange(1, cutoff + 1, dtype=float))
    return sparse.diags(amp, offsets=1, format="csr", dtype=complex)


def _on_each_mode(single):
    """(s (x) 1, 1 (x) s): the single-mode operator s placed on mode A and on
    its mirror Atilde in the joint |m_A, m_At> basis, A-index major."""
    eye = sparse.identity(single.shape[0], format="csr", dtype=complex)
    return sparse.kron(single, eye, format="csr"), sparse.kron(eye, single, format="csr")


def pair_ladders(cutoff: int):
    """(A, Atilde) acting on the joint |m_A, m_At> basis, A-index major."""
    return _on_each_mode(ladder(_joint_cutoff(cutoff)))


def number_operators(cutoff: int):
    """(N_A, N_Atilde) = (A^. A, At^. At) on the joint basis."""
    a = ladder(_joint_cutoff(cutoff))
    return _on_each_mode(a.getH() @ a)


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


def build_hamiltonians(params: SystemParams, mode: ModeIndex, t: float, cutoff: int):
    """(H0, HI1, HI2) on the truncated joint basis at t in [0, T) (open_window)."""
    cutoff = _joint_cutoff(cutoff)
    open_window(params, mode, t)
    w0_sum, w0_diff = coupling_frequencies(params, mode, t)
    a = ladder(cutoff)
    ad = a.getH()
    num, num_t = _on_each_mode(ad @ a)
    squares, squares_t = _on_each_mode(a @ a + ad @ ad)
    h0 = 0.5 * w0_sum * (num - num_t)
    hi1 = -0.25 * w0_diff * (squares - squares_t)
    return h0, hi1, pair_coupling(params.L / 2, cutoff)


def pair_coupling(gamma: float, cutoff: int) -> sparse.csr_matrix:
    """The pair-creation coupling i*gamma*(A+ At+ - A At) on its own.

    Evolving the joint vacuum under this generator for time t produces the
    squeezed pair state with parameter gamma*t; build_hamiltonians returns
    the same matrix as its third element with gamma = L/2.
    """
    cutoff = _joint_cutoff(cutoff)
    coef = 1j * finite("gamma", gamma)
    side = cutoff + 1
    # A+ At+ takes |m, m'> (joint index m side + m', m and m' below cutoff)
    # to |m+1, m'+1> with sqrt(m+1) sqrt(m'+1), and A At takes it back. The
    # entries are the complex products and difference of the Kronecker
    # build, so even their signed zeros match it; they are written into one
    # array, as large temporaries cost more than the arithmetic here
    amp = np.sqrt(np.arange(1, side, dtype=float)) + 0j  # the ladder's entries
    count = cutoff * cutoff
    data = np.empty(2 * count, dtype=complex)
    raised, lowered = data[:count].reshape(cutoff, cutoff), data[count:].reshape(cutoff, cutoff)
    np.multiply.outer(amp.conj(), amp.conj(), out=raised)
    np.multiply.outer(amp, amp, out=lowered)
    np.subtract(0, lowered, out=lowered)
    data *= coef
    below = np.arange(cutoff, dtype=np.int32)
    low = (below[:, None] * side + below).ravel()
    high = low + (side + 1)
    return sparse.csr_matrix(
        (data, (np.concatenate((high, low)), np.concatenate((low, high)))),
        shape=(side * side, side * side),
    )


def k2_single_mode(cutoff: int) -> sparse.csr_matrix:
    """Per-mode factor of the rotation generator: (i/4)(a^2 - a^.2)."""
    a = ladder(cutoff)
    return (0.25j * (a @ a - a.getH() @ a.getH())).tocsr()


def k2_generator(cutoff: int) -> sparse.csr_matrix:
    """Rotation generator K2 = k (x) 1 + 1 (x) k with k the per-mode factor.

    Conjugating a ladder matrix by exp(-i theta K2) mixes it with its
    adjoint with weights cosh(theta/2), sinh(theta/2); the sign of the
    quadratic form was fixed by that requirement.
    """
    k, k_t = _on_each_mode(k2_single_mode(_joint_cutoff(cutoff)))
    return k + k_t


def brute_force_evolve(generator, t: float, init: TwoModeState) -> TwoModeState:
    """Evolve init by exp(-i t generator) on the paired sector |m, m>.

    Used as the independent oracle for the closed-form squeezed vacuum; no
    coefficient formula enters. The generator is a matrix on the joint
    basis; its cutoff n is read from its shape ((n+1)^2, (n+1)^2), with n in
    [1, 512] and at least init.cutoff, else ValueError. Its paired columns
    |m, m> and, among their rows, the paired block B are read by sparse
    indexing, duplicate entries summed, and checked, else ValueError: no
    nonzero of those columns lies outside B (an unpaired row); B couples
    |m, m> only to |m+-1, m+-1> (tridiagonal; a wider block is refused,
    naming its band); and B is self-adjoint. The paired states then span an
    invariant subspace, so exp(-i t generator) restricted to them is
    exp(-i t B). ||t B||_1 above 4 * 2^20 is refused with DomainError
    before the decomposition: each phase lam below is accurate to about
    ||t B|| 2^-52, about 1e-9 rad at that bound.

    With b_m = B[m+1, m], the diagonal unitary D of phases d_0 = 1,
    d_{m+1} = d_m b_m/|b_m| (d_{m+1} = d_m where b_m = 0) turns t B into the
    real symmetric tridiagonal T = D^H t B D, with diagonal t Re B[m, m] and
    off-diagonal t |b_m| (read, as LAPACK reads a Hermitian matrix, from
    the diagonal's real part and the lower triangle). T = U diag(lam) U^T
    comes from numpy.linalg.eigh on a real matrix, and exp(-i t B) v =
    D U diag(exp(-i lam)) U^T D^H v; the coefficients still come from the
    matrix alone. Where the exact flow is real (as under pair_coupling) the
    coefficients carry round-off imaginary parts of about 1e-15, and at
    large cutoffs their last bits can depend on the BLAS thread count.
    Raises CutoffTooSmall when the evolved state puts more than 1e-8 of its
    mass on the top two occupation levels of either mode (the truncated
    dynamics is untrustworthy past that point).
    """
    t = finite("t", t)
    shape = np.shape(generator)
    side = shape[0] if len(shape) == 2 else 0
    if shape != (side, side) or math.isqrt(side) ** 2 != side:
        raise ValueError(f"generator shape {shape} is not ((n+1)^2, (n+1)^2)")
    n = _joint_cutoff(math.isqrt(side) - 1)
    if init.cutoff > n:
        raise ValueError("initial state does not fit inside the generator cutoff")
    paired = np.arange(n + 1) * (n + 2)  # the joint index of |m, m>
    columns = sparse.csr_matrix(generator)[:, paired]
    columns.sum_duplicates()
    block = columns[paired]
    stray = columns.count_nonzero() - block.count_nonzero()
    if stray:
        raise ValueError(
            f"evolution left the paired subspace ({stray} generator "
            "entries lead from |m, m> to unpaired states); "
            "the result cannot be represented as a paired state"
        )
    row = np.repeat(np.arange(n + 1), np.diff(block.indptr))  # of each entry of B
    band = int(np.abs(block.indices - row)[block.data != 0].max(initial=0))
    if band > 1:
        raise ValueError(
            f"the generator's paired block has band {band}; the oracle needs "
            "a tridiagonal one (|m, m> coupled to |m+-1, m+-1> only)"
        )
    # B[m, m], B[m, m+1] and B[m+1, m] as complex numbers; + 0 makes each
    # -0.0 part 0.0, so that no zero part carries a sign into the phases
    diag, upper, lower = (block.diagonal(d) + complex(0) for d in (0, 1, -1))
    asym = np.abs(np.concatenate((diag - diag.conj(), upper - lower.conj()))).max()
    if asym > 1e-12 * (np.abs(np.concatenate((diag, upper, lower))).max() + 1.0):
        raise ValueError("the generator's paired block is not self-adjoint")
    with np.errstate(over="ignore"):  # an overflowed t * block fails the norm check
        t_diag, t_upper, t_lower = t * diag, t * upper, t * lower
    col_sums = np.abs(t_diag)  # the 1-norm of t B, column by column
    col_sums[1:] += np.abs(t_upper)
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
    tri.flat[:: n + 2] = t_diag.real
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
