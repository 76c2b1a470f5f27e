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

The oracle uses structure, not formulas: HI2 conserves m_A - m_Atilde, so
it maps the paired states |m, m> into themselves. brute_force_evolve checks
that invariance entry by entry on the generator it is handed and then
applies the exponential on that (cutoff+1)-dim sector alone, instead of on
all (cutoff+1)^2 joint states.

Truncation policy: tails scale as tanh^{2(m+1)}(G t), so the default cutoff
solves tanh^{2(m+1)} < 1e-12 and is clamped to [8, 256]. Commutator and
conjugation identities are asserted on interior occupations only; the
boundary rows of a truncated ladder matrix cannot satisfy them.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .errors import CutoffTooSmall
from .lifetime import ModeIndex, SystemParams, common_frequency, open_window

__all__ = [
    "TAIL_BOUND",
    "OperatorLabel",
    "OperatorMatrix",
    "SqueezeAngle",
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
    "expm_apply",
    "brute_force_evolve",
]

# all truncation-induced norm defects must stay below this
TAIL_BOUND = 1e-12

_CUTOFF_MIN = 8
_CUTOFF_MAX = 256


class OperatorLabel(str, Enum):
    H0 = "H0"
    HI1 = "HI1"
    HI2 = "HI2"
    K2 = "K2"
    NUMBER_A = "NumberA"
    NUMBER_TILDE = "NumberTilde"


def ladder(cutoff: int) -> sparse.csr_matrix:
    """Single-mode annihilation matrix on occupations 0..cutoff."""
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 1:
        raise ValueError(f"cutoff must be an integer >= 1, got {cutoff!r}")
    amp = np.sqrt(np.arange(1, cutoff + 1, dtype=float))
    return sparse.diags(amp, offsets=1, format="csr", dtype=complex)


def pair_ladders(cutoff: int):
    """(A, Atilde) acting on the joint |m_A, m_At> basis, A-index major."""
    a = ladder(cutoff)
    eye = sparse.identity(cutoff + 1, format="csr", dtype=complex)
    return (
        sparse.kron(a, eye, format="csr"),
        sparse.kron(eye, a, format="csr"),
    )


@dataclass(frozen=True)
class OperatorMatrix:
    """A labelled self-adjoint operator on the truncated two-mode basis."""

    label: OperatorLabel
    cutoff: int
    matrix: sparse.csr_matrix

    def __post_init__(self):
        dim = (self.cutoff + 1) ** 2
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match cutoff {self.cutoff}"
            )
        scale = _max_abs(self.matrix) + 1.0
        if _max_abs(self.matrix - self.matrix.getH()) > 1e-12 * scale:
            raise ValueError(f"{self.label.value} must be self-adjoint")
        if self.label in (OperatorLabel.H0, OperatorLabel.HI1):
            if _max_abs(self.matrix.imag) > 1e-12 * scale:
                raise ValueError(f"{self.label.value} must be real symmetric")
        if self.label in (OperatorLabel.HI2, OperatorLabel.K2):
            if _max_abs(self.matrix.real) > 1e-12 * scale:
                raise ValueError(f"{self.label.value} must be i times a real matrix")
        if self.label in (OperatorLabel.NUMBER_A, OperatorLabel.NUMBER_TILDE):
            diag = self.matrix.diagonal()
            off = self.matrix - sparse.diags(diag, format="csr")
            if _max_abs(off) > 1e-12 * scale or diag.real.min() < 0:
                raise ValueError(f"{self.label.value} must be diagonal non-negative")

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** 2

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _max_abs(m) -> float:
    m = sparse.csr_matrix(m)
    return float(np.abs(m.data).max()) if m.nnz else 0.0


def number_operators(cutoff: int):
    A, At = pair_ladders(cutoff)
    return (
        OperatorMatrix(OperatorLabel.NUMBER_A, cutoff, (A.getH() @ A).tocsr()),
        OperatorMatrix(OperatorLabel.NUMBER_TILDE, cutoff, (At.getH() @ At).tocsr()),
    )


@dataclass(frozen=True)
class SqueezeAngle:
    """Rotation angle that removes the off-diagonal quadratic coupling."""

    theta: float
    mode: ModeIndex
    t: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


def coupling_frequencies(params: SystemParams, mode: ModeIndex, t: float):
    """(W0, W1) = w0 (W^2/w0^2 +- 1) evaluated at time t."""
    w0 = params.omega0(mode.k)
    w_sq = common_frequency(params, mode, t) ** 2
    return w0 * (w_sq / w0**2 + 1.0), w0 * (w_sq / w0**2 - 1.0)


def mixing_angle(params: SystemParams, mode: ModeIndex, t: float) -> SqueezeAngle:
    """Angle with tanh theta = -W1/W0 on [0, T) (open_window); diverges at T."""
    open_window(params, mode, t)
    w0_sum, w0_diff = coupling_frequencies(params, mode, t)
    return SqueezeAngle(theta=math.atanh(-w0_diff / w0_sum), mode=mode, t=t)


def bogoliubov_theta_coeffs(theta: float):
    """Hyperbolic mixing weights (cosh(theta/2), sinh(theta/2))."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return math.cosh(theta / 2), math.sinh(theta / 2)


def bogoliubov_time_coeffs(gamma: float, t: float):
    """Dissipative-flow weights (cosh(gamma t), sinh(gamma t))."""
    if not (math.isfinite(gamma) and math.isfinite(t)):
        raise ValueError("gamma and t must be finite")
    return math.cosh(gamma * t), math.sinh(gamma * t)


def _tail_cutoff(gamma_t: float) -> int:
    """Paired occupation keeping tanh^{2(m+1)} below TAIL_BOUND, unclamped."""
    th = math.tanh(abs(gamma_t))
    if th == 0.0:
        return 0
    if th == 1.0:
        raise CutoffTooSmall(
            f"tanh({gamma_t:g}) rounds to 1; no finite cutoff bounds the tail"
        )
    return math.ceil(6 * math.log(10.0) / -math.log(th))


def default_cutoff(gamma_t: float) -> int:
    """Smallest paired occupation keeping tanh^{2(m+1)} below TAIL_BOUND,
    clamped to [8, 256]."""
    if not math.isfinite(gamma_t):
        raise ValueError("gamma_t must be finite")
    return min(max(_tail_cutoff(gamma_t), _CUTOFF_MIN), _CUTOFF_MAX)


def _pair_tail(gamma_t: float, cutoff: int) -> float:
    return math.tanh(abs(gamma_t)) ** (2 * (cutoff + 1))


@dataclass(frozen=True)
class TwoModeState:
    """Paired state sum_m c_m |m, m>; equal occupations by construction.

    gamma_t, when known, records the squeeze parameter the coefficients came
    from and arms the truncation-tail check; oracle outputs that only know
    their numbers carry gamma_t = None.
    """

    cutoff: int
    coeffs: tuple
    gamma_t: float | None = None

    def __post_init__(self):
        if len(self.coeffs) != self.cutoff + 1:
            raise ValueError(
                f"need {self.cutoff + 1} coefficients, got {len(self.coeffs)}"
            )
        if not all(math.isfinite(abs(complex(c))) for c in self.coeffs):
            raise ValueError("coefficients must be finite")
        norm = self.norm_sq()
        if self.gamma_t is not None:
            tail = _pair_tail(self.gamma_t, self.cutoff)
            if tail > TAIL_BOUND:
                raise CutoffTooSmall(
                    f"truncation tail {tail:.3e} exceeds {TAIL_BOUND:g}; "
                    f"need cutoff >= {_tail_cutoff(self.gamma_t)}"
                )
            if not (1.0 - tail - 1e-9 <= norm <= 1.0 + 1e-9):
                raise ValueError(f"norm^2 = {norm!r} inconsistent with gamma_t")
        elif abs(norm - 1.0) > 1e-7:
            raise ValueError(f"state must be normalized, got norm^2 = {norm!r}")

    def norm_sq(self) -> float:
        return float(sum(abs(complex(c)) ** 2 for c in self.coeffs))

    def full_vector(self, cutoff: int | None = None) -> np.ndarray:
        """Embed into the joint basis (optionally padded to a larger cutoff)."""
        n = self.cutoff if cutoff is None else cutoff
        if n < self.cutoff:
            raise ValueError("cannot embed into a smaller cutoff")
        vec = np.zeros((n + 1) ** 2, dtype=complex)
        for m, c in enumerate(self.coeffs):
            vec[m * (n + 1) + m] = c
        return vec


def vacuum_state(cutoff: int) -> TwoModeState:
    return TwoModeState(
        cutoff=cutoff, coeffs=(1.0,) + (0.0,) * cutoff, gamma_t=0.0
    )


def squeezed_vacuum(gamma: float, t: float, cutoff: int | None = None) -> TwoModeState:
    """Paired squeezed vacuum with c_m = tanh^m(gamma t)/cosh(gamma t)."""
    if not (math.isfinite(gamma) and math.isfinite(t)):
        raise ValueError("gamma and t must be finite")
    gt = gamma * t
    if cutoff is None:
        cutoff = default_cutoff(gt)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff!r}")
    th, ch = math.tanh(gt), math.cosh(gt)
    coeffs = tuple(th**m / ch for m in range(cutoff + 1))
    return TwoModeState(cutoff=cutoff, coeffs=coeffs, gamma_t=gt)


def expected_pair_number(state: TwoModeState):
    """(n_A, n_Atilde); identical by pairing, so one number is returned twice."""
    n = float(sum(m * abs(complex(c)) ** 2 for m, c in enumerate(state.coeffs)))
    return n, n


def inner_product(bra: TwoModeState, ket: TwoModeState):
    """<bra|ket> over the shared paired basis."""
    acc = complex(0.0)
    for cb, ck in zip(bra.coeffs, ket.coeffs):
        acc += complex(cb).conjugate() * complex(ck)
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
    if not (math.isfinite(t) and math.isfinite(t_prime)):
        raise ValueError("times must be finite")
    if t < 0 or t_prime < 0:
        raise ValueError("times must be >= 0")
    total = 0.0
    for g in gammas:
        if not math.isfinite(g):
            raise ValueError("gammas must be finite")
        total += _log_cosh(g * (t - t_prime))
    return math.exp(-total)


def build_hamiltonians(params: SystemParams, mode: ModeIndex, t: float, cutoff: int):
    """(H0, HI1, HI2) on the truncated joint basis at t in [0, T) (open_window)."""
    if cutoff < 4:
        raise ValueError(f"cutoff must be >= 4, got {cutoff!r}")
    open_window(params, mode, t)
    w0_sum, w0_diff = coupling_frequencies(params, mode, t)
    A, At = pair_ladders(cutoff)
    Ad, Atd = A.getH(), At.getH()
    h0 = 0.5 * w0_sum * (Ad @ A - Atd @ At)
    hi1 = -0.25 * w0_diff * ((A @ A + Ad @ Ad) - (At @ At + Atd @ Atd))
    return (
        OperatorMatrix(OperatorLabel.H0, cutoff, h0.tocsr()),
        OperatorMatrix(OperatorLabel.HI1, cutoff, hi1.tocsr()),
        pair_coupling(params.L / 2, cutoff),
    )


def pair_coupling(gamma: float, cutoff: int) -> OperatorMatrix:
    """The pair-creation coupling i*gamma*(A+ At+ - A At) on its own.

    Evolving the joint vacuum under this generator for time t produces the
    squeezed pair state with parameter gamma*t; build_hamiltonians returns
    the same matrix as its third element with gamma = L/2.
    """
    if cutoff < 4:
        raise ValueError(f"cutoff must be >= 4, got {cutoff!r}")
    if (
        not isinstance(gamma, (int, float))
        or isinstance(gamma, bool)
        or not math.isfinite(gamma)
    ):
        raise ValueError(f"gamma must be a finite number, got {gamma!r}")
    # A+ At+ = kron(a+, a+) and A At = kron(a, a), entry for entry
    a = ladder(cutoff)
    ad = a.getH()
    hi2 = 1j * gamma * (sparse.kron(ad, ad) - sparse.kron(a, a))
    return OperatorMatrix(OperatorLabel.HI2, cutoff, hi2.tocsr())


def k2_single_mode(cutoff: int) -> sparse.csr_matrix:
    """Per-mode factor of the rotation generator: (i/4)(a^2 - a^.2)."""
    a = ladder(cutoff)
    return (0.25j * (a @ a - a.getH() @ a.getH())).tocsr()


def k2_generator(cutoff: int) -> OperatorMatrix:
    """Rotation generator K2 = k (x) 1 + 1 (x) k with k the per-mode factor.

    Conjugating a ladder matrix by exp(-i theta K2) mixes it with its
    adjoint with weights cosh(theta/2), sinh(theta/2); the sign of the
    quadratic form was fixed by that requirement.
    """
    if cutoff < 4:
        raise ValueError(f"cutoff must be >= 4, got {cutoff!r}")
    k = k2_single_mode(cutoff)
    eye = sparse.identity(cutoff + 1, format="csr", dtype=complex)
    full = sparse.kron(k, eye, format="csr") + sparse.kron(eye, k, format="csr")
    return OperatorMatrix(OperatorLabel.K2, cutoff, full.tocsr())


def expm_apply(m, vec: np.ndarray) -> np.ndarray:
    """exp(m) @ vec without forming exp(m): 2^s substeps of a scaled series."""
    m = sparse.csr_matrix(m).astype(complex)
    v = np.asarray(vec, dtype=complex)
    if m.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch")
    norm = float(np.abs(m).sum(axis=0).max()) if m.nnz else 0.0
    s = max(0, math.ceil(math.log2(norm / 4.0))) if norm > 4.0 else 0
    steps = 2**s
    h = m / steps
    for _ in range(steps):
        acc = v.copy()
        term = v
        for k in range(1, 120):
            term = h @ term / k
            acc += term
            if np.abs(term).max() <= 1e-16 * max(1.0, np.abs(acc).max()):
                break
        v = acc
    return v


def brute_force_evolve(generator: OperatorMatrix, t: float, init: TwoModeState) -> TwoModeState:
    """Evolve init by exp(-i t generator) on the paired sector |m, m>.

    Used as the independent oracle for the closed-form squeezed vacuum; no
    coefficient formula enters. The generator is first checked entry by
    entry: no nonzero may take a paired column |m, m> to an unpaired row,
    else ValueError. The paired states then span an invariant subspace, so
    exp(-i t generator) restricted to them is the exponential of the
    restricted generator, and expm_apply runs on that (cutoff+1)-dim block;
    the coefficients still come from the matrix alone. Raises
    CutoffTooSmall when the evolved state puts more than 1e-8 of its mass
    on the top two occupation levels of either mode (the truncated dynamics
    is untrustworthy past that point).
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    n = generator.cutoff
    if init.cutoff > n:
        raise ValueError("initial state does not fit inside the generator cutoff")
    paired = np.arange(n + 1) * (n + 2)  # joint index of |m, m>
    cols = generator.matrix[:, paired]
    entries = cols.tocoo()
    stray = (entries.row % (n + 2) != 0) & (entries.data != 0)
    if stray.any():
        raise ValueError(
            f"evolution left the paired subspace ({int(stray.sum())} generator "
            "entries lead from |m, m> to unpaired states); "
            "the result cannot be represented as a paired state"
        )
    block = cols[paired]
    vec = np.zeros(n + 1, dtype=complex)
    vec[: init.cutoff + 1] = init.coeffs
    out = expm_apply(-1j * t * block, vec)
    mass = np.abs(out) ** 2
    # for a paired state the top-two-level union of either mode is these two
    top = mass[n - 1] + mass[n]
    if top > 1e-8:
        raise CutoffTooSmall(
            f"{top:.3e} of the state reached the top two levels; raise the cutoff"
        )
    coeffs = []
    for c in out:
        c = complex(c)
        coeffs.append(c.real if c.imag == 0.0 else c)
    return TwoModeState(cutoff=n, coeffs=tuple(coeffs), gamma_t=None)
