"""Reference implementations used only by the test suite.

Most of these deliberately avoid the algorithms used inside the package
(the first kind's recurrences) so that agreement is evidence, not tautology;
high-precision arithmetic comes from mpmath, and matrix exponentials from
scipy (`scipy.linalg.expm`, `scipy.sparse.linalg.expm_multiply`), not from
here. Three are bit-identity references for a faster package kernel instead:
`integrate_to_grid`, the generic numpy-vector form of the package's
DOP853 stepper (same tableau, same controller, arrays instead of floats,
and its dense output one grid time at a time),
`registry_json`, the json.dumps spelling of the registry's canonical text,
and `paired_block(kron_pair_coupling(...))`, the paired block read out of
the Kronecker-product build of the pair coupling.
The registry's reads have linear references: `linear_recall` scores every
code, `linear_decay_codes` and `linear_is_forgotten` gate a `ModeIndex`
per entry through `mode_alive`, and `per_entry_registry` loads a document through every field
gate, entry by entry. `full_cli_parser` is the CLI parser with every
command's arguments built, the reference for what the CLI prints on -h and
on a refused command line.
The joint two-mode basis lives here too, since only the operator tests
need it: the ladder matrices and Hamiltonians as scipy.sparse matrices,
`paired_block`, which reads and checks the paired block of a joint
generator for `fock.brute_force_evolve`, and `full_vector`, which embeds a
paired state in that basis.
"""

import json
import math

import mpmath as mp
import numpy as np
from scipy import sparse

from memdomain.errors import StepSizeUnderflow, finite, integer
from memdomain.fock import _MODE_CUTOFF_LIMIT, PairedBlock, coupling_frequencies
from memdomain.lifetime import (
    ModeIndex,
    SystemParams,
    mode_alive,
    momentum_threshold,
    open_window,
)
from memdomain.memory import (
    MATCH_THRESHOLD,
    SCHEMA_VERSION,
    CodeEntry,
    CodeStatus,
    MemoryCode,
    MemoryRegistry,
    RecallOutcome,
    RecallResult,
    _clock,
    _cosine,
    _spectral_line,
)
from memdomain.ode import (
    _A,
    _A_DENSE,
    _ALPHA,
    _B,
    _BETA,
    _C,
    _C_DENSE,
    _D,
    _E3,
    _E5,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _REJECT_BACKOFF,
    _SAFETY,
)


def series_sph_j(n, z, dps=50):
    """First-kind spherical Bessel via its ascending power series.

    j_n(z) = z^n * sum_s (-z^2/2)^s / (s! * (2n+2s+1)!!), summed until the
    term underflows the working precision.
    """
    with mp.workdps(dps):
        zm = mp.mpf(z)
        if zm == 0:
            return mp.mpf(1 if n == 0 else 0)
        # double factorial (2n+1)!!
        dfac = mp.mpf(1)
        for i in range(2 * n + 1, 0, -2):
            dfac *= i
        term = zm ** n / dfac
        total = term
        s = 0
        while abs(term) > abs(total) * mp.mpf(10) ** (-dps - 5) or s < 4:
            s += 1
            term *= -zm * zm / 2 / (s * (2 * n + 2 * s + 1))
            total += term
            if s > 10000:
                raise RuntimeError("series did not converge")
        return total


def upward_sph_y(n, z, dps=50):
    """Second-kind spherical Bessel: closed-form seeds plus upward recurrence.

    y0 = -cos z / z, y1 = -cos z / z^2 - sin z / z, then
    y_{m+1} = ((2m+1)/z) y_m - y_{m-1}. Stable upward because y is the
    dominant solution.
    """
    with mp.workdps(dps):
        zm = mp.mpf(z)
        if zm <= 0:
            raise ValueError("z must be positive")
        y0 = -mp.cos(zm) / zm
        if n == 0:
            return y0
        y1 = -mp.cos(zm) / zm ** 2 - mp.sin(zm) / zm
        if n == 1:
            return y1
        prev, cur = y0, y1
        for m in range(1, n):
            prev, cur = cur, (2 * m + 1) / zm * cur - prev
        return cur


def oracle_value(kind, n, z, dps=50):
    if kind == "j":
        return series_sph_j(n, z, dps)
    if kind == "y":
        return upward_sph_y(n, z, dps)
    raise ValueError(kind)


def bessel_deriv(kind, n, z, order, dps=700):
    """d/dz (order 1) or d^2/dz^2 (order 2) of j_n or y_n from mpmath's
    cylinder functions: f = g * C_{n+1/2} with g = sqrt(pi / (2z)), so
    f' = g C' + g' C and f'' = g C'' + 2 g' C' + g'' C. The terms cancel
    to about z^2 of their size for j_n at small z, hence the 700 digits,
    enough down to z = 1e-300."""
    with mp.workdps(dps):
        zm = mp.mpf(z)
        cyl = {"j": mp.besselj, "y": mp.bessely}[kind]
        c = [cyl(n + mp.mpf(1) / 2, zm, derivative=k) for k in range(order + 1)]
        g = mp.sqrt(mp.pi / (2 * zm))
        g1, g2 = -g / (2 * zm), 3 * g / (4 * zm * zm)
        if order == 1:
            return g * c[1] + g1 * c[0]
        return g * c[2] + 2 * g1 * c[1] + g2 * c[0]


def oracle_deriv(kind, n, z, dps=60):
    """d/dz of the oracle value via an explicit high-precision central
    difference: step 1e-15 at 60 working digits leaves truncation error
    around 1e-30, far below every tolerance used in the suite."""
    with mp.workdps(dps):
        zm = mp.mpf(z)
        h = mp.mpf(10) ** -15
        return (oracle_value(kind, n, zm + h, dps) - oracle_value(kind, n, zm - h, dps)) / (2 * h)


def bisect_root(f, lo, hi, tol=1e-10, max_iter=200):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0 or hi - lo < tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def full_vector(state, cutoff=None) -> np.ndarray:
    """Embed a paired state sum_m c_m |m, m> into the joint |m_A, m_At>
    basis, A-index major (optionally padded to a larger cutoff)."""
    n = state.cutoff if cutoff is None else cutoff
    if n < state.cutoff:
        raise ValueError(f"cutoff {n} is below the state's cutoff {state.cutoff}")
    vec = np.zeros((n + 1) ** 2, dtype=complex)
    for m, c in enumerate(state.coeffs):
        vec[m * (n + 1) + m] = c
    return vec


# -- the joint |m_A, m_At> basis ---------------------------------------------
# Each joint operator but the pair coupling is a single-mode one (a, a^. a,
# a^2 + a^.2, the K2 factor) placed on both modes by one Kronecker embedding,
# (s (x) 1, 1 (x) s). The builders return scipy.sparse csr matrices; their
# algebraic form (self-adjoint; H0 and HI1 real symmetric; HI2 and K2 i times
# a real matrix; number operators diagonal and non-negative) is pinned by the
# operator tests, and their commutator and conjugation identities hold on
# interior occupations only: the boundary rows of a truncated ladder matrix
# cannot satisfy them. A cutoff is at most 100000 for single-mode matrices
# and in [1, 512] on the joint basis, whose matrices grow as its square.

_JOINT_CUTOFF_LIMIT = 512


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


def kron_pair_coupling(gamma, cutoff):
    """i*gamma*(A+ At+ - A At) as kron(a+, a+) - kron(a, a) of the
    single-mode ladder a: the joint matrix whose paired block
    fock.pair_coupling writes directly."""
    a = ladder(_joint_cutoff(cutoff))
    ad = a.getH()
    return (1j * finite("gamma", gamma) * (sparse.kron(ad, ad) - sparse.kron(a, a))).tocsr()


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
    return h0, hi1, kron_pair_coupling(params.L / 2, cutoff)


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


def paired_block(generator) -> PairedBlock:
    """The paired block of a matrix on the joint basis, checked.

    The cutoff n is read from the shape ((n+1)^2, (n+1)^2), with n in
    [1, 512], else ValueError. The paired columns |m, m> and, among their
    rows, the paired block B are read by sparse indexing, duplicate entries
    summed, and checked, else ValueError: no nonzero of those columns lies
    outside B (an unpaired row); B couples |m, m> only to |m+-1, m+-1>
    (tridiagonal; a wider block is refused, naming its band); and B is
    self-adjoint to 1e-12 of its largest entry. The paired states then span
    an invariant subspace, so exp(-i t generator) restricted to them is
    exp(-i t B). The block keeps the real part of B's diagonal and its
    sub-diagonal B[m+1, m], as LAPACK reads a Hermitian matrix.
    """
    shape = np.shape(generator)
    side = shape[0] if len(shape) == 2 else 0
    if shape != (side, side) or math.isqrt(side) ** 2 != side:
        raise ValueError(f"generator shape {shape} is not ((n+1)^2, (n+1)^2)")
    n = _joint_cutoff(math.isqrt(side) - 1)
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
    # B[m, m], B[m, m+1] and B[m+1, m]
    diag, upper, lower = (block.diagonal(d) for d in (0, 1, -1))
    asym = np.abs(np.concatenate((diag - diag.conj(), upper - lower.conj()))).max()
    if asym > 1e-12 * (np.abs(np.concatenate((diag, upper, lower))).max() + 1.0):
        raise ValueError("the generator's paired block is not self-adjoint")
    return PairedBlock(diag.real, lower)


def _initial_step(f, t0, y0, tol, span, floor):
    sc = tol + tol * np.abs(y0)
    f0 = f(t0, y0)
    d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6 * span
    else:
        h = 0.01 * d0 / d1
    return max(min(h, 0.1 * span), min(floor, span)), f0


def _weighted(weights, k):
    """sum_j w_j k_j over the nonzero weights in index order."""
    return sum(w * k[j] for j, w in enumerate(weights) if w)


def integrate_to_grid(f, t_grid, y0, rel_tol):
    """Integrate y' = f(t, y) for a state y = (q, q') and return q at each
    grid time.

    The grid must be strictly increasing. Integration starts at t_grid[0]
    with state y0 and runs in DOP853 steps to t_grid[-1]; only the last step
    is clipped to end there. The controller's tolerance is rel_tol, relative
    and absolute. Each accepted step evaluates the end value and the dense
    stages, and every grid time between the ends is read, one at a time in
    Python floats, from the 7th-order interpolant on q of the accepted step
    that holds it (t <= time < t + h); the first and last grid values are
    the start and end states. Raises StepSizeUnderflow if the controller
    drives the step below 1e-14 * max(1, |t|); the first step is at least
    min(that floor, span), and the step that lands on the last grid time is
    exempt from it.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("t_grid must contain at least two times")
    if not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    if not 1e-13 <= rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must lie in [1e-13, 1e-3], got {rel_tol!r}")
    y = np.array(y0, dtype=float)
    t, t_end = float(t_grid[0]), float(t_grid[-1])
    h, k1 = _initial_step(f, t, y, rel_tol, t_end - t, 1e-14 * max(1.0, abs(t)))
    err_prev = 1.0
    k = [k1]
    times = t_grid.tolist()
    out = [float(y[0])]

    while t < t_end:
        lands = h >= t_end - t
        clipped = t_end - t if lands else h
        if clipped < 1e-14 * max(1.0, abs(t)) and not lands:
            raise StepSizeUnderflow(
                f"step {clipped:.3e} below resolution floor at t = {t:.6g}"
            )
        del k[1:]
        for i in range(1, 12):
            k.append(f(t + _C[i] * clipped, y + clipped * _weighted(_A[i], k)))
        y_new = y + clipped * _weighted(_B, k)
        sc = rel_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        e5 = _weighted(_E5, k) / sc
        e3 = _weighted(_E3, k) / sc
        n5, n3 = float(np.sum(e5 * e5)), float(np.sum(e3 * e3))
        den = n5 + 0.01 * n3
        err = clipped * n5 / math.sqrt(den * 2) if den else 0.0
        if err <= 1.0:
            # the end value k_13, then the dense stages 14 and 15; of stage
            # 16 the q-interpolant reads only q' = its state's p
            k.append(f(t + clipped, y_new))
            for c, row in zip(_C_DENSE, _A_DENSE):
                k.append(f(t + c * clipped, y + clipped * _weighted(row, k)))
            y16 = y + clipped * _weighted(_A_DENSE[2], k)
            kq = [float(ki[0]) for ki in k] + [float(y16[1])]
            q, p = float(y[0]), float(y[1])
            f0 = float(y_new[0]) - q
            f1 = clipped * p - f0
            f2 = 2.0 * f0 - clipped * (float(y_new[1]) + p)
            f3, f4, f5, f6 = (clipped * _weighted(row, kq) for row in _D)
            # t + (t_end - t) can fall one ulp short of t_end, which would
            # leave a step below the resolution floor
            t_next = t_end if lands else t + clipped
            while len(out) < len(times) - 1 and times[len(out)] < t_next:
                th = (times[len(out)] - t) / clipped
                mu = 1.0 - th
                out.append(q + th * (f0 + mu * (f1 + th * (
                    f2 + mu * (f3 + th * (f4 + mu * (f5 + th * f6))))))
                )
            t = t_next
            y = y_new
            k = [k[12]]  # first-same-as-last
            factor = _SAFETY * (err + 1e-300) ** -_ALPHA * err_prev**_BETA
            h = clipped * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-4)
        else:
            h = clipped * _REJECT_BACKOFF

    out.append(float(y[0]))
    return np.array(out)


def vector_damped_oscillator(omega_sq, damping, init, t_grid, rel_tol=1e-10):
    """q'' + damping q' + omega_sq(t) q = 0 through integrate_to_grid: q on
    the grid."""

    def rhs(t, y):
        return np.array([y[1], -damping * y[1] - omega_sq(t) * y[0]])

    return integrate_to_grid(rhs, t_grid, np.asarray(init, dtype=float), rel_tol)


def registry_json(registry) -> str:
    """The canonical registry text as json.dumps spells the registry's
    document: the reference for MemoryRegistry.dumps, which writes the same
    bytes directly."""
    doc = {
        "schema": SCHEMA_VERSION,
        "last_decay_t": registry.last_decay_t,
        "next_id": registry.next_id,
        "codes": {
            cid: {
                "status": code.status.value,
                "entries": {
                    repr(k): {"weight": e.weight, "n": e.n, "t_rec": e.t_rec}
                    for k, e in code.entries.items()
                },
            }
            for cid, code in registry.codes.items()
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def linear_decay_codes(registry, t, params):
    """decay_codes with a ModeIndex and mode_alive per entry: the reference
    for the sweep's direct t < T test."""
    t = _clock(registry, t)
    for code in registry.codes.values():
        dead = [
            k
            for k, e in code.entries.items()
            if not mode_alive(params, ModeIndex(k=k, n=e.n), t)
        ]
        if not dead:
            continue
        for k in dead:
            del code.entries[k]
        if not code.entries:
            code.status = CodeStatus.FORGOTTEN
        elif code.status is CodeStatus.INTACT:
            code.status = CodeStatus.DEGRADED
    registry.last_decay_t = t
    return registry


def linear_recall(registry, signal, energy, t, params):
    """recall scoring every code, those sharing no momentum with the signal
    included: the reference for the skip."""
    t = finite("t", t, 0.0)
    energy = finite("energy", energy)
    if registry.last_decay_t != t:
        raise ValueError(
            f"registry is decayed to t={registry.last_decay_t!r}; run "
            f"decay_codes(..., t={t!r}) before recalling at that time"
        )
    probe = {c.k: c.intensity for c in signal.components}
    best_id = None
    best_score = 0.0
    for cid in sorted(registry.codes):
        score = _cosine(probe, registry.codes[cid].weight_vector())
        if score > best_score:
            best_id, best_score = cid, score
    if best_id is None or best_score < MATCH_THRESHOLD:
        return RecallResult(matched=None, score=best_score, outcome=RecallOutcome.NO_MATCH)
    matched = registry.codes[best_id]
    n_min = min(e.n for e in matched.entries.values())
    e_thr = params.c * momentum_threshold(params, n_min, t)
    outcome = RecallOutcome.DIFFICULTY if energy < e_thr else RecallOutcome.RECALLED
    return RecallResult(matched=best_id, score=best_score, outcome=outcome)


def per_entry_registry(doc):
    """MemoryRegistry.from_json_dict with every entry through every field
    gate: the reference for the loader's one-test path, errors included."""
    if not isinstance(doc, dict):
        raise ValueError("registry document must be a JSON object")
    if type(doc.get("schema")) is not int or doc["schema"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported registry schema {doc.get('schema')!r}; "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    expected = {"schema", "last_decay_t", "next_id", "codes"}
    if set(doc) != expected:
        raise ValueError(f"registry keys must be exactly {sorted(expected)}")
    last_decay_t = finite("last_decay_t", doc["last_decay_t"], 0.0)
    next_id = integer("next_id", doc["next_id"], 1, math.inf)
    if not isinstance(doc["codes"], dict):
        raise ValueError("registry 'codes' must be an object")
    codes = {}
    for cid, body in doc["codes"].items():
        if not isinstance(cid, str) or not cid:
            raise ValueError(f"code id must be a non-empty string, got {cid!r}")
        if not isinstance(body, dict) or set(body) != {"status", "entries"}:
            raise ValueError(f"code {cid} must have keys status, entries")
        status = CodeStatus(body["status"])
        if not isinstance(body["entries"], dict):
            raise ValueError(f"code {cid} entries must be an object")
        entries = {}
        names = (f"{cid} entry key", f"{cid} n", f"{cid} weight")
        for kstr, ent in body["entries"].items():
            if not isinstance(ent, dict) or set(ent) != {"weight", "n", "t_rec"}:
                raise ValueError(f"{cid} entry {kstr} must have keys weight, n, t_rec")
            try:
                k = float(kstr)
            except ValueError:
                raise ValueError(f"{cid} entry key must be a momentum, got {kstr!r}") from None
            k, n, weight = _spectral_line(k, ent["n"], ent["weight"], names)
            if k in entries:
                raise ValueError(f"{cid} entry key {kstr!r} names momentum {k!r} twice")
            t_rec = finite(f"{cid} t_rec", ent["t_rec"], 0.0)
            entries[k] = CodeEntry(weight=weight, n=n, t_rec=t_rec)
        if status is CodeStatus.FORGOTTEN and entries:
            raise ValueError(f"{cid} is Forgotten but still has entries")
        codes[cid] = MemoryCode(id=cid, entries=entries, status=status)
    return MemoryRegistry(codes=codes, last_decay_t=last_decay_t, next_id=next_id)


def full_cli_parser():
    """memdomain's argument parser with the arguments of every command
    added: the reference for the help text and refusals of cli._parse_args,
    which adds the arguments of the command it runs only."""
    import argparse

    from memdomain.cli import _COMMANDS, _SHARED

    parser = argparse.ArgumentParser(
        prog="memdomain",
        description="dissipative-mode memory domain toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, opts in _COMMANDS.items():
        sub = subs.add_parser(command)
        for opt in opts + _SHARED:
            flag = "--" + opt.name
            if opt.flag:
                sub.add_argument(flag, dest=opt.attr, action="store_const",
                                 const=True, default=None, help=opt.help)
            elif opt.multi:
                sub.add_argument(flag, dest=opt.attr, nargs="+",
                                 type=opt.conv, default=None, help=opt.help)
            else:
                sub.add_argument(flag, dest=opt.attr, type=opt.conv,
                                 default=None, help=opt.help)
    return parser


def linear_is_forgotten(code, t, params):
    """is_forgotten through a ModeIndex and mode_alive per entry."""
    t = finite("t", t, 0.0)
    return all(
        not mode_alive(params, ModeIndex(k=k, n=e.n), t)
        for k, e in code.entries.items()
    )
