"""Release gate: one test and one printed verdict line per criterion.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines; each test
prints its line before asserting, so FAIL verdicts still reach the console.
Tolerances are frozen here on purpose and must not track the library.
"""

import math
import random

import numpy as np

from _oracles import bisect_root, expm_dense
from memdomain.bessel import BesselKind, sph_deriv, sph_j, sph_second_deriv, sph_y
from memdomain.fock import (
    bogoliubov_theta_coeffs,
    brute_force_evolve,
    build_hamiltonians,
    expected_pair_number,
    expm_apply,
    inner_product,
    k2_generator,
    k2_single_mode,
    ladder,
    mixing_angle,
    number_operators,
    pair_coupling,
    pair_ladders,
    squeezed_vacuum,
    vacuum_overlap,
    vacuum_state,
)
from memdomain.lifetime import (
    curve_table,
    default_figure_spec,
    domain_size,
    lambda_lifetime,
    momentum_threshold,
    recording_window,
)
from memdomain.memory import (
    CodeStatus,
    MemoryRegistry,
    RecallOutcome,
    RejectionReason,
    StimulusSpectrum,
    decay_codes,
    recall,
    record,
)
from memdomain.oscillator import (
    ModeIndex,
    SystemParams,
    closed_form_state,
    closed_form_trajectory,
    common_frequency,
    integrate_pair,
    omega_mode,
    substitution,
)

P1 = SystemParams(L=1.0, c=1.0)
MODE21 = ModeIndex(k=2.0, n=1)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _draw_system(rng):
    # L, c uniform; the frequency ratio 2*w0/L log-uniform in (1.01, e^4)
    # so every draw has an open recording window
    L = float(rng.uniform(0.1, 5.0))
    c = float(rng.uniform(0.5, 2.0))
    ratio = math.exp(float(rng.uniform(0.01, 4.0)))
    n = int(rng.integers(0, 10))
    k = ratio * L / (2.0 * c)
    return SystemParams(L=L, c=c), ModeIndex(k=k, n=n)


# -- 1: special-function layer ---------------------------------------------


def test_criterion_1_bessel_identities():
    zs = [j / 10 for j in range(1, 101)]
    worst_w = 0.0
    for n in range(13):
        for z in zs:
            w = sph_j(n, z) * sph_deriv(BesselKind.SECOND, n, z) - sph_deriv(
                BesselKind.FIRST, n, z
            ) * sph_y(n, z)
            worst_w = max(worst_w, abs(w - 1.0 / (z * z)))
    # the equation residual is measured in units of the solution magnitude:
    # second-kind values reach 1e23 at (n=12, z=0.1), where an absolute
    # bound would only measure cancellation noise
    worst_r = 0.0
    for kind in (BesselKind.FIRST, BesselKind.SECOND):
        value = sph_j if kind is BesselKind.FIRST else sph_y
        for n in range(13):
            for z in zs:
                f = value(n, z)
                res = (
                    z * z * sph_second_deriv(kind, n, z)
                    + 2 * z * sph_deriv(kind, n, z)
                    + (z * z - n * (n + 1)) * f
                )
                worst_r = max(worst_r, abs(res) / (1.0 + abs(f)))
    ok = worst_w <= 1e-10 and worst_r <= 1e-9
    _verdict(
        1,
        "Bessel Wronskian and equation residual",
        ok,
        f"worst Wronskian dev {worst_w:.2e} <= 1e-10, "
        f"worst scaled residual {worst_r:.2e} <= 1e-9",
    )


# -- 2: closed-form pair vs its equations and the integrator ----------------


def _pair_residuals(params, mode, t, coeffs):
    # derivatives taken analytically via the chain rule on M(z) x^p; M''
    # comes from the derivative recurrence applied twice, so this check is
    # independent of the Bessel differential equation
    sub = substitution(params, mode)
    a, b = coeffs
    n = mode.n
    x = sub.x(t)
    z = sub.z(t)
    m = a * sph_j(n, z) + b * sph_y(n, z)
    mp = a * sph_deriv(BesselKind.FIRST, n, z) + b * sph_deriv(BesselKind.SECOND, n, z)
    mpp = a * sph_second_deriv(BesselKind.FIRST, n, z) + b * sph_second_deriv(
        BesselKind.SECOND, n, z
    )
    al = sub.alpha
    w2 = omega_mode(params, mode, t) ** 2
    u = m * x ** (n + 1)
    du = -(x ** (n + 1) / al) * (z * mp + (n + 1) * m)
    ddu = (x ** (n + 1) / al**2) * (
        z * ((n + 2) * mp + z * mpp) + (n + 1) * (z * mp + (n + 1) * m)
    )
    v = m * x ** (-n)
    dv = -(x ** (-n) / al) * (z * mp - n * m)
    ddv = (x ** (-n) / al**2) * (z * z * mpp + (1 - 2 * n) * z * mp + n * n * m)
    res_u = ddu + params.L * du + w2 * u
    res_v = ddv - params.L * dv + w2 * v
    return res_u, res_v, u, v


def test_criterion_2_closed_form_solves_the_pair():
    rng = np.random.default_rng(2026)
    worst_res = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 11))
        mode = ModeIndex(k=2.0, n=n)
        t = float(rng.uniform(0.0, 4.0))
        for coeffs in [(1.0, 0.0), (0.0, 1.0), (0.7, -0.4)]:
            res_u, res_v, u, v = _pair_residuals(P1, mode, t, coeffs)
            worst_res = max(
                worst_res,
                abs(res_u) / (1.0 + abs(u)),
                abs(res_v) / (1.0 + abs(v)),
            )
    # adaptive-integrator route from shared initial data across the window;
    # the anti-damped member grows to ~1e5 at n=10, so the oracle runs tight
    worst_dev = 0.0
    for n in (0, 1, 2, 3, 5, 7, 10):
        mode = ModeIndex(k=2.0, n=n)
        grid = np.linspace(0.0, recording_window(P1, mode), 201)
        init = closed_form_state(P1, mode, 0.0)
        traj = integrate_pair(P1, mode, init, grid, rel_tol=1e-12)
        ref = closed_form_trajectory(P1, mode, grid)
        worst_dev = max(
            worst_dev,
            float(np.max(np.abs(traj.u - ref.u))),
            float(np.max(np.abs(traj.v - ref.v))),
        )
    ok = worst_res <= 1e-8 and worst_dev <= 1e-6
    _verdict(
        2,
        "closed-form pair: equation residual and integrator match",
        ok,
        f"worst scaled residual {worst_res:.2e} <= 1e-8 (200 random t, n <= 10), "
        f"worst integrator deviation {worst_dev:.2e} <= 1e-6",
    )


# -- 3: recording window ----------------------------------------------------


def test_criterion_3_window_vs_bisection():
    rng = np.random.default_rng(3)
    worst_root = 0.0
    worst_ratio = 0.0
    for _ in range(1000):
        params, mode = _draw_system(rng)
        T = recording_window(params, mode)

        def omega_sq_shift(t):
            return omega_mode(params, mode, t) ** 2 - params.L**2 / 4.0

        root = bisect_root(omega_sq_shift, 0.0, 1.5 * T + 1.0, tol=1e-11)
        worst_root = max(worst_root, abs(root - T))
        up = recording_window(params, ModeIndex(k=mode.k, n=mode.n + 1))
        want = (2 * mode.n + 3) / (2 * mode.n + 1)
        worst_ratio = max(worst_ratio, abs(up / T - want) / want)
    ok = worst_root <= 1e-10 and worst_ratio <= 1e-12
    _verdict(
        3,
        "window formula vs bisection root, linear growth in order",
        ok,
        f"worst |root - T| {worst_root:.2e} <= 1e-10, "
        f"worst ratio rel dev {worst_ratio:.2e} <= 1e-12 (1000 draws)",
    )


# -- 4: decay exponent ------------------------------------------------------


def test_criterion_4_lambda_frequency_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        params, mode = _draw_system(rng)
        T = recording_window(params, mode)
        t = float(rng.uniform(0.0, 0.999)) * T
        lam = lambda_lifetime(params, mode, t)
        w0 = common_frequency(params, mode, 0.0)
        wt = common_frequency(params, mode, t)
        worst = max(worst, abs(w0 * math.exp(-lam) - wt) / w0)
    # spot value at (L=1, w0=2, n=1, t=T/2); exact value is ln(5)/2 and the
    # quoted 7-digit figure is its rounding
    lam = lambda_lifetime(P1, MODE21, recording_window(P1, MODE21) / 2.0)
    spot_ok = abs(lam - 0.5 * math.log(5.0)) <= 1e-9 and f"{lam:.7f}" == "0.8047190"
    ok = worst <= 1e-10 and spot_ok
    _verdict(
        4,
        "frequency reconstruction from the decay exponent",
        ok,
        f"worst rel dev {worst:.2e} <= 1e-10 (1000 draws), "
        f"midpoint value {lam:.7f} == 0.8047190",
    )


# -- 5: figure tables -------------------------------------------------------


def test_criterion_5_figures():
    details = []
    ok = True
    last_by_figure = {}
    for name in ("fig1", "fig2", "fig3", "fig4"):
        spec = default_figure_spec(name)
        if name == "fig1":
            ks = sorted(k for k, _ in spec.modes)
            ok &= ks[2] == 10 * ks[0] and ks[3] == 10 * ks[1]
        last = {}
        for cid, t, _ in curve_table(spec):
            last[cid] = t
        last_by_figure[name] = {}
        for k, n in spec.modes:
            T = recording_window(spec.params(), ModeIndex(k=k, n=n))
            t_end = last[spec.curve_id(k, n)]
            # every curve must run to the edge of its window: the final
            # abscissa sits within one grid step of T and never past it
            ok &= T * (1.0 - 2.0 / spec.points) <= t_end < T
            last_by_figure[name][n] = t_end
        details.append(f"{name} end-of-window ok")
    ratios = [
        last_by_figure["fig4"][n] / last_by_figure["fig3"][n]
        for n in last_by_figure["fig3"]
    ]
    ok &= all(r > 10.0 for r in ratios)
    _verdict(
        5,
        "figure curves end at their windows, momentum separations hold",
        ok,
        "; ".join(details)
        + f"; fig1 momenta decade-spaced; min fig4/fig3 endpoint ratio "
        f"{min(ratios):.1f} > 10",
    )


# -- 6: squeezed-vacuum observables ------------------------------------------


def test_criterion_6_squeezed_vacuum():
    st = squeezed_vacuum(1.0, 1.0, cutoff=51)
    n_pair, _ = expected_pair_number(st)
    dev_n = abs(n_pair - math.sinh(1.0) ** 2)
    dev_norm = abs(st.norm_sq() - 1.0)
    # pairing balance through the operator route; identical nonzero support
    # makes the two quadratic forms term-for-term equal, so exactly zero
    num_a, num_t = number_operators(51)
    vec = st.full_vector()
    charge = (np.vdot(vec, num_a.matrix @ vec) - np.vdot(vec, num_t.matrix @ vec)).real
    worst_oracle = 0.0
    for gamma_t, cutoff in ((0.25, 48), (0.5, 48), (1.0, 80), (1.5, 200)):
        flow = pair_coupling(1.0, cutoff)
        out = brute_force_evolve(flow, gamma_t, vacuum_state(cutoff))
        th, ch = math.tanh(gamma_t), math.cosh(gamma_t)
        dev = max(
            abs(complex(c) - th**m / ch) for m, c in enumerate(out.coeffs)
        )
        worst_oracle = max(worst_oracle, dev)
    ok = (
        dev_n <= 1e-10
        and dev_norm <= 1e-12
        and charge == 0.0
        and worst_oracle <= 1e-8
    )
    _verdict(
        6,
        "squeezed-vacuum occupation, normalization, pairing, oracle match",
        ok,
        f"|n - sinh^2(1)| {dev_n:.2e} <= 1e-10, |norm^2 - 1| {dev_norm:.2e} "
        f"<= 1e-12, pairing charge {float(charge)!r} == 0.0, worst coefficient dev "
        f"vs evolution oracle {worst_oracle:.2e} <= 1e-8",
    )


# -- 7: vacuum overlap decay --------------------------------------------------


def test_criterion_7_overlap_decay():
    worst_ov = 0.0
    for gamma, t, tp in ((1.0, 1.0, 0.4), (0.5, 2.0, 0.0), (0.8, 1.8, 0.3)):
        ip = inner_product(
            squeezed_vacuum(gamma, t, cutoff=160),
            squeezed_vacuum(gamma, tp, cutoff=160),
        )
        worst_ov = max(worst_ov, abs(ip - vacuum_overlap([gamma], t, tp)))
    # -ln overlap = ln cosh(gamma t) approaches gamma t - ln 2, so the decay
    # rate is read off as the log-slope; at gamma*t = 5 the slope is within
    # 5e-4 of gamma while the secant from the origin still carries the ln 2
    # offset and sits 14% low
    drop = lambda x: -math.log(vacuum_overlap([1.0], x, 0.0))
    rate = drop(5.0) - drop(4.0)
    many = np.random.default_rng(7).uniform(0.2, 1.0, size=30)
    prods = [vacuum_overlap(many[:m], 2.0, 0.0) for m in range(1, 31)]
    decreasing = all(b < a for a, b in zip(prods, prods[1:]))
    ok = worst_ov <= 1e-10 and abs(rate - 1.0) <= 0.02 and decreasing
    _verdict(
        7,
        "per-mode overlap, asymptotic decay rate, many-mode suppression",
        ok,
        f"worst overlap dev {worst_ov:.2e} <= 1e-10, rate {rate:.5f} within "
        f"2% of gamma, {len(prods)}-mode product strictly decreasing: "
        f"{decreasing}",
    )


# -- 8: algebraic structure ----------------------------------------------------


def _interior(cutoff, keep):
    idx = [
        ma * (cutoff + 1) + mb for ma in range(keep + 1) for mb in range(keep + 1)
    ]
    return np.array(idx)


def test_criterion_8_algebra():
    N = 30
    _, _, flow = build_hamiltonians(P1, MODE21, 0.0, cutoff=N)
    A, At = pair_ladders(N)
    rotated = common_frequency(P1, MODE21, 0.0) * (A.getH() @ A - At.getH() @ At)
    comm = (rotated @ flow.matrix - flow.matrix @ rotated).toarray()
    idx = _interior(N, N - 2)
    scale = abs(rotated).max() * abs(flow.matrix).max()
    comm_dev = float(np.abs(comm[np.ix_(idx, idx)]).max() / scale)

    M = 24
    ang = mixing_angle(P1, MODE21, 0.0)
    h0, hi1, _ = build_hamiltonians(P1, MODE21, 0.0, cutoff=M)
    vac = np.zeros((M + 1) ** 2, dtype=complex)
    vac[0] = 1.0
    rotated_vac = expm_apply(-1j * ang.theta * k2_generator(M).matrix, vac)
    energy = abs(np.vdot(rotated_vac, (h0.matrix + hi1.matrix) @ rotated_vac))

    K = 220
    a = ladder(K).toarray()
    k1 = k2_single_mode(K).toarray()
    mix_dev = 0.0
    for theta in (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0):
        got = expm_dense(-1j * theta * k1) @ a @ expm_dense(1j * theta * k1)
        c, s = bogoliubov_theta_coeffs(theta)
        want = c * a + s * a.conj().T
        mix_dev = max(mix_dev, float(np.abs((got - want)[:9, :9]).max()))

    ok = comm_dev <= 1e-10 and energy <= 1e-8 and mix_dev <= 1e-8
    _verdict(
        8,
        "conserved flow, zero-energy rotated vacuum, hyperbolic mixing",
        ok,
        f"interior commutator {comm_dev:.2e} <= 1e-10 rel, rotated-vacuum "
        f"energy {energy:.2e} <= 1e-8, worst mixing dev {mix_dev:.2e} <= 1e-8 "
        f"over theta in [-2, 2]",
    )


# -- 9: memory-code laws --------------------------------------------------------


def _spectrum(*triples):
    return StimulusSpectrum(tuple(triples))


def test_criterion_9_memory_laws():
    # persistence and localization for every tested momentum pair
    order_ok = True
    for n in (0, 1, 3):
        for k1, k2 in ((0.6, 2.0), (2.0, 6.0), (0.7, 55.0)):
            t1 = recording_window(P1, ModeIndex(k=k1, n=n))
            t2 = recording_window(P1, ModeIndex(k=k2, n=n))
            s1 = domain_size(P1, n, t1)
            s2 = domain_size(P1, n, t2)
            order_ok &= t2 > t1 and s2 < s1
            # a domain closes exactly when the threshold reaches the mode's
            # momentum, so its final extent is the mode's own wavelength
            order_ok &= abs(s1 - 2 * math.pi / k1) <= 1e-12 * s1
            order_ok &= abs(s2 - 2 * math.pi / k2) <= 1e-12 * s2

    # 1000-operation fuzz: statuses only advance, supports only shrink,
    # recording leaves other codes alone, recall never writes
    rng = random.Random(99)
    reg = MemoryRegistry()
    rank = {CodeStatus.INTACT: 0, CodeStatus.DEGRADED: 1, CodeStatus.FORGOTTEN: 2}
    seen_status: dict = {}
    seen_keys: dict = {}
    fuzz_ok = True
    t = 0.0
    for _ in range(1000):
        op = rng.random()
        if op < 0.5:
            comps = tuple(
                (
                    math.exp(rng.uniform(math.log(0.1), math.log(60.0))),
                    rng.randint(0, 4),
                    rng.uniform(0.0, 5.0),
                )
                for _ in range(rng.randint(1, 4))
            )
            others = {cid: dict(code.entries) for cid, code in reg.codes.items()}
            code, rejected = record(reg, _spectrum(*comps), t, P1)
            fuzz_ok &= all(
                r.reason in (RejectionReason.BELOW_THRESHOLD, RejectionReason.WINDOW_CLOSED)
                for r in rejected
            )
            for cid, snap in others.items():
                if code is not None and cid == code.id:
                    continue
                fuzz_ok &= reg.codes[cid].entries == snap
        elif op < 0.8:
            t += rng.expovariate(1.0)
            decay_codes(reg, t, P1)
        else:
            sig = _spectrum(
                (rng.uniform(0.2, 60.0), rng.randint(0, 4), rng.uniform(0, 5))
            )
            before = reg.dumps()
            recall(reg, sig, rng.uniform(0, 50), t, P1)
            fuzz_ok &= reg.dumps() == before
        for cid, code in reg.codes.items():
            fuzz_ok &= (code.status is CodeStatus.FORGOTTEN) == (not code.entries)
            if cid in seen_status:
                fuzz_ok &= rank[code.status] >= rank[seen_status[cid]]
                fuzz_ok &= set(code.entries) <= seen_keys[cid]
            seen_status[cid] = code.status
            seen_keys[cid] = set(code.entries)
    fuzz_ok &= MemoryRegistry.loads(reg.dumps()).dumps() == reg.dumps()

    # recall gating truth table on a two-component code with weights (1, 2):
    # a probe on the light component scores 1/sqrt(5) < 0.5
    reg = MemoryRegistry()
    record(reg, _spectrum((2.0, 1, 1.0), (4.0, 1, 2.0)), 1.0, P1)
    decay_codes(reg, 1.0, P1)
    e_thr = P1.c * momentum_threshold(P1, 1, 1.0)
    strong = _spectrum((2.0, 1, 1.0), (4.0, 1, 2.0))
    weak = _spectrum((2.0, 1, 1.0))
    table = [
        (strong, 1.01 * e_thr, RecallOutcome.RECALLED, "code000001"),
        (strong, 0.99 * e_thr, RecallOutcome.DIFFICULTY, "code000001"),
        (weak, 1.01 * e_thr, RecallOutcome.NO_MATCH, None),
        (weak, 0.99 * e_thr, RecallOutcome.NO_MATCH, None),
    ]
    gate_ok = True
    for sig, energy, outcome, matched in table:
        res = recall(reg, sig, energy, 1.0, P1)
        gate_ok &= res.outcome is outcome and res.matched == matched

    ok = order_ok and fuzz_ok and gate_ok
    _verdict(
        9,
        "persistence/localization ordering, registry fuzz, recall gating",
        ok,
        f"ordering {order_ok}, 1000-op fuzz invariants {fuzz_ok}, "
        f"gating truth table {gate_ok}",
    )
