"""Independent references for the correctness gate.

Bessel lines come from scipy.special (a different algorithm from the
package's Miller recurrence); decay exponents from the frequency identity
Omega(t) = Omega(0) exp(-Lambda(t)); squeeze and oracle coefficients from
tanh^m(gt)/cosh(gt).  Each check returns None when it passes, else a short
message.  Deviations are normalised by the largest |value| of the line they
belong to, so one tolerance serves lines of any magnitude.
"""

import json
import math

import numpy as np
from scipy.special import spherical_jn, spherical_yn

# Measured on the seed (2-core x86 sandbox): closed form <= 1e-13, integrator
# 5e-14 at k=2 n=1 and 7e-8 at k=55 n=9, oracle ~3e-7 (sqrt of its 1e-12 mass
# tail).  Each tolerance leaves headroom above the measured deviation.
TOL_CLOSED = 1e-10
TOL_RESIDUAL = 1e-8
TOL_LAMBDA = 1e-8
TOL_BESSEL = 1e-10
TOL_ODE = 1e-6
TOL_SQUEEZE = 1e-12
TOL_OCCUPATION = 1e-8  # truncation drops at most ~cutoff * 1e-12 of sinh^2
TOL_ORACLE = 1e-6
TOL_CLI = 1e-12


def line_dev(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref))) or 1.0
    return float(np.max(np.abs(got - ref))) / scale


def _first_bad(named, tol=None):
    """First (name, dev[, tol]) whose deviation exceeds its tolerance."""
    for name, dev, *own in named:
        limit = own[0] if own else tol
        if not dev <= limit:
            return f"{name} deviation {dev:.3e} > {limit:g}"
    return None


def pair_lines(k, n, L, t):
    """(u, v, r) of the regular closed form at times t, via scipy."""
    alpha = (2 * n + 1) / L
    x = np.exp(-np.asarray(t, dtype=float) / alpha)
    j = spherical_jn(n, k * alpha * x)
    u = j * x ** (n + 1)
    return u, j * x ** (-n), math.sqrt(2.0) * u * np.exp(L * np.asarray(t) / 2)


def _traj_devs(prefix, traj, k, n, L):
    u, v, r = pair_lines(k, n, L, traj.times)
    return [(f"{prefix}.u", line_dev(traj.u, u)), (f"{prefix}.v", line_dev(traj.v, v)),
            (f"{prefix}.r", line_dev(traj.r, r))]


def lambda_ref(k, n, L, t):
    """Lambda(t) = ln(Omega(0)/Omega(t)), Omega^2 = w^2 - L^2/4."""
    t = np.asarray(t, dtype=float)
    w2 = (k * np.exp(-L * t / (2 * n + 1))) ** 2
    return 0.5 * np.log((k * k - L * L / 4) / (w2 - L * L / 4))


def _lambda_dev(lams, k, n, L, t):
    ref = lambda_ref(k, n, L, t)
    return float(np.max(np.abs(np.asarray(lams) - ref) / np.maximum(1.0, np.abs(ref))))


def check_mode(k, n, L, traj, ftraj, res, prof):
    devs = _traj_devs("trajectory", traj, k, n, L) + _traj_devs("fine", ftraj, k, n, L)
    # residual: the same 4th-order stencil applied to the scipy lines,
    # normalised by the largest term of each equation
    ti, res_u, res_v = res
    t = ftraj.times
    h = float(np.mean(np.diff(t)))
    u, v, _ = pair_lines(k, n, L, t)
    w2 = (k * np.exp(-L * ti / (2 * n + 1))) ** 2
    for name, f, sign, got in (("residual.u", u, 1.0, res_u), ("residual.v", v, -1.0, res_v)):
        d1 = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
        d2 = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (12 * h * h)
        ref = d2 + sign * L * d1 + w2 * f[2:-2]
        scale = max(np.max(np.abs(d2)), np.max(np.abs(L * d1)), np.max(np.abs(w2 * f[2:-2])))
        devs.append((name, float(np.max(np.abs(got - ref))) / scale, TOL_RESIDUAL))
    devs.append(("profile.lambda", _lambda_dev(prof.lambdas, k, n, L, prof.times),
                 TOL_LAMBDA))
    return _first_bad(devs, TOL_CLOSED)


def check_curve(modes, curve_id, L, rows):
    by_curve = {}
    for cid, t, lam in rows:
        by_curve.setdefault(cid, []).append((t, lam))
    if sorted(by_curve) != sorted(curve_id(k, n) for k, n in modes):
        return "curve ids do not match the figure's modes"
    devs = []
    for k, n in modes:
        t, lam = np.array(by_curve[curve_id(k, n)]).T
        devs.append((f"curve {curve_id(k, n)}", _lambda_dev(lam, k, n, L, t)))
    return _first_bad(devs, TOL_LAMBDA)


def check_bessel_line(n, zs, rows):
    z = np.asarray(zs, dtype=float)
    j, y = spherical_jn(n, z), spherical_yn(n, z)
    jd, yd = spherical_jn(n, z, derivative=True), spherical_yn(n, z, derivative=True)
    # second derivatives from the defining equation f'' = -2f'/z - (1 - n(n+1)/z^2) f
    q = 1.0 - n * (n + 1) / (z * z)
    jdd, ydd = -2 * jd / z - q * j, -2 * yd / z - q * y
    got = np.array(rows, dtype=float).T
    names = ("sph_j", "sph_y", "sph_deriv.j", "sph_deriv.y",
             "sph_second_deriv.j", "sph_second_deriv.y")
    return _first_bad(
        [(f"{nm} n={n}", line_dev(g, r)) for nm, g, r in
         zip(names, got, (j, y, jd, yd, jdd, ydd))], TOL_BESSEL)


def squeeze_coeffs(gt, count):
    m = np.arange(count)
    return np.tanh(gt) ** m / np.cosh(gt)


def check_squeeze(gt, coeffs, occupation):
    c = np.asarray(coeffs, dtype=float)
    ref = squeeze_coeffs(gt, c.size)
    sh2 = math.sinh(gt) ** 2
    return _first_bad(
        [("coefficients", float(np.max(np.abs(c - ref))), TOL_SQUEEZE),
         ("occupation", abs(occupation - sh2) / max(1.0, sh2), TOL_OCCUPATION)])


def check_ode(k, n, L, traj):
    return _first_bad(_traj_devs("ode", traj, k, n, L), TOL_ODE)


def check_oracle(gt, coeffs):
    c = np.array([complex(x) for x in coeffs])
    dev = float(np.max(np.abs(c - squeeze_coeffs(gt, c.size))))
    return _first_bad([("oracle", dev)], TOL_ORACLE)


# ---------------------------------------------------------------------------
# cli: every output is compared with the library called in-process


def _csv(data):
    lines = data.decode().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(got, ref, tol=TOL_CLI):
    return line_dev(np.asarray(got, dtype=float), np.asarray(ref, dtype=float)) <= tol


def _opt(argv, name):
    i = argv.index(name)
    return argv[i + 1]


def _multi(argv, name):
    i = argv.index(name) + 1
    out = []
    while i < len(argv) and not argv[i].startswith("--"):
        out.append(argv[i])
        i += 1
    return out


def check_cli(session, stdouts, files):
    from memdomain import bessel, fock, lifetime, memory, oscillator

    p = session.params
    bad = {}
    reg = memory.MemoryRegistry.loads(session.preseed)
    for i, argv in enumerate(session.inputs["commands"]):
        item, cmd, out = f"command:{i}", argv[0], stdouts[i]
        if out is None:
            continue
        try:
            ok = True
            if cmd == "bessel":
                fn = bessel.sph_j if _opt(argv, "--kind") == "j" else bessel.sph_y
                _, rows = _csv(files[_opt(argv, "--out")])
                order = int(_opt(argv, "--order"))
                ok = _close([float(r[1]) for r in rows],
                            [fn(order, float(z)) for z in _multi(argv, "--z")])
            elif cmd == "evolve":
                mode = oscillator.ModeIndex(k=float(_opt(argv, "--k")), n=int(_opt(argv, "--n")))
                grid = np.linspace(0.0, float(_opt(argv, "--t-max")), int(_opt(argv, "--points")))
                name = _opt(argv, "--out")
                refs = [oscillator.closed_form_trajectory(p, mode, grid)]
                names = [name]
                if "--method" in argv:
                    init = oscillator.closed_form_state(p, mode, 0.0)
                    refs.append(oscillator.integrate_pair(p, mode, init, grid, 1e-10))
                    names.append(name.replace(".csv", ".ode.csv"))
                for nm, tr in zip(names, refs):
                    _, rows = _csv(files[nm])
                    cols = np.array(rows, dtype=float).T
                    ok = ok and all(_close(c, r) for c, r in zip(cols[1:4], (tr.u, tr.v, tr.r)))
                if "--method" in argv:
                    man = json.loads(files[name + ".manifest.json"])
                    dev = max(np.max(np.abs(refs[0].u - refs[1].u)),
                              np.max(np.abs(refs[0].v - refs[1].v)),
                              np.max(np.abs(refs[0].r - refs[1].r)))
                    ok = ok and man["results"]["max_abs_deviation"] == float(dev)
            elif cmd == "lifetimes":
                _, rows = _csv(files[_opt(argv, "--out")])
                for row in rows:
                    k, n = float(row[0]), int(row[1])
                    mode = oscillator.ModeIndex(k=k, n=n)
                    ok = ok and _close([float(row[2]), float(row[3])],
                                       [lifetime.recording_window(p, mode),
                                        lifetime.lambda_lifetime(p, mode, 0.1)])
            elif cmd == "figures":
                fig = _opt(argv, "--which")
                spec = lifetime.default_figure_spec(fig, points=int(_opt(argv, "--points")))
                _, rows = _csv(files[f"figures/{fig}.csv"])
                ref = lifetime.curve_table(spec)
                ok = ([r[0] for r in rows] == [r[0] for r in ref]
                      and _close([float(r[2]) for r in rows], [r[2] for r in ref]))
            elif cmd == "squeeze":
                doc = json.loads(files[_opt(argv, "--out")])
                state = fock.squeezed_vacuum(float(_opt(argv, "--gamma")), float(_opt(argv, "--t")))
                ok = _close(doc["coefficients"], [float(c) for c in state.coeffs])
                if "--oracle" in argv:
                    ok = ok and doc["oracle_max_deviation"] <= TOL_ORACLE
            elif cmd == "record":
                spec = memory.StimulusSpectrum.from_json_dict(
                    json.loads(files[_opt(argv, "--spectrum")]))
                code, rej = memory.record(reg, spec, float(_opt(argv, "--t")), p)
                doc = json.loads(out)
                ok = (doc["code"] == (None if code is None else code.id)
                      and len(doc["rejections"]) == len(rej))
            elif cmd == "recall":
                view = memory.MemoryRegistry.loads(reg.dumps())
                t = float(_opt(argv, "--t"))
                if view.last_decay_t < t:
                    memory.decay_codes(view, t, p)
                spec = memory.StimulusSpectrum.from_json_dict(
                    json.loads(files[_opt(argv, "--signal")]))
                res = memory.recall(view, spec, float(_opt(argv, "--energy")), t, p)
                doc = json.loads(out)
                ok = (doc == {"matched": res.matched, "score": res.score,
                              "outcome": res.outcome.value}
                      and files[_opt(argv, "--out")] == out)
            elif cmd == "forget-sweep":
                memory.decay_codes(reg, float(_opt(argv, "--t")), p)
                doc = json.loads(out)
                ok = doc["codes"] == len(reg.codes)
        except Exception as exc:  # a malformed output is a mismatch, not a crash
            ok, why = False, f"{type(exc).__name__}: {exc}"
        else:
            why = "output differs from the library"
        if not ok:
            bad[item] = f"{cmd}: {why}"
    if files["registry.json"].decode() != reg.dumps():
        bad["registry.json"] = "final registry file differs from the library replay"
    return bad
