"""Seeded inputs for the four workloads.

Only the standard library is used here, so the same seed gives the same
inputs whatever numpy version is installed.  Continuous inputs are drawn by
stratified sampling: the range is cut into equal strata and each stratum gets
one draw, jittered around the stratum's centre by up to JITTER/2 of its
width.  Every seed gives other inputs spread over the stated range, while
the batch's work -- and its order statistics, which a steep cost curve such
as the Fock oracle's would otherwise make seed-dependent -- varies little,
so run-to-run spreads measure the program rather than the draw.
"""

import hashlib
import json
import math
import random

L = 1.0  # damping used by every workload; k0 = L/2 = 0.5

# Figure modes of lifetime.default_figure_spec, fig1..fig4 (19 modes).
FIGURE_MODES = (
    [(k, 1) for k in (0.6, 0.8, 6.0, 8.0)]
    + [(2.0, n) for n in (1, 2, 3, 4, 5)]
    + [(0.55, n) for n in (1, 3, 5, 7, 9)]
    + [(55.0, n) for n in (1, 3, 5, 7, 9)]
)


def rng_for(workload, seed):
    return random.Random(f"perfbench:{workload}:{seed}")


JITTER = 0.2


def strata(rng, lo, hi, count):
    width = (hi - lo) / count
    return [lo + (i + 0.5 + JITTER * (rng.random() - 0.5)) * width for i in range(count)]


def log_strata(rng, lo, hi, count):
    return [math.exp(v) for v in strata(rng, math.log(lo), math.log(hi), count)]


def window(k, n):
    """Recording window T = (2n+1)/L ln(2k/L), restated for input design."""
    return (2 * n + 1) / L * math.log(2 * k / L)


def closed_form(seed):
    rng = rng_for("closed-form", seed)
    modes = [(k, n) for k, n in FIGURE_MODES]
    # every order 0..9 sees the whole momentum range, so a batch's total
    # Miller work (it grows with eps = k(2n+1)) barely moves with the seed
    for n in range(10):
        modes += [(k, n) for k in log_strata(rng, 0.6, 60.0, 10)]
    rng.shuffle(modes)
    bessel_z = log_strata(rng, 0.1, 1200.0, 20)
    squeezes = [
        (rng.uniform(0.25, 1.0), gt) for gt in strata(rng, 0.1, 2.5, 120)
    ]
    rng.shuffle(squeezes)
    return {
        "modes": modes,
        "figures": ["fig1", "fig2", "fig3", "fig4"],
        "bessel_orders": list(range(10)),
        "bessel_z": bessel_z,
        "squeezes": [(g, gt / g) for g, gt in squeezes],
    }


def crosscheck(seed):
    rng = rng_for("crosscheck", seed)
    ode = []
    for n in range(4):
        ode += [(k, n) for k in log_strata(rng, 0.6, 8.0, 10)]
    rng.shuffle(ode)
    oracle = [(rng.uniform(0.25, 1.0), gt) for gt in strata(rng, 0.3, 1.8, 22)]
    rng.shuffle(oracle)
    return {"ode": ode, "oracle": [(g, gt / g) for g, gt in oracle]}


def _spectrum(rng, count=8):
    return [
        (math.exp(rng.uniform(math.log(0.6), math.log(60.0))), rng.randrange(10),
         round(rng.uniform(0.1, 2.0), 6))
        for _ in range(count)
    ]


def registry(seed, records=2400, t_end=30.0, sweep_every=100, probes=10):
    """A stream of ("record", t, spectrum), ("decay", t) and
    ("recall", t, spectrum, energy) operations at non-decreasing times."""
    rng = rng_for("registry", seed)
    ops = []
    recorded = []
    for i in range(records):
        t = t_end * i / records
        if recorded and rng.random() < 0.1:
            spec = rng.choice(recorded[-50:])  # the refresh path
        else:
            spec = _spectrum(rng)
            recorded.append(spec)
        ops.append(("record", t, spec))
        if (i + 1) % sweep_every == 0:
            ops.append(("decay", t))
            for j in range(probes):
                probe = rng.choice(recorded) if j % 2 == 0 else _spectrum(rng)
                ops.append(("recall", t, probe, rng.uniform(0.5, 5.0)))
    return {"ops": ops}


def cli(seed):
    """One session: 8 compute commands, then 22 registry commands against a
    registry file pre-seeded with `preseed` records."""
    rng = rng_for("cli", seed)
    preseed = [(4.0 * i / 1000, _spectrum(rng)) for i in range(1000)]
    k1, n1 = math.exp(rng.uniform(math.log(0.6), math.log(60.0))), rng.randrange(10)
    k2, n2 = math.exp(rng.uniform(math.log(0.6), math.log(8.0))), rng.randrange(4)
    lk = sorted(round(k, 6) for k in log_strata(rng, 0.6, 60.0, 4))
    z = [round(v, 6) for v in log_strata(rng, 0.1, 100.0, 6)]
    gamma = rng.uniform(0.25, 1.0)
    commands = [
        ["bessel", "--kind", "j", "--order", str(rng.randrange(10)),
         "--z", *map(str, z), "--out", "bessel_j.csv"],
        ["bessel", "--kind", "y", "--order", str(rng.randrange(10)),
         "--z", *map(str, z), "--out", "bessel_y.csv"],
        ["evolve", "--L", "1", "--k", repr(k1), "--n", str(n1),
         "--t-max", repr(0.9 * window(k1, n1)), "--points", "200",
         "--out", "evolve.csv"],
        ["evolve", "--L", "1", "--k", repr(k2), "--n", str(n2),
         "--t-max", repr(0.3 * window(k2, n2)), "--points", "50",
         "--method", "both", "--out", "evolve_both.csv"],
        ["lifetimes", "--L", "1", "--k", *map(str, lk), "--n", "0", "3", "9",
         "--t", "0.1", "--out", "lifetimes.csv"],
        ["figures", "--which", rng.choice(["fig1", "fig2", "fig3", "fig4"]),
         "--points", "400", "--out", "figures"],
        ["squeeze", "--gamma", repr(gamma),
         "--t", repr(rng.uniform(0.3, 1.7) / gamma), "--out", "squeeze.json"],
        ["squeeze", "--gamma", repr(gamma),
         "--t", repr(rng.uniform(0.3, 1.0) / gamma), "--oracle",
         "--out", "squeeze_oracle.json"],
    ]
    files = {}
    t = 4.0
    kinds = ("record", "record", "recall", "record", "recall", "record", "recall",
             "forget-sweep")
    for i in range(22):
        kind = kinds[i % len(kinds)]
        t += rng.uniform(0.05, 0.3)
        base = ["--L", "1", "--registry", "registry.json"]
        if kind == "record":
            # every third record repeats a pre-seeded stimulus
            spec = rng.choice(preseed)[1] if i % 3 == 0 else _spectrum(rng)
            name = f"spectrum{i}.json"
            files[name] = spec
            commands.append(["record", *base, "--spectrum", name, "--t", repr(t)])
        elif kind == "recall":
            spec = rng.choice(preseed)[1] if i % 4 == 2 else _spectrum(rng)
            name = f"signal{i}.json"
            files[name] = spec
            commands.append(["recall", *base, "--signal", name, "--energy",
                             repr(rng.uniform(0.5, 5.0)), "--t", repr(t),
                             "--out", f"recall{i}.json"])
        else:
            commands.append(["forget-sweep", *base, "--t", repr(t)])
    for cmd in commands:
        cmd.append("--no-timestamp")
    return {"preseed": preseed, "commands": commands, "files": files}


MAKERS = {
    "closed-form": closed_form,
    "crosscheck": crosscheck,
    "registry": registry,
    "cli": cli,
}


def digest(inputs):
    return hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode("utf-8")
    ).hexdigest()
