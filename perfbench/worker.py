"""One measured process: imports, seeded inputs, warm-up, timed rounds, checks.

run.py starts this with BLAS/OpenMP threads pinned in the environment, so the
pin is in place before numpy loads OpenBLAS.  Roles:

  --role probe  stop once the workload could start its first timed item and
                print the set-up timeline (interpreter start, imports, ready);
  --role main   run rounds of the batch until --seconds is spent (at least
                two), check the first round's outputs, and print one JSON
                result as the last line.

With --trace 1 rounds alternate untraced / traced; end-to-end numbers come
from the untraced rounds, per-layer numbers from the traced ones.
"""

import time

T_START = time.monotonic()  # first statement: interpreter start ends here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROUND_CAP_S = 140.0  # leaves room for checks inside the 180 s run limit

# Named latencies per workload: (name, item classes, percentile or "mean",
# key in the JSON result or None).  Each workload's JSON carries two of them
# as main_ms and aux_ms (see README.md).  Where an item's cost trends along
# the batch (registry records and recalls grow with the registry), a
# percentile samples one stretch of the run and the mean is the steadier
# summary.
NAMED = {
    "closed-form": [("mode_p50_ms", "main", 50, "main_ms"),
                    ("mode_p90_ms", "main", 90, "aux_ms"),
                    ("squeeze_p50_ms", "side", 50, None)],
    "crosscheck": [("ode_check_p50_ms", "main", 50, "main_ms"),
                   ("oracle_check_p50_ms", "side", 50, None),
                   ("oracle_check_mean_ms", "side", "mean", "aux_ms")],
    "registry": [("record_p50_ms", "main", 50, None),
                 ("record_p99_ms", "main", 99, None),
                 ("record_mean_ms", "main", "mean", "main_ms"),
                 ("recall_p50_ms", "side", 50, None),
                 ("recall_p95_ms", "side", 95, None),
                 ("recall_mean_ms", "side", "mean", "aux_ms")],
    "cli": [("command_p50_s", "main", 50, "main_ms"),
            ("registry_command_p50_s", "side", 50, "aux_ms")],
}

# Per-layer ratios: name -> (numerator, denominator) counts; "span:<name>"
# is the number of calls recorded for that span.  COUNTS are reported as is.
RATIOS = {
    "memory.record.accept_ratio": ("memory.record.accepted", "memory.record.components"),
    "memory.record.refresh_ratio": ("memory.record.refreshed", "span:memory.record"),
    "memory.recall.match_ratio": ("memory.recall.matched", "span:memory.recall"),
    "memory.decay_codes.swept_ratio": ("memory.decay_codes.swept",
                                       "memory.decay_codes.scanned"),
}
COUNTS = ("lifetime.samples", "ode.grid_points", "fock.squeezed_vacuum.failed",
          "memory.codes_final", "memory.dumps.bytes", "memory.loads.bytes",
          "cli.bytes_written")
CLI_COMMANDS = ("bessel", "evolve", "lifetimes", "figures", "squeeze",
                "record", "recall", "forget-sweep")
LAYER_SPANS = (
    "bessel.sph_j", "bessel.sph_y", "bessel.sph_deriv", "bessel.sph_second_deriv",
    "oscillator.closed_form_trajectory", "oscillator.residual",
    "oscillator.closed_form_state", "lifetime.curve_table", "lifetime.lifetime_profile",
    "ode", "fock.squeezed_vacuum", "fock.pair_coupling", "fock.brute_force_evolve",
    "memory.record", "memory.recall", "memory.decay_codes", "memory.dumps",
    "memory.loads",
) + tuple("cli." + c for c in CLI_COMMANDS)


def blas_threads():
    """Thread count read back from the OpenBLAS that numpy loaded."""
    import ctypes

    import numpy  # noqa: F401  (loads OpenBLAS)

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def build(workload, seed, workdir, src):
    import inputs
    import workloads

    data = inputs.MAKERS[workload](seed)
    if workload == "cli":
        return workloads.Cli(data, workdir, src), data
    return workloads.WORKLOADS[workload](data), data


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile (or the mean for
    q == "mean").  It weights every order statistic by a beta density
    centred on q, so it moves far less with one noisy item than the single
    order statistic np.percentile returns."""
    import numpy as np
    from scipy.special import betainc

    v = np.sort(np.asarray(values, dtype=float))
    if q == "mean":
        return float(v.mean())
    n, p = v.size, q / 100.0
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), v))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--role", choices=("probe", "main"), default="main")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    import importlib

    import workloads

    for mod in workloads.IMPORTS[args.workload]:
        importlib.import_module(mod)
    t_imported = time.monotonic()
    if args.role == "probe" and args.workload == "cli":
        # the cli workload's set-up is the cold `import memdomain.cli`
        from calibrate import Calibrator

        print(json.dumps({"t_start": T_START, "t_imported": t_imported,
                          "t_ready": t_imported, "factor": Calibrator("cli").settle()}))
        return 0
    wl, data = build(args.workload, args.seed, args.workdir, args.src)
    wl.warmup()
    t_ready = time.monotonic()
    from calibrate import Calibrator

    cal = Calibrator(args.workload)
    if args.role == "probe":
        print(json.dumps({"t_start": T_START, "t_imported": t_imported,
                          "t_ready": t_ready, "factor": cal.settle()}))
        return 0
    cal.settle()

    from spans import NullTracer, Tracer

    import inputs

    rounds = []
    first_outputs = None
    prints = set()
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = Tracer() if traced else NullTracer()
        getattr(wl, "prepare", lambda: None)()
        rnd = workloads.Round(cal)
        t0 = time.perf_counter()
        wl.run(tracer, rnd)
        rnd.wall = time.perf_counter() - t0
        fp = getattr(wl, "fingerprint", workloads.fingerprint)(rnd.outputs)
        prints.add(fp)
        if first_outputs is None:
            first_outputs = rnd.outputs
        rnd.outputs = None
        rounds.append((rnd, tracer, fp))
        elapsed = time.perf_counter() - begin
        if len(rounds) >= 2 and (elapsed + rnd.wall > args.seconds or elapsed > ROUND_CAP_S):
            break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # ---- correctness, outside every timed region
    mismatches = wl.check(first_outputs)
    errors = {}
    for rnd, _, _ in rounds:
        errors.update(rnd.errors)
    problems = []
    if len(prints) != 1:
        problems.append("rounds on identical inputs gave different outputs")
    if any(set(r.errors) != set(rounds[0][0].errors) for r, _, _ in rounds):
        problems.append("rounds on identical inputs failed on different items")
    unexpected = {k: msg for k, (kind, msg) in errors.items() if kind != "refusal"}
    failed_items = set(errors) | set(mismatches)

    # Per item, the median over untraced rounds: a burst of load from outside
    # the process then has to hit the same item in most rounds to show.
    import numpy as np

    plain = [r for r, tr, _ in rounds if not tr.enabled]
    per_item = {}
    for r in plain:
        for item, (cls, dt, factor, ok) in r.latency.items():
            per_item.setdefault(item, (cls, ok, [], []))
            per_item[item][2].append(dt / factor)
            per_item[item][3].append(dt)
    # (class, ok, calibrated median, raw median)
    med = {item: (cls, ok, float(np.median(c)), float(np.median(r)))
           for item, (cls, ok, c, r) in per_item.items()}
    main_cls, side_cls = workloads.CLASSES[args.workload]

    def of(classes, raw=False):
        return [m[3] if raw else m[2] for m in med.values() if m[1] and m[0] in classes]

    named = {}
    e2e = {"wall_s": sum(m[2] for m in med.values()), "peak_rss_mb": peak_rss_mb}
    raw_e2e = {"wall_s": sum(m[3] for m in med.values())}
    for name, which, q, key in NAMED[args.workload]:
        classes = main_cls if which == "main" else side_cls
        vals, raw = of(classes), of(classes, raw=True)
        if not vals:
            problems.append(f"no successful {'/'.join(classes)} item for {name}")
            continue
        scale = 1.0 if name.endswith("_s") else 1e3
        v = percentile(vals, q) * scale
        named[name] = {"value": v, "raw": percentile(raw, q) * scale,
                       "unit": "s" if scale == 1.0 else "ms", "samples": len(vals),
                       "beyond": int(sum(x * scale > v for x in vals))}
        if key:
            e2e[key] = v * 1e3 / scale
            raw_e2e[key] = named[name]["raw"] * 1e3 / scale
    by_class = {}
    for cls, *_ in med.values():
        by_class[cls] = by_class.get(cls, 0) + 1

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_walls_s": [r.wall for r, _, _ in rounds],
        "traced_rounds": [i for i, (_, tr, _) in enumerate(rounds) if tr.enabled],
        "attempted": wl.items(),
        "failed": len(failed_items),
        "mismatches": mismatches,
        "errors": {k: msg for k, (_, msg) in errors.items()},
        "unexpected_errors": unexpected,
        "problems": problems,
        "fingerprint": rounds[0][2],
        "input_digest": inputs.digest(data),
        "items_by_class": by_class,
        "named": named,
        "e2e": e2e,
        "raw": raw_e2e,
        "items": med,
        "round_cal_s": [sum(dt / f for _, dt, f, _ in r.latency.values()) for r in plain],
        "speed_factors": [f for _, f in cal.samples],
        "facts": {
            "blas_threads": blas_threads(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": sys.version.split()[0],
        },
    }
    if args.workload == "cli":
        result["preseed_codes"] = wl.preseed_codes

    if args.trace:
        result["per_layer"], spans_out, repeat = per_layer(rounds)
        result["self_times"] = spans_out["rounds"][0]["self_times"]
        if not repeat:
            problems.append("per-layer counts differ between traced rounds")
        with open(args.trace_file, "w") as fh:
            json.dump(spans_out, fh)
    print(json.dumps(result))
    return 0


def per_layer(rounds):
    """Per-layer metrics from the traced rounds, the trace file's contents,
    and whether every traced round counted the same work."""
    import numpy as np
    from spans import self_times

    traced = [(r, tr) for r, tr, _ in rounds if tr.enabled]
    # calibrated round times, so the host's speed phases do not pose as
    # tracing overhead
    plain = [r.wall / np.median(r.factors) for r, tr, _ in rounds if not tr.enabled]
    per_round = []
    for r, tr in traced:
        table = self_times(tr.spans)
        counts = dict(tr.counts)
        for name, (calls, _, _) in table.items():
            counts["span:" + name] = calls
        per_round.append((r.wall, table, counts))
    out = {}
    counts0 = per_round[0][2]
    for name in LAYER_SPANS:
        out[name + ".calls"] = counts0.get("span:" + name, 0)
        out[name + ".busy_pct"] = float(np.median(
            [100.0 * table.get(name, (0, 0.0, 0.0))[1] / wall for wall, table, _ in per_round]))
    for name in COUNTS:
        out[name] = counts0.get(name, 0)
    for name, (num, den) in RATIOS.items():
        d = counts0.get(den, 0)
        out[name] = counts0.get(num, 0) / d if d else 0.0
    layer_busy = [sum(v[1] for k, v in table.items() if not k.startswith("item."))
                  for _, table, _ in per_round]
    out["bench.self_pct"] = float(np.median(
        [100.0 * (wall - busy) / wall for (wall, _, _), busy in zip(per_round, layer_busy)]))
    out["trace.overhead_s"] = float(
        np.median([r.wall / np.median(r.factors) for r, _ in traced]) - np.median(plain))
    spans_out = {
        "rounds": [
            {"wall_s": wall,
             "self_times": {k: {"calls": c, "busy_s": b, "self_s": s}
                            for k, (c, b, s) in table.items()},
             "counts": counts}
            for wall, table, counts in per_round
        ],
        "spans": [tr.spans for _, tr in traced],
    }
    return out, spans_out, all(c == counts0 for _, _, c in per_round)


if __name__ == "__main__":
    sys.exit(main())
