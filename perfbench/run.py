"""memdomain benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is used from ./src, not
installed):

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

For one workload the last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines above it are a
readable report that also names the machine.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("closed-form", "crosscheck", "registry", "cli")
PROBES = 5  # fresh interpreters timed for setup_s; the median is reported
RUN_LIMIT_S = 170.0

# BLAS/OpenMP pins must be in the environment before the interpreter starts:
# numpy reads them once, when it loads OpenBLAS.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "main_ms": "ms", "aux_ms": "ms"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, timeout):
    """Run a child in its own process group; on timeout kill the whole group
    (cli workers have memdomain children of their own) and wait for it."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except BaseException as exc:  # timeout, or run.py itself being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{argv[2:5]} did not finish within {timeout:.0f} s")
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{err.decode()[-2000:]}")
    return out.decode().strip().splitlines()[-1]


def worker_argv(workload, seed, seconds, trace, role, workdir, trace_file=None):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--role", role, "--workdir", workdir, "--src", SRC]
    if trace_file:
        argv += ["--trace-file", trace_file]
    return argv


def setup_probes(workload, seed, workdir, deadline):
    """Set-up timeline of fresh interpreters: spawn -> first statement
    (interpreter start), -> imports done, -> ready for the first timed item."""
    rows = []
    for _ in range(PROBES):
        t0 = time.monotonic()
        line = spawn(worker_argv(workload, seed, 1, 0, "probe", workdir),
                     deadline - time.monotonic())
        doc = json.loads(line)
        f = doc["factor"]
        rows.append(((doc["t_start"] - t0) / f, (doc["t_imported"] - doc["t_start"]) / f,
                     (doc["t_ready"] - t0) / f, doc["t_ready"] - t0, f))
    return {
        "interpreter_s": statistics.median(r[0] for r in rows),
        "import_s": statistics.median(r[1] for r in rows),
        "setup_s": statistics.median(r[2] for r in rows),
        "raw_setup_s": statistics.median(r[3] for r in rows),
        "speed_factors": [r[4] for r in rows],
    }


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "memdomain")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
    return proc.stdout.decode().strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    trace_file = os.path.join(OUT, f"trace-{workload}-s{seed}.json") if trace else None
    try:
        setup = setup_probes(workload, seed, workdir, deadline)
        res = json.loads(spawn(
            worker_argv(workload, seed, seconds, trace, "main", workdir, trace_file),
            deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["setup"] = setup
    res["facts"].update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "run_s": time.monotonic() - start,
    })
    res["e2e"]["setup_s"] = setup["setup_s"]
    res["raw"]["setup_s"] = setup["raw_setup_s"]
    res["correct"] = not (res["mismatches"] or res["unexpected_errors"] or res["problems"])
    return res


def metrics_of(res, trace):
    if trace:
        layer = dict(res["per_layer"])
        layer["cli.interpreter_s"] = res["setup"]["interpreter_s"]
        layer["cli.import_s"] = res["setup"]["import_s"]
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layer.items())}
    return {k: {"value": res["e2e"].get(k), "unit": u} for k, u in END_TO_END.items()}


def layer_unit(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes") or name == "cli.bytes_written":
        return "B"
    return "count"


def report(res, metrics):
    """Readable lines: machine facts, every named metric, checks."""
    w = res["workload"]
    lines = [f"== {w}  seed {res['seed']}  rounds {res['rounds']}  "
             f"items/batch {res['attempted']} {res['items_by_class']}",
             "facts " + json.dumps(res["facts"], sort_keys=True)]
    if w == "cli":
        lines.append(f"   registry pre-seeded to {res['preseed_codes']} codes")
    e2e, raw = res["e2e"], res["raw"]
    lines.append("   (times calibrated to nominal host speed; raw seconds in brackets)")
    rows = [("setup_s", e2e["setup_s"], f"s  [{fmt(raw['setup_s'])}]"),
            ("wall_s", e2e["wall_s"], f"s  [{fmt(raw['wall_s'])}]"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
            ("failed_ratio", res["failed"] / res["attempted"], "ratio")]
    for name, doc in res["named"].items():
        rows.append((name, doc["value"], f"{doc['unit']}  [{fmt(doc['raw'])}]  "
                     f"(n={doc['samples']}, {doc['beyond']} beyond)"))
    for name, value, unit in rows:
        lines.append(f"   {name:<24} {fmt(value)} {unit}")
    if "per_layer" in res:
        lines.append("   per-layer (traced rounds):")
        for name, doc in metrics.items():
            lines.append(f"     {name:<44} {fmt(doc['value'])} {doc['unit']}")
        lines.append("   spans of the first traced round (calls, busy s, self s):")
        for name, st in sorted(res["self_times"].items()):
            lines.append(f"     {name:<44} {st['calls']:>6} {st['busy_s']:10.4f} "
                         f"{st['self_s']:10.4f}")
    lines.append(f"   checks: {res['attempted'] - res['failed']} passed, "
                 f"{len(res['mismatches'])} mismatched, {len(res['errors'])} raised "
                 f"({len(res['unexpected_errors'])} unexpected); problems: "
                 f"{res['problems'] or 'none'}")
    kinds = {}
    for msg in res["errors"].values():
        kinds[msg.split(":")[0]] = kinds.get(msg.split(":")[0], 0) + 1
    if kinds:
        lines.append(f"   raised by kind: {kinds}")
    for item, msg in list(res["mismatches"].items())[:5]:
        lines.append(f"   mismatch {item}: {msg}")
    lines.append(f"   output sha256 {res['fingerprint']}  input sha256 {res['input_digest']}")
    return lines


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)


def save(res, trace):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{res['workload']}-s{res['seed']}-t{trace}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)


def self_check(seconds):
    """Same seed -> same inputs and same per-layer counts; other seed -> other
    inputs.  Counts come from two traced runs per workload."""
    sys.path.insert(0, HERE)
    import inputs

    ok = True
    for w in WORKLOADS:
        a, b, c = (inputs.digest(inputs.MAKERS[w](s)) for s in (7, 7, 8))
        same, differ = a == b, a != c
        print(f"{w}: same seed same inputs {same}; other seed other inputs {differ}")
        ok &= same and differ
        runs = [run_workload(w, 7, seconds, 1) for _ in range(2)]
        counts = [{k: v for k, v in metrics_of(r, 1).items()
                   if v["unit"] in ("count", "ratio", "B")} for r in runs]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        print(f"{w}: per-layer counts repeat {not diff} {diff or ''}")
        print(f"{w}: outputs repeat {runs[0]['fingerprint'] == runs[1]['fingerprint']}")
        ok &= not diff and runs[0]["fingerprint"] == runs[1]["fingerprint"]
    print(json.dumps({"self_check": bool(ok)}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    # a stopped benchmark takes its workers (and their subprocesses) with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "memdomain", "__init__.py")):
        print(f"error: no memdomain package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(min(args.seconds, 5))
    if args.workload is None:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for w in names:
            res = run_workload(w, args.seed, args.seconds, args.trace)
            metrics = metrics_of(res, args.trace)
            save(res, args.trace)
            print("\n".join(report(res, metrics)), flush=True)
            results.append((res, metrics))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{r['workload']}.{k}": v for r, m in results for k, v in m.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results),
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
