"""Command-line interface: reproducible CSV/JSON emission for every layer.

Determinism contract: identical resolved configurations produce byte
identical output files.  Every file-writing run leaves a manifest next to
its outputs (``<out>.manifest.json`` for single-file outputs,
``manifest.json`` inside directory outputs) echoing the resolved
configuration, the tool version, sha256 digests of each input file
consumed, and digests of the files written.  The manifest's timestamp is
its only run-dependent field and is dropped with --no-timestamp.

Configuration may come from an INI file (--config): a [memdomain] section
for the shared keys L, c, seed, no-timestamp plus one section per
subcommand.  Command-line flags override the command section, which
overrides [memdomain].  Unknown sections or keys are rejected.

Numbers in CSV output are written with 17 significant digits, comma
separated, LF terminated, header row first.  All files are written by
memdomain.memory.write_atomic: a temp file, synced to disk, and an atomic
rename.  An output or manifest path that is a directory refuses the
request before any file is written.

Exit status: 0 on success; 2 when the request itself is wrong: bad flags
or config, a value outside the range its option declares in the option
table (checked alike for flags and config values), inconsistent
parameters, never-recordable or dead modes, malformed input files, or a
path that cannot be used as asked (missing, a directory where a file is
named or the reverse, no permission); 1 when a computation fails, and on
any other operating-system error, such as a full disk.

MEMDOMAIN_THREADS caps BLAS/OpenMP parallelism for the numeric kernels
(0 or unset = automatic); the resolved value is echoed in the manifest.  The
cap is exported as OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and friends before
numpy is first imported, which is when OpenBLAS reads it; in a process that
has already loaded numpy (say, a caller of main()) it comes too late.

record and forget-sweep hold the registry's lock file from load through save
(see memdomain.memory.registry_lock), so concurrent writers queue instead of
losing each other's updates.  recall decays its in-memory view to --t with
decay_codes, which refuses a --t behind the registry clock; the file is kept.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import (
    GridTooCoarse,
    MemdomainError,
    StepSizeUnderflow,
)
from .lifetime import (
    FIGURE_NAMES,
    ModeIndex,
    SystemParams,
    common_frequency,
    curve_table,
    default_figure_spec,
    domain_size,
    lambda_lifetime,
    momentum_threshold,
    omega_mode,
    recording_window,
)
from .memory import write_atomic

# lifetime (the scalar model) and memory load no numpy, so the registry,
# lifetimes and figures commands never do. The numeric modules (bessel,
# oscillator, ode; scipy through fock) are imported inside the runners that
# use them, after _Run has applied MEMDOMAIN_THREADS: OpenBLAS reads its
# thread count once, when numpy loads it.


# ---------------------------------------------------------------------------
# option tables


@dataclasses.dataclass(frozen=True)
class _Opt:
    name: str
    conv: type = str
    default: object = None
    required: bool = False
    multi: bool = False
    flag: bool = False
    # (predicate, phrase): each value, each item of a multi option, must
    # satisfy predicate; the error reads "--name must be <phrase>"
    check: tuple = None
    help: str = ""

    @property
    def attr(self) -> str:
        return self.name.replace("-", "_")


def _one_of(*names) -> tuple:
    return (lambda v: v in names, "one of " + ", ".join(names))


_POSITIVE = (lambda x: 0 < x < math.inf, "positive and finite")
_NON_NEGATIVE = (lambda x: 0 <= x < math.inf, ">= 0 and finite")
_FINITE = (math.isfinite, "finite")
_TWO_OR_MORE = (lambda n: n >= 2, ">= 2")

_SHARED = (
    _Opt("config", help="INI file with [memdomain] and per-command sections"),
    _Opt("seed", conv=int, default=0, help="seed echoed into the manifest"),
    _Opt("no-timestamp", flag=True, default=False,
         help="omit the timestamp field from the manifest"),
)

_PARAMS = (
    _Opt("L", conv=float, required=True, help="damping parameter, > 0"),
    _Opt("c", conv=float, default=1.0, help="propagation speed, > 0"),
)

_COMMANDS = {
    "bessel": (
        _Opt("kind", check=_one_of("j", "y"), required=True),
        _Opt("order", conv=int, required=True),
        _Opt("z", conv=float, multi=True, required=True),
        _Opt("out", help="optional CSV destination; default prints to stdout"),
    ),
    "evolve": _PARAMS + (
        _Opt("omega0", conv=float, help="reference frequency c*k"),
        _Opt("k", conv=float, help="mode momentum"),
        _Opt("n", conv=int, required=True),
        _Opt("t-max", conv=float, required=True, check=_POSITIVE),
        _Opt("method", check=_one_of("closed", "ode", "both"), default="closed"),
        _Opt("points", conv=int, default=500, check=_TWO_OR_MORE),
        _Opt("rel-tol", conv=float, default=1e-10,
             check=(lambda x: 1e-13 <= x <= 1e-3, "in [1e-13, 1e-3]")),
        _Opt("out", required=True),
    ),
    "lifetimes": _PARAMS + (
        _Opt("omega0", conv=float, multi=True),
        _Opt("k", conv=float, multi=True),
        _Opt("n", conv=int, multi=True, required=True),
        _Opt("t", conv=float, default=0.0, check=_NON_NEGATIVE),
        _Opt("out", help="optional CSV destination; default prints to stdout"),
    ),
    "figures": (
        _Opt("which", multi=True, required=True,
             check=_one_of(*FIGURE_NAMES, "all")),
        _Opt("out", required=True, help="output directory"),
        _Opt("L", conv=float, default=1.0),
        _Opt("c", conv=float, default=1.0),
        _Opt("points", conv=int, default=2000, check=_TWO_OR_MORE),
        _Opt("ceiling", conv=float, default=10.0,
             check=(lambda x: not math.isnan(x), "a number or inf")),
        _Opt("ordinate-scale", conv=float, default=1.0, check=_FINITE),
    ),
    "squeeze": (
        _Opt("gamma", conv=float, required=True, check=_FINITE),
        _Opt("t", conv=float, required=True, check=_NON_NEGATIVE),
        _Opt("cutoff", conv=int, help="pair-number cutoff; default is sized "
             "so the discarded tail stays below 1e-12"),
        _Opt("oracle", flag=True, default=False,
             help="also evolve the vacuum numerically and report the "
             "largest coefficient deviation"),
        _Opt("out", required=True, help="JSON destination"),
    ),
    "record": _PARAMS + (
        _Opt("registry", required=True),
        _Opt("spectrum", required=True, help="stimulus JSON file"),
        _Opt("t", conv=float, required=True),
    ),
    "recall": _PARAMS + (
        _Opt("registry", required=True),
        _Opt("signal", required=True, help="replication-signal JSON file"),
        _Opt("energy", conv=float, required=True),
        _Opt("t", conv=float, required=True),
        _Opt("out", help="optional JSON destination for the result"),
    ),
    "forget-sweep": _PARAMS + (
        _Opt("registry", required=True),
        _Opt("t", conv=float, required=True),
    ),
}

_GLOBAL_CONFIG_KEYS = ("L", "c", "seed", "no-timestamp")


def _options(command: str) -> tuple:
    return _COMMANDS[command] + _SHARED


# ---------------------------------------------------------------------------
# config resolution


def _parse_args(argv):
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
    ns = parser.parse_args(argv)
    return ns.command, ns


def _load_config(path: str, command: str) -> dict:
    """Validated {option-name: raw string} for the active command."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: {exc}")
    if cfg.defaults():
        raise ValueError(
            "config [DEFAULT] section is not supported; use [memdomain]"
        )
    known_sections = ("memdomain",) + tuple(_COMMANDS)
    for section in cfg.sections():
        if section == "memdomain":
            allowed = _GLOBAL_CONFIG_KEYS
        elif section in _COMMANDS:
            allowed = tuple(
                o.name for o in _options(section) if o.name != "config"
            )
        else:
            raise ValueError(
                f"unknown config section [{section}]; known sections: "
                + ", ".join(known_sections)
            )
        for key in cfg[section]:
            if key not in allowed:
                raise ValueError(
                    f"unknown key '{key}' in config section [{section}]; "
                    "accepted keys: " + ", ".join(sorted(allowed))
                )
    # precedence inside the file: the command section beats [memdomain]
    values: dict = {}
    for section in ("memdomain", command):
        if cfg.has_section(section):
            values.update(cfg[section])
    return values


def _convert(opt: _Opt, raw: str):
    try:
        if opt.flag:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if opt.multi:
            parts = [p for p in re.split(r"[,\s]+", raw.strip()) if p]
            if not parts:
                raise ValueError("empty list")
            return [opt.conv(p) for p in parts]
        return opt.conv(raw.strip())
    except ValueError as exc:
        raise ValueError(f"config key '{opt.name}': {exc}") from None


def _resolve(command: str, ns) -> dict:
    file_values = {}
    if ns.config is not None:
        file_values = _load_config(ns.config, command)
    resolved = {}
    for opt in _options(command):
        val = getattr(ns, opt.attr)
        if val is None and opt.name in file_values and opt.name != "config":
            val = _convert(opt, file_values[opt.name])
        if val is None:
            val = opt.default
        if val is None and opt.required:
            raise ValueError(f"missing required option --{opt.name}")
        if opt.check and val is not None:
            ok, phrase = opt.check
            for item in val if opt.multi else [val]:
                if not ok(item):
                    raise ValueError(f"--{opt.name} must be {phrase}, got {item!r}")
        resolved[opt.attr] = val
    return resolved


def _thread_cap() -> object:
    raw = os.environ.get("MEMDOMAIN_THREADS")
    if raw is None or raw.strip() == "":
        return "auto"
    try:
        threads = int(raw)
        if threads < 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"MEMDOMAIN_THREADS must be a non-negative integer, got {raw!r}"
        ) from None
    if threads == 0:
        return "auto"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(threads)
    return threads


# ---------------------------------------------------------------------------
# output helpers


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else _g17(cell) for cell in row
        ))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


class _Run:
    """Collects inputs/outputs of one invocation and emits the manifest."""

    def __init__(self, command: str, resolved: dict):
        self.command = command
        self.resolved = resolved
        self.threads = _thread_cap()
        self.inputs: dict = {}
        self.outputs: dict = {}
        self.results: dict = {}
        if resolved.get("config"):
            self.read_input(Path(resolved["config"]))

    def read_input(self, path: Path) -> bytes:
        data = Path(path).read_bytes()
        self.inputs[str(path)] = _digest(data)
        return data

    def write_output(self, path: Path, data: bytes, anchor: Path = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, data)
        name = path.name if anchor is None else str(path.relative_to(anchor))
        self.outputs[name] = _digest(data)

    def emit(self, out: Path, data: bytes, *siblings) -> None:
        """Write the (path, data) siblings, out, then <out>.manifest.json; a
        destination that is a directory refuses the request before any write."""
        files = (*siblings, (out, data))
        manifest = out.with_name(out.name + ".manifest.json")
        for path in (*(path for path, _ in files), manifest):
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, blob in files:
            self.write_output(path, blob)
        self.manifest(manifest)

    def manifest(self, path: Path) -> None:
        config = {
            opt.name: self.resolved[opt.attr] for opt in _options(self.command)
        }
        doc = {
            "command": self.command,
            "config": config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "threads": self.threads,
            "tool": {"name": "memdomain", "version": __version__},
        }
        if self.results:
            doc["results"] = self.results
        if not self.resolved["no_timestamp"]:
            doc["timestamp"] = datetime.now(timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            )
        write_atomic(path, _json_bytes(doc))


# ---------------------------------------------------------------------------
# shared parameter plumbing


def _momenta(omega0s, ks, c) -> list:
    """The --k list, or --omega0 / c; both given must agree item by item."""
    if omega0s is None and ks is None:
        raise ValueError("one of --omega0 or --k is required")
    if ks is None:
        return [w / c for w in omega0s]
    if omega0s is not None:
        if len(omega0s) != len(ks):
            raise ValueError(
                f"--omega0 lists {len(omega0s)} values but --k lists {len(ks)}"
            )
        for w, k in zip(omega0s, ks):
            if not abs(w - c * k) <= 1e-12 * max(1.0, abs(w)):
                raise ValueError(
                    f"inconsistent frequencies: omega0={w:g} but "
                    f"c*k={c * k:g}; they must agree to 1e-12"
                )
    return ks


def _load(run: _Run, cls, path):
    """cls.loads of the JSON file at path, recorded as an input."""
    return cls.loads(run.read_input(Path(path)).decode("utf-8"))


# ---------------------------------------------------------------------------
# subcommand runners


def _run_bessel(run: _Run, resolved: dict) -> int:
    from .bessel import sph_j, sph_y

    fn = sph_j if resolved["kind"] == "j" else sph_y
    values = [fn(resolved["order"], z) for z in resolved["z"]]
    if resolved["out"] is None:
        for val in values:
            print(_g17(val))
        return 0
    rows = list(zip(resolved["z"], values))
    run.emit(Path(resolved["out"]), _csv_bytes(("z", "value"), rows))
    return 0


def _evolve_rows(params, mode, grid, traj):
    rows = []
    for i, t in enumerate(grid):
        rows.append((
            t,
            traj.u[i],
            traj.v[i],
            traj.r[i],
            omega_mode(params, mode, float(t)),
            common_frequency(params, mode, float(t)),
        ))
    return rows


def _run_evolve(run: _Run, resolved: dict) -> int:
    import numpy as np

    from .oscillator import closed_form_state, closed_form_trajectory, integrate_pair

    params = SystemParams(L=resolved["L"], c=resolved["c"])
    listed = [None if v is None else [v] for v in (resolved["omega0"], resolved["k"])]
    (k,) = _momenta(*listed, params.c)
    resolved["k"] = k
    resolved["omega0"] = params.omega0(k)
    mode = ModeIndex(k=k, n=resolved["n"])
    window = recording_window(params, mode)
    t_max = resolved["t_max"]
    if t_max > window:
        raise ValueError(
            f"--t-max {t_max:g} exceeds the recording window T = {window:.12g}"
            " where the common frequency turns imaginary"
        )
    grid = np.linspace(0.0, t_max, resolved["points"])
    out = Path(resolved["out"])
    header = ("t", "u", "v", "r", "omega", "Omega")
    method = resolved["method"]

    closed = ode = None
    siblings = []
    if method in ("closed", "both"):
        closed = closed_form_trajectory(params, mode, grid)
    if method in ("ode", "both"):
        init = closed_form_state(params, mode, 0.0)
        ode = integrate_pair(params, mode, init, grid, resolved["rel_tol"])
        run.results["ode"] = ode.meta

    if method == "both":
        ode_csv = _csv_bytes(header, _evolve_rows(params, mode, grid, ode))
        siblings.append((out.with_name(out.stem + ".ode" + out.suffix), ode_csv))
        lines = {name: (getattr(closed, name), getattr(ode, name)) for name in "uvr"}
        dev = {name: float(np.max(np.abs(c - o))) for name, (c, o) in lines.items()}
        run.results["max_abs_deviation"] = max(dev.values())
        # each line's deviation as a fraction of that line's size: u, v and
        # r differ by many orders of magnitude
        run.results["max_rel_deviation"] = {
            name: dev[name] / float(np.max(np.abs(c))) for name, (c, _) in lines.items()
        }
    primary = closed if closed is not None else ode
    run.emit(out, _csv_bytes(header, _evolve_rows(params, mode, grid, primary)), *siblings)
    return 0


def _run_lifetimes(run: _Run, resolved: dict) -> int:
    params = SystemParams(L=resolved["L"], c=resolved["c"])
    ks = _momenta(resolved["omega0"], resolved["k"], params.c)
    t = resolved["t"]
    rows = []
    for k in sorted(set(ks)):
        for n in sorted(set(resolved["n"])):
            mode = ModeIndex(k=k, n=n)
            rows.append((
                k,
                str(n),
                recording_window(params, mode),
                lambda_lifetime(params, mode, t),
                momentum_threshold(params, n, t),
                domain_size(params, n, t),
            ))
    header = ("k", "n", "window", "lambda", "threshold", "domain")
    data = _csv_bytes(header, rows)
    if resolved["out"] is None:
        sys.stdout.write(data.decode("utf-8"))
        return 0
    run.emit(Path(resolved["out"]), data)
    return 0


def _run_figures(run: _Run, resolved: dict) -> int:
    which = resolved["which"]
    names = list(FIGURE_NAMES) if "all" in which else [
        name for name in FIGURE_NAMES if name in which
    ]
    out_dir = Path(resolved["out"])
    if out_dir.exists() and not out_dir.is_dir():
        raise ValueError(f"--out {out_dir} exists and is not a directory")
    overrides = {
        "L": resolved["L"],
        "c": resolved["c"],
        "points": resolved["points"],
        "ceiling": resolved["ceiling"],
        "ordinate_scale": resolved["ordinate_scale"],
    }
    for name in names:
        spec = default_figure_spec(name, **overrides)
        rows = [(cid, t, lam) for cid, t, lam in curve_table(spec)]
        run.write_output(
            out_dir / f"{name}.csv",
            _csv_bytes(("curve_id", "t", "lambda"), rows),
            anchor=out_dir,
        )
        run.write_output(
            out_dir / f"{name}.spec.json",
            _json_bytes(dataclasses.asdict(spec)),
            anchor=out_dir,
        )
    run.manifest(out_dir / "manifest.json")
    return 0


def _run_squeeze(run: _Run, resolved: dict) -> int:
    from .fock import (
        brute_force_evolve,
        default_cutoff,
        expected_pair_number,
        pair_coupling,
        squeezed_vacuum,
        vacuum_state,
    )

    gamma, t = resolved["gamma"], resolved["t"]
    cutoff = resolved["cutoff"]
    if cutoff is None:
        cutoff = default_cutoff(gamma * t)
        resolved["cutoff"] = cutoff
    state = squeezed_vacuum(gamma, t, cutoff=cutoff)
    occupation, _ = expected_pair_number(state)
    doc = {
        "gamma": gamma,
        "t": t,
        "gamma_t": gamma * t,
        "cutoff": cutoff,
        "coefficients": [float(c) for c in state.coeffs],
        "occupation": occupation,
        "normalization": state.norm_sq(),
    }
    if resolved["oracle"]:
        evolved = brute_force_evolve(
            pair_coupling(gamma, cutoff), t, vacuum_state(cutoff)
        )
        doc["oracle_max_deviation"] = max(
            abs(complex(a) - complex(b))
            for a, b in zip(evolved.coeffs, state.coeffs)
        )
    run.emit(Path(resolved["out"]), _json_bytes(doc))
    return 0


@contextlib.contextmanager
def _registry_update(run: _Run, path: str, must_exist: bool):
    """Yield the registry at path, loaded under its lock, and save it after.

    The lock is held from load through save, so a concurrent writer waits
    and then loads this one's result instead of overwriting it.  Nothing is
    saved when the body raises.
    """
    from .memory import MemoryRegistry, registry_lock

    out = Path(path)
    if must_exist and not out.exists():
        raise ValueError(f"registry file not found: {path}")
    out.parent.mkdir(parents=True, exist_ok=True)
    with registry_lock(out):
        registry = _load(run, MemoryRegistry, out) if out.exists() else MemoryRegistry()
        yield registry
        run.emit(out, registry.dumps().encode("utf-8"))


def _run_record(run: _Run, resolved: dict) -> int:
    from .memory import StimulusSpectrum, record

    params = SystemParams(L=resolved["L"], c=resolved["c"])
    with _registry_update(run, resolved["registry"], must_exist=False) as registry:
        stimulus = _load(run, StimulusSpectrum, resolved["spectrum"])
        code, rejections = record(registry, stimulus, resolved["t"], params)
    report = {
        "code": None if code is None else code.id,
        "rejections": [
            {
                "k": rej.component.k,
                "n": rej.component.n,
                "intensity": rej.component.intensity,
                "reason": rej.reason.value,
                "detail": rej.detail,
            }
            for rej in rejections
        ],
    }
    sys.stdout.write(_json_bytes(report).decode("utf-8"))
    return 0


def _run_recall(run: _Run, resolved: dict) -> int:
    from .memory import MemoryRegistry, StimulusSpectrum, decay_codes, recall

    params = SystemParams(L=resolved["L"], c=resolved["c"])
    # a missing registry file is refused by read_input, like any input
    registry = _load(run, MemoryRegistry, resolved["registry"])
    signal = _load(run, StimulusSpectrum, resolved["signal"])
    t = resolved["t"]
    decay_codes(registry, t, params)
    result = recall(registry, signal, resolved["energy"], t, params)
    doc = {
        "matched": result.matched,
        "score": result.score,
        "outcome": result.outcome.value,
    }
    text = _json_bytes(doc)
    sys.stdout.write(text.decode("utf-8"))
    if resolved["out"] is not None:
        run.emit(Path(resolved["out"]), text)
    return 0


def _run_forget_sweep(run: _Run, resolved: dict) -> int:
    from .memory import decay_codes

    params = SystemParams(L=resolved["L"], c=resolved["c"])
    with _registry_update(run, resolved["registry"], must_exist=True) as registry:
        decay_codes(registry, resolved["t"], params)
    statuses = [code.status.value for code in registry.codes.values()]
    report = {
        "t": resolved["t"],
        "codes": len(statuses),
        "intact": statuses.count("Intact"),
        "degraded": statuses.count("Degraded"),
        "forgotten": statuses.count("Forgotten"),
    }
    sys.stdout.write(_json_bytes(report).decode("utf-8"))
    return 0


_RUNNERS = {
    "bessel": _run_bessel,
    "evolve": _run_evolve,
    "lifetimes": _run_lifetimes,
    "figures": _run_figures,
    "squeeze": _run_squeeze,
    "record": _run_record,
    "recall": _run_recall,
    "forget-sweep": _run_forget_sweep,
}

# a path that cannot be read, written or created as the request names it
_PATH_ERRORS = (
    FileExistsError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


def main(argv=None) -> int:
    try:
        command, ns = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolved = _resolve(command, ns)
        # _Run applies MEMDOMAIN_THREADS before any runner imports numpy
        return _RUNNERS[command](_Run(command, resolved), resolved)
    except (StepSizeUnderflow, GridTooCoarse) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    except _PATH_ERRORS as exc:
        # os.replace names the temp file first and the requested path second
        print(f"error: {exc.filename2 or exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except (MemdomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
