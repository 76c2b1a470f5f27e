"""Command-line interface: reproducible CSV/JSON emission for every layer.

Determinism contract: identical resolved configurations produce byte
identical output files.  Every file-writing run leaves a manifest next to
its outputs (``<out>.manifest.json`` for single-file outputs,
``manifest.json`` inside directory outputs) echoing the resolved
configuration, the tool version, sha256 digests of each input file
consumed, and digests of the files written, each named relative to the
manifest's directory.  The manifest's timestamp is its only run-dependent
field and is dropped with --no-timestamp.

Configuration may come from an INI file (--config): a [memdomain] section
for the shared keys L, c, no-timestamp plus one section per
subcommand.  Command-line flags override the command section, which
overrides [memdomain].  Unknown sections or keys are rejected.

Numbers in CSV output are written with 17 significant digits, comma
separated, LF terminated, header row first.  Each command computes
everything it writes first and then hands all of it to _Run.emit, the one
writer.  emit refuses the request when any destination, the manifest
included, is a directory or the same file as an input the run read (only
record and forget-sweep rewrite one, their registry); only then does it
write the files, each by memdomain.memory.write_atomic (a temp file,
synced to disk, and an atomic rename), and the manifest last.  So a request that is refused, or whose
computation fails, writes no output or manifest (record and forget-sweep
may leave the registry's lock file, which is never removed), and recall
--out prints its result only after the write.

Exit status: 0 on success; 2 when the request itself is wrong: bad flags
or config, a value outside the range its option declares in the option
table (checked alike for flags and config values), inconsistent
parameters, never-recordable or dead modes, malformed input files, or a
path that cannot be used as asked (missing, a directory where a file is
named or the reverse, no permission); 1 when a computation fails, and on
any other operating-system error, such as a full disk.

record and forget-sweep hold the registry's lock file from load through save
(see memdomain.memory.registry_lock), so concurrent writers queue instead of
losing each other's updates.  recall decays its in-memory view to --t with
decay_codes, which refuses a --t behind the registry clock; the file is kept.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

from . import __version__
from .errors import DomainError, MemdomainError, StepSizeUnderflow
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
from .memory import (
    MemoryRegistry,
    StimulusSpectrum,
    decay_codes,
    recall,
    record,
    registry_lock,
    write_atomic,
)

# lifetime (the scalar model) and memory load no numpy, so the registry,
# lifetimes and figures commands never do. The other modules (bessel,
# oscillator, ode, fock) are imported inside the runners that use them;
# bessel and fock import numpy (never scipy) only in their array
# functions, so bessel and squeeze without --oracle load no numpy either.


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
        _Opt("k", conv=float, required=True, help="mode momentum"),
        _Opt("n", conv=int, required=True),
        _Opt("t-max", conv=float, required=True, check=_POSITIVE),
        _Opt("method", check=_one_of("closed", "ode", "both"), default="closed"),
        _Opt("points", conv=int, default=500, check=_TWO_OR_MORE),
        _Opt("rel-tol", conv=float, default=1e-10,
             check=(lambda x: 1e-13 <= x <= 1e-3, "in [1e-13, 1e-3]")),
        _Opt("out", required=True),
    ),
    "lifetimes": _PARAMS + (
        _Opt("k", conv=float, multi=True, required=True),
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
             check=(lambda x: -math.inf < x <= math.inf, "finite or inf")),
    ),
    "squeeze": (
        _Opt("gamma", conv=float, required=True, check=_FINITE),
        _Opt("t", conv=float, required=True, check=_NON_NEGATIVE),
        _Opt("oracle", flag=True, default=False,
             help="also evolve the vacuum numerically, at 1.5 times the "
             "cutoff, and report the largest coefficient deviation"),
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
        _Opt("out", help="optional JSON destination for the result; "
             "not one of the inputs"),
    ),
    "forget-sweep": _PARAMS + (
        _Opt("registry", required=True),
        _Opt("t", conv=float, required=True),
    ),
}

_GLOBAL_CONFIG_KEYS = ("L", "c", "no-timestamp")


def _options(command: str) -> tuple:
    return _COMMANDS[command] + _SHARED


# ---------------------------------------------------------------------------
# config resolution


def _parse_args(argv):
    """(command, namespace) of argv. Every command is named to the parser,
    so -h lists them all and a wrong name is refused alike, but only the
    command argv names (its first item that is not an option) gets its
    arguments: the one parse that runs needs no others."""
    if argv is None:
        argv = sys.argv[1:]
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="memdomain",
        description="dissipative-mode memory domain toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, opts in _COMMANDS.items():
        sub = subs.add_parser(command)
        if command != chosen:
            continue
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


def _load_config(path: str, text: str, command: str) -> dict:
    """Validated {option-name: raw string} for the active command."""
    import configparser  # only a run given --config reads one

    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    try:
        cfg.read_string(text, source=path)
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


def _resolve(command: str, ns, read) -> dict:
    """Option values: flags, then the config file whose text read(path)
    returns, then defaults."""
    file_values = {}
    if ns.config is not None:
        text = read(Path(ns.config))
        file_values = _load_config(ns.config, text, command)
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


def _refuse_directory(path: Path) -> None:
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _beside(out: Path) -> Path:
    """The manifest of a single-file output: <out>.manifest.json."""
    return out.with_name(out.name + ".manifest.json")


class _Run:
    """One invocation: its options, resolved as it reads the config file
    (its first input, read once), its inputs and results; emit writes its
    files and manifest."""

    def __init__(self, command: str, ns):
        self.command = command
        self.inputs: dict = {}
        self.results: dict = {}
        self.resolved = _resolve(command, ns, self.read_input)

    def read_input(self, path: Path) -> str:
        """The text of an input file, whose digest the manifest records;
        bytes that are not UTF-8 are a ValueError naming the file."""
        data = Path(path).read_bytes()
        self.inputs[str(path)] = _digest(data)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None

    def emit(self, manifest: Path, *files, in_place: Path | None = None) -> None:
        """Write the (path, data) files, then the manifest, which names each
        file relative to the manifest's directory. Before the first write,
        a destination that is a directory, or the same file as an input the
        run read, refuses the request; in_place names the one input that
        is rewritten on purpose (the registry of record and forget-sweep)."""
        read = [Path(src) for src in self.inputs if Path(src) != in_place]
        for path in (*(path for path, _ in files), manifest):
            _refuse_directory(path)
            for src in read:
                if path.exists() and os.path.samefile(path, src):
                    raise ValueError(
                        f"{path} is the input {src}; an output may not overwrite an input"
                    )
        outputs = {}
        for path, data in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, data)
            outputs[str(path.relative_to(manifest.parent))] = _digest(data)
        doc = {
            "command": self.command,
            "config": {
                opt.name: self.resolved[opt.attr] for opt in _options(self.command)
            },
            "inputs": self.inputs,
            "outputs": outputs,
            "tool": {"name": "memdomain", "version": __version__},
        }
        if self.results:
            doc["results"] = self.results
        if not self.resolved["no_timestamp"]:
            from datetime import datetime, timezone

            doc["timestamp"] = datetime.now(timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            )
        write_atomic(manifest, _json_bytes(doc))


# ---------------------------------------------------------------------------
# shared parameter plumbing


def _load(run: _Run, cls, path):
    """cls.loads of the JSON file at path, recorded as an input."""
    return cls.loads(run.read_input(Path(path)))


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
    out = Path(resolved["out"])
    run.emit(_beside(out), (out, _csv_bytes(("z", "value"), zip(resolved["z"], values))))
    return 0


def _run_evolve(run: _Run, resolved: dict) -> int:
    import numpy as np

    from .oscillator import closed_form_state, closed_form_trajectory, integrate_pair

    params = SystemParams(L=resolved["L"], c=resolved["c"])
    mode = ModeIndex(k=resolved["k"], n=resolved["n"])
    window = recording_window(params, mode)
    t_max = resolved["t_max"]
    if t_max > window:
        raise ValueError(
            f"--t-max {t_max:g} exceeds the recording window T = {window:.12g}"
            " where the common frequency turns imaginary"
        )
    grid = np.linspace(0.0, t_max, resolved["points"])
    out = Path(resolved["out"])
    method = resolved["method"]

    closed = ode = None
    files = []
    if method in ("closed", "both"):
        closed = closed_form_trajectory(params, mode, grid)
    if method in ("ode", "both"):
        init = closed_form_state(params, mode, 0.0)
        ode = integrate_pair(params, mode, init, grid, resolved["rel_tol"])
        # rel_tol and each integrated line's step statistics; the steps run
        # free from 0 to --t-max, so h_min and h_max do not follow --points
        run.results["ode"] = ode.meta

    times = grid.tolist()
    # the omega and Omega columns, shared by both files of --method both
    freqs = ([omega_mode(params, mode, t) for t in times],
             [common_frequency(params, mode, t) for t in times])

    def csv(traj) -> bytes:
        return _csv_bytes(("t", "u", "v", "r", "omega", "Omega"),
                          zip(times, traj.u, traj.v, traj.r, *freqs))

    if method == "both":
        files.append((out.with_name(out.stem + ".ode" + out.suffix), csv(ode)))
        lines = {name: (getattr(closed, name), getattr(ode, name)) for name in "uvr"}
        dev = {name: float(np.max(np.abs(c - o))) for name, (c, o) in lines.items()}
        run.results["max_abs_deviation"] = max(dev.values())
        # each line's deviation as a fraction of that line's size: u, v and
        # r differ by many orders of magnitude
        run.results["max_rel_deviation"] = {
            name: dev[name] / float(np.max(np.abs(c))) for name, (c, _) in lines.items()
        }
    primary = closed if closed is not None else ode
    files.append((out, csv(primary)))
    run.emit(_beside(out), *files)
    return 0


def _run_lifetimes(run: _Run, resolved: dict) -> int:
    params = SystemParams(L=resolved["L"], c=resolved["c"])
    t = resolved["t"]
    rows = []
    for k in sorted(set(resolved["k"])):
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
    out = Path(resolved["out"])
    run.emit(_beside(out), (out, data))
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
    }
    files = []
    for name in names:
        spec = default_figure_spec(name, **overrides)
        files.append((out_dir / f"{name}.csv",
                      _csv_bytes(("curve_id", "t", "lambda"), curve_table(spec))))
        files.append((out_dir / f"{name}.spec.json", _json_bytes(dataclasses.asdict(spec))))
    run.emit(out_dir / "manifest.json", *files)
    return 0


def _run_squeeze(run: _Run, resolved: dict) -> int:
    from .fock import (
        brute_force_evolve,
        expected_pair_number,
        pair_coupling,
        squeezed_vacuum,
        vacuum_state,
    )

    gamma, t = resolved["gamma"], resolved["t"]
    state = squeezed_vacuum(gamma, t)
    cutoff = run.results["cutoff"] = state.cutoff
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
        # padded by half, the oracle's own truncation error stays far below
        # the deviation it reports over the closed form's coefficients
        padded = math.ceil(1.5 * cutoff)
        try:
            block = pair_coupling(gamma, padded)
        except DomainError as exc:
            raise DomainError(
                f"--oracle at gamma t = {gamma * t:g} pads the cutoff {cutoff} "
                f"to {padded}: {exc}"
            ) from None
        evolved = brute_force_evolve(block, t, vacuum_state(padded))
        doc["oracle_cutoff"] = run.results["oracle_cutoff"] = padded
        doc["oracle_max_deviation"] = max(
            abs(a - b) for a, b in zip(evolved.coeffs, state.coeffs)
        )
    out = Path(resolved["out"])
    run.emit(_beside(out), (out, _json_bytes(doc)))
    return 0


@contextlib.contextmanager
def _registry_update(run: _Run, path: str, must_exist: bool):
    """Yield the registry at path, loaded under its lock, and save it after.

    The lock is held from load through save, so a concurrent writer waits
    and then loads this one's result instead of overwriting it.  Nothing is
    saved when the body raises.  A directory at path is refused before the
    lock file is created, so a refused request leaves nothing behind.
    """
    out = Path(path)
    if must_exist and not out.exists():
        raise ValueError(f"registry file not found: {path}")
    _refuse_directory(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with registry_lock(out):
        registry = _load(run, MemoryRegistry, out) if out.exists() else MemoryRegistry()
        yield registry
        run.emit(_beside(out), (out, registry.dumps().encode("utf-8")), in_place=out)


def _run_record(run: _Run, resolved: dict) -> int:
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
    if resolved["out"] is not None:
        out = Path(resolved["out"])
        run.emit(_beside(out), (out, text))
    sys.stdout.write(text.decode("utf-8"))
    return 0


def _run_forget_sweep(run: _Run, resolved: dict) -> int:
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
        run = _Run(command, ns)
        return _RUNNERS[command](run, run.resolved)
    except StepSizeUnderflow as exc:
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
