"""The four workloads: one timed round of each, and its correctness checks.

A round runs the whole seeded batch in a closed loop, one call at a time.
Each item's latency is taken around the library calls only; outputs are kept
and checked after the round, outside the timed region.  Exceptions raised by
an item are recorded against it and never stop the round.

Item classes: every workload has a "main" and a "side" class whose medians
are the end-to-end latency metrics (see README.md for the mapping).
"""

import dataclasses
import enum
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np

from inputs import L, window
from memdomain.errors import MemdomainError

# Import lists double as the set-up each workload pays before its first item.
IMPORTS = {
    "closed-form": ("memdomain.bessel", "memdomain.oscillator",
                    "memdomain.lifetime", "memdomain.fock"),
    "crosscheck": ("memdomain.oscillator", "memdomain.fock"),
    "registry": ("memdomain.memory",),
    "cli": ("memdomain.cli",),
}

# workload -> (main item classes, side item classes)
CLASSES = {
    "closed-form": (("mode",), ("squeeze",)),
    "crosscheck": (("ode_check",), ("oracle_check",)),
    "registry": (("record",), ("recall",)),
    "cli": (("command", "registry_command"), ("registry_command",)),
}


class CommandRefused(Exception):
    """A CLI command reported a refusal: exit 2 (invalid request) or exit 1
    with a numerical failure ("computation error: <message>").  Exit 1 from
    the CLI's catch-all names the exception type and stays a crash."""


class Round:
    """What one pass over the batch produced."""

    def __init__(self, calibrator):
        self.cal = calibrator
        self.factors = []  # speed factor in force at each item
        self.latency = {}  # item id -> (class, seconds, speed factor, succeeded)
        self.outputs = []  # (item id, payload) for the checks
        # item id -> (kind, "ExcType: message"); kind "refusal" marks the
        # package's own errors (a stated limit), "crash" anything else
        self.errors = {}
        self.wall = 0.0

    def timed(self, cls, item, fn):
        self.cal.maybe_sample()
        factor = self.cal.factor()
        self.factors.append(factor)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # recorded per item; the round goes on
            dt = time.perf_counter() - t0
            kind = "refusal" if isinstance(exc, (MemdomainError, CommandRefused)) else "crash"
            self.errors[item] = (kind, f"{type(exc).__name__}: {exc}")
            self.latency[item] = (cls, dt, factor, False)
            return None
        self.latency[item] = (cls, time.perf_counter() - t0, factor, True)
        return out


# ---------------------------------------------------------------------------
# closed-form


def residual_grid(k, n):
    """Uniform grid on [0, 0.9 T] with spacing at the stencil limit 1e-2 alpha."""
    alpha = (2 * n + 1) / L
    span = 0.9 * window(k, n)
    return np.linspace(0.0, span, max(5, math.ceil(span / (1e-2 * alpha)) + 1))


class ClosedForm:
    def __init__(self, inputs):
        from memdomain import bessel, fock, lifetime, oscillator

        self.b, self.f, self.lt, self.osc = bessel, fock, lifetime, oscillator
        self.inputs = inputs
        self.params = oscillator.SystemParams(L=L)
        self.specs = {n: lifetime.default_figure_spec(n) for n in inputs["figures"]}

    def items(self):
        return (len(self.inputs["modes"]) + len(self.inputs["figures"])
                + len(self.inputs["bessel_orders"]) + len(self.inputs["squeezes"]))

    def _mode(self, tr, k, n):
        osc, lt, p = self.osc, self.lt, self.params
        mode = osc.ModeIndex(k=k, n=n)
        grid = np.linspace(0.0, 0.9 * window(k, n), 500)
        fine = residual_grid(k, n)
        with tr.span("oscillator.closed_form_trajectory"):
            traj = osc.closed_form_trajectory(p, mode, grid)
        with tr.span("oscillator.closed_form_trajectory"):
            ftraj = osc.closed_form_trajectory(p, mode, fine)
        with tr.span("oscillator.residual"):
            res = osc.residual(p, mode, ftraj)
        with tr.span("lifetime.lifetime_profile"):
            prof = lt.lifetime_profile(p, mode)
        tr.count("lifetime.samples", len(prof.times))
        return traj, ftraj, res, prof

    def _bessel_line(self, tr, n, zs):
        b = self.b
        first, second = b.BesselKind.FIRST, b.BesselKind.SECOND
        rows = []
        for z in zs:
            with tr.span("bessel.sph_j"):
                j = b.sph_j(n, z)
            with tr.span("bessel.sph_y"):
                y = b.sph_y(n, z)
            with tr.span("bessel.sph_deriv"):
                jd = b.sph_deriv(first, n, z)
            with tr.span("bessel.sph_deriv"):
                yd = b.sph_deriv(second, n, z)
            with tr.span("bessel.sph_second_deriv"):
                jdd = b.sph_second_deriv(first, n, z)
            with tr.span("bessel.sph_second_deriv"):
                ydd = b.sph_second_deriv(second, n, z)
            rows.append((j, y, jd, yd, jdd, ydd))
        return rows

    def _squeeze(self, tr, gamma, t):
        f = self.f
        try:
            with tr.span("fock.squeezed_vacuum"):
                state = f.squeezed_vacuum(gamma, t)
        except Exception:
            tr.count("fock.squeezed_vacuum.failed")
            raise
        with tr.span("fock.expected_pair_number"):
            occ, _ = f.expected_pair_number(state)
        return state.coeffs, occ

    def _curve(self, tr, name):
        with tr.span("lifetime.curve_table"):
            rows = self.lt.curve_table(self.specs[name])
        tr.count("lifetime.samples", len(rows))
        return rows

    def run(self, tr, rnd):
        inp = self.inputs
        for i, (k, n) in enumerate(inp["modes"]):
            item = f"mode:{i}"
            with tr.span("item.mode", item):
                out = rnd.timed("mode", item, lambda: self._mode(tr, k, n))
            rnd.outputs.append((item, out))
        for name in inp["figures"]:
            item = f"curve:{name}"
            with tr.span("item.curve", item):
                out = rnd.timed("curve", item, lambda: self._curve(tr, name))
            rnd.outputs.append((item, out))
        for n in inp["bessel_orders"]:
            item = f"bessel:{n}"
            with tr.span("item.bessel", item):
                out = rnd.timed("bessel", item,
                                lambda: self._bessel_line(tr, n, inp["bessel_z"]))
            rnd.outputs.append((item, out))
        for i, (g, t) in enumerate(inp["squeezes"]):
            item = f"squeeze:{i}"
            with tr.span("item.squeeze", item):
                out = rnd.timed("squeeze", item, lambda: self._squeeze(tr, g, t))
            rnd.outputs.append((item, out))

    def warmup(self):
        from spans import NullTracer

        self._mode(NullTracer(), 2.0, 1)
        self._squeeze(NullTracer(), 0.5, 1.0)
        self._bessel_line(NullTracer(), 3, [1.5])

    def check(self, outputs):
        import references as ref

        inp = self.inputs
        bad = {}
        for item, out in outputs:
            if out is None:
                continue
            kind, key = item.split(":")
            if kind == "mode":
                k, n = inp["modes"][int(key)]
                msg = ref.check_mode(k, n, L, *out)
            elif kind == "curve":
                spec = self.specs[key]
                msg = ref.check_curve(spec.modes, spec.curve_id, L, out)
            elif kind == "bessel":
                msg = ref.check_bessel_line(int(key), inp["bessel_z"], out)
            else:
                g, t = inp["squeezes"][int(key)]
                msg = ref.check_squeeze(g * t, *out)
            if msg:
                bad[item] = msg
        return bad


# ---------------------------------------------------------------------------
# crosscheck


class Crosscheck:
    def __init__(self, inputs):
        from memdomain import fock, oscillator

        self.f, self.osc = fock, oscillator
        self.inputs = inputs
        self.params = oscillator.SystemParams(L=L)

    def items(self):
        return len(self.inputs["ode"]) + len(self.inputs["oracle"])

    def _ode(self, tr, k, n):
        osc, p = self.osc, self.params
        mode = osc.ModeIndex(k=k, n=n)
        grid = np.linspace(0.0, 0.9 * window(k, n), 500)
        with tr.span("oscillator.closed_form_state"):
            init = osc.closed_form_state(p, mode, 0.0)
        with tr.span("ode"):
            tr.count("ode.grid_points", grid.size)
            return osc.integrate_pair(p, mode, init, grid, 1e-10)

    def _oracle(self, tr, gamma, t):
        f = self.f
        cutoff = f.default_cutoff(gamma * t)
        with tr.span("fock.pair_coupling"):
            gen = f.pair_coupling(gamma, cutoff)
        with tr.span("fock.vacuum_state"):
            vac = f.vacuum_state(cutoff)
        with tr.span("fock.brute_force_evolve"):
            return f.brute_force_evolve(gen, t, vac).coeffs

    def run(self, tr, rnd):
        # ODE and oracle checks alternate, so neither owns a stretch of the round
        ode, oracle = self.inputs["ode"], self.inputs["oracle"]
        order = [("ode_check", i) for i in range(len(ode))]
        step = len(ode) / len(oracle)
        for j in range(len(oracle)):
            order.insert(int(j * step) + j, ("oracle_check", j))
        for cls, i in order:
            item = f"{cls}:{i}"
            if cls == "ode_check":
                k, n = ode[i]
                fn = lambda: self._ode(tr, k, n)  # noqa: E731
            else:
                g, t = oracle[i]
                fn = lambda: self._oracle(tr, g, t)  # noqa: E731
            with tr.span("item." + cls, item):
                out = rnd.timed(cls, item, fn)
            rnd.outputs.append((item, out))

    def warmup(self):
        from spans import NullTracer

        self._ode(NullTracer(), 1.0, 0)
        self._oracle(NullTracer(), 0.5, 0.6)

    def check(self, outputs):
        import references as ref

        bad = {}
        for item, out in outputs:
            if out is None:
                continue
            cls, i = item.split(":")
            if cls == "ode_check":
                k, n = self.inputs["ode"][int(i)]
                msg = ref.check_ode(k, n, L, out)
            else:
                g, t = self.inputs["oracle"][int(i)]
                msg = ref.check_oracle(g * t, out)
            if msg:
                bad[item] = msg
        return bad


# ---------------------------------------------------------------------------
# registry


class Registry:
    def __init__(self, inputs):
        from memdomain import memory, oscillator

        self.m = memory
        self.inputs = inputs
        self.params = oscillator.SystemParams(L=L)
        self.spectra = {}
        for op in inputs["ops"]:
            if op[0] in ("record", "recall"):
                key = id(op[2])
                if key not in self.spectra:
                    self.spectra[key] = memory.StimulusSpectrum(tuple(op[2]))

    def items(self):
        return len(self.inputs["ops"]) + 2

    def _record(self, tr, reg, spec, t):
        before = reg.next_id
        with tr.span("memory.record"):
            code, rejections = self.m.record(reg, spec, t, self.params)
        tr.count("memory.record.components", len(spec.components))
        tr.count("memory.record.accepted", len(spec.components) - len(rejections))
        if code is not None and reg.next_id == before:
            tr.count("memory.record.refreshed")
        return None if code is None else code.id

    def _decay(self, tr, reg, t):
        if tr.enabled:
            scanned = sum(len(c.entries) for c in reg.codes.values())
        with tr.span("memory.decay_codes"):
            self.m.decay_codes(reg, t, self.params)
        if tr.enabled:
            left = sum(len(c.entries) for c in reg.codes.values())
            tr.count("memory.decay_codes.scanned", scanned)
            tr.count("memory.decay_codes.swept", scanned - left)

    def _recall(self, tr, reg, spec, energy, t):
        with tr.span("memory.recall"):
            res = self.m.recall(reg, spec, energy, t, self.params)
        if res.matched is not None:
            tr.count("memory.recall.matched")
        return res.matched, res.score, res.outcome.value

    def run(self, tr, rnd):
        reg = self.m.MemoryRegistry()
        log = []
        for i, op in enumerate(self.inputs["ops"]):
            item = f"{op[0]}:{i}"
            with tr.span("item." + op[0], item):
                if op[0] == "record":
                    spec = self.spectra[id(op[2])]
                    out = rnd.timed("record", item,
                                    lambda: self._record(tr, reg, spec, op[1]))
                elif op[0] == "decay":
                    out = rnd.timed("decay", item, lambda: self._decay(tr, reg, op[1]))
                else:
                    spec = self.spectra[id(op[2])]
                    out = rnd.timed("recall", item,
                                    lambda: self._recall(tr, reg, spec, op[3], op[1]))
            log.append(out)
        with tr.span("item.dumps", "dumps"):
            with tr.span("memory.dumps"):
                text = rnd.timed("dumps", "dumps", reg.dumps)
        tr.count("memory.dumps.bytes", len(text.encode("utf-8")))
        with tr.span("item.loads", "loads"):
            with tr.span("memory.loads"):
                back = rnd.timed("loads", "loads", lambda: self.m.MemoryRegistry.loads(text))
        tr.count("memory.loads.bytes", len(text.encode("utf-8")))
        tr.count("memory.codes_final", len(reg.codes))
        rnd.outputs.append(("stream", (log, text, back)))

    def warmup(self):
        from spans import NullTracer

        reg = self.m.MemoryRegistry()
        spec = self.m.StimulusSpectrum(((2.0, 1, 1.0), (5.0, 3, 0.5)))
        self._record(NullTracer(), reg, spec, 0.5)
        self._decay(NullTracer(), reg, 1.0)
        self._recall(NullTracer(), reg, spec, 3.0, 1.0)
        self.m.MemoryRegistry.loads(reg.dumps())

    def check(self, outputs):
        (_, (log, text, back)), = outputs
        again = back.dumps()
        if again != text:
            return {"dumps": "dumps -> loads -> dumps is not byte-identical"}
        return {}

    @staticmethod
    def fingerprint(outputs):
        (_, (log, text, _)), = outputs
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# cli


REGISTRY_COMMANDS = ("record", "recall", "forget-sweep")


class Cli:
    """Each command is a fresh `python -m memdomain.cli` process run from the
    checkout's src/, in a scratch directory that is reset before each round."""

    def __init__(self, inputs, workdir, src):
        from memdomain import memory, oscillator

        self.inputs = inputs
        self.params = oscillator.SystemParams(L=L)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        reg = memory.MemoryRegistry()
        for t, spec in inputs["preseed"]:
            memory.record(reg, memory.StimulusSpectrum(tuple(spec)), t, self.params)
        self.preseed = reg.dumps()
        self.preseed_codes = len(reg.codes)
        self.files = {}
        for name, spec in inputs["files"].items():
            doc = memory.StimulusSpectrum(tuple(spec)).to_json_dict()
            self.files[name] = (json.dumps(doc, indent=2) + "\n").encode()

    def items(self):
        return len(self.inputs["commands"])

    def reset(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        with open(os.path.join(self.workdir, "registry.json"), "w") as fh:
            fh.write(self.preseed)
        for name, data in self.files.items():
            with open(os.path.join(self.workdir, name), "wb") as fh:
                fh.write(data)

    def _snapshot(self):
        out = {}
        for root, _, names in os.walk(self.workdir):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, self.workdir)] = fh.read()
        return out

    def _command(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "memdomain.cli", *argv],
            cwd=self.workdir, env=self.env, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            text = proc.stderr.decode(errors="replace").strip()
            crash = proc.returncode != 2 and (
                proc.returncode != 1 or re.match(r"computation error: \w+: ", text))
            raise (RuntimeError if crash else CommandRefused)(
                f"exit {proc.returncode}: {text[-300:]}")
        return proc.stdout

    prepare = reset

    def run(self, tr, rnd):
        before = self._snapshot()
        stdouts = []
        for i, argv in enumerate(self.inputs["commands"]):
            item = f"command:{i}"
            cls = "registry_command" if argv[0] in REGISTRY_COMMANDS else "command"
            with tr.span("item.command", item):
                with tr.span("cli." + argv[0]):
                    out = rnd.timed(cls, item, lambda: self._command(argv))
            stdouts.append(out)
            if tr.enabled:
                after = self._snapshot()
                tr.count("cli.bytes_written", sum(
                    len(data) for name, data in after.items() if before.get(name) != data
                ))
                before = after
        rnd.outputs.append(("session", (stdouts, self._snapshot())))

    def warmup(self):
        pass

    def check(self, outputs):
        import references as ref

        (_, (stdouts, files)), = outputs
        return ref.check_cli(self, stdouts, files)

    @staticmethod
    def fingerprint(outputs):
        (_, (stdouts, files)), = outputs
        h = hashlib.sha256()
        for out in stdouts:
            h.update(b"\0" if out is None else out)
        for name in sorted(files):
            h.update(name.encode() + b"\0" + files[name])
        return h.hexdigest()


def fingerprint(outputs):
    """Digest of a round's outputs; equal digests mean identical results."""
    h = hashlib.sha256()

    def feed(obj):
        if obj is None:
            h.update(b"N")
        elif isinstance(obj, np.ndarray):
            h.update(obj.tobytes())
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for x in obj:
                feed(x)
            h.update(b"]")
        elif dataclasses.is_dataclass(obj):
            feed([getattr(obj, f.name) for f in dataclasses.fields(obj)])
        elif isinstance(obj, dict):
            feed(sorted(obj.items()))
        elif isinstance(obj, enum.Enum):
            h.update(repr(obj).encode())
        else:
            h.update(repr(obj).encode())

    for item, out in outputs:
        h.update(item.encode())
        feed(out)
    return h.hexdigest()


WORKLOADS = {"closed-form": ClosedForm, "crosscheck": Crosscheck,
             "registry": Registry, "cli": Cli}
