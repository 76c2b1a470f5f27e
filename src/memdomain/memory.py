"""Recording, decay, and recall of momentum-space memory codes.

A memory code is an association table mapping momentum k to a recorded
intensity, an openness order n, and the recording time.  Recording is gated
by the per-mode rule from :mod:`memdomain.lifetime`: a component is accepted
iff its mode is alive (``mode_alive``: the rising threshold k_tilde(n, t) has
not yet passed k), the test decay applies too.  As modes die their entries
are swept out by decay, degrading and eventually forgetting the code.  Recall
compares a replication signal against the stored spectra and additionally
demands an energy supply above the effective-mass scale c * k_tilde(n_min, t).

The registry follows a single-writer / many-reader contract: ``record`` and
``decay_codes`` mutate it and must be serialized by the caller, while
``recall``, ``similarity`` and ``is_forgotten`` are read-only and safe to run
concurrently.  Between processes sharing a registry file, a writer holds
``registry_lock(path)`` from load through save, as the CLI's ``record`` and
``forget-sweep`` do; ``save`` uses ``write_atomic`` (sync, then rename into
place), so readers need no lock and never see a half-written registry.
``last_decay_t`` is the registry clock: record and decay refuse a t behind it.

Model choices documented here rather than hidden in code:

- intensities are real-valued, not integer counts;
- similarity is a plain cosine overlap of intensity spectra over the union
  of momentum supports, and the match threshold is 0.5 -- both are
  placeholders for association/confusion effects that the underlying model
  describes only qualitatively;
- re-recording a stimulus whose accepted spectrum exactly matches an
  existing code refreshes that code (resets its recording times) instead of
  duplicating it.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

from .errors import POSITIVE, finite, integer
from .lifetime import (
    ModeIndex,
    SystemParams,
    alive_at,
    momentum_threshold,
    recording_window,
)

SCHEMA_VERSION = 1
MATCH_THRESHOLD = 0.5

_MAX = sys.float_info.max
_ENTRY_KEYS = frozenset(("weight", "n", "t_rec"))


def _clock(registry: "MemoryRegistry", t) -> float:
    """t as a float, refused below 0 or behind the registry clock: the time
    of the last decay sweep, which only ever moves forward."""
    t = finite("t", t, 0.0)
    if t < registry.last_decay_t:
        raise ValueError(
            f"t={t!r} is behind the registry clock: the registry is decayed "
            f"to t={registry.last_decay_t!r}"
        )
    return t


def _spectral_line(k, n, amount, names=("k", "n", "intensity")):
    """(k, n, amount) for one line of a spectrum or a code: k > 0 and finite
    as a float, n a non-negative integer as an int, amount >= 0 and finite
    as a float; errors name the field as `names` spells it (with the code
    id, for a registry)."""
    k_name, n_name, amount_name = names
    k = finite(k_name, k, POSITIVE)
    n = integer(n_name, n, 0, math.inf)
    return k, n, finite(amount_name, amount, 0.0)


def write_atomic(path, data: bytes) -> None:
    """Write data to <path>.tmp.<pid>, fsync it and rename it over path, so
    readers and crashes see the old file or the new one; the temp file is
    removed on any failure."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _unique_keys(pairs: list) -> dict:
    """The object of pairs; a key given twice is a ValueError naming it,
    since json.loads would keep only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON object names key {key!r} twice")
            seen.add(key)
    return obj


def _parse_json(text: str):
    """json.loads with a duplicate key, or nesting too deep to parse,
    reported as ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _entry(cid, kstr, ent, entries) -> tuple:
    """(k, CodeEntry) of entry kstr of code cid, through the field gates,
    else the ValueError naming what is wrong; entries holds the code's
    momenta so far."""
    if not isinstance(ent, dict) or set(ent) != _ENTRY_KEYS:
        raise ValueError(f"{cid} entry {kstr} must have keys weight, n, t_rec")
    try:
        k = float(kstr)
    except ValueError:
        raise ValueError(f"{cid} entry key must be a momentum, got {kstr!r}") from None
    names = (f"{cid} entry key", f"{cid} n", f"{cid} weight")
    k, n, weight = _spectral_line(k, ent["n"], ent["weight"], names)
    if k in entries:
        # a second key for one momentum would be lost on the next save
        raise ValueError(f"{cid} entry key {kstr!r} names momentum {k!r} twice")
    t_rec = finite(f"{cid} t_rec", ent["t_rec"], 0.0)
    return k, CodeEntry(weight=weight, n=n, t_rec=t_rec)


# MemoryRegistry.dumps templates: the json.dumps(..., sort_keys=True,
# indent=2) layout of the registry, a code and an entry, members sorted
_REGISTRY = (
    '{\n  "codes": %s,\n  "last_decay_t": %r,\n  "next_id": %r,'
    '\n  "schema": %r\n}\n'
)
_CODE = '\n    %s: {\n      "entries": %s,\n      "status": %s\n    }'
_ENTRY = (
    '\n        %s: {\n          "n": %r,\n          "t_rec": %r,'
    '\n          "weight": %r\n        }'
)


def _json_object(body: str, indent: int) -> str:
    """A JSON object from its comma-joined members, closed at indent."""
    return "{" + body + "\n" + " " * indent + "}" if body else "{}"


@contextlib.contextmanager
def registry_lock(path):
    """Hold the exclusive lock of the registry file at path.

    The lock is ``fcntl.flock`` on the sidecar file ``<path>.lock``, which is
    created on first use and never removed: a writer still waiting on a
    removed lock file would go on to lock a file that newcomers no longer
    see.  The lock is released when the block exits.
    """
    import fcntl  # POSIX only; imported here so the rest works without it

    with open(f"{path}.lock", "ab") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield


@dataclass(frozen=True)
class StimulusComponent:
    """One (k, n, intensity) line of an external stimulus."""

    k: float
    n: int
    intensity: float

    def __post_init__(self):
        k, n, intensity = _spectral_line(self.k, self.n, self.intensity)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "intensity", intensity)


@dataclass(frozen=True)
class StimulusSpectrum:
    """External informational input: a tuple of stimulus components."""

    components: tuple = ()

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, StimulusComponent) else StimulusComponent(*c)
            for c in self.components
        )
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StimulusSpectrum":
        if not isinstance(doc, dict) or set(doc) != {"components"}:
            raise ValueError(
                "spectrum document must be an object with the single "
                "key 'components'"
            )
        if not isinstance(doc["components"], list):
            raise ValueError("spectrum 'components' must be a list")
        comps = []
        for i, entry in enumerate(doc["components"]):
            if not isinstance(entry, dict) or set(entry) != {"k", "n", "intensity"}:
                raise ValueError(
                    f"component {i} must be an object with keys k, n, intensity"
                )
            comps.append(
                StimulusComponent(entry["k"], entry["n"], entry["intensity"])
            )
        return cls(tuple(comps))

    @classmethod
    def loads(cls, text: str) -> "StimulusSpectrum":
        return cls.from_json_dict(_parse_json(text))

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {"k": c.k, "n": c.n, "intensity": c.intensity}
                for c in self.components
            ]
        }


class CodeStatus(str, enum.Enum):
    INTACT = "Intact"
    DEGRADED = "Degraded"
    FORGOTTEN = "Forgotten"


class RejectionReason(str, enum.Enum):
    BELOW_THRESHOLD = "BelowThreshold"
    WINDOW_CLOSED = "WindowClosed"


class RecallOutcome(str, enum.Enum):
    RECALLED = "Recalled"
    DIFFICULTY = "DifficultyRecalling"
    NO_MATCH = "NoMatch"


@dataclass(frozen=True)
class Rejection:
    """A refused stimulus component plus the reason it was refused."""

    component: StimulusComponent
    reason: RejectionReason
    detail: str


@dataclass(frozen=True)
class CodeEntry:
    """Stored association for one momentum: intensity, order, stamp time."""

    weight: float
    n: int
    t_rec: float


@dataclass
class MemoryCode:
    """A recorded code: entries keyed by momentum plus a decay status.

    Entries only ever shrink (decay removes dead modes); status moves
    forward through Intact -> Degraded -> Forgotten and never back.
    """

    id: str
    entries: dict
    status: CodeStatus = CodeStatus.INTACT

    def weight_vector(self) -> dict:
        return {k: e.weight for k, e in self.entries.items()}


@dataclass(frozen=True)
class RecallResult:
    """What recall returns: a score in [0, 1], and a matched code id exactly
    when the outcome is not NoMatch."""

    matched: "str | None"
    score: float
    outcome: RecallOutcome


@dataclass
class MemoryRegistry:
    """Mutable store of codes plus the time of the last decay sweep."""

    codes: dict = field(default_factory=dict)
    last_decay_t: float = 0.0
    next_id: int = 1

    # -- persistence ------------------------------------------------------

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MemoryRegistry":
        """The registry a document of dumps's schema describes, else
        ValueError naming the first field that is wrong.

        An entry that is exactly as dumps writes it (a dict of the keys
        weight, n, t_rec; a momentum key parsing to a float in (0, max]
        not yet seen in its code; weight and t_rec floats in [0, max]; n an
        int >= 0) is accepted in one test.  Every other entry goes through
        _entry, which converts it or words the error.
        """
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
        codes: dict = {}
        for cid, body in doc["codes"].items():
            if not isinstance(cid, str) or not cid:
                raise ValueError(f"code id must be a non-empty string, got {cid!r}")
            if not isinstance(body, dict) or set(body) != {"status", "entries"}:
                raise ValueError(f"code {cid} must have keys status, entries")
            status = CodeStatus(body["status"])
            if not isinstance(body["entries"], dict):
                raise ValueError(f"code {cid} entries must be an object")
            entries: dict = {}
            for kstr, ent in body["entries"].items():
                # a canonical entry, as dumps writes it, passes in one test
                if type(ent) is dict and ent.keys() == _ENTRY_KEYS:
                    weight, n, t_rec = ent["weight"], ent["n"], ent["t_rec"]
                    try:
                        k = float(kstr)
                    except (TypeError, ValueError):
                        k = math.nan
                    if (
                        type(weight) is float and 0.0 <= weight <= _MAX
                        and type(n) is int and n >= 0
                        and type(t_rec) is float and 0.0 <= t_rec <= _MAX
                        and POSITIVE <= k <= _MAX and k not in entries
                    ):
                        entries[k] = CodeEntry(weight, n, t_rec)
                        continue
                k, entry = _entry(cid, kstr, ent, entries)
                entries[k] = entry
            if status is CodeStatus.FORGOTTEN and entries:
                raise ValueError(f"{cid} is Forgotten but still has entries")
            codes[cid] = MemoryCode(id=cid, entries=entries, status=status)
        return cls(codes=codes, last_decay_t=last_decay_t, next_id=next_id)

    def dumps(self) -> str:
        """Canonical serialization: sorted keys, two-space indent, final LF.

        The text is json.dumps(doc, sort_keys=True, indent=2) + "\n" of the
        document {"schema", "last_decay_t", "next_id", "codes": {id:
        {"status", "entries": {repr(k): {"weight", "n", "t_rec"}}}}} that
        from_json_dict reads, written directly for this fixed schema: given
        an indent, json.dumps runs its pure-Python encoder, several times
        slower.  Keys sort as strings, as json.dumps sorts them.  Numbers
        are spelled by repr(), which is json.dumps's spelling for the plain
        ints and finite floats a registry holds.  Float values round-trip
        exactly (shortest-repr JSON floats), so load -> dumps is
        byte-identical.
        """
        codes = []
        for cid in sorted(self.codes):
            code = self.codes[cid]
            entries = {repr(k): e for k, e in code.entries.items()}
            body = ",".join([
                _ENTRY % (_json_str(key), e.n, e.t_rec, e.weight)
                for key, e in sorted(entries.items())
            ])
            codes.append(_CODE % (
                _json_str(cid), _json_object(body, 6), _json_str(code.status.value)
            ))
        return _REGISTRY % (
            _json_object(",".join(codes), 2),
            self.last_decay_t,
            self.next_id,
            SCHEMA_VERSION,
        )

    @classmethod
    def loads(cls, text: str) -> "MemoryRegistry":
        return cls.from_json_dict(_parse_json(text))

    def save(self, path) -> None:
        """dumps() to path through write_atomic."""
        write_atomic(path, self.dumps().encode("utf-8"))

    @classmethod
    def load(cls, path) -> "MemoryRegistry":
        with open(path, "rb") as fh:
            return cls.loads(fh.read().decode("utf-8"))

    # -- internals --------------------------------------------------------

    def _fresh_id(self) -> str:
        while True:
            cid = f"code{self.next_id:06d}"
            self.next_id += 1
            if cid not in self.codes:
                return cid


def _cosine(a: dict, b: dict) -> float:
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    dot = sum(w * b.get(k, 0.0) for k, w in a.items())
    na = math.sqrt(sum(w * w for w in a.values()))
    nb = math.sqrt(sum(w * w for w in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(1.0, max(0.0, dot / (na * nb)))


def similarity(a: MemoryCode, b: MemoryCode) -> float:
    """Cosine overlap of two intensity spectra over their momentum union.

    Symmetric, 1.0 for identical non-empty codes, and 0.0 whenever either
    code is empty or the supports are disjoint.  A code scored against its
    surviving remnant gives the cosine of a vector against its projection,
    e.g. 1/sqrt(2) when one of two equal-weight components has decayed away.
    """
    return _cosine(a.weight_vector(), b.weight_vector())


def record(
    registry: MemoryRegistry,
    stimulus: StimulusSpectrum,
    t: float,
    params: SystemParams,
):
    """Record a stimulus at time t, returning (code, rejections).

    A component is accepted iff its mode is alive at t (t < T(k, n) by
    lifetime.alive_at, the test decay_codes applies); the recorded weight is
    the intensity.
    Refusals come back in the rejections list: BelowThreshold for momenta at
    or below the permanent floor k0 = L/(2c) (those can never record), and
    WindowClosed for momenta whose recording window has already passed.

    When every component is refused no code is created and the first element
    of the returned pair is None; an empty code is a refusal, not a crash.

    Re-recording a stimulus whose accepted (k -> weight, n) table exactly
    matches an existing code refreshes that code in place: its entries'
    recording times reset to t and no duplicate is created.
    """
    t = _clock(registry, t)
    accepted: dict = {}
    rejections = []
    for comp in stimulus.components:
        if alive_at(params, comp.k, comp.n, t):
            # duplicate momenta within one stimulus: last one wins
            accepted[comp.k] = CodeEntry(weight=comp.intensity, n=comp.n, t_rec=t)
            continue
        if comp.k <= params.k0:
            reason = RejectionReason.BELOW_THRESHOLD
            detail = (
                f"k={comp.k:g} is at or below the permanent momentum "
                f"threshold k0={params.k0:g}"
            )
        else:
            reason = RejectionReason.WINDOW_CLOSED
            detail = (
                f"recording window for (k={comp.k:g}, n={comp.n}) closed at "
                f"T={recording_window(params, ModeIndex(k=comp.k, n=comp.n)):g}"
                f" <= t={t:g}"
            )
        rejections.append(Rejection(component=comp, reason=reason, detail=detail))
    if not accepted:
        return None, rejections

    fingerprint = {k: (e.weight, e.n) for k, e in accepted.items()}
    for cid in sorted(registry.codes):
        code = registry.codes[cid]
        if code.status is CodeStatus.FORGOTTEN:
            continue
        if {k: (e.weight, e.n) for k, e in code.entries.items()} == fingerprint:
            code.entries = dict(accepted)
            return code, rejections

    code = MemoryCode(id=registry._fresh_id(), entries=accepted)
    registry.codes[code.id] = code
    return code, rejections


def decay_codes(
    registry: MemoryRegistry, t: float, params: SystemParams
) -> MemoryRegistry:
    """Sweep out entries whose mode is dead at t; idempotent at fixed t.

    Each entry is tested by t < T(k, n), its closed-form death time
    (lifetime.alive_at: mode_alive's decision, or error, without building a
    ModeIndex).  Codes that lose some entries become Degraded, codes that
    lose all become Forgotten, and the registry remembers t so later
    operations can insist on a decayed-to-t view.  t must not be behind
    that clock.
    """
    t = _clock(registry, t)
    for code in registry.codes.values():
        dead = [k for k, e in code.entries.items() if not alive_at(params, k, e.n, t)]
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


def recall(
    registry: MemoryRegistry,
    signal: StimulusSpectrum,
    energy: float,
    t: float,
    params: SystemParams,
) -> RecallResult:
    """Match a replication signal against the stored codes (read-only).

    The registry must already be decayed to t.  The best cosine score wins
    (ties go to the smallest code id); below 0.5 the result is NoMatch.
    Otherwise the supplied energy is held against the effective-mass
    threshold E_thr = c * k_tilde(n_min, t), with n_min the smallest order
    among the matched code's entries: short energy means
    DifficultyRecalling, enough means Recalled.

    Codes that share no momentum with the signal are skipped unscored:
    their cosine is 0, which never wins.
    """
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
        code = registry.codes[cid]
        if probe.keys().isdisjoint(code.entries):
            continue
        score = _cosine(probe, code.weight_vector())
        if score > best_score:
            best_id, best_score = cid, score
    if best_id is None or best_score < MATCH_THRESHOLD:
        return RecallResult(matched=None, score=best_score, outcome=RecallOutcome.NO_MATCH)
    matched = registry.codes[best_id]
    n_min = min(e.n for e in matched.entries.values())
    e_thr = params.c * momentum_threshold(params, n_min, t)
    if energy < e_thr:
        return RecallResult(
            matched=best_id, score=best_score, outcome=RecallOutcome.DIFFICULTY
        )
    return RecallResult(
        matched=best_id, score=best_score, outcome=RecallOutcome.RECALLED
    )


def is_forgotten(code: MemoryCode, t: float, params: SystemParams) -> bool:
    """True iff every entry's mode is dead at t, by decay_codes's test t >= T
    (an empty code is forgotten)."""
    t = finite("t", t, 0.0)
    return not any(alive_at(params, k, e.n, t) for k, e in code.entries.items())
