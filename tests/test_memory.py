"""Memory code recording, decay, recall, similarity, persistence."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdomain.lifetime import (
    domain_size,
    mode_alive,
    momentum_threshold,
    recording_window,
)
from memdomain.memory import (
    CodeEntry,
    CodeStatus,
    MemoryCode,
    MemoryRegistry,
    RecallOutcome,
    RecallResult,
    Rejection,
    RejectionReason,
    StimulusComponent,
    StimulusSpectrum,
    decay_codes,
    is_forgotten,
    recall,
    record,
    similarity,
)
from memdomain.oscillator import ModeIndex, SystemParams

from _oracles import registry_json

P = SystemParams(L=1.0, c=1.0)

# single-mode windows at n=1, L=c=1: T = 3 ln(2k)
T06 = 3.0 * math.log(1.2)
T2 = 3.0 * math.log(4.0)
T6 = 3.0 * math.log(12.0)


def spectrum(*triples):
    return StimulusSpectrum(tuple(triples))


class TestStimulus:
    def test_tuple_coercion(self):
        s = spectrum((2.0, 1, 1.5))
        assert isinstance(s.components[0], StimulusComponent)
        assert s.components[0] == StimulusComponent(2.0, 1, 1.5)

    @pytest.mark.parametrize(
        "k,n,intensity",
        [
            (0.0, 1, 1.0),
            (-1.0, 1, 1.0),
            (math.inf, 1, 1.0),
            (math.nan, 1, 1.0),
            (2.0, -1, 1.0),
            (2.0, 1.5, 1.0),
            (2.0, True, 1.0),
            (2.0, 1, -0.5),
            (2.0, 1, math.nan),
        ],
    )
    def test_rejects_bad_components(self, k, n, intensity):
        with pytest.raises(ValueError):
            StimulusComponent(k, n, intensity)

    def test_zero_intensity_allowed(self):
        assert StimulusComponent(2.0, 1, 0.0).intensity == 0.0

    def test_json_round_trip(self):
        s = spectrum((2.0, 1, 1.5), (0.6, 0, 0.25))
        assert StimulusSpectrum.from_json_dict(s.to_json_dict()) == s

    def test_json_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            StimulusSpectrum.from_json_dict({"comps": []})
        with pytest.raises(ValueError):
            StimulusSpectrum.from_json_dict({"components": [{"k": 1.0, "n": 0}]})
        with pytest.raises(ValueError):
            StimulusSpectrum.from_json_dict(
                {"components": [{"k": 1.0, "n": 0, "intensity": 1.0, "x": 2}]}
            )


class TestRecord:
    def test_below_threshold(self):
        # k = 0.4 sits under the permanent floor k0 = 0.5 and can never record
        reg = MemoryRegistry()
        code, rejected = record(reg, spectrum((0.4, 1, 1.0)), 0.0, P)
        assert code is None
        assert reg.codes == {}
        (rej,) = rejected
        assert rej.reason is RejectionReason.BELOW_THRESHOLD
        assert "0.5" in rej.detail
        assert rej.component.k == 0.4

    def test_window_closed(self):
        # k=2, n=1 has window T = 3 ln 4 ~ 4.159; t=5 is past it
        assert T2 == pytest.approx(recording_window(P, ModeIndex(k=2.0, n=1)))
        reg = MemoryRegistry()
        code, rejected = record(reg, spectrum((2.0, 1, 1.0)), 5.0, P)
        assert code is None
        (rej,) = rejected
        assert rej.reason is RejectionReason.WINDOW_CLOSED
        assert "closed" in rej.detail

    def test_accepts_inside_window(self):
        reg = MemoryRegistry()
        code, rejected = record(reg, spectrum((2.0, 1, 3.25)), 1.0, P)
        assert rejected == []
        assert code.id == "code000001"
        assert code.status is CodeStatus.INTACT
        assert code.entries == {2.0: CodeEntry(weight=3.25, n=1, t_rec=1.0)}
        assert reg.codes == {"code000001": code}
        assert reg.next_id == 2

    def test_floor_momentum_rejected_as_threshold(self):
        # k = k0 exactly has a zero-width window; classified as the
        # permanent-threshold refusal, not a closed window
        reg = MemoryRegistry()
        _, rejected = record(reg, spectrum((0.5, 1, 1.0)), 0.0, P)
        assert rejected[0].reason is RejectionReason.BELOW_THRESHOLD

    def test_threshold_boundary_at_positive_time(self):
        # at t=1 the cutoff is k~ = 0.5 e^{1/3}; just above records, just
        # below is a mode whose window closed a moment ago
        ktilde = momentum_threshold(P, 1, 1.0)
        reg = MemoryRegistry()
        code, rejected = record(
            reg,
            spectrum((ktilde * (1 + 1e-9), 1, 1.0), (ktilde * (1 - 1e-9), 1, 1.0)),
            1.0,
            P,
        )
        assert len(code.entries) == 1
        (rej,) = rejected
        assert rej.reason is RejectionReason.WINDOW_CLOSED

    @pytest.mark.parametrize("k,n", [(6.268377079538355, 1), (2.0, 1), (55.0, 9)])
    def test_records_what_decay_keeps_up_to_the_window_end(self, k, n):
        # at the last float before T the mode is alive; for the first mode
        # k_tilde(n, t) rounds above k there, which used to refuse it
        T = recording_window(P, ModeIndex(k=k, n=n))
        t = math.nextafter(T, 0.0)
        reg = MemoryRegistry()
        code, rejected = record(reg, spectrum((k, n, 1.0)), t, P)
        assert rejected == []
        decay_codes(reg, t, P)
        assert reg.codes[code.id].entries == {k: CodeEntry(weight=1.0, n=n, t_rec=t)}
        decay_codes(reg, T, P)
        assert reg.codes[code.id].status is CodeStatus.FORGOTTEN
        _, (rej,) = record(reg, spectrum((k, n, 1.0)), T, P)
        assert rej.reason is RejectionReason.WINDOW_CLOSED

    def test_mixed_acceptance(self):
        reg = MemoryRegistry()
        code, rejected = record(
            reg,
            spectrum((0.4, 1, 1.0), (2.0, 1, 3.5), (6.0, 1, 1.25)),
            1.0,
            P,
        )
        assert sorted(code.entries) == [2.0, 6.0]
        assert code.entries[2.0].weight == 3.5
        assert len(rejected) == 1

    def test_duplicate_momentum_last_wins(self):
        reg = MemoryRegistry()
        code, _ = record(reg, spectrum((2.0, 1, 1.0), (2.0, 1, 7.0)), 1.0, P)
        assert code.entries[2.0].weight == 7.0

    def test_empty_stimulus(self):
        reg = MemoryRegistry()
        assert record(reg, spectrum(), 1.0, P) == (None, [])
        assert reg.codes == {}

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_bad_time(self, t):
        with pytest.raises(ValueError):
            record(MemoryRegistry(), spectrum((2.0, 1, 1.0)), t, P)

    def test_cannot_record_before_last_decay(self):
        reg = MemoryRegistry()
        decay_codes(reg, 1.0, P)
        with pytest.raises(ValueError):
            record(reg, spectrum((2.0, 1, 1.0)), 0.5, P)

    def test_independence_of_recordings(self):
        reg = MemoryRegistry()
        code_a, _ = record(reg, spectrum((2.0, 1, 1.0)), 0.0, P)
        snapshot = dict(code_a.entries)
        code_b, _ = record(reg, spectrum((6.0, 1, 2.0)), 0.0, P)
        assert code_a.entries == snapshot
        assert sorted(reg.codes) == ["code000001", "code000002"]
        assert code_b.id == "code000002"

    def test_refresh_resets_recording_time(self):
        reg = MemoryRegistry()
        code, _ = record(reg, spectrum((2.0, 1, 1.0), (6.0, 1, 2.0)), 0.0, P)
        again, _ = record(reg, spectrum((2.0, 1, 1.0), (6.0, 1, 2.0)), 1.5, P)
        assert again is code
        assert len(reg.codes) == 1
        assert reg.next_id == 2
        assert all(e.t_rec == 1.5 for e in code.entries.values())

    def test_different_weights_make_new_code(self):
        reg = MemoryRegistry()
        record(reg, spectrum((2.0, 1, 1.0)), 0.0, P)
        code2, _ = record(reg, spectrum((2.0, 1, 1.001)), 0.0, P)
        assert code2.id == "code000002"
        assert len(reg.codes) == 2

    def test_refresh_matches_degraded_remnant(self):
        reg = MemoryRegistry()
        code, _ = record(reg, spectrum((0.6, 1, 1.0), (6.0, 1, 2.0)), 0.0, P)
        decay_codes(reg, 0.55, P)
        assert code.status is CodeStatus.DEGRADED
        again, _ = record(reg, spectrum((6.0, 1, 2.0)), 0.6, P)
        assert again is code
        assert code.status is CodeStatus.DEGRADED
        assert code.entries[6.0].t_rec == 0.6

    def test_fresh_id_skips_existing(self):
        reg = MemoryRegistry()
        reg.codes["code000001"] = MemoryCode(id="code000001", entries={})
        code, _ = record(reg, spectrum((2.0, 1, 1.0)), 0.0, P)
        assert code.id == "code000002"


class TestDecay:
    def _two_mode_code(self, reg):
        code, _ = record(reg, spectrum((0.6, 1, 1.0), (6.0, 1, 1.0)), 0.0, P)
        return code

    def test_degrades_then_forgets(self):
        reg = MemoryRegistry()
        code = self._two_mode_code(reg)
        decay_codes(reg, T06 * 1.001, P)
        assert code.status is CodeStatus.DEGRADED
        assert sorted(code.entries) == [6.0]
        decay_codes(reg, T6 * 1.001, P)
        assert code.status is CodeStatus.FORGOTTEN
        assert code.entries == {}

    def test_no_decay_at_zero(self):
        reg = MemoryRegistry()
        code = self._two_mode_code(reg)
        before = reg.dumps()
        assert decay_codes(reg, 0.0, P) is reg
        assert reg.dumps() == before
        assert code.status is CodeStatus.INTACT

    def test_idempotent(self):
        reg = MemoryRegistry()
        self._two_mode_code(reg)
        decay_codes(reg, 1.0, P)
        once = reg.dumps()
        decay_codes(reg, 1.0, P)
        assert reg.dumps() == once

    def test_time_must_not_go_backwards(self):
        reg = MemoryRegistry()
        decay_codes(reg, 2.0, P)
        with pytest.raises(ValueError):
            decay_codes(reg, 1.0, P)

    def test_updates_last_decay_time(self):
        reg = MemoryRegistry()
        decay_codes(reg, 3.5, P)
        assert reg.last_decay_t == 3.5

    def test_straight_to_forgotten(self):
        reg = MemoryRegistry()
        code, _ = record(reg, spectrum((0.6, 1, 1.0)), 0.0, P)
        decay_codes(reg, 10.0, P)
        assert code.status is CodeStatus.FORGOTTEN

    def test_degraded_stays_degraded_until_empty(self):
        reg = MemoryRegistry()
        code, _ = record(
            reg, spectrum((0.6, 1, 1.0), (2.0, 1, 1.0), (6.0, 1, 1.0)), 0.0, P
        )
        counts = []
        for t in (0.6, 5.0, 8.0):
            decay_codes(reg, t, P)
            counts.append(len(code.entries))
        assert counts == [2, 1, 0]
        assert code.status is CodeStatus.FORGOTTEN

    def test_monotone_entry_counts(self):
        reg = MemoryRegistry()
        code, _ = record(
            reg, spectrum((0.6, 1, 1.0), (2.0, 1, 1.0), (6.0, 1, 1.0)), 0.0, P
        )
        prev = len(code.entries)
        for t in (0.1, 0.6, 2.0, 4.5, 7.0, 8.0):
            decay_codes(reg, t, P)
            assert len(code.entries) <= prev
            prev = len(code.entries)


class TestSimilarity:
    def _code(self, weights):
        entries = {k: CodeEntry(weight=w, n=1, t_rec=0.0) for k, w in weights.items()}
        return MemoryCode(id="x", entries=entries)

    def test_identical_is_exactly_one(self):
        a = self._code({2.0: 1.0, 6.0: 0.3})
        b = self._code({2.0: 1.0, 6.0: 0.3})
        assert similarity(a, b) == 1.0
        assert similarity(a, a) == 1.0

    def test_disjoint_supports(self):
        assert similarity(self._code({2.0: 1.0}), self._code({6.0: 1.0})) == 0.0

    def test_empty_code(self):
        empty = self._code({})
        assert similarity(empty, self._code({2.0: 1.0})) == 0.0
        assert similarity(self._code({2.0: 1.0}), empty) == 0.0
        assert similarity(empty, empty) == 0.0

    def test_degraded_remnant_equal_weights(self):
        # dropping one of two equal-weight components projects the spectrum:
        # cosine = 1/sqrt(2)
        full = self._code({2.0: 0.7, 6.0: 0.7})
        remnant = self._code({6.0: 0.7})
        assert similarity(full, remnant) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_symmetric_and_bounded(self):
        rng = random.Random(3)
        for _ in range(50):
            a = self._code(
                {rng.uniform(0.5, 9): rng.uniform(0, 4) for _ in range(rng.randint(1, 5))}
            )
            b = self._code(
                {rng.uniform(0.5, 9): rng.uniform(0, 4) for _ in range(rng.randint(1, 5))}
            )
            s = similarity(a, b)
            assert s == similarity(b, a)
            assert 0.0 <= s <= 1.0

    def test_scale_invariance(self):
        # cosine ignores overall intensity scale
        a = self._code({2.0: 1.0, 6.0: 0.5})
        scaled = self._code({2.0: 2.5, 6.0: 7.5})
        assert similarity(a, scaled) == pytest.approx(
            similarity(a, self._code({2.0: 0.5, 6.0: 1.5})), abs=1e-12
        )


class TestRecall:
    def _registry(self):
        reg = MemoryRegistry()
        record(reg, spectrum((2.0, 1, 1.0), (6.0, 1, 2.0)), 1.0, P)
        decay_codes(reg, 1.0, P)
        return reg

    def test_exact_replica_recalled(self):
        reg = self._registry()
        res = recall(reg, spectrum((2.0, 1, 1.0), (6.0, 1, 2.0)), 10.0, 1.0, P)
        assert res == RecallResult(
            matched="code000001", score=1.0, outcome=RecallOutcome.RECALLED
        )

    def test_zero_energy_difficulty(self):
        reg = self._registry()
        res = recall(reg, spectrum((2.0, 1, 1.0), (6.0, 1, 2.0)), 0.0, 1.0, P)
        assert res.outcome is RecallOutcome.DIFFICULTY
        assert res.matched == "code000001"
        assert res.score == 1.0

    def test_energy_threshold_boundary(self):
        # E_thr = c * k~(n_min, t); meeting it exactly recalls
        reg = self._registry()
        e_thr = P.c * momentum_threshold(P, 1, 1.0)
        sig = spectrum((2.0, 1, 1.0), (6.0, 1, 2.0))
        assert recall(reg, sig, e_thr, 1.0, P).outcome is RecallOutcome.RECALLED
        assert (
            recall(reg, sig, e_thr * (1 - 1e-12), 1.0, P).outcome
            is RecallOutcome.DIFFICULTY
        )

    def test_orthogonal_signal(self):
        reg = self._registry()
        res = recall(reg, spectrum((3.0, 1, 1.0)), 10.0, 1.0, P)
        assert res == RecallResult(
            matched=None, score=0.0, outcome=RecallOutcome.NO_MATCH
        )

    def test_weak_overlap_is_no_match(self):
        # cos = 1/sqrt(5) ~ 0.447 < 0.5 between a one-line code and a
        # two-line signal dominated elsewhere
        reg = MemoryRegistry()
        record(reg, spectrum((2.0, 1, 1.0)), 0.0, P)
        res = recall(reg, spectrum((2.0, 1, 1.0), (6.0, 1, 2.0)), 10.0, 0.0, P)
        assert res.outcome is RecallOutcome.NO_MATCH
        assert res.score == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)
        flipped = recall(reg, spectrum((2.0, 1, 2.0), (6.0, 1, 1.0)), 10.0, 0.0, P)
        assert flipped.outcome is RecallOutcome.RECALLED
        assert flipped.score == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-12)

    def test_empty_registry_and_empty_signal(self):
        reg = MemoryRegistry()
        assert recall(reg, spectrum((2.0, 1, 1.0)), 1.0, 0.0, P).outcome is (
            RecallOutcome.NO_MATCH
        )
        reg2 = self._registry()
        assert recall(reg2, spectrum(), 1.0, 1.0, P).outcome is RecallOutcome.NO_MATCH

    def test_requires_decayed_registry(self):
        reg = self._registry()
        with pytest.raises(ValueError):
            recall(reg, spectrum((2.0, 1, 1.0)), 1.0, 2.0, P)
        decay_codes(reg, 2.0, P)
        recall(reg, spectrum((2.0, 1, 1.0)), 1.0, 2.0, P)

    def test_best_match_selection(self):
        reg = MemoryRegistry()
        record(reg, spectrum((2.0, 1, 1.0)), 0.0, P)
        record(reg, spectrum((6.0, 1, 1.0)), 0.0, P)
        res = recall(reg, spectrum((6.0, 1, 5.0)), 10.0, 0.0, P)
        assert res.matched == "code000002"
        assert res.score == 1.0

    def test_tie_breaks_to_smallest_id(self):
        entries = {2.0: CodeEntry(weight=1.0, n=1, t_rec=0.0)}
        reg = MemoryRegistry(
            codes={
                "code000002": MemoryCode(id="code000002", entries=dict(entries)),
                "code000001": MemoryCode(id="code000001", entries=dict(entries)),
            },
            next_id=3,
        )
        res = recall(reg, spectrum((2.0, 1, 1.0)), 10.0, 0.0, P)
        assert res.matched == "code000001"

    def test_mass_threshold_uses_smallest_order(self):
        # entries at n=1 and n=0: the n=0 threshold k0 e^{Lt} is the binding one
        reg = MemoryRegistry()
        record(reg, spectrum((2.0, 1, 1.0), (6.0, 0, 1.0)), 1.0, P)
        decay_codes(reg, 1.0, P)
        sig = spectrum((2.0, 1, 1.0), (6.0, 0, 1.0))
        e_low = P.c * momentum_threshold(P, 1, 1.0)
        e_high = P.c * momentum_threshold(P, 0, 1.0)
        assert e_high > e_low
        assert recall(reg, sig, e_low, 1.0, P).outcome is RecallOutcome.DIFFICULTY
        assert recall(reg, sig, e_high, 1.0, P).outcome is RecallOutcome.RECALLED

    def test_recall_is_read_only(self):
        reg = self._registry()
        before = reg.dumps()
        recall(reg, spectrum((2.0, 1, 1.0)), 10.0, 1.0, P)
        assert reg.dumps() == before

    def test_result_validation(self):
        with pytest.raises(ValueError):
            RecallResult(matched=None, score=1.5, outcome=RecallOutcome.NO_MATCH)
        with pytest.raises(ValueError):
            RecallResult(matched="c", score=0.0, outcome=RecallOutcome.NO_MATCH)
        with pytest.raises(ValueError):
            RecallResult(matched=None, score=1.0, outcome=RecallOutcome.RECALLED)


class TestForgotten:
    def test_fresh_code_alive(self):
        reg = MemoryRegistry()
        code, _ = record(reg, spectrum((2.0, 1, 1.0)), 1.0, P)
        assert not is_forgotten(code, 1.0, P)

    def test_past_longest_window(self):
        reg = MemoryRegistry()
        code, _ = record(reg, spectrum((0.6, 1, 1.0), (6.0, 1, 1.0)), 0.0, P)
        assert not is_forgotten(code, T06 * 0.5, P)
        assert not is_forgotten(code, T6 * 0.999, P)
        assert is_forgotten(code, T6 * 1.001, P)

    def test_empty_code_forgotten(self):
        assert is_forgotten(MemoryCode(id="x", entries={}), 0.0, P)


class TestPersistence:
    def _populated(self):
        reg = MemoryRegistry()
        record(reg, spectrum((0.6, 1, 1.0), (6.0, 1, 2.5)), 0.0, P)
        record(reg, spectrum((2.0, 0, 1.0 / 3.0)), 0.0, P)
        decay_codes(reg, 0.6, P)
        return reg

    def test_round_trip_bytes(self):
        reg = self._populated()
        text = reg.dumps()
        assert text.endswith("\n")
        again = MemoryRegistry.loads(text)
        assert again.dumps() == text
        assert again == reg

    def test_file_round_trip(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "registry.json"
        reg.save(path)
        assert MemoryRegistry.load(path).dumps() == reg.dumps()
        assert path.read_bytes() == reg.dumps().encode("utf-8")

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "registry.json"
        path.mkdir()
        with pytest.raises(IsADirectoryError):
            MemoryRegistry().save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["registry.json"]

    def test_insertion_order_irrelevant(self):
        entries = {2.0: CodeEntry(weight=1.0, n=1, t_rec=0.0)}
        a = MemoryRegistry(
            codes={
                "code000001": MemoryCode(id="code000001", entries=dict(entries)),
                "code000002": MemoryCode(id="code000002", entries=dict(entries)),
            },
            next_id=3,
        )
        b = MemoryRegistry(
            codes={
                "code000002": MemoryCode(id="code000002", entries=dict(entries)),
                "code000001": MemoryCode(id="code000001", entries=dict(entries)),
            },
            next_id=3,
        )
        assert a.dumps() == b.dumps()

    def test_schema_pinned(self):
        doc = self._populated().to_json_dict()
        assert doc["schema"] == 1
        doc["schema"] = 2
        with pytest.raises(ValueError):
            MemoryRegistry.from_json_dict(doc)

    def test_rejects_malformed(self):
        base = self._populated().to_json_dict()
        missing = dict(base)
        del missing["next_id"]
        with pytest.raises(ValueError):
            MemoryRegistry.from_json_dict(missing)
        bad_status = json.loads(json.dumps(base))
        first = next(iter(bad_status["codes"]))
        bad_status["codes"][first]["status"] = "Mangled"
        with pytest.raises(ValueError):
            MemoryRegistry.from_json_dict(bad_status)
        zombie = json.loads(json.dumps(base))
        zombie["codes"]["codeX"] = {
            "status": "Forgotten",
            "entries": {"2.0": {"weight": 1.0, "n": 1, "t_rec": 0.0}},
        }
        with pytest.raises(ValueError):
            MemoryRegistry.from_json_dict(zombie)

    def test_float_keys_exact(self):
        reg = MemoryRegistry()
        record(reg, spectrum((1.0 / 3.0 + 1.0, 1, 1.0)), 0.0, P)
        doc = reg.to_json_dict()
        (code_doc,) = doc["codes"].values()
        (key,) = code_doc["entries"]
        assert float(key) == 1.0 / 3.0 + 1.0
        assert MemoryRegistry.loads(reg.dumps()) == reg


class TestLaws:
    def test_persistence_localization(self):
        # higher momentum at fixed n: strictly later forgetting, strictly
        # smaller coherent domain.  The admitted domain size at a mode's own
        # closing time equals its wavelength 2 pi / k.
        for n in (0, 1, 3):
            for k1, k2 in ((0.6, 2.0), (2.0, 6.0), (0.7, 55.0)):
                t1 = recording_window(P, ModeIndex(k=k1, n=n))
                t2 = recording_window(P, ModeIndex(k=k2, n=n))
                assert t2 > t1
                size1 = domain_size(P, n, t1)
                size2 = domain_size(P, n, t2)
                assert size1 == pytest.approx(2 * math.pi / k1, rel=1e-12)
                assert size2 == pytest.approx(2 * math.pi / k2, rel=1e-12)
                assert size2 < size1
                # at any shared live time both momenta clear the cutoff
                for frac in (0.0, 0.5, 0.99):
                    ktilde = momentum_threshold(P, n, t1 * frac)
                    assert k1 >= ktilde and k2 >= ktilde

    def test_registry_fuzz(self):
        rng = random.Random(1234)
        reg = MemoryRegistry()
        rank = {
            CodeStatus.INTACT: 0,
            CodeStatus.DEGRADED: 1,
            CodeStatus.FORGOTTEN: 2,
        }
        seen_status: dict = {}
        t = 0.0
        for _ in range(300):
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
                others = {
                    cid: dict(code.entries)
                    for cid, code in reg.codes.items()
                }
                code, rejected = record(reg, spectrum(*comps), t, P)
                for comp_rej in rejected:
                    assert comp_rej.reason in (
                        RejectionReason.BELOW_THRESHOLD,
                        RejectionReason.WINDOW_CLOSED,
                    )
                for cid, snap in others.items():
                    if code is not None and cid == code.id:
                        continue
                    assert reg.codes[cid].entries == snap
            elif op < 0.8:
                t += rng.expovariate(1.0)
                decay_codes(reg, t, P)
            else:
                sig = spectrum(
                    (rng.uniform(0.2, 60.0), rng.randint(0, 4), rng.uniform(0, 5))
                )
                before = reg.dumps()
                recall(reg, sig, rng.uniform(0, 50), t, P)
                assert reg.dumps() == before
            for cid, code in reg.codes.items():
                assert (code.status is CodeStatus.FORGOTTEN) == (not code.entries)
                for k, e in code.entries.items():
                    assert mode_alive(P, ModeIndex(k=k, n=e.n), e.t_rec)
                if cid in seen_status:
                    assert rank[code.status] >= rank[seen_status[cid]]
                seen_status[cid] = code.status
        assert MemoryRegistry.loads(reg.dumps()).dumps() == reg.dumps()


# JSON-shaped values, and registry / spectrum documents whose every part may
# be replaced by one; ints beyond the float range included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**400)]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=10,
)
_NUMBER = st.integers() | st.floats() | st.sampled_from([10**400, 1e300, -0.0])


def _or_json(strategy):
    return strategy | _JSON


_ENTRY = _or_json(st.fixed_dictionaries(
    {"weight": _or_json(_NUMBER), "n": _or_json(st.integers()), "t_rec": _or_json(_NUMBER)}
))
_ENTRY_KEY = st.text(max_size=6) | st.floats().map(repr) | st.sampled_from(["2.0", "1e400", "-1"])
_CODE = _or_json(st.fixed_dictionaries({
    "status": _or_json(st.sampled_from([s.value for s in CodeStatus])),
    "entries": _or_json(st.dictionaries(_ENTRY_KEY, _ENTRY, max_size=3)),
}))
_REGISTRY = _or_json(st.fixed_dictionaries({
    "schema": _or_json(st.just(1)),
    "last_decay_t": _or_json(_NUMBER),
    "next_id": _or_json(st.integers()),
    "codes": _or_json(st.dictionaries(st.text(max_size=6), _CODE, max_size=3)),
}))
_SPECTRUM = _or_json(st.fixed_dictionaries({
    "components": _or_json(st.lists(_or_json(st.fixed_dictionaries(
        {"k": _or_json(_NUMBER), "n": _or_json(st.integers()), "intensity": _or_json(_NUMBER)}
    )), max_size=3)),
}))
_FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestParsersOnArbitraryJson:
    """Both document parsers return a value or raise ValueError, nothing else,
    and whatever the registry parser accepts survives a dumps/loads round trip."""

    @_FUZZ
    @given(_REGISTRY)
    def test_registry(self, doc):
        try:
            reg = MemoryRegistry.from_json_dict(doc)
        except ValueError:
            return
        assert MemoryRegistry.loads(reg.dumps()) == reg

    @_FUZZ
    @given(_SPECTRUM)
    def test_spectrum(self, doc):
        try:
            spec = StimulusSpectrum.from_json_dict(doc)
        except ValueError:
            return
        assert StimulusSpectrum.from_json_dict(spec.to_json_dict()) == spec

    def test_reported_repros(self):
        base = {"schema": 1, "last_decay_t": 0.0, "next_id": 1}
        for codes in ([], {"c": {"status": "Intact", "entries": {"2.0": 5}}},
                      {"c": {"status": "Intact", "entries": []}}):
            with pytest.raises(ValueError):
                MemoryRegistry.from_json_dict({**base, "codes": codes})
        with pytest.raises(ValueError, match="components"):
            StimulusSpectrum.from_json_dict({"components": 5})
        with pytest.raises(ValueError, match="finite"):
            StimulusSpectrum.from_json_dict(
                {"components": [{"k": 10**400, "n": 1, "intensity": 1.0}]})
        with pytest.raises(ValueError, match="nested"):
            MemoryRegistry.loads("[" * 100_000)


# registries that from_json_dict accepts, with the cases a hand-written
# writer could get wrong: escaped and non-ASCII code ids, entry keys whose
# string order differs from their numeric order, int, subnormal and -0.0
# numbers, Forgotten codes and codes without entries
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NONNEG = (st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10**20)
           | st.sampled_from([-0.0, 5e-324, 2.5e-310]))
_VALID_CODE = st.fixed_dictionaries({
    "status": st.just("Forgotten"), "entries": st.just({}),
}) | st.fixed_dictionaries({
    "status": st.sampled_from(["Intact", "Degraded"]),
    "entries": st.dictionaries(
        _POSITIVE.map(repr) | st.integers(1, 10**6).map(str)
        | st.sampled_from(["10.5", "2.0", "9", "1e2", "100", "1_0", " 3.5"]),
        st.fixed_dictionaries({"weight": _NONNEG, "n": st.integers(0, 10**20),
                               "t_rec": _NONNEG}),
        max_size=4),
})
_VALID_REGISTRY = st.fixed_dictionaries({
    "schema": st.just(1),
    "last_decay_t": _NONNEG,
    "next_id": st.integers(1, 10**20),
    "codes": st.dictionaries(
        st.text(min_size=1, max_size=6)
        | st.sampled_from(['code"1', "c\\d", "cödé", "☃", "\ud800", "a\nb"]),
        _VALID_CODE, max_size=4),
})


class TestCanonicalWriter:
    """dumps writes json.dumps(to_json_dict(), sort_keys=True, indent=2) + LF
    directly; json.dumps itself is the reference."""

    @_FUZZ
    @given(_VALID_REGISTRY)
    def test_matches_json_dumps(self, doc):
        reg = MemoryRegistry.from_json_dict(doc)
        assert reg.dumps() == registry_json(reg)
        # the same document held without the parser's float conversion, so
        # int weights, times and clocks reach the writer as ints
        raw = MemoryRegistry(
            codes={
                cid: MemoryCode(
                    id=cid,
                    entries={float(k): CodeEntry(**e) for k, e in body["entries"].items()},
                    status=CodeStatus(body["status"]),
                )
                for cid, body in doc["codes"].items()
            },
            last_decay_t=doc["last_decay_t"],
            next_id=doc["next_id"],
        )
        assert raw.dumps() == registry_json(raw)

    def test_layout(self):
        reg = MemoryRegistry(
            codes={
                "b": MemoryCode(id="b", entries={}, status=CodeStatus.FORGOTTEN),
                "a": MemoryCode(id="a", entries={
                    10.5: CodeEntry(weight=3, n=2, t_rec=-0.0),
                    2.0: CodeEntry(weight=5e-324, n=0, t_rec=1.5),
                }),
            },
            next_id=3,
        )
        assert reg.dumps() == registry_json(reg)
        assert reg.dumps().splitlines()[3:6] == [
            '      "entries": {',
            '        "10.5": {',
            '          "n": 2,',
        ]
        assert MemoryRegistry().dumps() == (
            '{\n  "codes": {},\n  "last_decay_t": 0.0,\n  "next_id": 1,\n  "schema": 1\n}\n'
        )
