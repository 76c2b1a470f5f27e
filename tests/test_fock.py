"""Squeezing, pairing, and Hamiltonian-structure tests.

The closed-form squeezed vacuum and the brute-force matrix exponential are
independent routes to the same state; each cross-checks the other. The
joint-basis operators come from the tests' own oracles, and the oracle
evolves their paired blocks. All interior-subspace windows below were sized
so the truncated identities hold with an order of magnitude to spare.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import linalg, sparse
from scipy.sparse.linalg import expm_multiply

from _oracles import (
    build_hamiltonians,
    full_vector,
    k2_generator,
    k2_single_mode,
    kron_pair_coupling,
    ladder,
    number_operators,
    pair_ladders,
    paired_block,
)
from memdomain.errors import CutoffTooSmall, DomainError, ModeDead, NeverRecordable
from memdomain.fock import (
    PairedBlock,
    TwoModeState,
    bogoliubov_theta_coeffs,
    bogoliubov_time_coeffs,
    brute_force_evolve,
    coupling_frequencies,
    default_cutoff,
    expected_pair_number,
    inner_product,
    mixing_angle,
    pair_coupling,
    squeezed_vacuum,
    vacuum_overlap,
    vacuum_state,
)
from memdomain.lifetime import lambda_lifetime, open_window, recording_window
from memdomain.oscillator import ModeIndex, SystemParams, common_frequency

P = SystemParams(L=1.0, c=1.0)
MODE = ModeIndex(k=2.0, n=1)

SINH2_1 = math.sinh(1.0) ** 2  # 1.3810978455418155
INV_COSH_1 = 1.0 / math.cosh(1.0)  # 0.6480542736638855


def _interior_indices(cutoff, keep):
    # joint-basis indices with both occupations <= keep
    idx = []
    for ma in range(keep + 1):
        for mb in range(keep + 1):
            idx.append(ma * (cutoff + 1) + mb)
    return np.array(idx)


class TestLadder:
    def test_entries(self):
        a = ladder(5).toarray()
        for m in range(1, 6):
            assert a[m - 1, m] == pytest.approx(math.sqrt(m), rel=1e-15)
        assert np.count_nonzero(a) == 5

    def test_canonical_commutator_interior(self):
        a = ladder(9)
        comm = (a @ a.getH() - a.getH() @ a).toarray()
        # exact identity except at the truncation corner
        assert np.allclose(comm[:9, :9], np.eye(9), atol=1e-14)
        assert comm[9, 9] == pytest.approx(-9.0)

    def test_pair_ladders_commute(self):
        A, At = pair_ladders(6)
        assert abs((A @ At - At @ A)).max() == 0.0
        assert abs((A @ At.getH() - At.getH() @ A)).max() == 0.0

    def test_number_operators(self):
        nA, nT = number_operators(4)
        dA = nA.diagonal().real
        dT = nT.diagonal().real
        for ma in range(5):
            for mb in range(5):
                j = ma * 5 + mb
                assert dA[j] == pytest.approx(ma)
                assert dT[j] == pytest.approx(mb)

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            ladder(0)
        with pytest.raises(ValueError):
            ladder(True)


def _joint_builders(n):
    h0, hi1, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=n)
    num_a, num_t = number_operators(n)
    return {"H0": h0, "HI1": hi1, "HI2": hi2, "pair_coupling": kron_pair_coupling(0.7, n),
            "K2": k2_generator(n), "NumberA": num_a, "NumberTilde": num_t}


_FORM = {"H0": "real", "HI1": "real", "HI2": "imaginary", "pair_coupling": "imaginary",
         "K2": "imaginary", "NumberA": "number", "NumberTilde": "number"}


@pytest.mark.parametrize("name", sorted(_FORM))
@pytest.mark.parametrize("n", [4, 12, 60])
def test_builders_have_their_algebraic_form(n, name):
    # the structure each builder's construction guarantees, pinned here
    # instead of re-checked on every build
    m = _joint_builders(n)[name]
    dim = (n + 1) ** 2
    assert isinstance(m, sparse.csr_matrix) and m.shape == (dim, dim)
    tol = 1e-12 * (abs(m).max() + 1.0)
    assert abs(m - m.getH()).max() <= tol
    if _FORM[name] == "real":
        assert abs(m.imag).max() <= tol
    elif _FORM[name] == "imaginary":
        assert abs(m.real).max() <= tol
    else:
        diag = m.diagonal()
        assert abs(m - sparse.diags(diag)).max() <= tol
        assert diag.real.min() >= 0
    for single in (ladder(n), *pair_ladders(n), k2_single_mode(n)):
        assert isinstance(single, sparse.csr_matrix)


class TestMixingAngle:
    def test_frozen_example(self):
        # L=1, w0=2, n=1, t=3 ln 2: squared common frequency 0.75
        t = 3 * math.log(2.0)
        assert common_frequency(P, MODE, t) ** 2 == pytest.approx(0.75, rel=1e-12)
        theta = mixing_angle(P, MODE, t)
        assert type(theta) is float
        assert math.tanh(theta) == pytest.approx(13.0 / 19.0, rel=1e-13)
        assert math.tanh(theta) == pytest.approx(0.6842105, abs=5e-8)
        assert theta == pytest.approx(math.atanh(13.0 / 19.0), rel=1e-13)
        assert theta == pytest.approx(0.8369882, abs=5e-8)

    def test_vanishes_when_frequencies_match(self):
        # the angle measures the w0 vs common-frequency mismatch, which is
        # controlled entirely by the damping
        weak = SystemParams(L=1e-9, c=1.0)
        assert abs(mixing_angle(weak, MODE, 0.0)) < 1e-18

    def test_monotone_and_divergent(self):
        T = recording_window(P, MODE)
        thetas = [mixing_angle(P, MODE, f * T) for f in (0.0, 0.3, 0.6, 0.9)]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        assert mixing_angle(P, MODE, T * (1 - 1e-9)) > 10.0

    def test_dead_mode(self):
        T = recording_window(P, MODE)
        with pytest.raises(ModeDead):
            mixing_angle(P, MODE, T)
        with pytest.raises(ValueError):
            mixing_angle(P, MODE, -0.5)
        with pytest.raises(NeverRecordable):
            mixing_angle(P, ModeIndex(k=0.4, n=1), 0.0)


class TestBogoliubov:
    def test_theta_coeffs(self):
        assert bogoliubov_theta_coeffs(0.0) == (1.0, 0.0)
        c, s = bogoliubov_theta_coeffs(2.0)
        assert c == pytest.approx(1.5430806348152437, rel=1e-12)
        assert s == pytest.approx(1.1752011936438014, rel=1e-12)

    def test_time_coeffs(self):
        assert bogoliubov_time_coeffs(0.7, 0.0) == (1.0, 0.0)
        c, s = bogoliubov_time_coeffs(0.5, 2.0)
        assert (c, s) == (math.cosh(1.0), math.sinh(1.0))

    def test_hyperbolic_identity(self):
        rng = np.random.default_rng(42)
        for theta in rng.uniform(-5, 5, size=100):
            c, s = bogoliubov_theta_coeffs(float(theta))
            assert c * c - s * s == pytest.approx(1.0, abs=1e-12)

    def test_addition_law(self):
        c1, s1 = bogoliubov_time_coeffs(0.5, 1.0)
        c2, s2 = bogoliubov_time_coeffs(0.5, 2.0)
        c3, s3 = bogoliubov_time_coeffs(0.5, 3.0)
        assert c1 * c2 + s1 * s2 == pytest.approx(c3, rel=1e-12)
        assert s1 * c2 + c1 * s2 == pytest.approx(s3, rel=1e-12)

    def test_composed_ladders_stay_canonical(self):
        # theta-mix then t-mix, applied to the matrices; the canonical
        # commutators must survive on the interior
        N = 12
        A, At = pair_ladders(N)
        ct, st = bogoliubov_theta_coeffs(0.8)
        A1 = ct * A + st * A.getH()
        At1 = ct * At + st * At.getH()
        cc, ss = bogoliubov_time_coeffs(0.5, 1.5)
        A2 = cc * A1 - ss * At1.getH()
        At2 = cc * At1 - ss * A1.getH()
        idx = _interior_indices(N, N - 2)
        eye = sparse.identity((N + 1) ** 2, format="csr", dtype=complex)
        for lhs, rhs in (
            (A2 @ A2.getH() - A2.getH() @ A2, eye),
            (At2 @ At2.getH() - At2.getH() @ At2, eye),
            (A2 @ At2 - At2 @ A2, 0 * eye),
            (A2 @ At2.getH() - At2.getH() @ A2, 0 * eye),
        ):
            diff = (lhs - rhs).toarray()[np.ix_(idx, idx)]
            assert np.abs(diff).max() <= 1e-9


class TestDefaultCutoff:
    def test_reference_points(self):
        assert default_cutoff(1.0) == 51
        assert default_cutoff(1.5) == 139
        assert default_cutoff(0.0) == 8
        assert default_cutoff(1e-6) == 8
        assert default_cutoff(3.0) == 2787  # no clamp below the 1e5 limit

    def test_tail_bound_honored(self):
        for gt in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8):
            m = default_cutoff(gt)
            assert math.tanh(gt) ** (2 * (m + 1)) <= 1e-12

    def test_saturated_tanh_is_cutoff_error(self):
        # tanh(20) rounds to 1.0: no finite cutoff holds the tail
        with pytest.raises(CutoffTooSmall, match="rounds to 1"):
            default_cutoff(20.0)
        with pytest.raises(CutoffTooSmall, match="rounds to 1"):
            squeezed_vacuum(1.0, 20.0, cutoff=256)

    def test_tail_error_names_the_unclamped_requirement(self):
        # tanh(2) needs 378 levels: the default gives them, a cutoff of 256
        # is refused with the full requirement
        assert default_cutoff(2.0) == 378
        assert squeezed_vacuum(2.0, 1.0).cutoff == 378
        with pytest.raises(CutoffTooSmall, match="need cutoff >= 378$"):
            squeezed_vacuum(2.0, 1.0, cutoff=256)
        assert math.tanh(2.0) ** (2 * 379) <= 1e-12 < math.tanh(2.0) ** (2 * 257)

    def test_requirement_above_the_limit_is_refused(self):
        # gamma t = 5 needs 152154 levels, above the 1e5 single-mode limit;
        # the closed form serves gamma t up to about 4.78
        with pytest.raises(DomainError, match=(
                r"^gamma_t = 5 needs cutoff 152154 .* above the limit 100000$")):
            default_cutoff(5.0)
        with pytest.raises(DomainError, match="needs cutoff 152154"):
            squeezed_vacuum(1.0, 5.0)
        st = squeezed_vacuum(1.0, 4.79)
        assert st.cutoff == 99_972
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError, match="above the limit 100000"):
            squeezed_vacuum(1.0, 4.8)


class TestSqueezedVacuum:
    def test_unsqueezed(self):
        st = squeezed_vacuum(0.5, 0.0, cutoff=10)
        assert st.coeffs[0] == 1.0
        assert all(c == 0.0 for c in st.coeffs[1:])
        assert expected_pair_number(st) == (0.0, 0.0)

    def test_reference_occupation(self):
        # gamma t = 1 at the default cutoff (51)
        st = squeezed_vacuum(0.5, 2.0)
        assert st.cutoff == 51
        nA, nT = expected_pair_number(st)
        assert nA == pytest.approx(SINH2_1, abs=1e-10)
        assert nA == pytest.approx(1.3810978, abs=5e-8)
        assert nA is nT
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_coefficients(self):
        st = squeezed_vacuum(0.5, 2.0, cutoff=60)
        th, ch = math.tanh(1.0), math.cosh(1.0)
        for m, c in enumerate(st.coeffs):
            assert c == pytest.approx(th**m / ch, rel=1e-14, abs=1e-300)

    def test_tail_rule_rejects_small_cutoffs(self):
        # tanh(1)^98 = 2.6e-12 sits just above the 1e-12 tail bound
        with pytest.raises(CutoffTooSmall):
            squeezed_vacuum(0.5, 2.0, cutoff=48)
        with pytest.raises(CutoffTooSmall):
            squeezed_vacuum(0.5, 2.0, cutoff=40)
        with pytest.raises(ValueError):
            squeezed_vacuum(0.5, 2.0, cutoff=0)

    def test_annihilated_by_evolved_operator(self):
        # (cosh A - sinh At^.) kills the state away from the boundary
        gamma, t, N = 0.5, 2.0, 51
        st = squeezed_vacuum(gamma, t, cutoff=N)
        cc, ss = bogoliubov_time_coeffs(gamma, t)
        A, At = pair_ladders(N)
        resid = (cc * A - ss * At.getH()) @ full_vector(st)
        idx = _interior_indices(N, N - 2)
        assert np.linalg.norm(resid[idx]) <= 1e-9

    def test_negative_squeeze(self):
        st = squeezed_vacuum(-0.5, 2.0, cutoff=51)
        assert st.coeffs[1] < 0 < st.coeffs[2]
        assert expected_pair_number(st)[0] == pytest.approx(SINH2_1, abs=1e-10)


class TestStateValidation:
    def test_length_and_norm(self):
        assert TwoModeState((1.0, 0.0)).cutoff == 1
        with pytest.raises(ValueError):
            TwoModeState(())
        with pytest.raises(ValueError):
            TwoModeState((1.0, 1.0))

    def test_gamma_consistency(self):
        # a gamma t the cutoff cannot hold is a truncation complaint
        squeezed_vacuum(0.5, 1.0, cutoff=30)
        with pytest.raises(CutoffTooSmall, match="exceeds 1e-12; need cutoff >= 309$"):
            squeezed_vacuum(0.5, 3.8, cutoff=30)
        # mass missing: the norm check rejects
        with pytest.raises(ValueError):
            TwoModeState((0.7, 0.1, 0.0, 0.0, 0.0, 0.0))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(hs.floats(0.0, 4.78) | hs.sampled_from([0.0, 1e-300, 1.81, 2.5, 4.78]))
    def test_norm_within_the_tail_window(self, gamma_t):
        # 1 - tail <= norm^2 <= 1, to round-off, at the default cutoff
        state = squeezed_vacuum(1.0, gamma_t)
        tail = math.tanh(gamma_t) ** (2 * (state.cutoff + 1))
        assert tail <= 1e-12
        assert 1.0 - tail - 1e-12 <= state.norm_sq() <= 1.0 + 1e-12

    def test_embedding(self):
        st = squeezed_vacuum(0.5, 1.0, cutoff=20)
        vec = full_vector(st, 25)
        assert vec.shape == (26 * 26,)
        assert vec[0] == st.coeffs[0]
        assert vec[3 * 26 + 3] == st.coeffs[3]
        with pytest.raises(ValueError):
            full_vector(st, 10)

    def test_pairing_charge_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = rng.normal(size=9)
            raw /= np.linalg.norm(raw)
            st = TwoModeState(tuple(float(x) for x in raw))
            nA, nT = expected_pair_number(st)
            assert nA - nT == 0.0


class TestOverlap:
    def test_same_time(self):
        assert vacuum_overlap([0.5, 0.7, 0.9], 3.0, 3.0) == 1.0

    def test_single_mode_frozen(self):
        got = vacuum_overlap([0.5], 2.0, 0.0)
        assert got == pytest.approx(INV_COSH_1, rel=1e-12)
        assert got == pytest.approx(0.6480543, abs=5e-8)

    def test_against_truncated_inner_product(self):
        for g, t, tp in ((0.5, 2.0, 0.0), (0.5, 1.6, 0.4), (0.25, 2.0, 1.0)):
            a = squeezed_vacuum(g, tp, cutoff=51)
            b = squeezed_vacuum(g, t, cutoff=51)
            assert inner_product(a, b) == pytest.approx(
                vacuum_overlap([g], t, tp), abs=1e-10
            )

    def test_product_law_and_decay(self):
        single = vacuum_overlap([0.5], 2.0, 0.0)
        # log-domain product matches the power exactly
        assert vacuum_overlap([0.5] * 100, 2.0, 0.0) == pytest.approx(
            single**100, rel=1e-12
        )
        vals = [vacuum_overlap([0.5] * m, 2.0, 0.0) for m in range(1, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vacuum_overlap([0.5] * 100, 2.0, 0.0) == pytest.approx(1.6e-19, rel=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            vacuum_overlap([0.5], -1.0, 0.0)
        with pytest.raises(ValueError):
            vacuum_overlap([math.inf], 1.0, 0.0)


class TestHamiltonians:
    def test_coupling_frequencies_frozen(self):
        w_sum, w_diff = coupling_frequencies(P, MODE, 0.0)
        assert w_sum == pytest.approx(3.875, rel=1e-12)
        assert w_diff == pytest.approx(-0.125, rel=1e-12)

    def test_h0_diagonal(self):
        h0, _, _ = build_hamiltonians(P, MODE, 0.0, cutoff=5)
        d = h0.diagonal().real
        for ma in range(6):
            for mb in range(6):
                assert d[ma * 6 + mb] == pytest.approx(0.5 * 3.875 * (ma - mb))

    def test_commutators_interior(self):
        N = 10
        h0, hi1, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=N)
        idx = _interior_indices(N, N - 2)
        scale_0 = abs(h0).max() * abs(hi2).max()
        scale_1 = abs(hi1).max() * abs(hi2).max()
        c0 = (h0 @ hi2 - hi2 @ h0).toarray()
        c1 = (hi1 @ hi2 - hi2 @ hi1).toarray()
        assert np.abs(c0[np.ix_(idx, idx)]).max() <= 1e-10 * scale_0
        assert np.abs(c1[np.ix_(idx, idx)]).max() <= 1e-10 * scale_1

    def test_rotated_h0_commutes_with_flow(self):
        # Omega (A^.A - At^.At) has the same ladder structure as H0
        N = 10
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=N)
        A, At = pair_ladders(N)
        W = common_frequency(P, MODE, 0.0)
        h0p = W * (A.getH() @ A - At.getH() @ At)
        idx = _interior_indices(N, N - 2)
        comm = (h0p @ hi2 - hi2 @ h0p).toarray()
        scale = abs(h0p).max() * abs(hi2).max()
        assert np.abs(comm[np.ix_(idx, idx)]).max() <= 1e-10 * scale

    def test_rotated_vacuum_has_zero_energy(self):
        # exp(-i theta K2)|0> is annihilated by H0 + HI1 at the angle that
        # removes the off-diagonal coupling
        N = 24
        theta = mixing_angle(P, MODE, 0.0)
        h0, hi1, _ = build_hamiltonians(P, MODE, 0.0, cutoff=N)
        k2 = k2_generator(N)
        vac = np.zeros((N + 1) ** 2, dtype=complex)
        vac[0] = 1.0
        state = expm_multiply(-1j * theta * k2.tocsc(), vac)
        residual = (h0 + hi1) @ state
        assert np.linalg.norm(residual) <= 1e-8
        assert abs(np.vdot(state, residual)) <= 1e-8

    def test_flow_generator_expectation_conserved(self):
        N = 51
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=N)
        vals = []
        for t in (0.0, 0.6, 1.4, 2.0):
            vec = full_vector(squeezed_vacuum(0.5, t, cutoff=N))
            vals.append(complex(np.vdot(vec, hi2 @ vec)))
        for v in vals:
            assert abs(v - vals[0]) <= 1e-9

    def test_validation(self):
        for cutoff in (0, 513):
            with pytest.raises(ValueError):
                build_hamiltonians(P, MODE, 0.0, cutoff=cutoff)
        T = recording_window(P, MODE)
        with pytest.raises(ModeDead):
            build_hamiltonians(P, MODE, T + 0.1, cutoff=8)
        # the cutoff is checked before the window
        for cutoff in (0, 513):
            with pytest.raises(ValueError, match="cutoff"):
                build_hamiltonians(P, MODE, -1.0, cutoff=cutoff)


@pytest.mark.parametrize("quantity", [
    lambda_lifetime,
    mixing_angle,
    lambda params, mode, t: build_hamiltonians(params, mode, t, cutoff=8),
], ids=["lambda_lifetime", "mixing_angle", "build_hamiltonians"])
@pytest.mark.parametrize("where,error", [("before", ValueError), ("end", ModeDead)])
def test_window_quantities_share_one_gate(quantity, where, error):
    # t < 0 and t = T are refused by open_window itself: same type, same text
    t = -0.5 if where == "before" else recording_window(P, MODE)
    with pytest.raises(error) as gate:
        open_window(P, MODE, t)
    with pytest.raises(error) as refused:
        quantity(P, MODE, t)
    assert str(refused.value) == str(gate.value)


class TestK2:
    def test_structure(self):
        k2 = k2_generator(8)
        assert np.abs(k2.diagonal()).max() == 0.0
        dense = k2.toarray()
        assert np.abs(dense.real).max() == 0.0
        # annihilates no basis state
        norms = np.linalg.norm(dense, axis=0)
        assert norms.min() > 0.1

    def test_kron_factorization(self):
        N = 8
        k1 = k2_single_mode(N).toarray()
        eye = np.eye(N + 1)
        expected = np.kron(k1, eye) + np.kron(eye, k1)
        assert np.abs(k2_generator(N).toarray() - expected).max() == 0.0
        # the rotation therefore factorizes mode by mode
        th = 0.7
        S_full = linalg.expm(-1j * th * k2_generator(N).toarray())
        S_one = linalg.expm(-1j * th * k1)
        assert np.abs(S_full - np.kron(S_one, S_one)).max() <= 1e-12

    def test_conjugation_reference(self):
        # quoted reference point: theta=1 at cutoff 40; the mixing identity
        # holds on occupations <= 4 (error grows towards the boundary)
        N, th = 40, 1.0
        a = ladder(N).toarray()
        k1 = k2_single_mode(N).toarray()
        S = linalg.expm(-1j * th * k1)
        got = S @ a @ linalg.expm(1j * th * k1)
        c, s = bogoliubov_theta_coeffs(th)
        want = c * a + s * a.conj().T
        err = np.abs((got - want)[:5, :5]).max()
        assert err <= 1e-8

    def test_conjugation_theta_window(self):
        # deep-interior check across the +-2 window at a generous cutoff
        N = 220
        a = ladder(N).toarray()
        k1 = k2_single_mode(N).toarray()
        for th in (-2.0, -1.0, 1.0, 2.0):
            S = linalg.expm(-1j * th * k1)
            got = S @ a @ linalg.expm(1j * th * k1)
            c, s = bogoliubov_theta_coeffs(th)
            want = c * a + s * a.conj().T
            err = np.abs((got - want)[:9, :9]).max()
            assert err <= 1e-8

    def test_identity_at_zero(self):
        S = linalg.expm(-1j * 0.0 * k2_single_mode(6).toarray())
        assert np.abs(S - np.eye(7)).max() == 0.0


class TestBruteForce:
    def test_time_zero(self):
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=20)
        init = squeezed_vacuum(0.5, 1.0, cutoff=20)
        out = brute_force_evolve(paired_block(hi2), 0.0, init)
        assert out.cutoff == 20
        for a, b in zip(out.coeffs, init.coeffs):
            assert complex(a) == pytest.approx(complex(b), abs=1e-15)

    @staticmethod
    def _worst_formula_dev(cutoff, t, gamma_t):
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=cutoff)
        out = brute_force_evolve(paired_block(hi2), t, vacuum_state(cutoff))
        th, ch = math.tanh(gamma_t), math.cosh(gamma_t)
        return out, max(
            abs(complex(c) - th**m / ch) for m, c in enumerate(out.coeffs)
        )

    def test_reference_evolution(self):
        # gamma=L/2=0.5, t=2: the evolved vacuum must carry the closed-form
        # coefficients tanh^m(1)/cosh(1). The truncation boundary corrupts
        # the topmost coefficients at their own magnitude (~tanh^N), so the
        # cutoff must sit where that magnitude is below the tolerance.
        out, worst = self._worst_formula_dev(80, 2.0, 1.0)
        assert worst <= 1e-8
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_boundary_corruption_measurable(self):
        # at cutoff 48 the last closed-form coefficient is ~6e-7 and the
        # reflected error reaches it; this is why the test above uses 80
        _, worst = self._worst_formula_dev(48, 2.0, 1.0)
        assert 1e-8 < worst < 2e-6

    def test_pair_coupling_is_the_third_hamiltonian(self):
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=12)
        standalone, read = pair_coupling(P.L / 2, 12), paired_block(hi2)
        assert standalone.diag.tobytes() == read.diag.tobytes()
        assert standalone.sub.tobytes() == read.sub.tobytes()
        with pytest.raises(ValueError):
            pair_coupling(math.inf, 12)
        for cutoff in (0, 1025):
            with pytest.raises(ValueError):
                pair_coupling(0.5, cutoff)

    def test_matches_closed_form_state(self):
        for gamma_t, cutoff in ((0.25, 48), (1.0, 80)):
            t = gamma_t / 0.5
            _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=cutoff)
            oracle = brute_force_evolve(paired_block(hi2), t, vacuum_state(cutoff))
            closed = squeezed_vacuum(0.5, t, cutoff=cutoff)
            worst = max(
                abs(complex(a) - complex(b))
                for a, b in zip(oracle.coeffs, closed.coeffs)
            )
            assert worst <= 1e-8

    @pytest.mark.parametrize("cutoff", [1, 2, 4, 12, 97, 253, 511, 512])
    def test_pair_coupling_equals_ladder_products(self, cutoff):
        # written from the ladder entries, pair_coupling is the paired block
        # of the Kronecker build byte for byte (signed zeros included, for
        # either sign of gamma, subnormal and huge gamma), and that build is
        # entry for entry the A+ At+ - A At product
        for gamma in (0.7, -0.3, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -3.7e-5):
            got = pair_coupling(gamma, cutoff)
            want = kron_pair_coupling(gamma, cutoff)
            read = paired_block(want)
            assert got.diag.tobytes() == read.diag.tobytes()
            assert got.sub.tobytes() == read.sub.tobytes()
        A, At = pair_ladders(cutoff)
        products = (1j * -3.7e-5 * (A.getH() @ At.getH() - A @ At)).tocsr()
        products.sort_indices()
        assert np.array_equal(products.indptr, want.indptr)
        assert np.array_equal(products.indices, want.indices)
        assert np.array_equal(products.data, want.data)

    def test_pair_coupling_blocks_nest(self):
        # b_m depends on m and gamma alone: each block up to the 1024 limit
        # is a prefix of the largest, so the byte tie above at 512 holds for
        # every cutoff from 1 to 512
        for gamma in (0.7, -0.3, -0.0, 5e-324, -2.5e-310, 1e300):
            top = pair_coupling(gamma, 1024)
            for n in range(1, 1025):
                block = pair_coupling(gamma, n)
                assert block.diag.tobytes() == top.diag[: n + 1].tobytes()
                assert block.sub.tobytes() == top.sub[:n].tobytes()

    @pytest.mark.parametrize("gamma_t", [0.3, 1.0, 1.5])
    def test_block_matches_full_space(self, gamma_t):
        # the full (cutoff+1)^2 evolution conserves pairing exactly: every
        # off-pair amplitude is 0; the paired-sector restriction agrees with
        # scipy's action-of-exponential on the full space
        gamma, t = 0.5, gamma_t / 0.5
        n = default_cutoff(gamma_t)
        gen, vac = kron_pair_coupling(gamma, n), vacuum_state(n)
        full = expm_multiply(-1j * t * gen.tocsc(), full_vector(vac))
        grid = full.reshape(n + 1, n + 1)
        assert np.count_nonzero(grid - np.diag(np.diag(grid))) == 0
        out = brute_force_evolve(paired_block(gen), t, vac)
        assert np.abs(np.array(out.coeffs, dtype=complex) - np.diag(grid)).max() <= 1e-12

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_block_with_diagonal_matches_full_space(self, t):
        # N_A + N_At is diagonal and conserves m_A - m_At, so it keeps the
        # paired states invariant and gives the paired block the nonzero
        # diagonal 2m that no pure pair coupling has; with the mode
        # frequency 1 above the coupling 0.5 the occupation stays bounded
        gamma, n = 0.5, 40
        na, nat = number_operators(n)
        gen, vac = (kron_pair_coupling(gamma, n) + na + nat).tocsr(), vacuum_state(n)
        assert gen.diagonal()[np.arange(n + 1) * (n + 2)].real.max() > 0
        full = expm_multiply(-1j * t * gen.tocsc(), full_vector(vac))
        grid = full.reshape(n + 1, n + 1)
        out = brute_force_evolve(paired_block(gen), t, vac)
        assert np.abs(np.array(out.coeffs, dtype=complex) - np.diag(grid)).max() <= 1e-12

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(hs.data())
    def test_tridiagonal_block_matches_full_space(self, data):
        # a random paired block on the joint basis: real diagonal, complex
        # off-diagonals of any phase, some exactly 0 (stored as explicit
        # zeros), and b_{n-2} = 0 so that the top two levels stay empty;
        # an optional N_A - N_At part acts only on unpaired states
        n = data.draw(hs.integers(4, 60), label="cutoff")
        diag = data.draw(hs.lists(hs.floats(-2.0, 2.0), min_size=n + 1, max_size=n + 1))
        mags = data.draw(hs.lists(hs.just(0.0) | hs.floats(0.0, 2.0), min_size=n, max_size=n))
        angles = data.draw(hs.lists(hs.floats(-math.pi, math.pi), min_size=n, max_size=n))
        start = data.draw(hs.lists(hs.complex_numbers(max_magnitude=1.0), min_size=1,
                                   max_size=n - 1).filter(lambda c: sum(map(abs, c)) > 0.1))
        # expm_multiply divides by zero for a subnormal t; the oracle's own
        # subnormal cases are pinned in the test below
        t = data.draw(hs.floats(-3.0, 3.0, allow_subnormal=False), label="t")
        b = np.array(mags) * np.exp(1j * np.array(angles))
        b[n - 2] = 0.0
        idx = np.arange(n + 1) * (n + 2)
        dim = (n + 1) ** 2
        gen = sparse.csr_matrix(
            (np.concatenate((diag, b, b.conj())),
             (np.concatenate((idx, idx[1:], idx[:-1])), np.concatenate((idx, idx[:-1], idx[1:])))),
            shape=(dim, dim),
        )
        if data.draw(hs.booleans(), label="unpaired part"):
            na, nat = number_operators(n)
            gen = (gen + 0.3 * (na - nat)).tocsr()
        coeffs = np.array(start, dtype=complex)
        init = TwoModeState(tuple(coeffs / np.linalg.norm(coeffs)))
        full = expm_multiply(-1j * t * gen.tocsc(), full_vector(init, n))
        grid = full.reshape(n + 1, n + 1)
        out = brute_force_evolve(paired_block(gen), t, init)
        assert np.abs(np.array(out.coeffs, dtype=complex) - np.diag(grid)).max() <= 1e-12
        assert np.abs(grid - np.diag(np.diag(grid))).max() == 0.0

    @pytest.mark.parametrize("t,coupling", [(2.2250738585e-313, 1.0), (1.0, 1e-310)],
                             ids=["subnormal t", "subnormal coupling"])
    def test_subnormal_coupling_keeps_its_phase(self, t, coupling):
        # t * b_1 is subnormal, with about 11 significant digits; the phase
        # is taken from b_1 itself, so exp(-i t B) v stays v to round-off
        n = 13
        idx = np.arange(n + 1) * (n + 2)
        b = coupling * np.exp(1j)
        gen = sparse.csr_matrix(([b, np.conj(b)], ([idx[2], idx[1]], [idx[1], idx[2]])),
                                shape=((n + 1) ** 2,) * 2)
        init = TwoModeState((0.0, 0.6, 0.8j))
        out = np.array(brute_force_evolve(paired_block(gen), t, init).coeffs, dtype=complex)
        assert np.abs(out[:3] - np.array(init.coeffs)).max() <= 1e-15

    def test_wider_than_tridiagonal_block_rejected(self):
        # the square of the pair coupling keeps pairing and is self-adjoint,
        # but couples |m, m> to |m+-2, m+-2> as well
        gen = (kron_pair_coupling(0.5, 8) @ kron_pair_coupling(0.5, 8)).tocsr()
        with pytest.raises(ValueError, match="band 2"):
            paired_block(gen)

    def test_duplicate_entries_are_summed(self):
        # the generator is the matrix its entries sum to: a paired entry
        # split in two halves evolves as the whole, a stray pair that
        # cancels is no stray, and one that does not counts once
        gen = kron_pair_coupling(0.5, 8).tocoo()
        want = brute_force_evolve(paired_block(gen), 0.3, vacuum_state(8)).coeffs

        def evolved(data, row, col):
            block = paired_block(sparse.coo_matrix((data, (row, col)), shape=gen.shape))
            return brute_force_evolve(block, 0.3, vacuum_state(8)).coeffs

        assert evolved(np.tile(gen.data / 2, 2), np.tile(gen.row, 2), np.tile(gen.col, 2)) == want
        for values, refused in (((0.25, -0.25), False), ((0.25, 0.25), True)):
            # two entries from |0, 0> to |0, 1>: joint column 0, row 1
            entries = (np.append(gen.data, values), np.append(gen.row, [1, 1]),
                       np.append(gen.col, [0, 0]))
            if refused:
                with pytest.raises(ValueError, match=r"\(1 generator entries"):
                    evolved(*entries)
            else:
                assert evolved(*entries) == want

    def test_real_flow_has_round_off_imaginary_parts(self):
        # exp(-i t pair_coupling) is a real matrix; the eigendecomposition
        # leaves imaginary parts at round-off, which the oracle keeps
        n = default_cutoff(1.8)
        out = brute_force_evolve(pair_coupling(0.5, n), 3.6, vacuum_state(n))
        assert max(abs(complex(c).imag) for c in out.coeffs) <= 1e-14

    def test_guard_fires_where_full_space_union_does(self):
        # the top-two-level mass on the block equals the union over either
        # mode's top two rows and columns of the full joint grid; the grid
        # straddles the 1e-8 threshold finely enough that some t has the
        # top level alone below it and the top two together above it
        n, gamma = 30, 0.5
        gen, vac = kron_pair_coupling(gamma, n), vacuum_state(n)
        block = paired_block(gen)
        fired = []
        for t in np.linspace(1.8, 1.95, 31):
            grid = expm_multiply(-1j * t * gen.tocsc(), full_vector(vac))
            mass = np.abs(grid.reshape(n + 1, n + 1)) ** 2
            top = (
                mass[n - 1 :, :].sum()
                + mass[:, n - 1 :].sum()
                - mass[n - 1 :, n - 1 :].sum()
            )
            try:
                brute_force_evolve(block, float(t), vac)
                raised = False
            except CutoffTooSmall:
                raised = True
            assert raised == (top > 1e-8)
            fired.append(raised)
        assert any(fired) and not all(fired)

    def test_cutoff_guard(self):
        # gamma t = 1.5 leaks 2.8e-5 into the top levels at cutoff 48
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=48)
        with pytest.raises(CutoffTooSmall):
            brute_force_evolve(paired_block(hi2), 3.0, vacuum_state(48))

    def test_unpaired_flow_rejected(self):
        # HI1 and K2 couple each mode to itself, driving |0> off the paired
        # axis; the generator is rejected on structure, with no time given
        _, hi1, _ = build_hamiltonians(P, MODE, 0.0, cutoff=16)
        for gen in (hi1, k2_generator(16)):
            with pytest.raises(ValueError, match="left the paired subspace"):
                paired_block(gen)

    @pytest.mark.parametrize("generator,message", [
        (lambda: np.eye(5), r"shape \(5, 5\) is not"),
        (lambda: np.zeros(81), r"shape \(81,\) is not"),
        # paired block i * (a self-adjoint block): not self-adjoint
        (lambda: 1j * kron_pair_coupling(0.5, 8), "paired block is not self-adjoint"),
    ], ids=["5x5", "1-D", "i*pair_coupling"])
    def test_malformed_generator_rejected(self, generator, message):
        with pytest.raises(ValueError, match=message):
            paired_block(generator())

    def test_init_must_fit(self):
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=8)
        with pytest.raises(ValueError):
            brute_force_evolve(paired_block(hi2), 0.1, vacuum_state(12))

    def test_paired_block_is_frozen_and_checked(self):
        # the block is stored as read-only copies, zero parts unsigned; a
        # block of the wrong lengths, past the cutoff range or not finite is
        # refused, and brute_force_evolve takes nothing else
        sub = np.array([-0.0 - 0.0j, 2.0 - 0.0j])
        block = PairedBlock([-0.0, 1.0, 2.0], sub)
        sub[1] = 5.0
        assert block.sub.tolist() == [0j, 2 + 0j]
        assert [math.copysign(1.0, x) for x in (*block.diag[:1], *block.sub.real,
                                                 *block.sub.imag)] == [1.0] * 5
        with pytest.raises(ValueError, match="read-only"):
            block.diag[0] = 1.0
        with pytest.raises(ValueError, match=r"got shapes \(3,\) and \(3,\)"):
            PairedBlock(np.zeros(3), np.zeros(3))
        for diag, sub, message in ((np.zeros(1), np.zeros(0), "cutoff"),
                                   (np.zeros(1026), np.zeros(1025), "cutoff"),
                                   ([0.0, math.nan], [1.0], "diagonal must be finite"),
                                   ([0.0, 1j], [1.0], "diagonal must be an array of real"),
                                   ([0.0, 0.0], [math.inf], "sub-diagonal must be finite")):
            with pytest.raises(DomainError, match=message):
                PairedBlock(diag, sub)
        with pytest.raises(TypeError, match="takes a PairedBlock"):
            brute_force_evolve(kron_pair_coupling(0.5, 8), 0.1, vacuum_state(8))
