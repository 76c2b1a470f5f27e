"""Squeezing, pairing, and Hamiltonian-structure tests.

The closed-form squeezed vacuum and the brute-force matrix exponential are
independent routes to the same state; each cross-checks the other. All
interior-subspace windows below were sized so the truncated identities hold
with an order of magnitude to spare.
"""

import math

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.sparse.linalg import expm_multiply

from _oracles import expm_dense
from memdomain.errors import CutoffTooSmall, ModeDead, NeverRecordable
from memdomain.fock import (
    OperatorLabel,
    OperatorMatrix,
    TwoModeState,
    bogoliubov_theta_coeffs,
    bogoliubov_time_coeffs,
    brute_force_evolve,
    build_hamiltonians,
    coupling_frequencies,
    default_cutoff,
    expected_pair_number,
    expm_apply,
    inner_product,
    k2_generator,
    k2_single_mode,
    ladder,
    mixing_angle,
    number_operators,
    pair_coupling,
    pair_ladders,
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
        assert nA.label is OperatorLabel.NUMBER_A
        dA = nA.matrix.diagonal().real
        dT = nT.matrix.diagonal().real
        for ma in range(5):
            for mb in range(5):
                j = ma * 5 + mb
                assert dA[j] == pytest.approx(ma)
                assert dT[j] == pytest.approx(mb)

    def test_operator_matrix_validation(self):
        bad = sparse.csr_matrix(np.triu(np.ones((25, 25))), dtype=complex)
        with pytest.raises(ValueError):
            OperatorMatrix(OperatorLabel.H0, 4, bad)
        with pytest.raises(ValueError):
            OperatorMatrix(OperatorLabel.H0, 3, sparse.identity(25, format="csr"))
        # H0 must be real: i*identity is self-adjoint-violating anyway, use
        # a real antisymmetric times i which is self-adjoint but imaginary
        m = np.zeros((25, 25))
        m[0, 1], m[1, 0] = 1.0, -1.0
        with pytest.raises(ValueError):
            OperatorMatrix(OperatorLabel.H0, 4, sparse.csr_matrix(1j * m))

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            ladder(0)
        with pytest.raises(ValueError):
            ladder(True)


class TestMixingAngle:
    def test_frozen_example(self):
        # L=1, w0=2, n=1, t=3 ln 2: squared common frequency 0.75
        t = 3 * math.log(2.0)
        assert common_frequency(P, MODE, t) ** 2 == pytest.approx(0.75, rel=1e-12)
        ang = mixing_angle(P, MODE, t)
        assert math.tanh(ang.theta) == pytest.approx(13.0 / 19.0, rel=1e-13)
        assert math.tanh(ang.theta) == pytest.approx(0.6842105, abs=5e-8)
        assert ang.theta == pytest.approx(math.atanh(13.0 / 19.0), rel=1e-13)
        assert ang.theta == pytest.approx(0.8369882, abs=5e-8)
        assert ang.mode == MODE and ang.t == t

    def test_vanishes_when_frequencies_match(self):
        # the angle measures the w0 vs common-frequency mismatch, which is
        # controlled entirely by the damping
        weak = SystemParams(L=1e-9, c=1.0)
        ang = mixing_angle(weak, MODE, 0.0)
        assert abs(ang.theta) < 1e-18

    def test_monotone_and_divergent(self):
        T = recording_window(P, MODE)
        thetas = [mixing_angle(P, MODE, f * T).theta for f in (0.0, 0.3, 0.6, 0.9)]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        assert mixing_angle(P, MODE, T * (1 - 1e-9)).theta > 10.0

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
        assert default_cutoff(3.0) == 256  # clamped

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
        # tanh(2) needs 378 levels; the default clamps to 256
        assert default_cutoff(2.0) == 256
        with pytest.raises(CutoffTooSmall, match="need cutoff >= 378$"):
            squeezed_vacuum(2.0, 1.0)
        assert math.tanh(2.0) ** (2 * 379) <= 1e-12 < math.tanh(2.0) ** (2 * 257)


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
        resid = (cc * A - ss * At.getH()) @ st.full_vector()
        idx = _interior_indices(N, N - 2)
        assert np.linalg.norm(resid[idx]) <= 1e-9

    def test_negative_squeeze(self):
        st = squeezed_vacuum(-0.5, 2.0, cutoff=51)
        assert st.coeffs[1] < 0 < st.coeffs[2]
        assert expected_pair_number(st)[0] == pytest.approx(SINH2_1, abs=1e-10)


class TestStateValidation:
    def test_length_and_norm(self):
        with pytest.raises(ValueError):
            TwoModeState(cutoff=3, coeffs=(1.0, 0.0))
        with pytest.raises(ValueError):
            TwoModeState(cutoff=1, coeffs=(1.0, 1.0))

    def test_gamma_consistency(self):
        # a wildly large gamma_t claim turns into a truncation complaint
        st = squeezed_vacuum(0.5, 1.0, cutoff=30)
        with pytest.raises(CutoffTooSmall):
            TwoModeState(cutoff=30, coeffs=st.coeffs, gamma_t=1.9)
        # valid tail but mass missing: tanh(0.1)^12 = 9.6e-13 passes the
        # tail rule, the norm check still rejects
        with pytest.raises(ValueError):
            TwoModeState(cutoff=5, coeffs=(0.7, 0.1, 0.0, 0.0, 0.0, 0.0), gamma_t=0.1)

    def test_embedding(self):
        st = squeezed_vacuum(0.5, 1.0, cutoff=20)
        vec = st.full_vector(25)
        assert vec.shape == (26 * 26,)
        assert vec[0] == st.coeffs[0]
        assert vec[3 * 26 + 3] == st.coeffs[3]
        with pytest.raises(ValueError):
            st.full_vector(10)

    def test_pairing_charge_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = rng.normal(size=9)
            raw /= np.linalg.norm(raw)
            st = TwoModeState(cutoff=8, coeffs=tuple(float(x) for x in raw))
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
        assert h0.label is OperatorLabel.H0
        d = h0.matrix.diagonal().real
        for ma in range(6):
            for mb in range(6):
                assert d[ma * 6 + mb] == pytest.approx(0.5 * 3.875 * (ma - mb))

    def test_commutators_interior(self):
        N = 10
        h0, hi1, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=N)
        idx = _interior_indices(N, N - 2)
        scale_0 = abs(h0.matrix).max() * abs(hi2.matrix).max()
        scale_1 = abs(hi1.matrix).max() * abs(hi2.matrix).max()
        c0 = (h0.matrix @ hi2.matrix - hi2.matrix @ h0.matrix).toarray()
        c1 = (hi1.matrix @ hi2.matrix - hi2.matrix @ hi1.matrix).toarray()
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
        comm = (h0p @ hi2.matrix - hi2.matrix @ h0p).toarray()
        scale = abs(h0p).max() * abs(hi2.matrix).max()
        assert np.abs(comm[np.ix_(idx, idx)]).max() <= 1e-10 * scale

    def test_rotated_vacuum_has_zero_energy(self):
        # exp(-i theta K2)|0> is annihilated by H0 + HI1 at the angle that
        # removes the off-diagonal coupling
        N = 24
        ang = mixing_angle(P, MODE, 0.0)
        h0, hi1, _ = build_hamiltonians(P, MODE, 0.0, cutoff=N)
        k2 = k2_generator(N)
        vac = np.zeros((N + 1) ** 2, dtype=complex)
        vac[0] = 1.0
        state = expm_apply(-1j * ang.theta * k2.matrix, vac)
        residual = (h0.matrix + hi1.matrix) @ state
        assert np.linalg.norm(residual) <= 1e-8
        assert abs(np.vdot(state, residual)) <= 1e-8

    def test_flow_generator_expectation_conserved(self):
        N = 51
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=N)
        vals = []
        for t in (0.0, 0.6, 1.4, 2.0):
            vec = squeezed_vacuum(0.5, t, cutoff=N).full_vector()
            vals.append(complex(np.vdot(vec, hi2.matrix @ vec)))
        for v in vals:
            assert abs(v - vals[0]) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            build_hamiltonians(P, MODE, 0.0, cutoff=3)
        T = recording_window(P, MODE)
        with pytest.raises(ModeDead):
            build_hamiltonians(P, MODE, T + 0.1, cutoff=8)
        # the cutoff is checked before the window
        with pytest.raises(ValueError, match="cutoff"):
            build_hamiltonians(P, MODE, -1.0, cutoff=3)


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
        assert k2.label is OperatorLabel.K2
        assert np.abs(k2.matrix.diagonal()).max() == 0.0
        dense = k2.dense()
        assert np.abs(dense.real).max() == 0.0
        # annihilates no basis state
        norms = np.linalg.norm(dense, axis=0)
        assert norms.min() > 0.1

    def test_kron_factorization(self):
        N = 8
        k1 = k2_single_mode(N).toarray()
        eye = np.eye(N + 1)
        expected = np.kron(k1, eye) + np.kron(eye, k1)
        assert np.abs(k2_generator(N).dense() - expected).max() == 0.0
        # the rotation therefore factorizes mode by mode
        th = 0.7
        S_full = expm_dense(-1j * th * k2_generator(N).dense())
        S_one = expm_dense(-1j * th * k1)
        assert np.abs(S_full - np.kron(S_one, S_one)).max() <= 1e-12

    def test_conjugation_reference(self):
        # quoted reference point: theta=1 at cutoff 40; the mixing identity
        # holds on occupations <= 4 (error grows towards the boundary)
        N, th = 40, 1.0
        a = ladder(N).toarray()
        k1 = k2_single_mode(N).toarray()
        S = expm_dense(-1j * th * k1)
        got = S @ a @ expm_dense(1j * th * k1)
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
            S = expm_dense(-1j * th * k1)
            got = S @ a @ expm_dense(1j * th * k1)
            c, s = bogoliubov_theta_coeffs(th)
            want = c * a + s * a.conj().T
            err = np.abs((got - want)[:9, :9]).max()
            assert err <= 1e-8

    def test_identity_at_zero(self):
        S = expm_dense(-1j * 0.0 * k2_single_mode(6).toarray())
        assert np.abs(S - np.eye(7)).max() == 0.0


class TestExpm:
    def test_nilpotent(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm_dense(m), [[1, 1], [0, 1]], atol=1e-15)

    def test_rotation(self):
        th = 1.2
        m = np.array([[0.0, -th], [th, 0.0]])
        want = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        assert np.allclose(expm_dense(m), want, atol=1e-14)

    def test_dense_oracle_matches_scipy(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        want = linalg.expm(m)
        assert np.abs(expm_dense(m) - want).max() <= 1e-10 * np.abs(want).max()

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        v = rng.normal(size=30) + 1j * rng.normal(size=30)
        direct = expm_dense(m) @ v
        via_apply = expm_apply(sparse.csr_matrix(m), v)
        assert np.abs(direct - via_apply).max() <= 1e-10 * np.abs(direct).max()


class TestBruteForce:
    def test_time_zero(self):
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=20)
        init = squeezed_vacuum(0.5, 1.0, cutoff=20)
        out = brute_force_evolve(hi2, 0.0, init)
        assert out.cutoff == 20
        for a, b in zip(out.coeffs, init.coeffs):
            assert complex(a) == pytest.approx(complex(b), abs=1e-15)

    @staticmethod
    def _worst_formula_dev(cutoff, t, gamma_t):
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=cutoff)
        out = brute_force_evolve(hi2, t, vacuum_state(cutoff))
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
        standalone = pair_coupling(P.L / 2, 12)
        assert abs(hi2.matrix - standalone.matrix).max() == 0.0
        with pytest.raises(ValueError):
            pair_coupling(math.inf, 12)
        with pytest.raises(ValueError):
            pair_coupling(0.5, 3)

    def test_matches_closed_form_state(self):
        for gamma_t, cutoff in ((0.25, 48), (1.0, 80)):
            t = gamma_t / 0.5
            _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=cutoff)
            oracle = brute_force_evolve(hi2, t, vacuum_state(cutoff))
            closed = squeezed_vacuum(0.5, t, cutoff=cutoff)
            worst = max(
                abs(complex(a) - complex(b))
                for a, b in zip(oracle.coeffs, closed.coeffs)
            )
            assert worst <= 1e-8

    def test_pair_coupling_equals_ladder_products(self):
        # the kron construction is entry-for-entry the A+ At+ - A At product
        A, At = pair_ladders(12)
        want = (1j * 0.7 * (A.getH() @ At.getH() - A @ At)).tocsr()
        got = pair_coupling(0.7, 12).matrix
        want.sort_indices()
        got.sort_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("gamma_t", [0.3, 1.0, 1.5])
    def test_block_bitwise_equals_full_space(self, gamma_t):
        # the paired-sector restriction reproduces the full (cutoff+1)^2
        # evolution bit for bit, and the full evolution conserves pairing
        # exactly: every off-pair amplitude is 0
        gamma, t = 0.5, gamma_t / 0.5
        n = default_cutoff(gamma_t)
        gen, vac = pair_coupling(gamma, n), vacuum_state(n)
        full = expm_apply(-1j * t * gen.matrix, vac.full_vector())
        grid = full.reshape(n + 1, n + 1)
        assert np.count_nonzero(grid - np.diag(np.diag(grid))) == 0
        out = brute_force_evolve(gen, t, vac)
        assert np.array_equal(np.array(out.coeffs, dtype=complex), np.diag(grid))
        # and agrees with scipy's action-of-exponential on the full space
        ref = expm_multiply(-1j * t * gen.matrix.tocsc(), vac.full_vector())
        assert np.abs(full - ref).max() <= 1e-12

    def test_guard_fires_where_full_space_union_does(self):
        # the top-two-level mass on the block equals the union over either
        # mode's top two rows and columns of the full joint grid; the grid
        # straddles the 1e-8 threshold finely enough that some t has the
        # top level alone below it and the top two together above it
        n, gamma = 30, 0.5
        gen, vac = pair_coupling(gamma, n), vacuum_state(n)
        fired = []
        for t in np.linspace(1.8, 1.95, 31):
            grid = expm_apply(-1j * t * gen.matrix, vac.full_vector())
            mass = np.abs(grid.reshape(n + 1, n + 1)) ** 2
            top = (
                mass[n - 1 :, :].sum()
                + mass[:, n - 1 :].sum()
                - mass[n - 1 :, n - 1 :].sum()
            )
            try:
                brute_force_evolve(gen, float(t), vac)
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
            brute_force_evolve(hi2, 3.0, vacuum_state(48))

    def test_unpaired_flow_rejected(self):
        # HI1 and K2 couple each mode to itself, driving |0> off the paired
        # axis; the generator is rejected on structure, even at t = 0
        _, hi1, _ = build_hamiltonians(P, MODE, 0.0, cutoff=16)
        for gen in (hi1, k2_generator(16)):
            for t in (0.0, 0.5):
                with pytest.raises(ValueError, match="left the paired subspace"):
                    brute_force_evolve(gen, t, vacuum_state(16))

    def test_init_must_fit(self):
        _, _, hi2 = build_hamiltonians(P, MODE, 0.0, cutoff=8)
        with pytest.raises(ValueError):
            brute_force_evolve(hi2, 0.1, vacuum_state(12))
