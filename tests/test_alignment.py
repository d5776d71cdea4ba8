import numpy as np
import pytest

from iafb.alignment import (
    AlignmentError,
    IaParameters,
    build_beamformers,
    cj3_parameters,
    ia_parameters,
    mimo_reduce,
    verify_alignment,
)
from iafb.channel import generate_channel, receiver_feedback, reconstruct, to_tone_domain
from iafb.quantizer import FeedbackBudget


def perfect_reconstruction(K, R, L, N, seed):
    ch = generate_channel(K, R, L, seed=seed)
    msgs = [receiver_feedback(ch, i) for i in range(K)]
    return ch, to_tone_domain(ch, N), reconstruct(msgs, N)


class TestIaParameters:
    def test_three_user_single_antenna(self):
        p = ia_parameters(3, 1, 1)
        assert (p.gamma, p.N, p.d) == (3, 16, (8, 8, 1))
        assert p.dof_sum_limit == pytest.approx(1.5)
        assert p.dof_target(0) == pytest.approx(0.5)

    def test_four_user_single_antenna(self):
        # gamma = 4*1*2 = 8, N = 2*2^8, streams R(n+1)^gamma then R n^gamma
        p = ia_parameters(4, 1, 1)
        assert (p.gamma, p.N) == (8, 512)
        assert p.d == (256, 256, 1, 1)

    def test_two_antennas_no_aux_growth(self):
        p = ia_parameters(3, 2, 1)
        assert (p.gamma, p.N, p.d) == (0, 3, (2, 2, 2))
        assert sum(p.d) / p.N == pytest.approx(p.dof_sum_limit)

    def test_zero_forcing_regime_rejected(self):
        with pytest.raises(ValueError, match="zero-forcing"):
            ia_parameters(2, 2, 1)

    def test_dof_increases_toward_limit(self):
        p_prev = 0.0
        for n in (1, 2, 3, 4):
            p = ia_parameters(3, 1, n)
            dof = sum(p.d) / p.N
            assert p_prev < dof <= p.dof_sum_limit
            p_prev = dof

    def test_cj3_parameters(self):
        p = cj3_parameters(3)
        assert (p.N, p.d, p.scheme) == (7, (4, 3, 3), "cj3")
        assert sum(p.d) / p.N == pytest.approx(10.0 / 7.0)

    def test_invalid_allocation_rejected(self):
        with pytest.raises(ValueError):
            IaParameters(K=3, R=1, n=1, N=4, d=(8, 8, 1))


class TestFeasibilityGuard:
    def test_overfull_receiver_rejected(self):
        # hand-built allocation: 8 desired + 8 aligned interference > R*N
        params = IaParameters(K=3, R=1, n=1, N=12, d=(8, 8, 1), scheme="gj-simo")
        _, _, rec = perfect_reconstruction(3, 1, 2, 12, seed=0)
        with pytest.raises(AlignmentError, match="cannot fit"):
            build_beamformers(rec, params, "leakage-min", rng=0)


class TestLeakageMinEngine:
    def test_reaches_tolerance_on_seeded_channels(self):
        params = ia_parameters(3, 1, 1)
        for seed in range(3):
            _, _, rec = perfect_reconstruction(3, 1, 2, params.N, seed=seed)
            bf = build_beamformers(rec, params, "leakage-min", rng=seed + 100)
            assert bf.alignment_residual <= 1e-8
            assert bf.signal_min >= 1e-6
            assert verify_alignment(bf, rec).passed
            assert all(abs(np.linalg.norm(v, axis=0) - 1).max() < 1e-9 for v in bf.v)
            assert all(abs(np.linalg.norm(u, axis=0) - 1).max() < 1e-9 for u in bf.u)

    def test_shared_mode_constrains_directions(self):
        # all K = R+1 users share one direction block at this sizing
        params = ia_parameters(3, 2, 1)
        _, _, rec = perfect_reconstruction(3, 2, 2, params.N, seed=3)
        bf = build_beamformers(rec, params, "leakage-min", rng=7, shared=True)
        assert np.array_equal(bf.v[0], bf.v[1]) and np.array_equal(bf.v[1], bf.v[2])
        assert bf.alignment_residual <= 1e-8
        assert bf.signal_min >= 1e-6

    def test_shared_mode_never_returns_degenerate_sets(self):
        # at the tight (K=3, R=1) sizing with few taps, shared directions may
        # be infeasible; the engine must then fail loudly instead of handing
        # back filters with no usable signal
        params = ia_parameters(3, 1, 1)
        _, _, rec = perfect_reconstruction(3, 1, 2, params.N, seed=3)
        try:
            bf = build_beamformers(rec, params, "leakage-min", rng=7, shared=True, max_iters=2000)
        except AlignmentError as err:
            assert err.history
        else:
            assert bf.alignment_residual <= 1e-8
            assert bf.signal_min >= 1e-6

    def test_works_with_multiple_receive_antennas(self):
        params = ia_parameters(3, 2, 1)
        _, _, rec = perfect_reconstruction(3, 2, 2, params.N, seed=4)
        bf = build_beamformers(rec, params, "leakage-min", rng=5)
        assert bf.alignment_residual <= 1e-8

    def test_failure_carries_history(self):
        params = ia_parameters(3, 1, 1)
        _, _, rec = perfect_reconstruction(3, 1, 2, params.N, seed=6)
        with pytest.raises(AlignmentError) as err:
            build_beamformers(rec, params, "leakage-min", rng=8, max_iters=1, restarts=0)
        assert len(err.value.history) >= 1


class TestCj3Engine:
    def test_residual_near_machine_precision(self):
        params = cj3_parameters(2)
        for seed in range(5):
            _, _, rec = perfect_reconstruction(3, 1, 2, params.N, seed=seed)
            bf = build_beamformers(rec, params, "cj3", tol=1e-9)
            assert bf.alignment_residual <= 1e-9
            assert bf.signal_min >= 1e-6

    def test_rejects_wrong_parametrization(self):
        params = ia_parameters(3, 1, 1)
        _, _, rec = perfect_reconstruction(3, 1, 2, params.N, seed=1)
        with pytest.raises(ValueError, match="cj3"):
            build_beamformers(rec, params, "cj3")

    def test_leakage_min_agrees_on_cj3_sizing(self):
        # both engines verify on their respective parametrizations
        params = cj3_parameters(1)
        _, _, rec = perfect_reconstruction(3, 1, 2, params.N, seed=2)
        bf_cf = build_beamformers(rec, params, "cj3")
        bf_lm = build_beamformers(rec, params, "leakage-min", rng=3)
        assert verify_alignment(bf_cf, rec).passed
        assert verify_alignment(bf_lm, rec).passed


class TestVerifyAlignment:
    def test_passes_on_fresh_build(self):
        params = cj3_parameters(2)
        _, _, rec = perfect_reconstruction(3, 1, 2, params.N, seed=9)
        bf = build_beamformers(rec, params, "cj3")
        report = verify_alignment(bf, rec)
        assert report.passed
        assert report.residual == bf.alignment_residual

    def test_perturbed_filters_fail(self):
        params = cj3_parameters(2)
        _, _, rec = perfect_reconstruction(3, 1, 2, params.N, seed=10)
        bf = build_beamformers(rec, params, "cj3")
        rng = np.random.default_rng(11)
        noisy_u = []
        for u in bf.u:
            pert = u + 1e-2 * (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
            noisy_u.append(pert / np.linalg.norm(pert, axis=0, keepdims=True))
        from dataclasses import replace

        assert not verify_alignment(replace(bf, u=tuple(noisy_u)), rec).passed

    def test_perfect_feedback_equals_normalized_truth(self):
        # reconstruction from perfect feedback is the normalized channel, so
        # verification against either yields identical numbers
        params = cj3_parameters(1)
        ch, tone, rec = perfect_reconstruction(3, 1, 2, params.N, seed=12)
        bf = build_beamformers(rec, params, "cj3")
        from iafb.channel import ReconstructedChannel

        norm_tones = np.empty((3, 3, params.N, 1), dtype=complex)
        for i in range(3):
            for k in range(3):
                h = tone.tone_matrix(i, k) / np.sqrt(params.N)
                norm_tones[i, k] = h / np.linalg.norm(h)
        truth = ReconstructedChannel(
            K=3, R=1, L=2, N=params.N,
            qhat=rec.qhat.copy(), wtones=norm_tones,
        )
        a = verify_alignment(bf, rec)
        b = verify_alignment(bf, truth)
        assert abs(a.residual - b.residual) <= 1e-10
        assert abs(a.signal_min - b.signal_min) <= 1e-10


class TestMimoReduce:
    # independent spreadsheet-style oracle for the reduction arithmetic
    @staticmethod
    def oracle(K, Mt, Mr, L, p_log2):
        lo, hi = min(Mt, Mr), max(Mt, Mr)
        R = hi // lo
        return R, lo * lo * K * (R * L - 1) * p_log2

    # (K, Mt, Mr, L, p_log2) -> (R, virtual users, discarded, per-receiver bits)
    CASES = [
        ((3, 2, 4, 1, 10), (2, 6, 0, 120.0)),
        ((3, 1, 1, 2, 10), (1, 3, 0, 30.0)),
        ((4, 2, 5, 2, 12), (2, 8, 1, 576.0)),
        ((3, 4, 2, 3, 8), (2, 6, 0, 480.0)),
        ((5, 1, 3, 2, 6), (3, 5, 0, 150.0)),
        ((4, 3, 3, 2, 20), (1, 12, 0, 720.0)),
        ((6, 2, 7, 1, 15), (3, 12, 1, 720.0)),
        ((3, 5, 2, 2, 7), (2, 6, 1, 252.0)),
        ((7, 1, 2, 4, 9), (2, 7, 0, 441.0)),
        ((4, 2, 2, 3, 11), (1, 8, 0, 352.0)),
    ]

    @pytest.mark.parametrize("case,expected", CASES)
    def test_against_frozen_table(self, case, expected):
        K, Mt, Mr, L, p_log2 = case
        red = mimo_reduce(K, Mt, Mr, L, 2.0**p_log2)
        r_oracle, bits_oracle = self.oracle(*case)
        assert red.R == expected[0] == r_oracle
        assert red.virtual_users == expected[1]
        assert red.discarded_rx_antennas == expected[2]
        assert red.bits_per_original_receiver == pytest.approx(expected[3])
        assert red.bits_per_original_receiver == pytest.approx(bits_oracle)

    @pytest.mark.parametrize("case,expected", CASES)
    def test_reciprocity_symmetry(self, case, expected):
        K, Mt, Mr, L, p_log2 = case
        fwd = mimo_reduce(K, Mt, Mr, L, 2.0**p_log2)
        rev = mimo_reduce(K, Mr, Mt, L, 2.0**p_log2)
        assert fwd.bits_per_original_receiver == rev.bits_per_original_receiver
        assert fwd.bits_per_virtual_user == rev.bits_per_virtual_user
        assert fwd.R == rev.R

    def test_simo_consistency(self):
        # Mt=1 reduces to the plain SIMO budget K (RL-1) log2 P
        red = mimo_reduce(3, 1, 1, 2, 2.0**10)
        assert red.bits_per_original_receiver == pytest.approx(30.0)

    def test_no_discard_when_ratio_exact(self):
        assert mimo_reduce(3, 2, 4, 3, 16.0).discarded_rx_antennas == 0

    def test_zero_forcing_regime_rejected(self):
        with pytest.raises(ValueError, match="zero-forcing"):
            mimo_reduce(2, 2, 4, 1, 16.0)

    def test_virtual_user_budget(self):
        red = mimo_reduce(3, 2, 4, 1, 2.0**10)
        assert red.bits_per_virtual_user == pytest.approx(6 * 1 * 10.0)


class TestQuantizedAlignment:
    def test_residual_small_against_reconstruction_not_truth(self):
        # alignment is exact w.r.t. the reconstruction; against the true
        # channel the same filters leak at the quantization level
        params = cj3_parameters(1)
        ch = generate_channel(3, 1, 2, seed=16)
        budget = FeedbackBudget(K=3, R=1, L=2, P=2.0**8)
        msgs = [receiver_feedback(ch, i, budget, rng=np.random.default_rng(17 + i)) for i in range(3)]
        rec = reconstruct(msgs, params.N)
        bf = build_beamformers(rec, params, "cj3")
        assert bf.alignment_residual <= 1e-9

        from iafb.channel import ReconstructedChannel

        tone = to_tone_domain(ch, params.N)
        norm_tones = np.empty((3, 3, params.N, 1), dtype=complex)
        for i in range(3):
            for k in range(3):
                h = tone.tone_matrix(i, k) / np.sqrt(params.N)
                norm_tones[i, k] = h / np.linalg.norm(h)
        truth = ReconstructedChannel(K=3, R=1, L=2, N=params.N, qhat=rec.qhat.copy(), wtones=norm_tones)
        report = verify_alignment(bf, truth, residual_tol=1e-9)
        assert not report.passed  # leakage at the quantization scale
        assert report.residual > 1e-5
