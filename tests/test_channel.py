import numpy as np
import pytest

from iafb.channel import (
    ChannelRealization,
    generate_channel,
    load_channel,
    receiver_feedback,
    reconstruct,
    save_channel,
    to_tone_domain,
    vectorize_direction,
)
from iafb.grassmann import composite_dist_sq
from iafb.quantizer import FeedbackBudget, build_random_codebook, decode, encode


class TestGeneration:
    def test_deterministic(self):
        a = generate_channel(3, 2, 4, seed=1)
        b = generate_channel(3, 2, 4, seed=1)
        assert np.array_equal(a.taps, b.taps)

    def test_shapes(self):
        ch = generate_channel(2, 1, 1, seed=2)
        assert ch.taps.shape == (2, 2, 1, 1)

    def test_unit_tap_variance(self):
        ch = generate_channel(6, 30, 100, seed=3)  # ~1e5 taps
        assert np.mean(np.abs(ch.taps) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_truncated_distribution_bounded(self):
        ch = generate_channel(4, 4, 8, dist="truncated-cn", seed=4)
        assert np.max(np.abs(ch.taps)) <= 4.0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_channel(1, 1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_channel(2, 1, 2, dist="bogus", seed=0)


class TestToneDomain:
    def test_single_tap_constant_tones(self):
        ch = generate_channel(2, 2, 1, seed=5)
        tone = to_tone_domain(ch, 8)
        for i in range(2):
            for k in range(2):
                assert np.allclose(tone.tone_matrix(i, k), ch.taps[i, k, 0][None, :])

    def test_impulse_gives_flat_spectrum(self):
        taps = np.zeros((2, 2, 3, 1), dtype=complex)
        taps[:, :, 0, 0] = 1.0
        ch = ChannelRealization(K=2, R=1, L=3, taps=taps)
        tone = to_tone_domain(ch, 6)
        assert np.allclose(tone.tones[:, :, :, 0], 1.0)

    def test_parseval_unnormalized(self):
        ch = generate_channel(3, 2, 3, seed=6)
        tone = to_tone_domain(ch, 9)
        for i in range(3):
            for k in range(3):
                lhs = np.linalg.norm(tone.tone_matrix(i, k)) ** 2
                rhs = 9 * np.linalg.norm(ch.taps[i, k]) ** 2
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    def test_too_few_tones(self):
        ch = generate_channel(2, 1, 4, seed=7)
        with pytest.raises(ValueError):
            to_tone_domain(ch, 3)

    def test_stacked_norm_equals_tap_norm(self):
        # the unitary-scaled stacked tone channel preserves the tap norm
        ch = generate_channel(3, 2, 2, seed=8)
        tone = to_tone_domain(ch, 12)
        for i in range(3):
            for k in range(3):
                lhs = np.linalg.norm(tone.hbar(i, k)) ** 2
                rhs = np.linalg.norm(ch.taps[i, k].reshape(-1)) ** 2
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


class TestVectorization:
    def test_single_entry(self):
        taps = np.zeros((2, 2, 3, 2), dtype=complex)
        taps[:, :, 0, 0] = 1.0  # keep all links nonzero
        taps[0, 1] = 0.0
        taps[0, 1, 2, 1] = 1.0  # row l=2, column m=1
        ch = ChannelRealization(K=2, R=2, L=3, taps=taps)
        vec = vectorize_direction(ch, 0, 1).coords
        expected = np.zeros(6, dtype=complex)
        expected[1 * 3 + 2] = 1.0  # column-major: position m*L + l
        assert np.array_equal(vec, expected)

    def test_unit_norm(self):
        ch = generate_channel(3, 2, 4, seed=11)
        for i in range(3):
            for k in range(3):
                assert abs(np.linalg.norm(vectorize_direction(ch, i, k).coords) - 1) < 1e-12

    def test_column_major_order(self):
        ch = generate_channel(2, 2, 3, seed=12)
        vec = vectorize_direction(ch, 1, 0).coords
        T = ch.taps[1, 0]
        scale = np.linalg.norm(T)
        for m in range(2):
            for l in range(3):
                assert vec[m * 3 + l] == T[l, m] / scale

    def test_zero_channel_rejected(self):
        taps = np.ones((2, 2, 2, 1), dtype=complex)
        taps[1, 0] = 0.0
        ch = ChannelRealization(K=2, R=1, L=2, taps=taps)
        with pytest.raises(ValueError):
            vectorize_direction(ch, 1, 0)


class TestFeedback:
    def test_perfect_mode_returns_exact_directions(self):
        ch = generate_channel(3, 1, 2, seed=13)
        msg = receiver_feedback(ch, 0)
        for k in range(3):
            assert np.array_equal(msg.point.parts[k].coords, vectorize_direction(ch, 0, k).coords)

    def test_components_in_user_order(self):
        ch = generate_channel(3, 2, 2, seed=14)
        msg = receiver_feedback(ch, 1)
        assert msg.point.K == 3 and msg.user == 1
        assert np.array_equal(msg.point.parts[2].coords, vectorize_direction(ch, 1, 2).coords)

    def test_codebook_mode_picks_nearest(self):
        ch = generate_channel(2, 1, 2, seed=15)
        cb = build_random_codebook(2, 2, 6, seed=16)
        msg = receiver_feedback(ch, 0, cb)
        exact = receiver_feedback(ch, 0).point
        fed = msg.point
        chosen = composite_dist_sq(exact, fed)
        for idx in range(len(cb)):
            assert chosen <= composite_dist_sq(exact, decode(idx, cb)) + 1e-12
        assert msg.index == encode(exact, cb)

    def test_oracle_mode_distance(self):
        ch = generate_channel(3, 1, 2, seed=17)
        budget = FeedbackBudget(K=3, R=1, L=2, P=2.0**6)
        msg = receiver_feedback(ch, 0, budget, rng=18)
        exact = receiver_feedback(ch, 0).point
        assert composite_dist_sq(exact, msg.point) == pytest.approx(
            budget.delta_star**2, abs=1e-12
        )

    def test_bad_user_index(self):
        ch = generate_channel(2, 1, 2, seed=19)
        with pytest.raises(ValueError):
            receiver_feedback(ch, 5)


class TestReconstruction:
    def make_rec(self, seed, K=3, R=2, L=2, N=8, quantizer=None, rng=None):
        ch = generate_channel(K, R, L, seed=seed)
        msgs = [receiver_feedback(ch, i, quantizer, rng=rng) for i in range(K)]
        return ch, to_tone_domain(ch, N), reconstruct(msgs, N)

    def test_perfect_feedback_reproduces_normalized_channel(self):
        ch, tone, rec = self.make_rec(seed=20)
        for i in range(3):
            for k in range(3):
                hbar = tone.hbar(i, k)
                assert np.allclose(rec.wtilde_vec(i, k), hbar / np.linalg.norm(hbar), atol=1e-12)

    def test_unit_norm_reconstruction(self):
        budget = FeedbackBudget(K=3, R=2, L=2, P=16.0)
        _, _, rec = self.make_rec(seed=21, quantizer=budget, rng=np.random.default_rng(2))
        for i in range(3):
            for k in range(3):
                assert abs(np.linalg.norm(rec.wtilde_vec(i, k)) - 1.0) <= 1e-12

    def test_inner_product_preservation(self):
        # <true direction, reconstruction> equals <tap direction, quantized direction>
        budget = FeedbackBudget(K=3, R=2, L=2, P=16.0)
        ch = generate_channel(3, 2, 2, seed=22)
        msgs = [receiver_feedback(ch, i, budget, rng=np.random.default_rng(23 + i)) for i in range(3)]
        tone = to_tone_domain(ch, 8)
        rec = reconstruct(msgs, 8)
        for i in range(3):
            for k in range(3):
                hbar = tone.hbar(i, k)
                lhs = np.vdot(hbar / np.linalg.norm(hbar), rec.wtilde_vec(i, k))
                rhs = np.vdot(vectorize_direction(ch, i, k).coords, msgs[i].point.parts[k].coords)
                assert abs(lhs - rhs) <= 1e-10

    def test_phase_shift_leaves_pipeline_invariant(self):
        # rotating one fed-back component by a global phase must not move
        # any magnitude the downstream pipeline consumes
        from iafb.channel import FeedbackMessage
        from iafb.grassmann import CompositeGrassmannPoint, GrassmannPoint

        ch = generate_channel(2, 1, 3, seed=24)
        msgs = [receiver_feedback(ch, i) for i in range(2)]
        rotated_parts = list(msgs[0].point.parts)
        rotated_parts[1] = GrassmannPoint(np.exp(1j * 0.77) * rotated_parts[1].coords)
        rotated = FeedbackMessage(
            user=0, point=CompositeGrassmannPoint(tuple(rotated_parts)), R=1, L=3
        )
        tone = to_tone_domain(ch, 6)
        base = reconstruct(msgs, 6)
        alt = reconstruct([rotated, msgs[1]], 6)
        hbar = tone.hbar(0, 1)
        assert abs(np.vdot(hbar, base.wtilde_vec(0, 1))) == pytest.approx(
            abs(np.vdot(hbar, alt.wtilde_vec(0, 1))), abs=1e-12
        )

    def test_missing_message_rejected(self):
        ch = generate_channel(3, 1, 2, seed=25)
        msgs = [receiver_feedback(ch, i) for i in (0, 1)]
        with pytest.raises(ValueError, match="missing"):
            reconstruct(msgs, 4)

    def test_qhat_reshape_round_trip(self):
        ch, _, rec = self.make_rec(seed=26)
        for i in range(3):
            for k in range(3):
                expect = ch.taps[i, k] / np.linalg.norm(ch.taps[i, k])
                assert np.allclose(rec.qhat_matrix(i, k), expect, atol=1e-12)


class TestArchive:
    def test_round_trip(self, tmp_path):
        ch = generate_channel(3, 2, 4, seed=27)
        path = tmp_path / "chan.txt"
        save_channel(ch, path)
        loaded = load_channel(path)
        assert (loaded.K, loaded.R, loaded.L) == (3, 2, 4)
        assert loaded.noise_power == ch.noise_power
        assert np.array_equal(loaded.taps, ch.taps)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("# something else\n")
        with pytest.raises(ValueError):
            load_channel(path)
