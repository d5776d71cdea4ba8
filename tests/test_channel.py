import tracemalloc

import numpy as np
import pytest

import dense_reference as dense
from dense_reference import composite_dist_sq, seeded_channel
from iafb.channel import (
    generate_channel,
    load_channel,
    receiver_feedback,
    reconstruct,
    save_channel,
    to_tone_domain,
)
from iafb.quantizer import build_random_codebook, distortion_oracle_quantize, encode, feedback_bits, oracle_radius
from iafb.rng import complex_normal


class TestGeneration:
    def test_deterministic(self):
        a = seeded_channel(3, 2, 4, 1)
        b = seeded_channel(3, 2, 4, 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("K, R, L", [(3, 1, 2), (3, 2, 2), (2, 3, 1)])
    def test_taps_are_the_complex_normal_draw(self, K, R, L):
        # the taps are complex_normal's draw scaled to unit variance, byte for byte
        normals = complex_normal(np.random.default_rng(4), (K, K, L, R))
        taps = generate_channel(K, R, L, normals)
        assert np.array_equal(taps, normals / np.sqrt(2.0))
        assert not np.shares_memory(taps, normals)

    def test_stacked_normals_give_a_batch(self):
        normals = complex_normal(np.random.default_rng(5), (4, 3, 3, 2, 1))
        batch = generate_channel(3, 1, 2, normals)
        assert batch.shape == (4, 3, 3, 2, 1)
        for b in range(4):
            assert np.array_equal(batch[b], generate_channel(3, 1, 2, normals[b]))

    # the wrong tap count, the wrong antenna count, a stack of stacks
    @pytest.mark.parametrize("shape", [(3, 3, 3, 1), (3, 3, 2, 2), (1, 1, 3, 3, 2, 1)])
    def test_normals_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            generate_channel(3, 1, 2, np.ones(shape, dtype=complex))

    def test_real_normals_rejected(self):
        # real normals, here in the (2, K, K, L, R) real/imaginary parts
        # layout, whose shape reads as a batch of two channels
        with pytest.raises(ValueError, match="complex"):
            generate_channel(3, 1, 2, np.random.default_rng(6).standard_normal((2, 3, 3, 2, 1)))

    def test_shapes(self):
        taps = seeded_channel(2, 1, 1, 2)
        assert taps.shape == (2, 2, 1, 1)

    def test_unit_tap_variance(self):
        taps = seeded_channel(6, 30, 100, 3)  # ~1e5 taps
        assert np.mean(np.abs(taps) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            seeded_channel(1, 1, 1, 0)
        with pytest.raises(ValueError):
            seeded_channel(2, 0, 2, 0)


class TestToneDomain:
    def test_single_tap_constant_tones(self):
        taps = seeded_channel(2, 2, 1, 5)
        tones = to_tone_domain(taps, 8)
        for i in range(2):
            for k in range(2):
                assert np.allclose(tones[i, k], taps[i, k, 0][None, :])

    def test_impulse_gives_flat_spectrum(self):
        taps = np.zeros((2, 2, 3, 1), dtype=complex)
        taps[:, :, 0, 0] = 1.0
        tones = to_tone_domain(taps, 6)
        assert np.allclose(tones[:, :, :, 0], 1.0)

    def test_parseval_unnormalized(self):
        taps = seeded_channel(3, 2, 3, 6)
        tones = to_tone_domain(taps, 9)
        for i in range(3):
            for k in range(3):
                lhs = np.linalg.norm(tones[i, k]) ** 2
                rhs = 9 * np.linalg.norm(taps[i, k]) ** 2
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    def test_too_few_tones(self):
        taps = seeded_channel(2, 1, 4, 7)
        with pytest.raises(ValueError):
            to_tone_domain(taps, 3)

    def test_stacked_norm_equals_tap_norm(self):
        # the unitary-scaled stacked tone channel preserves the tap norm
        taps = seeded_channel(3, 2, 2, 8)
        tones = to_tone_domain(taps, 12)
        for i in range(3):
            for k in range(3):
                lhs = np.linalg.norm(dense.hbar(tones, i, k)) ** 2
                rhs = np.linalg.norm(taps[i, k].reshape(-1)) ** 2
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


class TestVectorization:
    def test_single_entry(self):
        taps = np.zeros((2, 2, 3, 2), dtype=complex)
        taps[:, :, 0, 0] = 1.0  # keep all links nonzero
        taps[0, 1] = 0.0
        taps[0, 1, 2, 1] = 1.0  # row l=2, column m=1
        vec = receiver_feedback(taps)[0, 1]
        expected = np.zeros(6, dtype=complex)
        expected[1 * 3 + 2] = 1.0  # column-major: position m*L + l
        assert np.array_equal(vec, expected)

    def test_unit_norm(self):
        taps = seeded_channel(3, 2, 4, 11)
        for i in range(3):
            for k in range(3):
                assert abs(np.linalg.norm(receiver_feedback(taps)[i, k]) - 1) < 1e-12

    def test_column_major_order(self):
        taps = seeded_channel(2, 2, 3, 12)
        vec = receiver_feedback(taps)[1, 0]
        T = taps[1, 0]
        scale = np.linalg.norm(T)
        for m in range(2):
            for l in range(3):
                assert vec[m * 3 + l] == T[l, m] / scale

    def test_zero_channel_rejected(self):
        taps = np.ones((2, 2, 2, 1), dtype=complex)
        taps[1, 0] = 0.0
        with pytest.raises(ValueError, match=r"channel \(1, 0\) is identically zero"):
            receiver_feedback(taps)

    def test_scalar_tap_rejected(self):
        # R*L = 1: a direction in C^1 is a single point, nothing to feed back
        taps = seeded_channel(2, 1, 1, 10)
        with pytest.raises(ValueError, match=r"R\*L >= 2"):
            receiver_feedback(taps)


class TestBatchedDirections:
    """One `receiver_feedback` pass equals ``v / np.linalg.norm(v)`` per link, byte for byte."""

    @pytest.mark.parametrize("R, L", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1), (2, 3), (3, 2), (1, 6)])
    @pytest.mark.parametrize("batch", [(), (1,), (6,)])
    def test_matches_per_link_reference(self, R, L, batch):
        K = 3
        taps = generate_channel(K, R, L, complex_normal(np.random.default_rng(10 * R + L), (*batch, K, K, L, R)))
        got = receiver_feedback(taps)
        assert got.shape == (*batch, K, K, R * L)
        for t, g in zip(taps.reshape(-1, K, K, L, R), got.reshape(-1, K, K, R * L)):
            for i in range(K):
                for k in range(K):
                    assert np.array_equal(g[i, k], dense.direction(t[i, k]))

    def test_zero_link_in_a_batch_rejected(self):
        taps = np.ones((4, 2, 2, 2, 1), dtype=complex)
        taps[2, 0, 1] = 0.0
        with pytest.raises(ValueError, match=r"channel \(0, 1\) is identically zero"):
            receiver_feedback(taps)


class TestFeedback:
    def test_perfect_mode_returns_exact_directions(self):
        taps = seeded_channel(3, 1, 2, 13)
        fed = receiver_feedback(taps)
        assert fed.shape == (3, 3, 2)
        assert np.array_equal(fed, dense.directions(taps))

    def test_components_in_user_order(self):
        taps = seeded_channel(3, 2, 2, 14)
        fed = receiver_feedback(taps)[1]
        assert fed.shape == (3, 4)
        assert np.array_equal(fed[2], dense.direction(taps[1, 2]))

    def test_codebook_mode_picks_nearest(self):
        # receiver i quantizes its row with codebook i
        taps = seeded_channel(2, 1, 2, 15)
        codebooks = [build_random_codebook(2, 2, 6, seed=16 + i) for i in range(2)]
        fed = receiver_feedback(taps, codebooks.__getitem__)
        exact = receiver_feedback(taps)
        for i, cb in enumerate(codebooks):
            assert composite_dist_sq(exact[i], fed[i]) <= composite_dist_sq(exact[i], cb.points).min() + 1e-12
            assert np.array_equal(fed[i], cb.points[encode(exact[i], cb)])
            assert not np.shares_memory(fed, cb.points)

    def test_codebook_mode_holds_one_codebook_at_a_time(self):
        # three 16-bit codebooks (6 MiB each at n=2, K=3), each built on its
        # receiver's turn: 7.2 MiB traced, where holding two took 13.0
        taps = seeded_channel(3, 1, 2, 20)
        build_random_codebook(2, 3, 6, seed=0)  # first-call allocations
        tracemalloc.start()
        try:
            receiver_feedback(taps, lambda i: build_random_codebook(2, 3, 16, seed=21 + i))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (1 << 16) * 3 * 2 * 16

    def test_oracle_mode_distance(self):
        taps = seeded_channel(3, 1, 2, 17)
        radius = oracle_radius(feedback_bits(3, 1, 2, 2.0**6), 3, 2)
        exact = receiver_feedback(taps)[0]
        normals = complex_normal(np.random.default_rng(18), (1, 3, 2))
        fed = distortion_oracle_quantize(exact[None], [radius**2], normals)[0]
        assert composite_dist_sq(exact, fed) == pytest.approx(radius**2, abs=1e-12)

    def test_codebook_mode_takes_one_realization(self):
        batch = np.ones((2, 2, 2, 2, 1), dtype=complex)
        with pytest.raises(ValueError, match="one realization"):
            receiver_feedback(batch, lambda i: build_random_codebook(2, 2, 2, seed=i))


class TestReconstruction:
    def make_rec(self, seed, K=3, R=2, L=2, N=8, radius=None, rng=None):
        taps = seeded_channel(K, R, L, seed)
        fed = receiver_feedback(taps)
        if radius is not None:
            normals = np.stack([complex_normal(rng, (K, R * L)) for _ in range(K)])
            fed = distortion_oracle_quantize(fed, np.full(K, radius**2), normals)
        return taps, to_tone_domain(taps, N), reconstruct(fed, N, R=R)

    def test_perfect_feedback_reproduces_normalized_channel(self):
        taps, tones, rec = self.make_rec(seed=20)
        for i in range(3):
            for k in range(3):
                hbar = dense.hbar(tones, i, k)
                assert np.allclose(rec[i, k].reshape(-1), hbar / np.linalg.norm(hbar), atol=1e-12)

    def test_unit_norm_reconstruction(self):
        radius = oracle_radius(feedback_bits(3, 2, 2, 16.0), 3, 4)
        _, _, rec = self.make_rec(seed=21, radius=radius, rng=np.random.default_rng(2))
        for i in range(3):
            for k in range(3):
                assert abs(np.linalg.norm(rec[i, k].reshape(-1)) - 1.0) <= 1e-12

    def test_inner_product_preservation(self):
        # <true direction, reconstruction> equals <tap direction, quantized direction>
        radius = oracle_radius(feedback_bits(3, 2, 2, 16.0), 3, 4)
        taps = seeded_channel(3, 2, 2, 22)
        normals = np.stack([complex_normal(np.random.default_rng(23 + i), (3, 4)) for i in range(3)])
        fed = distortion_oracle_quantize(receiver_feedback(taps), np.full(3, radius**2), normals)
        tones = to_tone_domain(taps, 8)
        rec = reconstruct(fed, 8, R=2)
        for i in range(3):
            for k in range(3):
                hbar = dense.hbar(tones, i, k)
                lhs = np.vdot(hbar / np.linalg.norm(hbar), rec[i, k].reshape(-1))
                rhs = np.vdot(dense.direction(taps[i, k]), fed[i, k])
                assert abs(lhs - rhs) <= 1e-10

    def test_phase_shift_leaves_pipeline_invariant(self):
        # rotating one fed-back component by a global phase must not move
        # any magnitude the downstream pipeline consumes
        taps = seeded_channel(2, 1, 3, 24)
        fed = receiver_feedback(taps)
        rotated = fed.copy()
        rotated[0, 1] *= np.exp(1j * 0.77)
        tones = to_tone_domain(taps, 6)
        base = reconstruct(fed, 6, R=1)
        alt = reconstruct(rotated, 6, R=1)
        hbar = dense.hbar(tones, 0, 1)
        assert abs(np.vdot(hbar, base[0, 1].reshape(-1))) == pytest.approx(
            abs(np.vdot(hbar, alt[0, 1].reshape(-1))), abs=1e-12
        )

    def test_direction_shape_rejected(self):
        taps = seeded_channel(3, 1, 2, 25)
        fed = receiver_feedback(taps)
        with pytest.raises(ValueError, match="shaped"):
            reconstruct(fed[:, :2], 4, R=1)  # (K, K-1, R*L)
        with pytest.raises(ValueError, match="shaped"):
            reconstruct(fed, 4, R=3)  # R does not divide R*L = 2

    def test_wtones_inverse_dft_round_trip(self):
        # the inverse DFT of the reconstructed tones, times sqrt(N), holds the
        # fed-back direction in its first L rows, reshaped to L x R
        taps, _, rec = self.make_rec(seed=26)
        N, L = rec.shape[-2], taps.shape[-2]
        back = np.fft.ifft(rec, axis=-2) * np.sqrt(N)
        for i in range(3):
            for k in range(3):
                expect = taps[i, k] / np.linalg.norm(taps[i, k])
                assert np.allclose(back[i, k, :L], expect, atol=1e-12)
                assert np.allclose(back[i, k, L:], 0.0, atol=1e-12)

    def test_reconstruction_is_read_only(self):
        # every node aligns against the same reconstruction: no stage may
        # write to it, batched or not
        fed = receiver_feedback(seeded_channel(3, 2, 2, 27))
        for rec in (reconstruct(fed, 8, R=2), reconstruct(np.stack([fed, fed]), 8, R=2)):
            assert isinstance(rec, np.ndarray)
            with pytest.raises(ValueError, match="read-only"):
                rec[..., 0, 1, 0, 0] = 0.0


class TestArchive:
    def test_round_trip(self, tmp_path):
        taps = seeded_channel(3, 2, 4, 27)
        path = tmp_path / "chan.txt"
        save_channel(taps, path)
        loaded = load_channel(path, taps.shape)
        assert loaded.shape == (3, 3, 4, 2)
        assert np.array_equal(loaded, taps)
        assert path.read_text().splitlines()[1] == "K=3 R=2 L=4"

    def test_ignores_an_old_noise_power(self, tmp_path):
        # archives written before the noise left the channel carry it in their header
        taps = seeded_channel(3, 1, 2, 4)
        path = tmp_path / "chan.txt"
        save_channel(taps, path)
        lines = path.read_text().splitlines()
        lines[1] += " noise_power=0.25"
        path.write_text("\n".join(lines) + "\n")
        assert np.array_equal(load_channel(path, taps.shape), taps)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("# something else\n")
        with pytest.raises(ValueError):
            load_channel(path, (3, 3, 2, 1))

    @pytest.mark.parametrize("value", ["nan", "inf", "(nan+1j)"])
    def test_rejects_a_non_finite_tap(self, tmp_path, value):
        # a loaded channel is the one input not drawn from normals: its taps must be finite
        path = tmp_path / "chan.txt"
        save_channel(seeded_channel(2, 2, 2, 28), path)
        lines = path.read_text().splitlines()
        assert lines[5] == "T 0 1"
        lines[7] = f"{value} {lines[7].split()[1]}"  # tap 1, antenna 0 of link (0, 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"link \(0, 1\) holds a non-finite tap"):
            load_channel(path, (2, 2, 2, 2))

    def test_writes_one_unbatched_channel(self, tmp_path):
        with pytest.raises(ValueError, match="one"):
            save_channel(np.ones((2, 2, 2, 2, 1), dtype=complex), tmp_path / "chan.txt")


class TestTapShape:
    """K, L and R come from a (..., K, K, L, R) tap array's shape, so other shapes are refused."""

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 3, 2, 1), (4, 2, 3, 2, 1)])
    def test_rejected(self, tmp_path, shape):
        taps = np.ones(shape, dtype=complex)
        for call in (lambda: to_tone_domain(taps, 4), lambda: receiver_feedback(taps),
                     lambda: save_channel(taps, tmp_path / "chan.txt")):
            with pytest.raises(ValueError, match=r"\(\.\.\., K, K, L, R\) tap array"):
                call()
        assert not (tmp_path / "chan.txt").exists()
