import math
import tracemalloc

import numpy as np
import pytest

from dense_reference import composite_dist_sq, random_codebook_points, unit_rows
from iafb import quantizer
from iafb.grassmann import sample_uniform
from iafb.quantizer import (
    Codebook,
    FeedbackBudget,
    build_random_codebook,
    distortion_oracle_quantize,
    distortion_scaling_exponent,
    encode,
    load_codebook,
    measure_distortion,
    save_codebook,
)
from iafb.quantizer import _GEN_CHUNK, _PANEL, _SIM_TILE, _batched_min_dist, _embed
from iafb.rng import UNIT_TILE, draw_unit_rows, trial_generator, trial_normals


def reference_min_dist(sources, points):
    """Direct formula: K - max over codewords of sum_k |<x_k, c_k>|^2."""
    K = sources.shape[1]
    out = np.empty(len(sources))
    for s, x in enumerate(sources):
        sims = np.abs(np.einsum("ckj,kj->ck", points, x.conj())) ** 2
        out[s] = max(K - sims.sum(axis=1).max(), 0.0)
    return out


def draw(n, K, rng, count=None):
    """`count` points (count, K, n) in sequence from one generator, or one (K, n) point."""
    points = sample_uniform(n, K, rng.standard_normal((count or 1, 2, K, n)))
    return points if count else points[0]


def traced_peak(f) -> float:
    """Traced peak bytes of one call of `f`."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuild:
    def test_zero_bits_single_codeword(self):
        cb = build_random_codebook(2, 1, 0, seed=5)
        assert cb.size == 1 and cb.points.shape == (1, 1, 2)

    def test_same_seed_same_codebook(self):
        a = build_random_codebook(3, 2, 6, seed=9)
        b = build_random_codebook(3, 2, 6, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_chunk_seeded_codewords(self):
        # chunk c comes from the (seed, c) stream, whatever the codebook size
        big = build_random_codebook(2, 2, 15, seed=11)
        small = build_random_codebook(2, 2, 14, seed=11)
        assert np.array_equal(big.points[:_GEN_CHUNK], small.points)
        assert np.array_equal(big.points[_GEN_CHUNK:], unit_rows(trial_generator(11, 1), (_GEN_CHUNK, 2, 2)))

    # 0 and 1 bits: one and two codewords; 12-14 bits: one chunk, short of
    # a full one below 14; 15 and 16 bits: two and four chunks
    @pytest.mark.parametrize("bits", [0, 1, 12, 13, 14, 15, 16])
    @pytest.mark.parametrize("n, K", [(2, 3), (4, 3)])
    def test_codewords_match_whole_chunk_draws(self, n, K, bits):
        # sub-block draws give, byte for byte, each chunk's one complex_normal
        # draw normalized in one go, the chunks concatenated
        got = build_random_codebook(n, K, bits, seed=17 + bits).points
        assert np.array_equal(got, random_codebook_points(n, K, bits, 17 + bits))

    def test_build_holds_the_codebook_once(self):
        # beside the (2**16, 3, 2) codewords (6 MiB) the build holds one
        # chunk's real parts and one sub-block: 7.0 MiB traced. A list of
        # chunks, its concatenation and complex_normal's parts took 13.1
        build_random_codebook(2, 3, 6, seed=0)  # first-call allocations
        size = (1 << 16) * 3 * 2 * 16
        assert traced_peak(lambda: build_random_codebook(2, 3, 16, seed=18)) <= 1.25 * size

    def test_materialization_guard(self):
        with pytest.raises(ValueError, match="materialization guard"):
            build_random_codebook(2, 1, 30, seed=0)

    def test_generator_seed_rejected(self):
        with pytest.raises(TypeError):
            build_random_codebook(2, 1, 4, seed=np.random.default_rng(3))

    def test_non_finite_codeword_in_a_later_chunk_raises(self):
        points = build_random_codebook(2, 1, 15, seed=19).points.copy()
        points[-1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Codebook(n=2, K=1, bits=15, points=points)

    def test_mean_distortion_order_statistics(self):
        # for n=2, K=1 the squared distortion to one random codeword is
        # uniform on [0, 1]; the nearest of 1024 gives mean 1/1025
        cb = build_random_codebook(2, 1, 10, seed=21)
        dists = measure_distortion(cb, 10_000, rng=22)
        assert dists.shape == (10_000,)
        assert dists.mean() == pytest.approx(1.0 / 1025.0, rel=0.10)


class TestEncodeDecode:
    """A point is a (K, n) array; codeword i is cb.points[i]."""

    def test_exact_codeword_maps_to_itself(self):
        cb = build_random_codebook(3, 2, 5, seed=2)
        assert encode(cb.points[7], cb) == 7

    def test_zero_bits_always_index_zero(self):
        cb = build_random_codebook(2, 1, 0, seed=3)
        for seed in range(5):
            assert encode(draw(2, 1, np.random.default_rng(seed)), cb) == 0

    def test_matches_brute_force_scan(self):
        # against the direct formula K - sum_k |<x_k, c_k>|^2 over every codeword
        cb = build_random_codebook(2, 2, 7, seed=4)
        for x in draw(2, 2, np.random.default_rng(5), count=1000):
            sims = np.abs(np.einsum("ckj,kj->ck", cb.points, x.conj())) ** 2
            assert encode(x, cb) == int(np.argmin(2 - sims.sum(axis=1)))

    def test_round_trip_all_indices(self):
        cb = build_random_codebook(2, 1, 6, seed=6)
        for idx in range(cb.size):
            assert encode(cb.points[idx], cb) == idx

    def test_round_trip_across_chunks(self):
        # 15 bits: two codebook chunks of four panels each
        cb = build_random_codebook(2, 1, 15, seed=12)
        for idx in (0, _PANEL - 1, _PANEL, _GEN_CHUNK - 1, _GEN_CHUNK, cb.size - 1):
            assert encode(cb.points[idx], cb) == idx

    # 0 and 1 bits: a panel of one and of two codewords; 12 bits: one full
    # panel; 13 bits: two
    @pytest.mark.parametrize("bits", [0, 1, 12, 13])
    def test_matches_direct_reference_across_panels(self, bits):
        cb = build_random_codebook(2, 3, bits, seed=13 + bits)
        for x in draw(2, 3, np.random.default_rng(14 + bits), count=40):
            assert encode(x, cb) == int(np.argmin(composite_dist_sq(x, cb.points)))

    @pytest.mark.parametrize("j", [0, 1234, _PANEL - 1])
    def test_tie_across_panels_goes_to_the_lower_index(self, j):
        # codeword j repeated in the next panel, at the same place in it
        points = build_random_codebook(2, 2, 13, seed=15).points.copy()
        points[j + _PANEL] = points[j]
        cb = Codebook(n=2, K=2, bits=13, points=points)
        assert encode(points[j], cb) == j

    def test_tie_within_a_tile_goes_to_the_lower_index(self):
        points = build_random_codebook(2, 2, 8, seed=16).points.copy()
        points[101] = points[100]
        assert encode(points[100], Codebook(n=2, K=2, bits=8, points=points)) == 100

    def test_quantization_idempotent(self):
        cb = build_random_codebook(2, 2, 6, seed=7)
        x = draw(2, 2, np.random.default_rng(8))
        once = cb.points[encode(x, cb)]
        twice = cb.points[encode(once, cb)]
        assert np.array_equal(once, twice)

    def test_nearest_among_all_codewords(self):
        # argmin property, exhaustive over an 8-bit codebook
        cb = build_random_codebook(2, 1, 8, seed=9)
        for x in draw(2, 1, np.random.default_rng(10), count=200):
            chosen = composite_dist_sq(x, cb.points[encode(x, cb)])
            assert chosen <= composite_dist_sq(x, cb.points).min() + 1e-12

    def test_shape_mismatch(self):
        cb = build_random_codebook(2, 1, 3, seed=12)
        with pytest.raises(ValueError):
            encode(draw(3, 1, np.random.default_rng(0)), cb)

    def test_non_finite_point_rejected(self):
        cb = build_random_codebook(2, 1, 3, seed=12)
        with pytest.raises(ValueError, match="non-finite"):
            encode(np.full((1, 2), np.nan + 0j), cb)

    def test_distortion_decreases_with_bits(self):
        # averaged over 20 seeds, more bits means lower mean distortion
        for lo, hi in ((4, 6), (6, 8), (8, 10)):
            lo_means, hi_means = [], []
            for seed in range(20):
                lo_means.append(
                    measure_distortion(build_random_codebook(2, 1, lo, seed=seed), 500, rng=seed).mean()
                )
                hi_means.append(
                    measure_distortion(build_random_codebook(2, 1, hi, seed=seed), 500, rng=seed).mean()
                )
            assert np.mean(hi_means) < np.mean(lo_means)


class TestDistortionKernel:
    @pytest.mark.parametrize("n, K", [(2, 1), (2, 2), (3, 2), (4, 3)])
    def test_embedding_inner_product(self, n, K):
        x, c = unit_rows(1, (K, n)), unit_rows(2, (K, n))
        direct = sum(abs(np.vdot(x[k], c[k])) ** 2 for k in range(K))
        assert _embed(x).shape == (K * n * n,)
        assert _embed(x) @ _embed(c) == pytest.approx(direct, abs=1e-12)

    # 4096-codeword panels bound a source slice to 16 rows, so 300 sources take 19
    @pytest.mark.parametrize(
        "n, K, bits, count",
        [(2, 1, 8, 100), (2, 2, 8, 100), (3, 2, 8, 100), (4, 3, 8, 100), (3, 2, 0, 20), (2, 1, 14, 300)],
    )
    def test_matches_direct_formula(self, n, K, bits, count):
        cb = build_random_codebook(n, K, bits, seed=30 + n + K)
        sources = unit_rows(40 + n + K, (count, K, n))
        got = _batched_min_dist(_embed(sources), cb)
        assert np.abs(got - reference_min_dist(sources, cb.points)).max() <= 1e-12

    def test_codebook_spanning_several_chunks(self):
        # two codebook chunks, and a last source slice shorter than the tile
        cb = build_random_codebook(2, 2, 15, seed=50)
        rows = _SIM_TILE // _PANEL
        assert cb.size == 2 * _GEN_CHUNK and _GEN_CHUNK % _PANEL == 0
        sources = unit_rows(51, (2 * rows + 5, 2, 2))
        got = _batched_min_dist(_embed(sources), cb)
        assert np.abs(got - reference_min_dist(sources, cb.points)).max() <= 1e-12

    @pytest.mark.parametrize(
        "bits, count, panel, tile",
        [
            pytest.param(0, 7, _PANEL, _SIM_TILE, id="one-codeword"),
            pytest.param(6, 50, _PANEL, _SIM_TILE, id="smaller-than-a-panel"),
            # 256 codewords in panels of 96: two full panels and one of 64
            pytest.param(8, 50, 96, 96 * 8, id="short-last-panel"),
            # 8 rows per tile: 7 full slices and one of 3, over two chunks
            pytest.param(15, 59, 1 << 12, 1 << 15, id="two-chunks-short-slice"),
            pytest.param(10, 2 * (_SIM_TILE // 1024) + 1, _PANEL, _SIM_TILE, id="short-last-slice"),
        ],
    )
    def test_tile_edges(self, monkeypatch, bits, count, panel, tile):
        monkeypatch.setattr(quantizer, "_PANEL", panel)
        monkeypatch.setattr(quantizer, "_SIM_TILE", tile)
        cb = build_random_codebook(2, 2, bits, seed=54 + bits)
        sources = unit_rows(55 + bits, (count, 2, 2))
        got = _batched_min_dist(_embed(sources), cb)
        assert np.abs(got - reference_min_dist(sources, cb.points)).max() <= 1e-12

    def test_similarity_block_bounds_peak_memory(self):
        # the 512 KiB tile, the 256 KiB panel buffer and the embedded
        # sources: 1.9 MiB traced; an embedded chunk and its transpose
        # (1 MiB each) peaked at 3.7 MiB, the earlier 8 MiB block at 11.2
        # MiB and a fresh block per slice at 67 MiB
        cb = build_random_codebook(2, 2, 14, seed=52)
        sources = unit_rows(53, (10_000, 2, 2))
        assert traced_peak(lambda: _batched_min_dist(_embed(sources), cb)) < 2.5 * 2**20


class TestUnitRowDraws:
    """`draw_unit_rows` gives, byte for byte, one `complex_normal` draw normalized in one go."""

    # one row, a sub-block short of, at and past full, and ten thousand
    # sources past full sub-blocks
    COUNTS = [1, UNIT_TILE - 1, UNIT_TILE, UNIT_TILE + 1, 10**4 + 1]

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("into_out", [False, True])
    def test_matches_one_draw(self, count, into_out):
        shape = (count, 3, 2)
        out = np.empty(shape, dtype=complex) if into_out else None
        got = np.empty(shape, dtype=complex)
        rng, ref = np.random.default_rng(70), np.random.default_rng(70)
        for start, rows in draw_unit_rows(rng, shape, out=out):
            if into_out:
                assert np.shares_memory(rows, out[start])
            got[start : start + len(rows)] = rows
        assert np.array_equal(got, unit_rows(ref, shape))
        # the stream is left where the one draw leaves it
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("count", COUNTS)
    def test_distortions_match_whole_source_draw(self, count):
        # sources embedded sub-block by sub-block score as the whole draw embedded at once
        cb = build_random_codebook(2, 3, 8, seed=71)
        expected = _batched_min_dist(_embed(unit_rows(72, (count, 3, 2))), cb)
        assert np.array_equal(measure_distortion(cb, count, rng=72), expected)


class TestDistortionGuard:
    def test_nan_codeword_raises(self):
        # a NaN codeword would score NaN against every source, so no codebook holds one
        points = build_random_codebook(2, 2, 4, seed=60).points.copy()
        points[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Codebook(n=2, K=2, bits=4, points=points)

    def test_loaded_nan_codeword_raises(self, tmp_path):
        path = tmp_path / "cb.txt"
        save_codebook(build_random_codebook(2, 1, 2, seed=62), path)
        lines = path.read_text().splitlines()
        lines[3] = "nan " + lines[3].split()[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_codebook(path)

    def test_points_are_read_only(self):
        cb = build_random_codebook(2, 2, 4, seed=63)
        with pytest.raises(ValueError, match="read-only"):
            cb.points[3] = np.nan


class TestFeedbackBudget:
    def test_bit_formula(self):
        budget = FeedbackBudget(K=3, R=1, L=2, P=2.0**10)
        assert budget.bits == 3 * 1 * 10  # K (RL-1) log2 P
        assert budget.n == 2

    def test_alpha_scaling_and_ceiling(self):
        budget = FeedbackBudget(K=3, R=1, L=2, P=2.0**10, alpha=0.25)
        assert budget.bits == math.ceil(0.25 * 3 * 10)

    def test_bits_clamped_nonnegative(self):
        assert FeedbackBudget(K=2, R=1, L=2, P=0.5).bits == 0

    def test_scalar_manifold_rejected(self):
        with pytest.raises(ValueError):
            FeedbackBudget(K=2, R=1, L=1, P=4.0)

    def test_full_budget_distortion_is_inverse_power(self):
        # bits = K (RL-1) log2 P exactly, so delta*^2 = 1/P with no rounding
        for t in (4, 9, 14):
            budget = FeedbackBudget(K=3, R=1, L=2, P=2.0**t)
            assert budget.delta_star**2 == pytest.approx(2.0**-t, rel=1e-12)


class TestDistortionOracle:
    def test_distance_is_exact(self):
        budget = FeedbackBudget(K=3, R=1, L=2, P=2.0**8)
        rng = np.random.default_rng(13)
        x = draw(2, 3, rng, count=100)
        y = distortion_oracle_quantize(x, np.full(100, budget.delta_star**2), rng.standard_normal((100, 2, 3, 2)))
        d = np.sqrt(composite_dist_sq(x, y))
        assert np.abs(d - budget.delta_star).max() <= 1e-9

    def test_component_error_within_total(self):
        budget = FeedbackBudget(K=3, R=1, L=2, P=2.0**10)
        rng = np.random.default_rng(14)
        x = draw(2, 3, rng, count=50)
        y = distortion_oracle_quantize(x, np.full(50, budget.delta_star**2), rng.standard_normal((50, 2, 3, 2)))
        per_component = composite_dist_sq(x[..., None, :], y[..., None, :])  # (50, K) lines
        assert per_component.max() <= 1.0 / budget.P + 1e-12

    def test_huge_budget_returns_input_direction(self):
        budget = FeedbackBudget(K=2, R=2, L=2, P=2.0**40)
        rng = np.random.default_rng(15)
        x = draw(4, 2, rng)
        y = distortion_oracle_quantize(x[None], [budget.delta_star**2], rng.standard_normal((1, 2, 2, 4)))[0]
        assert composite_dist_sq(x, y) <= 1e-6

    def test_shape_mismatch(self):
        # normals drawn for a K=2 budget's (2, 2) points, against (3, 2) points
        budget = FeedbackBudget(K=2, R=1, L=2, P=16.0)
        x = draw(2, 3, np.random.default_rng(0), count=2)
        normals = np.random.default_rng(1).standard_normal((2, 2, 2, 2))
        with pytest.raises(ValueError, match="manifold"):
            distortion_oracle_quantize(x, np.full(2, budget.delta_star**2), normals)
        normals = np.random.default_rng(1).standard_normal((2, 2, 3, 2))
        with pytest.raises(ValueError, match="one squared radius"):
            distortion_oracle_quantize(x, [budget.delta_star**2], normals)
        with pytest.raises(ValueError, match="one normal draw"):
            distortion_oracle_quantize(x, np.full(2, budget.delta_star**2), normals[:1])

    def test_deterministic(self):
        budget = FeedbackBudget(K=2, R=1, L=3, P=64.0)
        x = draw(3, 2, np.random.default_rng(16), count=3)
        delta_sq = np.full(3, budget.delta_star**2)
        normals = trial_normals(17, [[b] for b in range(3)], (2, 3))
        a = distortion_oracle_quantize(x, delta_sq, normals)
        b = distortion_oracle_quantize(x, delta_sq, trial_normals(17, [[b] for b in range(3)], (2, 3)))
        assert np.array_equal(a, b)
        # point b is what a batch-of-one call on its own normals gives
        for i in range(3):
            alone = distortion_oracle_quantize(x[i : i + 1], delta_sq[:1], normals[i : i + 1])
            assert np.array_equal(a[i], alone[0])


class TestScalingExponent:
    def test_requires_three_budgets(self):
        with pytest.raises(ValueError):
            distortion_scaling_exponent(2, 1, [4, 6], 100, rng=0)

    def test_uniform_case_slope(self):
        slope = distortion_scaling_exponent(2, 1, [4, 6, 8, 10], 2000, rng=1)
        assert slope == pytest.approx(-1.0, abs=0.2)


class TestSerialization:
    def test_round_trip_materialized(self, tmp_path):
        cb = build_random_codebook(3, 2, 5, seed=23)
        path = tmp_path / "cb.txt"
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert (loaded.n, loaded.K, loaded.bits, loaded.seed) == (3, 2, 5, 23)
        assert np.array_equal(loaded.points, cb.points)
        assert "mode=materialized" in path.read_text().splitlines()[1]

    def test_rejects_implicit_mode(self, tmp_path):
        # files that stored only a seed are no longer read
        path = tmp_path / "cb.txt"
        path.write_text("# iafb-codebook v1\nn=2 K=1 bits=12 mode=implicit seed=24\n")
        with pytest.raises(ValueError, match="implicit"):
            load_codebook(path)

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            load_codebook(path)
