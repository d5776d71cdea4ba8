import math
import tracemalloc

import numpy as np
import pytest

from dense_reference import composite_dist_sq
from iafb.cli import MC_CHUNK
from iafb.grassmann import (
    MC_TILE,
    ball_volume_normalized,
    empirical_ball_cdf,
    sample_uniform,
    sum_dist_sq_cdf,
)
from iafb.rng import complex_normal


def line(*coords):
    """A point of G_{n,1}: one unit row, shape (1, n)."""
    vec = np.asarray(coords, dtype=complex)
    return (vec / np.linalg.norm(vec))[None]


def draw(n, K, rng, count=None):
    """`count` points (count, K, n) from one complex draw, or one (K, n) point."""
    points = sample_uniform(n, K, complex_normal(rng, (count or 1, K, n)))
    return points if count else points[0]


class TestPoints:
    def test_rejects_scalars_and_short_vectors(self):
        with pytest.raises(ValueError):
            sample_uniform(1, 2, complex_normal(np.random.default_rng(0), (1, 2, 1)))

    # an unbatched point, the real/imaginary parts layout, and the wrong K
    # or n
    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2, 3), (1, 3, 3), (1, 2, 2)])
    def test_rejects_normals_of_another_shape(self, shape):
        # G_{3,1}^2 takes complex (B, 2, 3) normals
        with pytest.raises(ValueError, match="normals"):
            sample_uniform(3, 2, np.ones(shape, dtype=complex))

    def test_rejects_real_normals(self):
        # real (B, K, n) normals would give real points, not uniform ones
        with pytest.raises(ValueError, match="complex"):
            sample_uniform(3, 2, np.random.default_rng(0).standard_normal((4, 2, 3)))

    def test_composite_requires_equal_dimensions(self):
        # a (K, n) array gives all K components one n; two points must share it
        with pytest.raises(ValueError):
            composite_dist_sq(np.concatenate([line(1, 0)] * 2), np.concatenate([line(1, 0, 0)] * 2))


class TestChordalDistance:
    """The squared chordal distance is composite_dist_sq's K = 1 case."""

    def test_identical_lines(self):
        p = draw(4, 1, np.random.default_rng(0))
        assert composite_dist_sq(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_lines(self):
        assert composite_dist_sq(line(1, 0, 0), line(0, 1, 0)) == pytest.approx(1.0)

    def test_diagonal_line(self):
        # 1 - |<e1, (e1+e2)/sqrt(2)>|^2 = 1 - 1/2
        assert composite_dist_sq(line(1, 0), line(1, 1)) == pytest.approx(0.5, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            composite_dist_sq(line(1, 0), line(1, 0, 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_phase_invariance_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        p, q = draw(3, 1, rng), draw(3, 1, rng)
        base = composite_dist_sq(p, q)
        assert composite_dist_sq(q, p) == base
        for theta in (0.3, 1.2, np.pi, 5.1):
            assert abs(composite_dist_sq(np.exp(1j * theta) * p, q) - base) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_range(self, seed):
        rng = np.random.default_rng(100 + seed)
        p, q = draw(4, 3, rng), draw(4, 3, rng)
        per_component = composite_dist_sq(p[:, None], q[:, None])  # K lines, each K = 1
        assert per_component.shape == (3,)
        assert np.all((0.0 <= per_component) & (per_component <= 1.0))
        assert 0.0 <= composite_dist_sq(p, q) <= 3.0


class TestCompositeDistance:
    def test_zero_on_equal_points(self):
        p = draw(3, 2, np.random.default_rng(1))
        assert composite_dist_sq(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_additivity_two_components(self):
        a = np.concatenate([line(1, 0), line(1, 0)])
        b = np.concatenate([line(1, 0), line(0, 1)])
        assert composite_dist_sq(a, b) == pytest.approx(1.0)

    def test_additivity_three_components(self):
        a = np.concatenate([line(1, 0)] * 3)
        b = np.concatenate([line(1, 1)] * 3)
        assert composite_dist_sq(a, b) == pytest.approx(1.5, abs=1e-12)

    def test_shape_mismatch(self):
        a = draw(3, 2, np.random.default_rng(0))
        b = draw(3, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            composite_dist_sq(a, b)

    def test_broadcasts_over_leading_axes(self):
        # one (K, n) point against a (m, K, n) block: one distance per block row
        rng = np.random.default_rng(2)
        x, block = draw(3, 2, rng), draw(3, 2, rng, count=7)
        dist = composite_dist_sq(x, block)
        assert dist.shape == (7,)
        for row, d in zip(block, dist):
            assert d == composite_dist_sq(x, row)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_uniform(4, 2, complex_normal(np.random.default_rng(42), (1, 2, 4)))
        b = sample_uniform(4, 2, complex_normal(np.random.default_rng(42), (1, 2, 4)))
        assert np.array_equal(a, b)

    def test_one_unit_point_per_generator(self):
        # point b is what a batch-of-one call on generator b's normals gives
        normals = np.stack([complex_normal(np.random.default_rng(s), (2, 3)) for s in range(4)])
        batch = sample_uniform(3, 2, normals)
        assert batch.shape == (4, 2, 3)
        assert np.abs(np.linalg.norm(batch, axis=-1) - 1.0).max() <= 1e-12
        for s, point in enumerate(batch):
            assert np.array_equal(point, sample_uniform(3, 2, normals[s : s + 1])[0])
            assert np.array_equal(point, normals[s] / np.linalg.norm(normals[s], axis=-1, keepdims=True))

    def test_mean_chordal_distance_n2(self):
        # squared chordal distance to a fixed line is uniform on [0, 1]
        # for n=2, so its mean is 1/2
        vals = composite_dist_sq(line(1, 0), draw(2, 1, np.random.default_rng(7), count=100_000))
        assert np.mean(vals) == pytest.approx(0.5, abs=0.01)

    def test_cdf_n3(self):
        # P(X <= x) = x^(n-1) = 0.25 at x = 0.5 for n = 3
        vals = composite_dist_sq(line(1, 0, 0), draw(3, 1, np.random.default_rng(8), count=100_000))
        assert np.mean(vals <= 0.5) == pytest.approx(0.25, abs=0.01)


class TestBallVolume:
    def test_single_component_closed_form(self):
        # mu(B(delta)) = delta^(2(n-1)) on G_{2,1}
        assert ball_volume_normalized(2, 1, 0.5) == pytest.approx(0.25)

    def test_two_component_full_radius(self):
        # Gamma(2)^2 / Gamma(3) = 1/2
        assert ball_volume_normalized(2, 2, 1.0) == pytest.approx(0.5)

    def test_zero_radius(self):
        assert ball_volume_normalized(5, 3, 0.0) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball_volume_normalized(2, 1, -0.1)

    @pytest.mark.parametrize("n, K", [(1, 2), (2, 0)])
    def test_invalid_manifold_rejected(self, n, K):
        with pytest.raises(ValueError):
            ball_volume_normalized(n, K, 0.5)

    def test_radius_beyond_closed_form_rejected(self):
        with pytest.raises(ValueError):
            ball_volume_normalized(2, 2, 1.2)

    def test_large_manifold_stays_finite(self):
        val = ball_volume_normalized(20, 5, 0.9)
        assert 0.0 < val < 1.0

    def test_leading_order_constant_in_delta(self):
        # the closed form is exactly const * delta^dim: no higher-order term
        n, K = 3, 2
        dim = 2 * K * (n - 1)
        ratios = [
            ball_volume_normalized(n, K, d) / d**dim
            for d in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert np.ptp(ratios) <= 1e-12 * ratios[0]


class TestSumDistribution:
    def test_cdf_matches_ball_volume_bitwise(self):
        for n, K in ((2, 1), (2, 2), (3, 2), (2, 3)):
            for delta in (0.3, 0.5, 0.8):
                assert sum_dist_sq_cdf(n, K, delta * delta) == ball_volume_normalized(n, K, delta)

    def test_cdf_uniform_case(self):
        # n=2, K=1: F(x) = x
        assert sum_dist_sq_cdf(2, 1, 0.25) == pytest.approx(0.25)

    def test_cdf_at_zero_and_saturation(self):
        assert sum_dist_sq_cdf(4, 3, 0.0) == 0.0
        assert sum_dist_sq_cdf(4, 3, 3.0) == 1.0
        assert sum_dist_sq_cdf(2, 1, 1.5) == 1.0

    def test_monte_carlo_fallback_beyond_one(self):
        # no closed form on (1, K); the estimate must sit between the
        # closed-form value at 1 and full measure
        lo = sum_dist_sq_cdf(2, 2, 1.0)
        mid = sum_dist_sq_cdf(2, 2, 1.5, trials=200_000)
        assert lo < mid < 1.0


class TestEmpiricalBallCdf:
    def test_whole_space(self):
        assert empirical_ball_cdf(2, 2, math.sqrt(2.0), 1000, rng=0) == 1.0

    def test_zero_radius(self):
        assert empirical_ball_cdf(2, 2, 0.0, 1000, rng=0) == 0.0

    def test_matches_closed_form(self):
        # 0.5 * 0.8^4 = 0.2048
        est = empirical_ball_cdf(2, 2, 0.8, 200_000, rng=3)
        assert est == pytest.approx(0.2048, abs=0.004)

    @pytest.mark.parametrize("n,K", [(2, 1), (2, 2), (3, 2), (2, 3)])
    def test_three_sigma_agreement(self, n, K):
        trials = 100_000
        for delta in (0.3, 0.5, 0.8):
            analytic = ball_volume_normalized(n, K, delta)
            est = empirical_ball_cdf(n, K, delta, trials, rng=1000 + 10 * n + K)
            sigma = math.sqrt(analytic * (1 - analytic) / trials)
            assert abs(est - analytic) <= 3 * sigma + 1e-12


def reference_hit_count(n, K, delta, trials, rng):
    """The count on complex magnitudes of one draw: |q|^2 as abs()**2, sums over axes."""
    power = np.abs(complex_normal(rng, (trials, K, n))) ** 2
    dist_sq = np.sum(1.0 - power[:, :, 0] / power.sum(axis=2), axis=1)
    return int(np.count_nonzero(dist_sq <= delta * delta))


class TestBallHitCount:
    """`empirical_ball_cdf`, the one Monte Carlo ball count, against the count on complex magnitudes."""

    # the counts sit at the edges of the two-pass draw: one sub-block short
    # of, at and one past full; volume-check's whole chunk (MC_CHUNK); and
    # draws that end 1, 17, MC_TILE - 3 or MC_TILE - 1 rows into their last
    # sub-block
    @pytest.mark.parametrize(
        "trials",
        [
            1, 1000, MC_CHUNK + 17, MC_TILE + 1, MC_CHUNK - 1, 2 * MC_CHUNK + MC_TILE - 3,
            MC_TILE - 1, MC_TILE, MC_CHUNK, MC_CHUNK + 1,
        ],
    )
    @pytest.mark.parametrize("n,K", [(2, 1), (2, 2), (3, 2), (2, 3), (4, 3)])
    def test_matches_complex_reference(self, n, K, trials):
        for delta in (0.0, 0.3, 0.8, 1.0, math.sqrt(K)):
            seed = 100 * n + 10 * K + trials
            got = empirical_ball_cdf(n, K, delta, trials, np.random.default_rng(seed))
            want = reference_hit_count(n, K, delta, trials, np.random.default_rng(seed))
            assert got == want / trials, (n, K, trials, delta)

    # one of volume-check's chunks: the real parts' (MC_CHUNK, K, n) buffer
    # (3 MiB at (2, 3), 6 MiB at (4, 3)) and one sub-block's workspace;
    # drawing the whole chunk at once traced 7.56 and 13.56 MiB
    @pytest.mark.parametrize("n,K,bound_mib", [(2, 3, 4), (4, 3, 7)])
    def test_one_chunk_bounds_peak_memory(self, n, K, bound_mib):
        tracemalloc.start()
        try:
            empirical_ball_cdf(n, K, 0.8, MC_CHUNK, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    @pytest.mark.parametrize("n,K,trials,delta", [(1, 2, 10, 0.5), (2, 0, 10, 0.5), (2, 2, 0, 0.5), (2, 2, 10, -0.1)])
    def test_rejects_invalid_arguments(self, n, K, trials, delta):
        with pytest.raises(ValueError):
            empirical_ball_cdf(n, K, delta, trials, 0)
