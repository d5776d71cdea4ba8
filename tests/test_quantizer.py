import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dense_reference import codebook_file_seed, composite_dist_sq, random_codebook_points, unit_rows
from iafb import quantizer
from iafb.grassmann import ball_volume_normalized, sample_uniform
from iafb.quantizer import (
    Codebook,
    build_random_codebook,
    distortion_oracle_quantize,
    distortion_scaling_exponent,
    encode,
    feedback_bits,
    measure_distortion,
    oracle_radius,
    save_codebook,
)
from iafb.quantizer import (
    _BISECTOR_EPS,
    _CLOSE_PIVOTS,
    _GEN_CHUNK,
    _PANEL_BYTES,
    _SIM_TILE,
    _batched_min_dist,
    _bisector_bounds,
    _bisector_scale,
    _embed,
    _panel_width,
    _pivot_count,
    _pivot_index,
)
from iafb.rng import UNIT_TILE, complex_normal, draw_unit_rows, trial_generator, trial_normals


def reference_min_dist(sources, points):
    """Direct formula: K - max over codewords of sum_k |<x_k, c_k>|^2."""
    K = sources.shape[1]
    out = np.empty(len(sources))
    for s, x in enumerate(sources):
        sims = np.abs(np.einsum("ckj,kj->ck", points, x.conj())) ** 2
        out[s] = max(K - sims.sum(axis=1).max(), 0.0)
    return out


def draw(n, K, rng, count=None):
    """`count` points (count, K, n) from one complex draw, or one (K, n) point."""
    points = sample_uniform(n, K, complex_normal(rng, (count or 1, K, n)))
    return points if count else points[0]


def traced_peak(f) -> float:
    """Traced peak bytes of one call of `f`."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def exact_dist(points, p):
    """Composite distances of (count, K, n) unit rows from the (K, n) point p, without the cancellation in K - score."""
    overlap = np.einsum("ckj,kj->ck", points, p.conj())
    resid = points - overlap[..., None] * p
    return np.sqrt(np.sum(np.abs(resid) ** 2, axis=(1, 2)))


def nudge(points, t, seed):
    """Each (K, n) unit point moved by angle t in every component, along a random tangent direction."""
    tangent = unit_rows(seed, points.shape)
    tangent -= np.sum(points.conj() * tangent, axis=-1, keepdims=True) * points
    tangent /= np.linalg.norm(tangent, axis=-1, keepdims=True)
    return math.cos(t) * points + math.sin(t) * tangent


def near_pivot_layout(n, K, bits, count):
    """Six far-apart triples on G_{2,1} (n=2, K=1), pivots first, then 26 codewords.

    Pivot 2j is a base point b, codeword 12 + j lies 1e-9 from it toward a
    source x at angle 0.1, and pivot 2j+1 is x's nearest pivot, a squared
    distance 1e-10 nearer x than b, alone in its cluster. x's own cluster
    gives it D0 = sin^2(0.1) - 1e-10, while its nearest codeword, in b's
    cluster, lies at about sin^2(0.1) - 2e-10: the search must score b's
    cluster for a gain of 1e-10 over D0, and there the squared bisector
    bound, about 1e-19, rests on s_h - s_g = 1e-10 alone. The last 14
    codewords repeat the near ones; ``count`` random sources follow the
    six x.
    """
    assert (n, K, bits) == (2, 1, 5)
    s = 1 / math.sqrt(2)
    bases = np.array([[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]], dtype=complex)
    a = 0.1
    a_near = math.asin(math.sqrt(math.sin(a) ** 2 - 1e-10))
    pivots, near, xs = [], [], []
    for b in bases:
        u = np.array([-b[1].conj(), b[0].conj()])
        x = math.cos(a) * b + math.sin(a) * u
        w = -math.sin(a) * b + math.cos(a) * u
        pivots += [b, math.cos(a_near) * x + math.sin(a_near) * 1j * w]
        near.append(math.cos(1e-9) * b + math.sin(1e-9) * u)
        xs.append(x)
    points = np.array(pivots + near + [near[j % 6] for j in range(14)])[:, None, :]
    sources = np.concatenate([np.array(xs)[:, None, :], unit_rows(41, (count, 1, 2))])
    return points, sources


def bloch(v):
    """The G_{2,1} point (a unit row of C^2) with Bloch vector v: the squared distance of two points is (1 - v.w) / 2."""
    theta, phi = math.acos(min(1.0, max(-1.0, v[2]))), math.atan2(v[1], v[0])
    return np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])


def across_bisector_layout(n, K, bits, count):
    """Four pivot pairs on G_{2,1} (n=2, K=1), pivots first, a source near each pair's bisector.

    Pair j sits at tetrahedral axis a: pivots g = 2j and h = 2j+1 lie 0.3
    rad (Bloch angle) to either side of a plane through a, the bisector.
    Source x lies in that plane 0.5 rad from a, moved alpha toward h, so h
    is its nearest pivot and it is nearly equidistant from g and h
    (alpha = 0.05 for pairs 0-1, 1e-7 for 2-3). Codeword 8 + j lies 1e-3
    across the bisector from x's foot on it: x's nearest codeword, in g's
    cluster, at a distance only just above the bisector bound. Four random
    codewords, and ``count`` random sources after the four x, follow.
    """
    assert (n, K, bits) == (2, 1, 4)
    axes = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    pivots, near, xs = [], [], []
    for j, a in enumerate(axes):
        e1 = np.cross(a, [0.0, 0.0, 1.0] if j else [1.0, 0.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(a, e1)
        alpha = 0.05 if j < 2 else 1e-7
        w = math.cos(0.5) * a + math.sin(0.5) * e2
        pivots += [bloch(math.cos(0.3) * a + math.sin(0.3) * e1), bloch(math.cos(0.3) * a - math.sin(0.3) * e1)]
        xs.append(bloch(math.cos(alpha) * w - math.sin(alpha) * e1))
        near.append(bloch(math.cos(1e-3) * w + math.sin(1e-3) * e1))
    points = np.concatenate([np.array(pivots + near)[:, None, :], unit_rows(56, (4, 1, 2))])
    return points, np.concatenate([np.array(xs)[:, None, :], unit_rows(57, (count, 1, 2))])


def close_pivots_layout(n, K, bits, count):
    """Pivots 8-11 repeat pivots 0-3, and pivots 12-15 lie 1e-9 from pivots 4-7 in every component.

    A near pair's bisector splits the codewords around it, so a source
    by one of its pivots often has its nearest codeword in the other's
    cluster. Five sources 0.05 from each of pivots 4-7 come first.
    """
    points = random_codebook_points(n, K, bits, seed=58)
    points[8:12] = points[:4]
    points[12:16] = nudge(points[4:8], 1e-9, seed=59)
    sources = nudge(np.repeat(points[4:8], 5, axis=0), 0.05, seed=60)
    return points, np.concatenate([sources, unit_rows(61, (count, K, n))])


def singleton_layout(n, K, bits, count):
    """Pivot 0 alone in its cluster: every later codeword lies 1e-3 from one of pivots 1-15."""
    points = random_codebook_points(n, K, bits, seed=42)
    points[16:] = nudge(points[1 + np.arange(len(points) - 16) % 15], 1e-3, seed=43)
    sources = np.concatenate([points[:1], nudge(np.repeat(points[:1], 5, axis=0), 0.05, seed=44)])
    return points, np.concatenate([sources, unit_rows(45, (count, K, n))])


LAYOUTS = {
    "random": lambda n, K, bits, count: (
        random_codebook_points(n, K, bits, seed=30 + n + K),
        unit_rows(40 + n + K, (count, K, n)),
    ),
    # a quarter of the codewords repeated four times; at 6 bits pivots
    # 16-31 repeat pivots 0-15, so their clusters are empty
    "repeated": lambda n, K, bits, count: (
        np.tile(random_codebook_points(n, K, bits - 2, seed=46), (4, 1, 1)),
        unit_rows(47, (count, K, n)),
    ),
    # every codeword the same point, which is also the first source
    "identical": lambda n, K, bits, count: (
        np.repeat(unit_rows(48, (1, K, n)), 1 << bits, axis=0),
        np.concatenate([unit_rows(48, (1, K, n)), unit_rows(49, (count, K, n))]),
    ),
    # every fifth codeword is a source too, at distance 0
    "sources-on-codewords": lambda n, K, bits, count: (
        random_codebook_points(n, K, bits, seed=50),
        np.concatenate([random_codebook_points(n, K, bits, seed=50)[::5], unit_rows(51, (count, K, n))]),
    ),
    "near-pivot": near_pivot_layout,
    "singleton": singleton_layout,
    "across-bisector": across_bisector_layout,
    "close-pivots": close_pivots_layout,
}


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
        # 15 bits: two codebook chunks of two panels each
        cb = build_random_codebook(2, 1, 15, seed=12)
        panel = _panel_width(4)
        for idx in (0, panel - 1, panel, _GEN_CHUNK - 1, _GEN_CHUNK, cb.size - 1):
            assert encode(cb.points[idx], cb) == idx

    # 0 and 1 bits: a panel of one and of two codewords; 12 bits: two full
    # 2048-codeword panels; 13 bits: four
    @pytest.mark.parametrize("bits", [0, 1, 12, 13])
    def test_matches_direct_reference_across_panels(self, bits):
        cb = build_random_codebook(2, 3, bits, seed=13 + bits)
        for x in draw(2, 3, np.random.default_rng(14 + bits), count=40):
            assert encode(x, cb) == int(np.argmin(composite_dist_sq(x, cb.points)))

    @pytest.mark.parametrize("j", [0, 1234, _panel_width(8) - 1])
    def test_tie_across_panels_goes_to_the_lower_index(self, j):
        # codeword j repeated in the next panel, at the same place in it
        points = build_random_codebook(2, 2, 13, seed=15).points.copy()
        points[j + _panel_width(8)] = points[j]
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

    # ``pivots`` forces the pruned search's pivot count (None: the size
    # rule, which prunes (2, 2, 14) and (2, 1, 16)). On the full scan at
    # (2, 1, 14), 8192-codeword panels bound a source slice to 8 rows, so
    # 300 sources take 38
    @pytest.mark.parametrize(
        "n, K, bits, count, pivots, layout",
        [
            *(
                pytest.param(n, K, bits, count, pivots, "random", id=f"{n}-{K}-{bits}-{count}")
                for n, K, bits, count, pivots in [
                    (2, 1, 8, 100, None), (2, 2, 8, 100, None), (3, 2, 8, 100, None), (4, 3, 8, 100, None),
                    (3, 2, 0, 20, None), (2, 1, 14, 300, 1), (2, 2, 14, 2000, None), (2, 1, 16, 2000, None),
                ]
            ),
            pytest.param(3, 2, 8, 300, 8, "random", id="3-2-8-300-pruned"),
            pytest.param(4, 3, 8, 300, 8, "random", id="4-3-8-300-pruned"),
            pytest.param(2, 2, 8, 300, 16, "repeated", id="repeated"),
            pytest.param(2, 2, 6, 100, 32, "repeated", id="repeated-pivots"),
            pytest.param(2, 2, 8, 100, 16, "identical", id="identical"),
            pytest.param(2, 2, 10, 400, 16, "sources-on-codewords", id="sources-on-codewords"),
            pytest.param(2, 1, 5, 56, 12, "near-pivot", id="near-pivot"),
            pytest.param(2, 2, 8, 300, 16, "singleton", id="singleton"),
            pytest.param(2, 1, 4, 60, 8, "across-bisector", id="across-bisector"),
            pytest.param(2, 2, 8, 300, 16, "close-pivots", id="close-pivots"),
        ],
    )
    def test_matches_direct_formula(self, monkeypatch, n, K, bits, count, pivots, layout):
        if pivots is not None:
            monkeypatch.setattr(quantizer, "_pivot_count", lambda size, m: pivots)
        points, sources = LAYOUTS[layout](n, K, bits, count)
        cb = Codebook(n=n, K=K, bits=bits, points=points)
        got = _batched_min_dist(_embed(sources), cb)
        assert np.abs(got - reference_min_dist(sources, cb.points)).max() <= 1e-12

    # panels of 16 codewords and tiles of 8 or 3 rows: the pivots span
    # several panels and every slice of sources or codewords several tiles,
    # so each nearest pivot is found across panel and tile offsets
    @pytest.mark.parametrize("pivots, panel, tile", [(48, 16, 128), (40, 16, 48)])
    def test_pruned_search_across_panels_and_tiles(self, monkeypatch, pivots, panel, tile):
        monkeypatch.setattr(quantizer, "_pivot_count", lambda size, m: pivots)
        monkeypatch.setattr(quantizer, "_panel_width", lambda depth: panel)
        monkeypatch.setattr(quantizer, "_SIM_TILE", tile)
        points, sources = LAYOUTS["random"](2, 2, 10, 200)
        cb = Codebook(n=2, K=2, bits=10, points=points)
        got = _batched_min_dist(_embed(sources), cb)
        assert np.abs(got - reference_min_dist(sources, cb.points)).max() <= 1e-12
        order, starts = _pivot_index(cb, np.arange(pivots))
        for c, g in zip(order, np.repeat(np.arange(pivots), np.diff(starts))):
            d = composite_dist_sq(points[c], points[:pivots])
            assert d[g] <= d.min() + 1e-12

    def test_pivot_count_rule(self):
        # the full scan below 2**(9 + m) codewords and above m = 5, else
        # 2**(bits//2 - 3) pivots, doubled from m = 3 on, from 8 to 256
        assert _pivot_count(1 << 9, 1) == 1
        assert _pivot_count(1 << 10, 1) == 8
        assert _pivot_count(1 << 10, 2) == 1
        assert _pivot_count(1 << 11, 2) == 8
        assert _pivot_count(1 << 14, 2) == 16
        assert _pivot_count(1 << 12, 4) == 1
        assert _pivot_count(1 << 13, 4) == 16
        assert _pivot_count(1 << 14, 4) == 32
        assert _pivot_count(1 << 15, 4) == 32
        assert _pivot_count(1 << 16, 5) == 64
        assert _pivot_count(1 << 20, 2) == 128
        assert _pivot_count(1 << 26, 1) == 256
        assert _pivot_count(1 << 22, 4) == 256
        assert _pivot_count(1 << 17, 6) == 1
        assert _pivot_count(1 << 26, 9) == 1

    def test_panel_width_rule(self):
        # the widest power-of-two panel of float64 embeddings within 256 KiB
        assert _PANEL_BYTES == 1 << 18
        assert [_panel_width(d) for d in (4, 8, 12, 18, 48)] == [8192, 4096, 2048, 1024, 512]
        for depth in range(1, 100):
            width = _panel_width(depth)
            assert width & (width - 1) == 0
            assert 8 * depth * width <= _PANEL_BYTES < 16 * depth * width
        assert _panel_width(1 << 16) == 1

    def test_bisector_allowance(self):
        # A source on a codeword of cluster g that sits on the bisector of
        # p_g and its own pivot p_h: four scores, each off by up to 1e-12,
        # can make s_h - s_g up to 4e-12, yet the distance is 0. Past the
        # allowance the bound is (s_h - s_g - eps) / (2 d(p_g, p_h))
        own = np.array([0.75 + 2.0**-38, 0.75 + 2.0**-36])
        bound = _bisector_bounds(own, np.full(2, 0.75), np.full(2, 0.5))
        assert 2.0**-38 < _BISECTOR_EPS < 2.0**-36
        assert bound[0] == 0.0
        assert bound[1] == pytest.approx((0.5 * (2.0**-36 - _BISECTOR_EPS)) ** 2, rel=1e-3)

    def test_close_pivots_get_no_bisector_bound(self):
        # pivots 0 and 1 repeated, a pivot 1e-9 and one 0.6 * _CLOSE_PIVOTS
        # from pivot 2, and one just past _CLOSE_PIVOTS from pivot 3: only
        # the last pair, and pairs of distinct far pivots, get a bound, and
        # its factor is at most 1 / (2 d) of the exact distance d
        base = unit_rows(62, (4, 2, 2))
        pts = np.concatenate([
            base, base[:2],
            nudge(base[2:3], 1e-9, seed=63), nudge(base[2:3], 0.6 * _CLOSE_PIVOTS / math.sqrt(2), seed=64),
            nudge(base[3:4], 1.2 * _CLOSE_PIVOTS / math.sqrt(2), seed=65), unit_rows(66, (7, 2, 2)),
        ])
        cb = Codebook(n=2, K=2, bits=4, points=pts)
        scale = _bisector_scale(_embed(pts[:9]), 2)
        exact = np.array([exact_dist(pts[:9], p) for p in pts[:9]])
        assert (exact[8, 3] > _CLOSE_PIVOTS) and (exact[7, 2] < _CLOSE_PIVOTS)
        assert np.array_equal(scale > 0, exact >= _CLOSE_PIVOTS)
        assert np.all(scale <= 0.5 / np.maximum(exact, _CLOSE_PIVOTS))

    def test_bisector_bound_prunes_clusters(self, monkeypatch):
        # codeword-source pairs scored at (2, 2, 14) with 2,000 sources: a
        # zeroed scale is no bound, so every source meets every codeword,
        # and the bisector bound scores 4.5e6 of those 3.3e7 pairs (0.138)
        cb = build_random_codebook(2, 2, 14, seed=67)
        src = _embed(unit_rows(68, (2000, 2, 2)))
        scored = []
        raise_best = quantizer._raise_best

        def counted(best, src, cb, src_idx=None, cw_idx=None):
            scored[-1] += len(src_idx) * len(cw_idx)
            raise_best(best, src, cb, src_idx, cw_idx)

        monkeypatch.setattr(quantizer, "_raise_best", counted)
        for scale in (_bisector_scale, lambda emb, K: np.zeros((len(emb), len(emb)))):
            monkeypatch.setattr(quantizer, "_bisector_scale", scale)
            scored.append(0)
            _batched_min_dist(src, cb)
        assert scored[1] == len(src) * cb.size
        assert scored[0] < 0.2 * scored[1]

    def test_one_pivot_is_the_full_scan(self, monkeypatch):
        cb = build_random_codebook(2, 2, 14, seed=39)
        src = _embed(unit_rows(40, (500, 2, 2)))
        assert _pivot_count(cb.size, 2) > 1
        pruned = _batched_min_dist(src, cb)
        monkeypatch.setattr(quantizer, "_pivot_count", lambda size, m: 1)
        assert np.abs(_batched_min_dist(src, cb) - pruned).max() <= 1e-15

    def test_codebook_spanning_several_chunks(self, monkeypatch):
        # two codebook chunks, and a last source slice shorter than the
        # tile, on the full scan (the size rule would prune 15 bits)
        monkeypatch.setattr(quantizer, "_pivot_count", lambda size, m: 1)
        cb = build_random_codebook(2, 2, 15, seed=50)
        rows = _SIM_TILE // _panel_width(8)
        assert cb.size == 2 * _GEN_CHUNK and _GEN_CHUNK % _panel_width(8) == 0
        sources = unit_rows(51, (2 * rows + 5, 2, 2))
        got = _batched_min_dist(_embed(sources), cb)
        assert np.abs(got - reference_min_dist(sources, cb.points)).max() <= 1e-12

    @pytest.mark.parametrize(
        "bits, count, panel, tile",
        [
            pytest.param(0, 7, _panel_width(8), _SIM_TILE, id="one-codeword"),
            pytest.param(6, 50, _panel_width(8), _SIM_TILE, id="smaller-than-a-panel"),
            # 256 codewords in panels of 96: two full panels and one of 64
            pytest.param(8, 50, 96, 96 * 8, id="short-last-panel"),
            # 8 rows per tile: 7 full slices and one of 3, over two chunks
            pytest.param(15, 59, 1 << 12, 1 << 15, id="two-chunks-short-slice"),
            pytest.param(10, 2 * (_SIM_TILE // 1024) + 1, _panel_width(8), _SIM_TILE, id="short-last-slice"),
        ],
    )
    def test_tile_edges(self, monkeypatch, bits, count, panel, tile):
        # the full scan's edges; the pruned search's are in
        # test_pruned_search_across_panels_and_tiles
        monkeypatch.setattr(quantizer, "_pivot_count", lambda size, m: 1)
        monkeypatch.setattr(quantizer, "_panel_width", lambda depth: panel)
        monkeypatch.setattr(quantizer, "_SIM_TILE", tile)
        cb = build_random_codebook(2, 2, bits, seed=54 + bits)
        sources = unit_rows(55 + bits, (count, 2, 2))
        got = _batched_min_dist(_embed(sources), cb)
        assert np.abs(got - reference_min_dist(sources, cb.points)).max() <= 1e-12

    def test_similarity_block_bounds_peak_memory(self, monkeypatch):
        # pruned over 16 pivots, 2.05 MiB traced: at its largest the
        # embedded sources (0.61 MiB), one cluster's tile (0.5 MiB), its
        # gathered panel and codewords (0.1 MiB each), the codewords' and
        # the sources' cluster orders (0.2 MiB) and four per-source vectors
        # (0.3 MiB), and 0.15 MiB of temporaries within one line. The full
        # scan's 512 KiB tile, 256 KiB panel buffer and embedded sources
        # trace 1.9 MiB;
        # an embedded chunk and its transpose (1 MiB each) peaked at 3.7
        # MiB, the earlier 8 MiB block at 11.2 MiB and a fresh block per
        # slice at 67 MiB
        cb = build_random_codebook(2, 2, 14, seed=52)
        sources = unit_rows(53, (10_000, 2, 2))
        assert traced_peak(lambda: _batched_min_dist(_embed(sources), cb)) < 2.5 * 2**20
        monkeypatch.setattr(quantizer, "_pivot_count", lambda size, m: 1)
        assert traced_peak(lambda: _batched_min_dist(_embed(sources), cb)) < 2.5 * 2**20


class TestUnitRowDraws:
    """`draw_unit_rows` gives, byte for byte, one `complex_normal` draw normalized in one go."""

    # one row, a sub-block short of, at and past full, ten thousand
    # sources past full sub-blocks, and one row past 64 whole sub-blocks
    COUNTS = [1, UNIT_TILE - 1, UNIT_TILE, UNIT_TILE + 1, 10**4 + 1, 2**16 + 1]

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
    def test_points_are_read_only(self):
        cb = build_random_codebook(2, 2, 4, seed=63)
        with pytest.raises(ValueError, match="read-only"):
            cb.points[3] = np.nan


class TestFeedbackBudget:
    """`feedback_bits` and `oracle_radius`, the budget and the radius the oracle quantizes to."""

    def test_bit_formula(self):
        assert feedback_bits(3, 1, 2, 2.0**10) == 3 * 1 * 10  # K (RL-1) log2 P

    def test_alpha_scaling_and_ceiling(self):
        assert feedback_bits(3, 1, 2, 2.0**10, alpha=0.25) == math.ceil(0.25 * 3 * 10)

    def test_bits_clamped_nonnegative(self):
        assert feedback_bits(2, 1, 2, 0.5) == 0

    def test_scalar_manifold_rejected(self):
        # R*L = 1: a direction in C^1 is no direction
        with pytest.raises(ValueError, match="n >= 2"):
            oracle_radius(feedback_bits(2, 1, 1, 4.0), 2, 1)

    def test_full_budget_distortion_is_inverse_power(self):
        # bits = K (RL-1) log2 P exactly, so delta*^2 = 1/P with no rounding
        for t in (4, 9, 14):
            radius = oracle_radius(feedback_bits(3, 1, 2, 2.0**t), 3, 2)
            assert radius**2 == pytest.approx(2.0**-t, rel=1e-12)

    # 2^bits balls of squared radius delta*^2 = 2^(-bits/m), m = K(n-1), have
    # the volume c = Gamma(n)^K / Gamma(m+1) of the manifold, which is below
    # 1 from m = 2 on: no codebook puts every source within delta*
    @pytest.mark.parametrize("n, K", [(2, 2), (2, 3), (3, 2), (4, 3)])
    @pytest.mark.parametrize("bits", [4, 14, 40])
    def test_oracle_balls_cover_the_fraction_c(self, n, K, bits):
        c = math.gamma(n) ** K / math.gamma(K * (n - 1) + 1)
        assert c < 1
        assert 2**bits * ball_volume_normalized(n, K, oracle_radius(bits, K, n)) == pytest.approx(c, rel=1e-12)

    # so a codebook's sources within delta* of their nearest codeword count
    # as at most Binomial(trials, c); the allowance, 4.75 binomial standard
    # errors, is that count's one-sided 1e-6 quantile under the normal
    # approximation. This seed reads 15.2% against c = 1/6 and 39.2% against
    # c = 1/2; a random codebook's limit is 1 - e^(-c), 15.4% and 39.3%
    @pytest.mark.parametrize("n, K, bits", [(2, 3, 10), (2, 2, 10)])
    def test_random_codebook_covers_at_most_c(self, n, K, bits):
        c, trials = math.gamma(n) ** K / math.gamma(K * (n - 1) + 1), 20_000
        dists = measure_distortion(build_random_codebook(n, K, bits, seed=19), trials, 20)
        within = np.count_nonzero(dists <= oracle_radius(bits, K, n) ** 2) / trials
        assert within <= c + 4.75 * math.sqrt(c * (1 - c) / trials)


def oracle_radius_sq(K, R, L, P):
    """The squared full-budget oracle radius of (K, R*L) directions at power P."""
    return oracle_radius(feedback_bits(K, R, L, P), K, R * L) ** 2


class TestDistortionOracle:
    def test_distance_is_exact(self):
        delta_sq = oracle_radius_sq(3, 1, 2, 2.0**8)
        rng = np.random.default_rng(13)
        x = draw(2, 3, rng, count=100)
        y = distortion_oracle_quantize(x, np.full(100, delta_sq), complex_normal(rng, (100, 3, 2)))
        d = np.sqrt(composite_dist_sq(x, y))
        assert np.abs(d - math.sqrt(delta_sq)).max() <= 1e-9

    def test_component_error_within_total(self):
        P = 2.0**10
        rng = np.random.default_rng(14)
        x = draw(2, 3, rng, count=50)
        y = distortion_oracle_quantize(x, np.full(50, oracle_radius_sq(3, 1, 2, P)), complex_normal(rng, (50, 3, 2)))
        per_component = composite_dist_sq(x[..., None, :], y[..., None, :])  # (50, K) lines
        assert per_component.max() <= 1.0 / P + 1e-12

    def test_huge_budget_returns_input_direction(self):
        rng = np.random.default_rng(15)
        x = draw(4, 2, rng)
        y = distortion_oracle_quantize(x[None], [oracle_radius_sq(2, 2, 2, 2.0**40)], complex_normal(rng, (1, 2, 4)))[0]
        assert composite_dist_sq(x, y) <= 1e-6

    def test_shape_mismatch(self):
        # normals drawn for a K=2 budget's (2, 2) points, against (3, 2) points
        delta_sq = oracle_radius_sq(2, 1, 2, 16.0)
        x = draw(2, 3, np.random.default_rng(0), count=2)
        normals = complex_normal(np.random.default_rng(1), (2, 2, 2))
        with pytest.raises(ValueError, match="manifold"):
            distortion_oracle_quantize(x, np.full(2, delta_sq), normals)
        normals = complex_normal(np.random.default_rng(1), (2, 3, 2))
        with pytest.raises(ValueError, match="one squared radius"):
            distortion_oracle_quantize(x, [delta_sq], normals)
        with pytest.raises(ValueError, match="one normal draw"):
            distortion_oracle_quantize(x, np.full(2, delta_sq), normals[:1])

    @pytest.mark.parametrize(
        "normals",
        [
            # the real/imaginary parts layout, (B, 2, K, n), and real (B, K, n) normals
            np.random.default_rng(1).standard_normal((2, 2, 3, 2)),
            np.random.default_rng(1).standard_normal((2, 3, 2)),
        ],
        ids=["parts-layout", "real"],
    )
    def test_rejects_real_normals(self, normals):
        x = draw(2, 3, np.random.default_rng(0), count=2)
        with pytest.raises(ValueError, match="manifold"):
            distortion_oracle_quantize(x, np.full(2, 0.1), normals)

    def test_deterministic(self):
        x = draw(3, 2, np.random.default_rng(16), count=6)
        # rows 1 and 4 silent (NaN), row 2 kept (zero), the rest placed
        radius_sq = oracle_radius_sq(2, 1, 3, 64.0)
        delta_sq = np.array([radius_sq, np.nan, 0.0, radius_sq / 4, np.nan, radius_sq])
        silent = np.isnan(delta_sq)

        def draw_normals():
            normals = trial_normals(17, np.arange(6), (2, 3))
            # silent row 4's normals lie along its direction, so its tangent
            # is degenerate: silent rows must never reach the draw check
            normals[4] = 2j * x[4]
            return normals

        normals = draw_normals()
        with warnings.catch_warnings(action="error"):
            a = distortion_oracle_quantize(x, delta_sq, normals)
            everyone_silent = distortion_oracle_quantize(x, np.full(6, np.nan), normals)
        assert np.array_equal(a, distortion_oracle_quantize(x, delta_sq, draw_normals()))
        assert np.array_equal(a[silent], sample_uniform(3, 2, normals[silent]))
        assert np.array_equal(a[2], x[2])
        # a placed point is what a batch-of-one call on its own normals gives
        for i in (0, 3, 5):
            alone = distortion_oracle_quantize(x[i : i + 1], delta_sq[i : i + 1], normals[i : i + 1])
            assert np.array_equal(a[i], alone[0])
        assert np.array_equal(everyone_silent, sample_uniform(3, 2, normals))


class TestScalingExponent:
    def test_requires_three_budgets(self):
        with pytest.raises(ValueError):
            distortion_scaling_exponent(2, 1, [4, 6], 100, rng=0)

    def test_uniform_case_slope(self):
        slope = distortion_scaling_exponent(2, 1, [4, 6, 8, 10], 2000, rng=1)
        assert slope == pytest.approx(-1.0, abs=0.2)


class TestSerialization:
    def test_round_trip_materialized(self, tmp_path):
        # the file holds the codebook its header names, so the header alone
        # rebuilds it
        path = tmp_path / "cb.txt"
        save_codebook(build_random_codebook(3, 2, 5, seed=23), path)
        assert codebook_file_seed(path, 3, 2, 5) == 23
