"""Finite-rate codebooks on the composite Grassmann manifold.

Two quantizer flavors cover the whole bit-budget range:

* random codebooks hold all 2**bits codewords in memory (at most
  2**MAX_MATERIALIZED_BITS) and support exact nearest-neighbor search;
* the distortion oracle serves budgets far beyond what can be
  materialized: it returns a point at exactly the radius
  delta* = 2**(-bits / (2 K (n-1))) (`oracle_radius`). Rate/DoF
  experiments whose bit budgets grow with the transmit power
  (`feedback_bits`) rely on it. No codebook reaches that radius: with
  m = K(n-1), 2**bits balls of squared radius delta*^2 = 2**(-bits/m)
  cover at most the fraction c = Gamma(n)^K / Gamma(m+1) of the manifold
  (`grassmann.ball_volume_normalized`), 1/2 at (n, K) = (2, 2) and 1/6 at
  (2, 3). So the oracle is an idealization that no codebook realizes: at
  (2, 3) every codebook's mean squared error is at least
  m/(m+1) c^(-1/m) = 1.36 times the oracle's delta*^2, wherever
  c^(-1/m) delta*^2 is at most 1. The slopes that the DoF experiments
  fit do not see such a constant factor.

Random codebooks stand in for true maximal packings: they attain the
same distortion scaling exponent, which is the only property the
downstream experiments consume. Codewords are generated in chunks of
2**14, each from its own ``trial_generator(seed, chunk)`` stream.

Each number is held once. `rng.draw_unit_rows` draws unit rows in
sub-blocks (the draw order is in the `rng` module docstring). It writes
every codebook chunk straight into the one (2**bits, K, n) codeword
array, and hands each sub-block of sources to `_embed`, which writes it
into the one (trials, K*n*n) embedding that the kernel scores.
`budget_distortions` drops each codebook before it builds the next, so
quantizer-scaling never holds two. Traced peaks: building (n, K, bits) =
(2, 3, 16), a 6.0 MiB codebook, 7.0 MiB, and 25.0 MiB for 24.0 MiB at
18 bits; the codebook-distortion argv (n=2, K=2, 6..14 bits, 10**4
sources) 3.15 MiB after a warm-up call.

Nearest-neighbor search (``measure_distortion`` and ``encode``) uses the
half-vectorized projection embedding of Conway, Hardin and Sloane (Exp.
Math. 1996): each component x_k maps to the real diagonal of x_k x_k^H
plus sqrt(2) times the real and imaginary parts of its strict upper
triangle, K*n*n reals per point, so sum_k |<x_k, c_k>|^2 is one real
inner product and a batch of sources is scored against a codebook panel
by one real matrix product. Its rounding differs from the direct formula
at about 1e-15. The product is cut into tiles after Goto and van de
Geijn (ACM TOMS 2008): each slice of codewords is embedded straight into
one reused column panel of at most 256 KiB (`_panel_width`: the widest
power of two that fits, 4096 codewords at depth K*n*n = 8, 1024 at (n,
K) = (3, 2), 512 at (4, 3)), and every (source slice x panel) product
writes into one reused 512 KiB similarity tile (2**16 float64). No
embedded chunk and no transposed copy of it is held: at n=2, K=2, 14
bits and 10**4 sources the full scan traces 1.9 MiB. A 512 KiB tile
stays in a 2 MiB L2 cache between the depth-K*n*n product that writes
it and the row max that reads it back, and the panel beside it. A
4096-codeword panel at (4, 3) is 1.5 MiB: the full scan at (4, 3, 14)
took 127 ms with 2,000 sources in such panels and 86 ms in 512-codeword
ones, and at (2, 1, 14), 10**4 sources, 112 ms in 4096-codeword panels
and 88 ms in 8192-codeword ones; (3, 2, 14) read 259 and 257 ms in 4096-
and 1024-codeword panels (one BLAS thread, 5 rounds). Tile-size curve, measured on the full scan before pruning, median
seconds of the whole codebook-distortion argv (n=2, K=2, 6..14 bits,
10**4 sources, one BLAS thread, 2-core shared VM): 8 MiB 0.71, 2 MiB
0.63, 1 MiB 0.54, 512 KiB 0.41, 256 KiB 0.45, 128 KiB 0.56; below 512 KiB
the per-tile call overhead outweighs the cache.

``measure_distortion`` prunes the search once the codebook is large
enough, and stays exact. Every embedded point has squared norm K, so
||E(x) - E(c)||^2 = 2 d^2(x, c): the composite chordal distance d is a
Euclidean distance in the embedding. The first G codewords, already
i.i.d. uniform, are the pivots, and every codeword joins its nearest
pivot's cluster (`_pivot_index`): the codewords, a panel's width at a
time, are scored as sources against the pivots, so each slice embeds
the pivots once, and `_nearest` carries every row's best score and its
position across panels and tiles. Each source is scored against its own
pivot p_h's cluster first, which gives its best squared distance D0,
then against each other cluster g unless a lower bound on its distance
to every codeword there exceeds its best so far. The bound is the
bisector (half-space) bound of Elkan's triangle-inequality k-means (ICML
2003). With s_j = sum_k |<x_k, p_jk>|**2 the source's score on pivot j,
every codeword c of cluster g is no nearer p_h than p_g, so <E(c) - E(x),
E(p_g) - E(p_h)> >= s_h - s_g, and by Cauchy-Schwarz d(x, c) >= (s_h -
s_g) / (2 d(p_g, p_h)). s_h is the score `_nearest` returns with the
source's own pivot. The pivots are embedded once: one G x G product of
that embedding gives the pivot distances (`_bisector_scale`), and one
product of the sources with pivot g's row gives every source's s_g. At
(2, 2, 14) with 16 pivots and 2,000 sources the search scores 4.5e6 of
the 3.3e7 codeword-source pairs. Every cluster pass runs through the
same panels and tiles on gathered index subsets, one cluster per call,
so no (sources x pivots) or (sources x cluster) matrix is held.
Rounding: every score is taken to err by at most 1e-12 (its rounding
bound is below 2e-14). The numerator is cut by 4e-12 (`_BISECTOR_EPS`),
the errors of four scores: the source's s_h and s_g, and the codeword's
s_g and s_h, on whose order its cluster rests. The denominator is
inflated by the factor 1 + 1e-6 (`_PRUNE_SLACK`): d = sqrt(K - score)
cancels near zero, and the factor covers an error of 1e-12 in K - score
only for pivots at least 1e-3 apart (`_CLOSE_PIVOTS`). Nearer pairs,
duplicate pivots among them, get no bound. So no cluster that holds a
source's nearest codeword is skipped, and each source gets its exact
best score up to rounding, about 1e-15; at CLI seeds 0-12 the
codebook-distortion argv writes byte for byte the CSV of the full scan.
G is 1, the full scan, below 2**(9 + m) codewords, m = K(n-1), and for m
above 5; elsewhere it is 2**(bits//2 - 3), doubled from m = 3 on, from
8 to 256 (`_pivot_count`). G curve, median ms per call with 10**4
sources (one BLAS thread, 2-core shared VM). For G = 1 (the scan), 8,
16, 32, 64, 5 rounds: (n, K, bits) = (2, 1, 11) 18, 9, 11, 15, 26; (2, 1,
12) 34, 13, 12, 16, 16; (2, 1, 14) 137, 20, 16, 16, 21; (2, 2, 12) 43,
16, 16, 20, 27; (2, 2, 13) 65, 22, 29, 32, 41; (2, 2, 14) 130, 43, 30,
29, 53; (2, 3, 13) 112, 63, 59, 64, 79; (2, 3, 14) 166, 89, 65, 58, 62;
(3, 2, 14) 314, 200, 188, 170, 173. For G = 1, 16, 32, 64, 128, 256, 5
rounds: (2, 1, 16) 522, 95, 42, 42, 55, 87; (2, 2, 16) 472, 100, 77, 61,
72, 100; (2, 3, 16) 1002, 295, 151, 115, 125, 165; (3, 2, 15) 467, 356,
315, 304, 241, 293; (3, 2, 16) 931, 601, 455, 396, 402, 504. For G = 32,
64, 128, 256, 512, 2 rounds: (2, 1, 18) 220, 190, 201, 220, 275; (2, 2,
18) 239, 211, 284, 286, 335; (2, 3, 18) 499, 347, 304, 313, 436; (3, 2,
18), G = 64 on, 1065, 857, 739, 796 (the scan 4224). One round: (2, 2,
20) 707, 658, 840, 933 for G = 64-512; (3, 2, 20) 2611, 2175, 2231 for
G = 128, 256, 512. Past 256 pivots no shape gained, so G stops there.
Larger m: (2, 5, 15) 485, 434, 413, 396 for G = 1, 16, 32, 64; (2, 5,
16) 928, 835, 726, 689 for the same G; (2, 5, 18) 3946, 2169, 1795, 1649
for G = 1, 64, 128, 256; and m = 6, (3, 3, 17), 2365, 2322, 2209, 2173
for G = 1, 32, 64, 128. The nearest codeword's distance over a cluster's
extent scales as 2**(-(bits - log2 G) / (2m)), which nears 1 as m
grows, so the bound rules out less: pruning stops at m = 5, the largest
m measured to win clearly. Each cluster costs a few calls of fixed
overhead, so G past the curve's minimum loses. The smallest pruned
budgets, for G = 1, 8, 16, 32, two passes of 5 rounds each: (2, 1, 10)
8.9, 6.5, 7.9, 11.0 and 8.0, 4.7, 5.6, 7.5; (2, 2, 11) 18.1, 14.6, 15.4,
19.2 and 15.8, 12.1, 12.3, 15.4; (2, 3, 12) 37.4, 29.2, 36.2, 38.1 and
42.9, 32.6, 30.5, 39.5; (3, 2, 13) 117.6, 117.3, 103.1, 111.0 and 121.0,
116.6, 103.0, 108.7. The rule's G (8, 8, 16, 16) beat the scan in every
pass, as at (2, 4, 13) and (2, 5, 14), 109.8 and 335.0 ms at G = 16 and
32 against the scan's 134.9 and 356.0 (7 rounds). One bit lower, (3, 2,
12) lost at every G (55.6, 58.8, 65.3, 81.9 and 54.7, 62.0, 68.6, 84.5),
and so did (2, 2, 10) earlier (10, 11, 13, 17). Traced peaks of `_batched_min_dist` with its sources' embedding:
2.05 MiB pruned at (2, 2, 14) with 10**4 sources (the scan 1.9); with
2,000 sources 2.08 MiB at (2, 2, 16) (the scan 1.45) and 3.7 MiB at (2,
1, 18), an 8 MiB codebook (the scan 1.0): the index holds an 8-byte
position per codeword, and clusters of up to a few thousand codewords
make large gathered panels and tiles. At (2, 2, 14) the peak is the
embedded sources (0.61 MiB), one cluster's tile (0.5 MiB), its gathered
panel and codewords (0.1 MiB each), the codewords' and sources' cluster
orders (0.2 MiB), four per-source vectors (0.3 MiB) and temporaries
within one line (0.15 MiB); at (2, 2, 16) the codewords' order is 0.5
MiB, and a cluster's panel and codewords 0.2 MiB each.

``encode`` keeps the full scan. Building the index scores every
codeword against G pivots, which costs as much as scoring G points, so
one point cannot pay for it. It runs the same panels and tiles
(`_score_tiles`) for one point through `_nearest`, which reduces each
tile by its argmax, where the distortion path takes the row max and
pays for no argmax.
Ties go to the lowest index: the first hit within a tile, and a strictly
greater score across panels. One point cannot amortize embedding a whole
codebook, and feedback builds a fresh codebook per receiver, so a
single-point encode can cost more than a per-point scan on the direct
formula. Median ms per point, scan then
kernel (one BLAS thread, 2-core shared VM, two rounds):
0.05 and 0.14 at (n, K, bits) = (2, 3, 8); 1.4-1.7 for both at
(2, 3, 14); 7-9 and 25-30 at (4, 3, 16); 86-113 for both at (2, 3, 20).
Only ``ia-run --feedback codebook`` encodes, K points per run.
Points and codewords are (K, n) arrays of unit rows; codeword i is
``cb.points[i]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grassmann import sample_uniform
from .rng import draw_unit_rows, trial_generator

__all__ = [
    "Codebook",
    "build_random_codebook",
    "encode",
    "measure_distortion",
    "distortion_oracle_quantize",
    "distortion_scaling_exponent",
    "save_codebook",
]

MAX_MATERIALIZED_BITS = 26
_GEN_CHUNK = 1 << 14
# float64 entries in the (sources x codewords) similarity tile: 512 KiB,
# resident in L2 (the tile-size curve is in the module docstring)
_SIM_TILE = 1 << 16
# bytes of one column panel of embedded codewords (`_panel_width`)
_PANEL_BYTES = 1 << 18
# the pruned search pays from 2**(9 + K(n-1)) codewords on, for K(n-1)
# up to 5, with at most 256 pivots (G curve in the module docstring)
_PRUNE_FROM_BITS = 9
_PRUNE_MAX_M = 5
_MAX_PIVOTS = 1 << 8
# Rounding allowances of the pruned search. Every score, an inner product
# of two embedded points of depth K*n*n <= 36 and squared norm K <= 5, is
# taken to err by at most 1e-12 (its rounding bound is below 2e-14). The
# bisector bound's numerator s_h - s_g is cut by _BISECTOR_EPS, the
# errors of four scores: s_h and s_g of the source, and s_g and s_h of
# the codeword, whose nearest-pivot assignment rests on their order. Its
# denominator 2 d(p_g, p_h), with d = sqrt(K - score), is inflated by the
# factor 1 + _PRUNE_SLACK: an error of 1e-12 in K - score moves d by a
# factor of at most 1 + 1e-6 only once d is _CLOSE_PIVOTS or more, so
# nearer pairs, duplicate pivots among them, get no bound.
_PRUNE_SLACK = 1e-6
_BISECTOR_EPS = 4e-12
_CLOSE_PIVOTS = 1e-3


@dataclass
class Codebook:
    """An indexed set of 2**bits composite Grassmann codewords.

    ``points`` is the (2**bits, K, n) complex array of codewords; ``seed``
    records the integer they were generated from, if any.
    ``points`` is made read-only, so a codebook is immutable after
    construction and safe to share across parallel encode workers.
    """

    n: int
    K: int
    bits: int
    points: np.ndarray = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("bit budget must be non-negative")
        if self.points.shape != (self.size, self.K, self.n):
            raise ValueError("codeword array shape does not match (2**bits, K, n)")
        self.points.setflags(write=False)

    @property
    def size(self) -> int:
        return 1 << self.bits


def build_random_codebook(n: int, K: int, bits: int, seed: int) -> Codebook:
    """Draw 2**bits i.i.d. uniform codewords from an integer seed.

    Codeword chunk c, rows c*2**14 onward, comes from the stream seeded
    by (seed, c), so a codebook is fixed by its seed whatever its size.
    `rng.draw_unit_rows` writes each chunk straight into the one
    (2**bits, K, n) codeword array.
    """
    if n < 2 or K < 1 or bits < 0:
        raise ValueError("need n >= 2, K >= 1, bits >= 0")
    if bits > MAX_MATERIALIZED_BITS:
        raise ValueError(
            f"bits={bits} exceeds the materialization guard ({MAX_MATERIALIZED_BITS}); "
            "use the distortion oracle"
        )
    seed = int(seed)
    points = np.empty((1 << bits, K, n), dtype=complex)
    for c0 in range(0, len(points), _GEN_CHUNK):
        chunk = points[c0 : c0 + _GEN_CHUNK]
        for _ in draw_unit_rows(trial_generator(seed, c0 // _GEN_CHUNK), chunk.shape, out=chunk):
            pass
    return Codebook(n=n, K=K, bits=bits, points=points, seed=seed)


@functools.lru_cache(maxsize=None)
def _upper_pairs(n: int):
    """Row and column indices of the strict upper triangle of an n x n matrix, read-only as every caller shares them."""
    pairs = np.triu_indices(n, 1)
    for idx in pairs:
        idx.setflags(write=False)
    return pairs


def _embed(points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half-vectorized projection embedding of (..., K, n) unit rows into (..., K*n*n) reals.

    Each component x_k maps to the real diagonal of x_k x_k^H followed by
    sqrt(2) times the real and imaginary parts of its strict upper
    triangle, concatenated over k. The off-diagonal pair (i, j), (j, i)
    contributes 2 Re(X_ij conj(C_ij)) to the trace of a product of
    Hermitian matrices, so ``_embed(x) @ _embed(c)`` equals
    sum_k |<x_k, c_k>|**2 and the composite squared distance is K minus
    that inner product (Conway, Hardin and Sloane, Exp. Math. 1996).
    ``out``, if given, is a (..., K, n*n) array, such as a transposed
    view of a column panel, that the embedding is written into and
    returned unreshaped.
    """
    n = points.shape[-1]
    iu, ju = _upper_pairs(n)
    upper = math.sqrt(2.0) * points[..., iu] * points[..., ju].conj()
    dest = np.empty((*points.shape[:-1], n * n)) if out is None else out
    dest[..., :n] = points.real**2 + points.imag**2
    dest[..., n : n + len(iu)] = upper.real
    dest[..., n + len(iu) :] = upper.imag
    return dest.reshape(*points.shape[:-2], -1) if out is None else out


def _panel_width(depth: int) -> int:
    """Codewords per column panel of depth-`depth` embeddings: the largest power of two whose panel fits `_PANEL_BYTES`."""
    return 1 << (max(1, _PANEL_BYTES // (8 * depth)).bit_length() - 1)


def _score_tiles(src: np.ndarray, cb: Codebook, src_idx=None, cw_idx=None):
    """Yield (source offset, panel offset, score tile) over codewords of `cb`.

    ``src`` holds the sources' `_embed` rows, (count, K*n*n). ``src_idx``
    and ``cw_idx``, if given, are index arrays that pick the sources and
    the codewords scored (all of them by default), and both offsets count
    positions within them. Tile row r, column c holds sum_k |<x_k, c_k>|**2
    of source ``s0 + r`` and codeword ``p0 + c``. The codewords are scored
    in column panels of `_panel_width` codewords: each slice of them is
    gathered and embedded straight into one reused panel buffer,
    codewords as columns, and each slice of picked sources is gathered
    per tile. Every (source slice x panel) pair is one real GEMM into one
    similarity tile of at most ``_SIM_TILE`` entries, reused by every
    pair, so the caller must reduce a tile before asking for the next one,
    while it is still in cache.
    """
    count = len(src) if src_idx is None else len(src_idx)
    size = cb.size if cw_idx is None else len(cw_idx)
    depth = src.shape[1]
    cols = min(size, _panel_width(depth))
    rows = max(1, _SIM_TILE // cols)
    panel_buf = np.empty(depth * cols)
    tile = np.empty(min(rows, count) * cols)
    for p0 in range(0, size, cols):
        block = cb.points[p0 : p0 + cols] if cw_idx is None else cb.points[cw_idx[p0 : p0 + cols]]
        # the panel's transposed (codeword, K, n*n) view is what _embed fills
        panel = panel_buf[: depth * len(block)].reshape(depth, len(block))
        _embed(block, out=panel.reshape(cb.K, -1, len(block)).transpose(2, 0, 1))
        for s0 in range(0, count, rows):
            part = src[s0 : s0 + rows] if src_idx is None else src[src_idx[s0 : s0 + rows]]
            scores = tile[: len(part) * len(block)].reshape(len(part), -1)
            np.matmul(part, panel, out=scores)
            yield s0, p0, scores


def encode(x: np.ndarray, cb: Codebook) -> int:
    """Index of the codeword nearest the (K, n) point `x`; ties break toward the lowest index."""
    if np.shape(x) != (cb.K, cb.n):
        raise ValueError(f"point shape {np.shape(x)} does not match the codebook's {(cb.K, cb.n)}")
    if not np.isfinite(x).all():
        raise ValueError("cannot encode a non-finite point")
    return int(_nearest(_embed(np.asarray(x)[None]), cb)[0][0])


def _nearest(src: np.ndarray, cb: Codebook, cw_idx=None):
    """Each `_embed` source row's nearest codeword among the picked ones, and its score.

    Returns the position within ``cw_idx`` (every codeword by default) of
    each source's best score over the `_score_tiles` panels and tiles,
    and that score. Ties go to the lowest position: the first hit within
    a tile, and a strictly greater score across panels.
    """
    where = np.zeros(len(src), dtype=np.intp)
    best = np.full(len(src), -np.inf)
    for s0, p0, scores in _score_tiles(src, cb, cw_idx=cw_idx):
        off = scores.argmax(axis=1)
        top = scores[np.arange(len(off)), off]
        span = slice(s0, s0 + len(off))
        better = top > best[span]
        where[span][better] = p0 + off[better]
        best[span][better] = top[better]
    return where, best


def _pivot_count(size: int, m: int) -> int:
    """Pivots of the pruned search over `size` codewords of complex dimension m = K(n-1); 1 is the full scan.

    G is 1 below 2**(_PRUNE_FROM_BITS + m) codewords or for m above
    `_PRUNE_MAX_M`, else 2**(bits//2 - 3), doubled from m = 3 on, at
    least 8 and at most `_MAX_PIVOTS`. The rule follows the minima of the
    G curve in the module docstring, and its limits are the curve's
    edges: no larger G won, and at larger m pruning gained little.
    """
    bits = size.bit_length() - 1
    if m > _PRUNE_MAX_M or bits < _PRUNE_FROM_BITS + m:
        return 1
    return min(max(8, 1 << (bits // 2 - 3 + m // 3)), _MAX_PIVOTS)


def _raise_best(best: np.ndarray, src: np.ndarray, cb: Codebook, src_idx=None, cw_idx=None) -> None:
    """Raise ``best`` of the picked sources to their best score over the picked codewords (`_score_tiles`)."""
    acc = best if src_idx is None else best[src_idx]
    for s0, _, scores in _score_tiles(src, cb, src_idx, cw_idx):
        part = acc[s0 : s0 + len(scores)]
        np.maximum(part, scores.max(axis=1), out=part)
    if src_idx is not None:
        best[src_idx] = acc


def _pivot_index(cb: Codebook, pivots: np.ndarray):
    """Cluster every codeword of `cb` under its nearest pivot.

    Returns the codeword indices grouped by cluster (pivot order, each
    cluster in index order) and the (G + 1) cluster offsets into them.
    Codewords are embedded as sources a panel's width at a time, and the
    pivots once per slice; owners are int16, as G is at most `_MAX_PIVOTS`.
    """
    owner = np.empty(cb.size, dtype=np.int16)
    width = _panel_width(cb.K * cb.n * cb.n)
    for c0 in range(0, cb.size, width):
        owner[c0 : c0 + width] = _nearest(_embed(cb.points[c0 : c0 + width]), cb, cw_idx=pivots)[0]
    starts = np.zeros(len(pivots) + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=len(pivots)), out=starts[1:])
    return np.argsort(owner, kind="stable"), starts


def _bisector_scale(emb: np.ndarray, K: int) -> np.ndarray:
    """The (G, G) factors 1 / (2 d(p_g, p_h)) of the bisector bound, allowance included.

    ``emb`` holds the G pivots' `_embed` rows. Each pivot distance comes
    from one product of them and is inflated by the factor
    1 + `_PRUNE_SLACK`; pairs nearer than `_CLOSE_PIVOTS`, the diagonal
    and duplicate pivots among them, get 0, which is no bound.
    """
    dist = np.sqrt(np.maximum(K - emb @ emb.T, 0.0))
    far = dist >= _CLOSE_PIVOTS
    scale = np.zeros_like(dist)
    scale[far] = 0.5 / ((1.0 + _PRUNE_SLACK) * dist[far])
    return scale


def _bisector_bounds(own_score: np.ndarray, scores: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Squared bisector bounds ((s_h - s_g - eps)_+ * scale)**2 on the codewords of cluster g.

    ``own_score`` holds each source's score s_h on its own pivot p_h,
    ``scores`` its score s_g on p_g and ``scale`` its factor 1 / (2 d(p_g,
    p_h)) from `_bisector_scale`; eps is `_BISECTOR_EPS`.
    """
    cut = own_score - scores
    cut -= _BISECTOR_EPS
    np.maximum(cut, 0.0, out=cut)
    cut *= scale
    return np.square(cut, out=cut)


def _batched_min_dist(src: np.ndarray, cb: Codebook) -> np.ndarray:
    """Squared distortion of each `_embed` source row under nearest-neighbor coding: K minus its best score.

    With one pivot (`_pivot_count`) every source meets every codeword.
    Otherwise the search is pruned, exactly (module docstring): each
    source is scored against its nearest pivot's cluster, then against
    each other cluster whose bisector bound does not exceed its best
    squared distance so far.
    """
    best = np.full(len(src), -np.inf)
    pivots = np.arange(_pivot_count(cb.size, cb.K * (cb.n - 1)))
    if len(pivots) == 1:
        _raise_best(best, src, cb)
        return np.maximum(cb.K - best, 0.0)
    order, starts = _pivot_index(cb, pivots)
    own, own_score = _nearest(src, cb, cw_idx=pivots)
    emb = _embed(cb.points[pivots])
    scale = _bisector_scale(emb, cb.K)
    # own cluster first: every source's best squared distance D0
    by_own = np.argsort(own, kind="stable")
    bounds = np.zeros(len(pivots) + 1, dtype=np.intp)
    np.cumsum(np.bincount(own, minlength=len(pivots)), out=bounds[1:])
    for g in np.flatnonzero((bounds[1:] > bounds[:-1]) & (starts[1:] > starts[:-1])):
        _raise_best(best, src, cb, by_own[bounds[g] : bounds[g + 1]], order[starts[g] : starts[g + 1]])
    # then every other cluster that its bisector bound cannot rule out
    for g in np.flatnonzero(starts[1:] > starts[:-1]):
        bound = _bisector_bounds(own_score, src @ emb[g], scale[g, own])
        hits = np.flatnonzero((bound <= cb.K - best) & (own != g))
        if len(hits):
            _raise_best(best, src, cb, hits, order[starts[g] : starts[g + 1]])
    return np.maximum(cb.K - best, 0.0)


def measure_distortion(cb: Codebook, trials: int, rng) -> np.ndarray:
    """Squared error of `trials` uniform sources under nearest-neighbor coding, shape (trials,).

    The sources are `rng.draw_unit_rows` rows; each sub-block is embedded
    straight into one (trials, K*n*n) array, so no complex source array
    is held.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    src = np.empty((trials, cb.K * cb.n * cb.n))
    for s0, rows in draw_unit_rows(np.random.default_rng(rng), (trials, cb.K, cb.n)):
        _embed(rows, out=src[s0 : s0 + len(rows)].reshape(len(rows), cb.K, -1))
    return _batched_min_dist(src, cb)


def distortion_oracle_quantize(x, delta_sq, normals) -> np.ndarray:
    """Place each point at its oracle radius, at an arbitrarily large budget.

    ``x`` is a (B, K, n) array of unit rows. ``delta_sq`` holds each
    point's squared distortion radius, the square of its `oracle_radius`,
    as a (B,) array. ``normals`` holds each point's complex (K, n) normals,
    a (B, K, n) array as `rng.trial_normals` or `rng.complex_normal` draw
    them. Returns a (B, K, n) array whose point b lies at composite
    distance exactly sqrt(delta_sq[b]) from x[b], with the squared error
    spread over the components by the uniformly random tangent direction
    that normals[b] gives. Every component therefore stays within
    delta_sq[b] of its original, which is 1/P at the full feedback budget.
    A zero radius keeps x[b] itself, and a NaN radius marks a user who
    feeds back nothing: point b is then `grassmann.sample_uniform` of
    normals[b]. Only the placed points' tangent draws are checked. No
    codebook puts every point within its `oracle_radius`, so the oracle is
    an idealization that no codebook realizes, not a codebook it emulates.
    """
    arr = np.asarray(x)
    target, raw = np.asarray(delta_sq, dtype=float), np.asarray(normals)
    if arr.ndim != 3 or target.shape != arr.shape[:1] or len(raw) != len(arr):
        raise ValueError("need one squared radius and one normal draw per (K, n) point")
    if raw.shape[1:] != arr.shape[1:] or not np.iscomplexobj(raw):
        raise ValueError(f"{raw.dtype} normals {raw.shape[1:]} do not match the complex {arr.shape[1:]} manifold")
    silent = np.isnan(target)
    moved = ~silent & (target != 0.0)
    out = np.where(silent[:, None, None], sample_uniform(arr.shape[2], arr.shape[1], raw), arr) if silent.any() else arr
    if not moved.any():
        return out

    overlap = np.einsum("bkj,bkj->bk", arr.conj(), raw)
    tangent = raw - overlap[..., None] * arr
    # kept and silent rows take no tangent: weight them 1
    weights = np.where(moved[:, None], np.linalg.norm(tangent, axis=-1), 1.0)
    # zero tangent components have probability zero; guard anyway
    if np.any(weights == 0.0):
        raise RuntimeError("degenerate tangent draw; retry with a different stream")
    tangent /= weights[..., None]
    alloc = weights**2 / np.sum(weights**2, axis=-1, keepdims=True)

    comp_err = alloc * np.where(moved, target, 0.0)[:, None]
    placed = np.sqrt(1.0 - comp_err)[..., None] * arr + np.sqrt(comp_err)[..., None] * tangent
    placed /= np.linalg.norm(placed, axis=-1, keepdims=True)
    return np.where(moved[:, None, None], placed, out)


# Not in __all__, with `oracle_radius`: bench/tracer.py times every
# function listed there, and these run inside the cli's oracle step.
def feedback_bits(K: int, R: int, L: int, P: float, alpha: float = 1.0) -> int:
    """Feedback bits of a user at power P: ceil(alpha * K * (R*L - 1) * log2(P)), clamped at zero.

    The budget for a K-user channel with R receive antennas and L taps;
    ``alpha`` scales an individual user's feedback rate, and alpha = 1 is
    the full budget under which the quantization error shrinks like 1/P.
    """
    return max(0, math.ceil(alpha * K * (R * L - 1) * math.log2(P)))


def oracle_radius(bits: int, K: int, n: int) -> float:
    """The oracle's distortion radius at `bits`: delta* = 2**(-bits / (2 K (n-1))), at most 1.

    2**bits balls of radius delta* on G_{n,1}^K cover at most the fraction
    c = Gamma(n)^K / Gamma(K(n-1) + 1) of the manifold, below 1 from
    K(n-1) = 2 on, so no codebook of 2**bits codewords puts every point
    within delta* (see the module docstring). A direction is a line in
    C^n, so n < 2 (one scalar tap) has none and raises ValueError.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}: a single scalar tap carries no direction information")
    return min(1.0, 2.0 ** (-bits / (2.0 * K * (n - 1))))


# Not in __all__: bench/tracer.py would time it as a span of its own
# around the build and measure spans it already records.
def budget_distortions(n: int, K: int, bits_list, trials: int, rng, save=None):
    """Yield each budget's `measure_distortion` array, budget by budget.

    Budget b's random codebook comes from a seed drawn off `rng`, and its
    `trials` sources from `rng` right after. ``save``, if given, is called
    with each codebook once it is built. The codebook is dropped before
    its distortions are yielded, so no two are ever held at once.
    """
    rng = np.random.default_rng(rng)
    for bits in bits_list:
        cb = build_random_codebook(n, K, bits, seed=int(rng.integers(2**63)))
        if save is not None:
            save(cb)
        dists = measure_distortion(cb, trials, rng)
        del cb
        yield dists


def distortion_scaling_exponent(n: int, K: int, bits_list, trials: int, rng) -> float:
    """Least-squares slope of log2(mean squared distortion) versus bits.

    Random codebooks are rebuilt per budget from seeds drawn off `rng`
    (`budget_distortions`). For uniform sources the slope approaches
    -1 / (K (n - 1)).
    """
    bits_list = sorted(set(int(b) for b in bits_list))
    if len(bits_list) < 3:
        raise ValueError("need at least three distinct bit budgets for a slope fit")
    log_msd = [math.log2(d.mean()) for d in budget_distortions(n, K, bits_list, trials, rng)]
    slope = np.polyfit(np.asarray(bits_list, dtype=float), np.asarray(log_msd), 1)[0]
    return float(slope)


def save_codebook(cb: Codebook, path) -> None:
    """Write a codebook as a textual table of complex coordinates.

    One line per codeword holding K*n entries (component-major) follows a
    header that records (n, K, bits, seed).
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# iafb-codebook v1\n")
        seed = "none" if cb.seed is None else str(cb.seed)
        fh.write(f"n={cb.n} K={cb.K} bits={cb.bits} mode=materialized seed={seed}\n")
        for row in cb.points.reshape(cb.size, cb.K * cb.n):
            fh.write(" ".join(repr(complex(z)) for z in row) + "\n")
