"""Finite-rate codebooks on the composite Grassmann manifold.

Two quantizer flavors cover the whole bit-budget range:

* random codebooks hold all 2**bits codewords in memory (at most
  2**MAX_MATERIALIZED_BITS) and support exact nearest-neighbor search;
* the distortion oracle emulates an ideal packing codebook at budgets
  far beyond what can be materialized, by returning a point at exactly
  the distortion radius 2**(-bits / (2 K (n-1))) that such a codebook
  guarantees (`oracle_radius`). Rate/DoF experiments whose bit budgets
  grow with the transmit power (`feedback_bits`) rely on it.

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
sources) 3.3 MiB.

Nearest-neighbor search (``measure_distortion`` and ``encode``) uses the
half-vectorized projection embedding of Conway, Hardin and Sloane (Exp.
Math. 1996): each component x_k maps to the real diagonal of x_k x_k^H
plus sqrt(2) times the real and imaginary parts of its strict upper
triangle, K*n*n reals per point, so sum_k |<x_k, c_k>|^2 is one real
inner product and a batch of sources is scored against a codebook panel
by one real matrix product. Its rounding differs from the direct formula
at about 1e-15. The product is cut into tiles after Goto and van de
Geijn (ACM TOMS 2008): each slice of 4096 codewords is embedded straight
into one reused (K*n*n, 4096) column panel, and every (source slice x
panel) product writes into one reused 512 KiB similarity tile (2**16
float64). No embedded chunk and no transposed copy of it is held: at
n=2, K=2, 14 bits and 10**4 sources the full scan traces 1.9 MiB. A 512
KiB tile stays in a 2 MiB L2 cache between the depth-K*n*n product that
writes it and the row max that reads it back. Tile-size curve, measured
on the full scan before pruning, median seconds of the whole
codebook-distortion argv (n=2, K=2, 6..14 bits, 10**4 sources, one BLAS
thread, 2-core shared VM): 8 MiB 0.71, 2 MiB 0.63, 1 MiB 0.54, 512 KiB
0.41, 256 KiB 0.45, 128 KiB 0.56; below 512 KiB the per-tile call
overhead outweighs the cache.

``measure_distortion`` prunes the search once the codebook is large
enough, and stays exact. Every embedded point has squared norm K, so
||E(x) - E(c)||^2 = 2 d^2(x, c): the composite chordal distance d is a
Euclidean distance in the embedding and obeys the triangle inequality.
A cluster of codewords within radius r_g of a pivot p_g then holds no
codeword nearer x than (d(x, p_g) - r_g)_+, as in pivot-based metric
search (Chavez et al., ACM Comput. Surv. 2001) and Elkan's
triangle-inequality k-means (ICML 2003). The first G codewords, already
i.i.d. uniform, are the pivots, and every codeword joins its nearest
pivot's cluster (`_pivot_index`): the codewords, a panel's width at a
time, are scored as sources against the pivots, so each slice embeds
the pivots once, and `_nearest` carries every row's best score and its
position across panels and tiles. Each source is scored against its own
pivot's cluster first, which gives its best squared distance D0, then
against each other cluster whose bound (d(x, p_g) - r_g)_+**2 does not
exceed its best so far. Every product runs through the same panels and
tiles on gathered index subsets, one cluster per call, so no (sources x
pivots) or (sources x cluster) matrix is held. Rounding: d = sqrt(K -
score) cancels near zero, where an error of 1e-16 in the score moves d
by up to 1e-8. Every pivot distance is deflated, and every radius
inflated, by an allowance of 1e-6 (`_PRUNE_SLACK`), which covers errors
up to 1e-12 in K - score. So no cluster that holds a source's nearest
codeword is skipped, and each source gets its exact best score up to
rounding, about 1e-15; at CLI seeds 0-12 the codebook-distortion argv
writes byte for byte the CSV of the full scan. G is 1, the full scan,
below 2**(11 + m) codewords, m = K(n-1), and for m above 5; elsewhere
it is 2**(bits//2 - 1), at most 256 (`_pivot_count`).
G curve, median ms per call with 10**4 sources for G = 1 (the scan), 16,
32, 64, 128, 256 (one BLAS thread, 2-core shared VM, 5 rounds):
(n, K, bits) = (2, 1, 11) 16, 13, 15, 17, 30, 57; (2, 1, 12) 31, 13, 19,
20, 28, 49; (2, 1, 14) 119, 38, 34, 29, 42, 59; (2, 2, 12) 36, 39, 35,
36, 52, 73; (2, 2, 13) 67, 52, 46, 46, 65, 77; (2, 2, 14) 137, 88, 54,
46, 63, 75; (2, 3, 13) 104, 99, 104, 95, 108, 137; (2, 3, 14) 197, 167,
163, 145, 148, 153; (3, 2, 14) 324, 318, 342, 349, 349, 418. For G = 1,
32, 64, 128, 256, 512 (3 rounds): (2, 1, 16) 501, 91, 60, 77, 94, 226;
(2, 2, 16) 579, 210, 158, 160, 196, 255; (2, 3, 16) 811, 408, 283, 255,
266, 327; (3, 2, 15) 565, 465, 446, 392, 464, 513; (3, 2, 16) 1413,
1057, 832, 645, 562, 633. For G = 1, 128, 256, 512, 1024 (3 rounds):
(2, 1, 18) 1996, 206, 230, 376, 535; (2, 2, 18) 2199, 367, 266, 390,
623; (2, 3, 18) 2344, 655, 588, 617, 898; (3, 2, 18) 5333, 2020, 1808,
1361, 1592. For G = 1, 128, 256, 512 (2 rounds): (2, 1, 20) 7794, 811,
816, 1009; (2, 2, 20) 9026, 1292, 1141, 1373; (3, 2, 20) 19493, 7387,
5070, 3434. Past 256 pivots only (3, 2) gained, so G stops at 256.
Larger m, for G = 1, 128, 256 (one round): (2, 5, 16) 1401, 1074, 980;
(2, 5, 18) 5379, 3931, 3215; (3, 3, 17) 3105, 2556, 2599; (3, 3, 19)
12352, 15049, 12019; and with 2,000 sources (4, 3, 20) 9480 for the
scan, 11863 for G = 256. The nearest codeword's distance over a
cluster's radius scales as 2**(-(bits - log2 G) / (2m)), which nears 1
as m grows, so the bound rules out less: pruning stops at m = 5, the
largest m measured to win clearly.
Each cluster costs a few calls of fixed overhead, so G past the curve's
minimum loses, and so does pruning below 2**(11 + m) codewords, where a
source's candidate clusters cover much of the codebook. Traced peaks of
`_batched_min_dist` with its sources' embedding: 1.7 MiB pruned at (2,
2, 14) with 10**4 sources (the scan 1.9); with 2,000 sources 1.5 MiB at
(2, 2, 16) (the scan 1.45) and 3.1 MiB at (2, 1, 18), an 8 MiB codebook
(the scan 1.0): the index holds an 8-byte position per codeword.

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

from .rng import as_generator, draw_unit_rows, trial_generator

__all__ = [
    "Codebook",
    "build_random_codebook",
    "encode",
    "measure_distortion",
    "distortion_oracle_quantize",
    "distortion_scaling_exponent",
    "save_codebook",
    "load_codebook",
]

MAX_MATERIALIZED_BITS = 26
_GEN_CHUNK = 1 << 14
# float64 entries in the (sources x codewords) similarity tile: 512 KiB,
# resident in L2 (the tile-size curve is in the module docstring)
_SIM_TILE = 1 << 16
# codewords per column panel of an embedded codebook chunk
_PANEL = 1 << 12
# the pruned search pays from 2**(11 + K(n-1)) codewords on, for K(n-1)
# up to 5, with at most 256 pivots (G curve in the module docstring)
_PRUNE_FROM_BITS = 11
_PRUNE_MAX_M = 5
_MAX_PIVOTS = 1 << 8
# allowance on every distance sqrt(K - score): it covers rounding of up
# to 1e-12 in K - score, which near zero moves the root by up to 1e-6
_PRUNE_SLACK = 1e-6


@dataclass
class Codebook:
    """An indexed set of 2**bits composite Grassmann codewords.

    ``points`` is the (2**bits, K, n) complex array of codewords; ``seed``
    records the integer they were generated from, if any. A non-finite
    codeword raises ValueError, as it would score NaN against every point.
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
        # chunk by chunk: a full-size boolean array would take 2**bits*K*n bytes
        for c0 in range(0, self.size, _GEN_CHUNK):
            if not np.isfinite(self.points[c0 : c0 + _GEN_CHUNK]).all():
                raise ValueError("the codebook holds a non-finite codeword")
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


def _score_tiles(src: np.ndarray, cb: Codebook, src_idx=None, cw_idx=None):
    """Yield (source offset, panel offset, score tile) over codewords of `cb`.

    ``src`` holds the sources' `_embed` rows, (count, K*n*n). ``src_idx``
    and ``cw_idx``, if given, are index arrays that pick the sources and
    the codewords scored (all of them by default), and both offsets count
    positions within them. Tile row r, column c holds sum_k |<x_k, c_k>|**2
    of source ``s0 + r`` and codeword ``p0 + c``. The codewords are scored
    in column panels of ``_PANEL``: each slice of them is gathered and
    embedded straight into one reused (K*n*n, _PANEL) panel buffer,
    codewords as columns, and each slice of picked sources is gathered
    per tile. Every (source slice x panel) pair is one real GEMM into one
    similarity tile of at most ``_SIM_TILE`` entries, reused by every
    pair, so the caller must reduce a tile before asking for the next one,
    while it is still in cache.
    """
    count = len(src) if src_idx is None else len(src_idx)
    size = cb.size if cw_idx is None else len(cw_idx)
    cols = min(size, _PANEL)
    rows = max(1, _SIM_TILE // cols)
    depth = src.shape[1]
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
    `_PRUNE_MAX_M`, else 2**(bits//2 - 1), at most `_MAX_PIVOTS`. The
    limits are edges of the G curve in the module docstring: no larger G
    was measured, and at larger m pruning gained little or lost.
    """
    bits = size.bit_length() - 1
    if m > _PRUNE_MAX_M or bits < _PRUNE_FROM_BITS + m:
        return 1
    return min(1 << (bits // 2 - 1), _MAX_PIVOTS)


def _raise_best(best: np.ndarray, src: np.ndarray, cb: Codebook, src_idx=None, cw_idx=None) -> None:
    """Raise ``best`` of the picked sources to their best score over the picked codewords (`_score_tiles`)."""
    acc = best if src_idx is None else best[src_idx]
    for s0, _, scores in _score_tiles(src, cb, src_idx, cw_idx):
        part = acc[s0 : s0 + len(scores)]
        np.maximum(part, scores.max(axis=1), out=part)
    if src_idx is not None:
        best[src_idx] = acc


def _lower_bounds(scores: np.ndarray, K: int, radius: float) -> np.ndarray:
    """Turn scores against pivot p_g into squared lower bounds (d(x, p_g) - r_g)_+**2, in place.

    Each pivot distance sqrt(K - score) is deflated by the allowance, and
    ``radius`` is r_g already inflated by it (`_pivot_index`).
    """
    np.subtract(K, scores, out=scores)
    np.maximum(scores, 0.0, out=scores)
    np.sqrt(scores, out=scores)
    scores -= _PRUNE_SLACK
    scores -= radius
    np.maximum(scores, 0.0, out=scores)
    return np.square(scores, out=scores)


def _pivot_index(cb: Codebook, pivots: np.ndarray):
    """Cluster every codeword of `cb` under its nearest pivot.

    Returns the codeword indices grouped by cluster (pivot order, each
    cluster in index order), the (G + 1) cluster offsets into them, and
    each cluster's radius inflated by the allowance, -inf if it is empty.
    Codewords are embedded as sources a panel's width at a time, and the
    pivots once per slice; owners are int16, as G is at most `_MAX_PIVOTS`.
    """
    owner = np.empty(cb.size, dtype=np.int16)
    starts = np.zeros(len(pivots) + 1, dtype=np.intp)
    radius = np.full(len(pivots), -np.inf)
    for c0 in range(0, cb.size, _PANEL):
        own, score = _nearest(_embed(cb.points[c0 : c0 + _PANEL]), cb, cw_idx=pivots)
        owner[c0 : c0 + len(own)] = own
        starts[1:] += np.bincount(own, minlength=len(pivots))
        np.maximum.at(radius, own, np.sqrt(np.maximum(cb.K - score, 0.0)))
    np.cumsum(starts, out=starts)
    return np.argsort(owner, kind="stable"), starts, radius + _PRUNE_SLACK


def _batched_min_dist(src: np.ndarray, cb: Codebook) -> np.ndarray:
    """Squared distortion of each `_embed` source row under nearest-neighbor coding: K minus its best score.

    With one pivot (`_pivot_count`) every source meets every codeword.
    Otherwise the search is pruned, exactly (module docstring): each
    source is scored against its nearest pivot's cluster, then against
    each other cluster whose lower bound does not exceed its best squared
    distance so far.
    """
    best = np.full(len(src), -np.inf)
    pivots = np.arange(_pivot_count(cb.size, cb.K * (cb.n - 1)))
    if len(pivots) == 1:
        _raise_best(best, src, cb)
        return np.maximum(cb.K - best, 0.0)
    order, starts, radius = _pivot_index(cb, pivots)
    own = _nearest(src, cb, cw_idx=pivots)[0]
    # own cluster first: every source's best squared distance D0
    by_own = np.argsort(own, kind="stable")
    bounds = np.zeros(len(pivots) + 1, dtype=np.intp)
    np.cumsum(np.bincount(own, minlength=len(pivots)), out=bounds[1:])
    for g in np.flatnonzero((bounds[1:] > bounds[:-1]) & (starts[1:] > starts[:-1])):
        _raise_best(best, src, cb, by_own[bounds[g] : bounds[g + 1]], order[starts[g] : starts[g + 1]])
    # then every other cluster that its lower bound cannot rule out
    for g in np.flatnonzero(starts[1:] > starts[:-1]):
        for s0, _, scores in _score_tiles(src, cb, cw_idx=pivots[g : g + 1]):
            span = slice(s0, s0 + len(scores))
            lower = _lower_bounds(scores[:, 0], cb.K, radius[g])
            hits = np.flatnonzero((lower <= cb.K - best[span]) & (own[span] != g))
            if len(hits):
                _raise_best(best, src, cb, s0 + hits, order[starts[g] : starts[g + 1]])
    return np.maximum(cb.K - best, 0.0)


def measure_distortion(cb: Codebook, trials: int, rng) -> np.ndarray:
    """Squared error of `trials` uniform sources under nearest-neighbor coding, shape (trials,).

    The sources are `rng.draw_unit_rows` rows; each sub-block is embedded
    straight into one (trials, K*n*n) array, so no complex source array
    is held.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = as_generator(rng)
    src = np.empty((trials, cb.K * cb.n * cb.n))
    for s0, rows in draw_unit_rows(rng, (trials, cb.K, cb.n)):
        _embed(rows, out=src[s0 : s0 + len(rows)].reshape(len(rows), cb.K, -1))
    return _batched_min_dist(src, cb)


def distortion_oracle_quantize(x, delta_sq, normals) -> np.ndarray:
    """Emulate an ideal packing codebook at an arbitrarily large budget.

    ``x`` is a (B, K, n) array of unit rows. ``delta_sq`` holds each
    point's squared distortion radius, the square of its `oracle_radius`,
    as a (B,) array. ``normals`` holds each point's complex (K, n) normals,
    a (B, K, n) array as `rng.trial_normals` or `rng.complex_normal` draw
    them. Returns a (B, K, n) array whose point b lies at composite
    distance exactly sqrt(delta_sq[b]) from x[b], with the squared error
    spread over the components by the uniformly random tangent direction
    that normals[b] gives. Every component therefore stays within
    delta_sq[b] of its original, which is 1/P at the full feedback budget.
    """
    arr = np.asarray(x)
    target, raw = np.asarray(delta_sq, dtype=float), np.asarray(normals)
    if arr.ndim != 3 or target.shape != arr.shape[:1] or len(raw) != len(arr):
        raise ValueError("need one squared radius and one normal draw per (K, n) point")
    if raw.shape[1:] != arr.shape[1:] or not np.iscomplexobj(raw):
        raise ValueError(f"{raw.dtype} normals {raw.shape[1:]} do not match the complex {arr.shape[1:]} manifold")
    if not target.any():
        return arr

    overlap = np.einsum("bkj,bkj->bk", arr.conj(), raw)
    tangent = raw - overlap[..., None] * arr
    weights = np.linalg.norm(tangent, axis=-1)
    # zero tangent components have probability zero; guard anyway
    if np.any(weights == 0.0):
        raise RuntimeError("degenerate tangent draw; retry with a different stream")
    tangent /= weights[..., None]
    alloc = weights**2 / np.sum(weights**2, axis=-1, keepdims=True)

    comp_err = alloc * target[:, None]
    out = np.sqrt(1.0 - comp_err)[..., None] * arr + np.sqrt(comp_err)[..., None] * tangent
    out /= np.linalg.norm(out, axis=-1, keepdims=True)
    return np.where((target == 0.0)[:, None, None], arr, out)


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
    """Distortion radius an ideal packing of (K, n) points guarantees at `bits`: 2**(-bits / (2 K (n-1))), at most 1.

    A direction is a line in C^n, so n < 2 (one scalar tap) has none and
    raises ValueError.
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
    rng = as_generator(rng)
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


def load_codebook(path) -> Codebook:
    """Read a codebook written by `save_codebook`."""
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().strip()
        if magic != "# iafb-codebook v1":
            raise ValueError(f"not a codebook file: {path}")
        header = dict(item.split("=", 1) for item in fh.readline().split())
        n, K, bits = int(header["n"]), int(header["K"]), int(header["bits"])
        if header["mode"] != "materialized":
            raise ValueError(f"codebook mode {header['mode']!r} is not supported (only materialized): {path}")
        seed = None if header["seed"] == "none" else int(header["seed"])
        rows = []
        for line in fh:
            if line.strip():
                rows.append([complex(tok) for tok in line.split()])
        points = np.asarray(rows, dtype=complex).reshape(1 << bits, K, n)
        return Codebook(n=n, K=K, bits=bits, points=points, seed=seed)
