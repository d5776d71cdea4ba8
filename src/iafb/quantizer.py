"""Finite-rate codebooks on the composite Grassmann manifold.

Two quantizer flavors cover the whole bit-budget range:

* random codebooks hold all 2**bits codewords in memory (at most
  2**MAX_MATERIALIZED_BITS) and support exhaustive nearest-neighbor
  search;
* the distortion oracle emulates an ideal packing codebook at budgets
  far beyond what can be materialized, by returning a point at exactly
  the distortion radius 2**(-bits / (2 K (n-1))) that such a codebook
  guarantees. Rate/DoF experiments whose bit budgets grow with the
  transmit power rely on it.

Random codebooks stand in for true maximal packings: they attain the
same distortion scaling exponent, which is the only property the
downstream experiments consume. Codewords are generated in chunks of
2**14, each from its own ``trial_generator(seed, chunk)`` stream.

Each number is held once. `rng.draw_unit_rows` draws unit rows in
`rng.complex_normal`'s layout, all real parts and then the imaginary
parts one sub-block at a time, normalizing each sub-block in place. It
writes every codebook chunk straight into the one (2**bits, K, n)
codeword array, and hands each sub-block of sources to `_embed`, which
writes it into the one (trials, K*n*n) embedding that the kernel scores.
`budget_distortions` drops each codebook before it builds the next, so
quantizer-scaling never holds two. Traced peaks, bit for bit the same
codewords, sources and distortions as before: building (n, K, bits) =
(2, 3, 16), a 6.0 MiB codebook, 7.0 MiB, and 25.0 MiB for 24.0 MiB at
18 bits, against 13.1 and 49.5 MiB for a list of whole-chunk draws and
its concatenation; the codebook-distortion argv (n=2, K=2, 6..14 bits,
10**4 sources) 3.2 MiB, against 4.6 MiB with whole complex source draws
and the last codebook kept through the slope pass.

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
n=2, K=2, 14 bits and 10**4 sources the scoring's traced peak fell from
3.7 to 1.9 MiB with the same distortions, bit for bit. A 512 KiB tile
stays in a 2 MiB L2 cache between the depth-K*n*n product that writes
it and the row max that reads it back. The earlier 8 MiB block ran both passes from L3
or memory. Tile-size curve, median seconds of the full
codebook-distortion argv (n=2, K=2, 6..14 bits, 10**4 sources, one BLAS
thread, 2-core shared VM): 8 MiB 0.71, 2 MiB 0.63, 1 MiB 0.54, 512 KiB
0.41, 256 KiB 0.45, 128 KiB 0.56; below 512 KiB the per-tile call
overhead outweighs the cache.
``encode`` runs the same panels and tiles (`_score_tiles`) for one point
and reduces each tile by its argmax, where the distortion path takes the
row max and pays for no argmax. Ties go to the lowest index: the first
hit within a tile, and a strictly greater score across panels. One point
cannot amortize embedding a whole codebook, and feedback builds a fresh
codebook per receiver, so a single-point encode can cost more than the
per-point scan on the direct formula that it replaced. Median ms per
point, scan then kernel (one BLAS thread, 2-core shared VM, two rounds):
0.05 and 0.14 at (n, K, bits) = (2, 3, 8); 1.4-1.7 for both at
(2, 3, 14); 7-9 and 25-30 at (4, 3, 16); 86-113 for both at (2, 3, 20).
Only ``ia-run --feedback codebook`` encodes, K points per run.
Points and codewords are (K, n) arrays of unit rows; codeword i is
``cb.points[i]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import as_generator, draw_unit_rows, trial_generator

__all__ = [
    "Codebook",
    "FeedbackBudget",
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


@dataclass(frozen=True)
class FeedbackBudget:
    """Feedback bit budget tied to the transmit power level.

    The budget for a K-user channel with R receive antennas and L taps is
    ceil(alpha * K * (R*L - 1) * log2(P)) bits, clamped at zero. ``alpha``
    scales an individual user's feedback rate; alpha = 1 is the full
    budget under which the quantization error shrinks like 1/P.
    """

    K: int
    R: int
    L: int
    P: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.K < 1 or self.R < 1 or self.L < 1:
            raise ValueError("K, R, L must be positive")
        if self.R * self.L < 2:
            raise ValueError("need R*L >= 2; a single scalar tap carries no direction information")
        if self.P <= 0:
            raise ValueError("power must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def n(self) -> int:
        """Ambient dimension of each fed-back direction vector."""
        return self.R * self.L

    @property
    def bits(self) -> int:
        raw = self.alpha * self.K * (self.R * self.L - 1) * math.log2(self.P)
        return max(0, math.ceil(raw))

    @cached_property
    def delta_star(self) -> float:
        """Distortion radius guaranteed by an ideal packing at this budget.

        Computed once per budget: dof-sweep tiles one budget object over
        every trial's row of a block.
        """
        return min(1.0, 2.0 ** (-self.bits / (2.0 * self.K * (self.n - 1))))


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
    iu, ju = np.triu_indices(n, 1)
    upper = math.sqrt(2.0) * points[..., iu] * points[..., ju].conj()
    dest = np.empty((*points.shape[:-1], n * n)) if out is None else out
    dest[..., :n] = points.real**2 + points.imag**2
    dest[..., n : n + len(iu)] = upper.real
    dest[..., n + len(iu) :] = upper.imag
    return dest.reshape(*points.shape[:-2], -1) if out is None else out


def _score_tiles(src: np.ndarray, cb: Codebook):
    """Yield (source offset, panel offset, score tile) over every codeword of `cb`.

    ``src`` holds the sources' `_embed` rows, (count, K*n*n). Tile row r,
    column c holds sum_k |<x_k, c_k>|**2 of source ``s0 + r`` and codeword
    ``cb.points[p0 + c]``. The codebook is scored in column panels of
    ``_PANEL`` codewords: each slice of ``cb.points`` is embedded straight
    into one reused (K*n*n, _PANEL) panel buffer, codewords as columns.
    Every (source slice x panel) pair is one real GEMM into one similarity
    tile of at most ``_SIM_TILE`` entries, reused by every pair, so the
    caller must reduce a tile before asking for the next one, while it is
    still in cache.
    """
    cols = min(cb.size, _PANEL)
    rows = max(1, _SIM_TILE // cols)
    depth = src.shape[1]
    panel_buf = np.empty(depth * cols)
    tile = np.empty(min(rows, len(src)) * cols)
    for p0 in range(0, cb.size, cols):
        block = cb.points[p0 : p0 + cols]
        # the panel's transposed (codeword, K, n*n) view is what _embed fills
        panel = panel_buf[: depth * len(block)].reshape(depth, len(block))
        _embed(block, out=panel.reshape(cb.K, -1, len(block)).transpose(2, 0, 1))
        for s0 in range(0, len(src), rows):
            part = src[s0 : s0 + rows]
            scores = tile[: len(part) * len(block)].reshape(len(part), -1)
            np.matmul(part, panel, out=scores)
            yield s0, p0, scores


def encode(x: np.ndarray, cb: Codebook) -> int:
    """Index of the codeword nearest the (K, n) point `x`; ties break toward the lowest index."""
    if np.shape(x) != (cb.K, cb.n):
        raise ValueError(f"point shape {np.shape(x)} does not match the codebook's {(cb.K, cb.n)}")
    if not np.isfinite(x).all():
        raise ValueError("cannot encode a non-finite point")
    best_idx, best = 0, -np.inf
    for _, p0, scores in _score_tiles(_embed(np.asarray(x)[None]), cb):
        off = int(scores[0].argmax())
        if scores[0, off] > best:
            best_idx, best = p0 + off, scores[0, off]
    return best_idx


def _batched_min_dist(src: np.ndarray, cb: Codebook) -> np.ndarray:
    """Squared distortion of each `_embed` source row under nearest-neighbor coding: K minus its best score."""
    best = np.full(len(src), -np.inf)
    for s0, _, scores in _score_tiles(src, cb):
        acc = best[s0 : s0 + len(scores)]
        np.maximum(acc, scores.max(axis=1), out=acc)
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
    point's squared distortion radius, the ``delta_star**2`` of its
    `FeedbackBudget` for (K, n) points, as a (B,) array. ``normals`` holds
    each point's (2, K, n) standard normals, real parts first, as
    `rng.trial_normals` or ``rng.standard_normal((B, 2, K, n))`` draw
    them. Returns a (B, K, n) array whose point b lies at composite
    distance exactly sqrt(delta_sq[b]) from x[b], with the squared error
    spread over the components by the uniformly random tangent direction
    that normals[b] gives. Every component therefore stays within
    delta_sq[b] of its original, which is 1/P at the full feedback budget.
    """
    arr = np.asarray(x)
    target, normals = np.asarray(delta_sq, dtype=float), np.asarray(normals)
    if arr.ndim != 3 or target.shape != arr.shape[:1] or len(normals) != len(arr):
        raise ValueError("need one squared radius and one normal draw per (K, n) point")
    K, n = arr.shape[1:]
    if normals.shape[1:] != (2, K, n):
        raise ValueError(f"normals of shape {normals.shape[1:]} per point do not match the {(K, n)} manifold of x")
    if not target.any():
        return arr

    raw = normals[:, 0] + 1j * normals[:, 1]
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
