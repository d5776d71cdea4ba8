"""Finite-rate codebooks on the composite Grassmann manifold.

Three quantizer flavors cover the whole bit-budget range:

* ``materialized`` codebooks hold all 2**bits codewords in memory and
  support exhaustive nearest-neighbor search plus greedy packing
  refinement;
* ``implicit`` codebooks regenerate the same codewords chunk by chunk
  from a stored seed, trading CPU for memory at larger budgets;
* the distortion oracle emulates an ideal packing codebook at budgets
  far beyond what can be materialized, by returning a point at exactly
  the distortion radius 2**(-bits / (2 K (n-1))) that such a codebook
  guarantees. Rate/DoF experiments whose bit budgets grow with the
  transmit power rely on this mode.

Random codebooks stand in for true maximal packings: they attain the
same distortion scaling exponent, which is the only property the
downstream experiments consume. Codeword generation is chunk-seeded so
materialized and implicit codebooks with the same seed are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grassmann import CompositeGrassmannPoint
from .rng import as_generator, complex_normal

__all__ = [
    "Codebook",
    "DistortionReport",
    "FeedbackBudget",
    "build_random_codebook",
    "refine_maxmin",
    "encode",
    "decode",
    "measure_distortion",
    "distortion_oracle_quantize",
    "distortion_scaling_exponent",
    "save_codebook",
    "load_codebook",
]

MAX_MATERIALIZED_BITS = 26
_GEN_CHUNK = 1 << 14


@dataclass
class Codebook:
    """An indexed set of 2**bits composite Grassmann codewords.

    ``points`` is a (2**bits, K, n) complex array in materialized mode and
    None in implicit mode, where codewords are regenerated on demand from
    ``seed``. Codebooks are immutable after construction and safe to share
    across parallel encode workers.
    """

    n: int
    K: int
    bits: int
    mode: str
    seed: int | None = None
    points: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("bit budget must be non-negative")
        if self.mode not in ("materialized", "implicit"):
            raise ValueError(f"unknown codebook mode: {self.mode!r}")
        if self.mode == "materialized":
            if self.points is None:
                raise ValueError("materialized codebook needs its points")
            if self.points.shape != (self.size, self.K, self.n):
                raise ValueError("codeword array shape does not match (2**bits, K, n)")
        elif self.seed is None:
            raise ValueError("implicit codebook needs an integer seed")

    @property
    def size(self) -> int:
        return 1 << self.bits

    def __len__(self) -> int:
        return self.size

    def codeword(self, index: int) -> CompositeGrassmannPoint:
        return decode(index, self)

    def chunks(self):
        """Yield (start_index, array) blocks of codewords in index order."""
        if self.points is not None:
            for start in range(0, self.size, _GEN_CHUNK):
                yield start, self.points[start : start + _GEN_CHUNK]
        else:
            for start in range(0, self.size, _GEN_CHUNK):
                count = min(_GEN_CHUNK, self.size - start)
                yield start, _generate_chunk(self.n, self.K, self.seed, start // _GEN_CHUNK, count)


@dataclass(frozen=True)
class DistortionReport:
    """Observed quantization error statistics for one codebook."""

    max_observed: float
    mean_observed: float
    trials: int
    bits: int

    def __post_init__(self):
        if not (self.max_observed >= self.mean_observed >= 0.0):
            raise ValueError("expected max_observed >= mean_observed >= 0")


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

    @property
    def delta_star(self) -> float:
        """Distortion radius guaranteed by an ideal packing at this budget."""
        return min(1.0, 2.0 ** (-self.bits / (2.0 * self.K * (self.n - 1))))


def _generate_chunk(n: int, K: int, seed: int, chunk_index: int, count: int) -> np.ndarray:
    """Codewords [chunk*C, chunk*C + count) for the chunk-seeded scheme."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(chunk_index)]))
    raw = complex_normal(rng, (count, K, n))
    raw /= np.linalg.norm(raw, axis=2, keepdims=True)
    return raw


def build_random_codebook(n: int, K: int, bits: int, seed, mode: str = "materialized") -> Codebook:
    """Draw 2**bits i.i.d. uniform codewords.

    ``seed`` may be an integer (chunk-seeded scheme, works for both modes
    and makes implicit == materialized for equal seeds) or a Generator
    (sequential draws, materialized only).
    """
    if n < 2 or K < 1 or bits < 0:
        raise ValueError("need n >= 2, K >= 1, bits >= 0")
    if mode == "materialized" and bits > MAX_MATERIALIZED_BITS:
        raise ValueError(
            f"bits={bits} exceeds the materialization guard ({MAX_MATERIALIZED_BITS}); "
            "use mode='implicit' or the distortion oracle"
        )
    if isinstance(seed, np.random.Generator):
        if mode != "materialized":
            raise TypeError("implicit codebooks need an integer seed, not a Generator")
        raw = complex_normal(seed, (1 << bits, K, n))
        raw /= np.linalg.norm(raw, axis=2, keepdims=True)
        return Codebook(n=n, K=K, bits=bits, mode="materialized", seed=None, points=raw)

    seed = int(seed)
    if mode == "implicit":
        return Codebook(n=n, K=K, bits=bits, mode="implicit", seed=seed)
    size = 1 << bits
    blocks = [
        _generate_chunk(n, K, seed, c, min(_GEN_CHUNK, size - c * _GEN_CHUNK))
        for c in range((size + _GEN_CHUNK - 1) // _GEN_CHUNK)
    ]
    return Codebook(n=n, K=K, bits=bits, mode="materialized", seed=seed, points=np.concatenate(blocks))


def _pairwise_dist_sq(points: np.ndarray) -> np.ndarray:
    """Composite squared distances between all codeword pairs (diag = inf)."""
    sims = np.abs(np.einsum("akj,bkj->abk", points, points.conj())) ** 2
    dist = points.shape[1] - sims.sum(axis=2)
    np.fill_diagonal(dist, np.inf)
    return np.maximum(dist, 0.0)


def refine_maxmin(cb: Codebook, iterations: int, rng) -> Codebook:
    """Greedy packing improvement: resample codewords in the closest pair.

    Each iteration redraws one endpoint of the currently closest pair and
    keeps the replacement only if it strictly increases the minimum
    pairwise distance, so the packing quality never decreases.
    """
    if cb.mode != "materialized":
        raise ValueError("refinement needs a materialized codebook")
    rng = as_generator(rng)
    points = cb.points.copy()
    if len(cb) < 2 or iterations <= 0:
        return Codebook(n=cb.n, K=cb.K, bits=cb.bits, mode="materialized", seed=None, points=points)

    dist = _pairwise_dist_sq(points)
    for _ in range(iterations):
        current_min = dist.min()
        i = int(np.unravel_index(np.argmin(dist), dist.shape)[0])
        cand = complex_normal(rng, (cb.K, cb.n))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        sims = np.abs(np.einsum("akj,kj->ak", points, cand.conj())) ** 2
        cand_dist = np.maximum(cb.K - sims.sum(axis=1), 0.0)
        cand_dist[i] = np.inf
        masked = dist.copy()
        masked[i, :] = np.inf
        masked[:, i] = np.inf
        new_min = min(masked.min(), cand_dist.min())
        if new_min > current_min:
            points[i] = cand
            dist[i, :] = cand_dist
            dist[:, i] = cand_dist
            dist[i, i] = np.inf
    return Codebook(n=cb.n, K=cb.K, bits=cb.bits, mode="materialized", seed=None, points=points)


def _nearest_in_block(block: np.ndarray, x: np.ndarray) -> tuple[int, float]:
    """Index offset and squared distance of the closest codeword in a block."""
    sims = np.abs(np.einsum("mkj,kj->mk", block, x.conj())) ** 2
    dist = x.shape[0] - sims.sum(axis=1)
    off = int(np.argmin(dist))
    return off, float(max(dist[off], 0.0))


def encode(x: CompositeGrassmannPoint, cb: Codebook) -> int:
    """Index of the nearest codeword; ties break toward the lowest index."""
    if x.K != cb.K or x.n != cb.n:
        raise ValueError("point shape does not match the codebook")
    arr = x.as_array()
    best_idx, best_dist = -1, np.inf
    for start, block in cb.chunks():
        off, dist = _nearest_in_block(block, arr)
        if dist < best_dist:
            best_idx, best_dist = start + off, dist
    return best_idx


def decode(index: int, cb: Codebook) -> CompositeGrassmannPoint:
    """Return the codeword stored at `index`."""
    if not 0 <= index < cb.size:
        raise IndexError(f"index {index} out of range for a {cb.bits}-bit codebook")
    if cb.points is not None:
        return CompositeGrassmannPoint.from_array(cb.points[index])
    chunk_index, offset = divmod(index, _GEN_CHUNK)
    count = min(_GEN_CHUNK, cb.size - chunk_index * _GEN_CHUNK)
    block = _generate_chunk(cb.n, cb.K, cb.seed, chunk_index, count)
    return CompositeGrassmannPoint.from_array(block[offset])


def _batched_min_dist(sources: np.ndarray, cb: Codebook) -> np.ndarray:
    """Squared distortion of each source row under nearest-neighbor coding."""
    best = np.full(sources.shape[0], np.inf)
    # bound the (sources x codewords) similarity matrix to ~=4M entries
    src_chunk = max(1, (1 << 22) // max(cb.size, 1))
    for s0 in range(0, sources.shape[0], src_chunk):
        batch = sources[s0 : s0 + src_chunk]
        acc = np.full(batch.shape[0], np.inf)
        for _, block in cb.chunks():
            sim = np.zeros((batch.shape[0], block.shape[0]))
            for k in range(cb.K):
                sim += np.abs(batch[:, k, :] @ block[:, k, :].conj().T) ** 2
            np.minimum(acc, (cb.K - sim).min(axis=1), out=acc)
        best[s0 : s0 + batch.shape[0]] = acc
    return np.maximum(best, 0.0)


def measure_distortion(cb: Codebook, trials: int, rng) -> DistortionReport:
    """Quantize `trials` uniform sources and report mean/max squared error."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = as_generator(rng)
    raw = complex_normal(rng, (trials, cb.K, cb.n))
    raw /= np.linalg.norm(raw, axis=2, keepdims=True)
    dists = _batched_min_dist(raw, cb)
    return DistortionReport(
        max_observed=float(dists.max()),
        mean_observed=float(dists.mean()),
        trials=trials,
        bits=cb.bits,
    )


def distortion_oracle_quantize(
    x: CompositeGrassmannPoint, budget: FeedbackBudget, rng
) -> CompositeGrassmannPoint:
    """Emulate an ideal packing codebook at an arbitrarily large budget.

    Returns a point at composite distance exactly delta_star from `x`, with
    the squared error spread over the components by a uniformly random
    tangent direction. Every component therefore stays within delta_star**2
    of its original, which is 1/P at the full feedback budget.
    """
    if x.K != budget.K or x.n != budget.n:
        raise ValueError("point shape does not match the budget's manifold")
    rng = as_generator(rng)
    arr = x.as_array()
    target = budget.delta_star**2
    if target == 0.0:
        return x

    raw = complex_normal(rng, (x.K, x.n))
    overlap = np.einsum("kj,kj->k", arr.conj(), raw)
    tangent = raw - overlap[:, None] * arr
    weights = np.linalg.norm(tangent, axis=1)
    # zero tangent components have probability zero; guard anyway
    if np.any(weights == 0.0):
        raise RuntimeError("degenerate tangent draw; retry with a different stream")
    tangent /= weights[:, None]
    alloc = weights**2 / np.sum(weights**2)

    comp_err = alloc * target
    out = np.sqrt(1.0 - comp_err)[:, None] * arr + np.sqrt(comp_err)[:, None] * tangent
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return CompositeGrassmannPoint.from_array(out)


def distortion_scaling_exponent(n: int, K: int, bits_list, trials: int, rng) -> float:
    """Least-squares slope of log2(mean squared distortion) versus bits.

    Random codebooks are rebuilt per budget from seeds drawn off `rng`.
    For uniform sources the slope approaches -1 / (K (n - 1)).
    """
    bits_list = sorted(set(int(b) for b in bits_list))
    if len(bits_list) < 3:
        raise ValueError("need at least three distinct bit budgets for a slope fit")
    rng = as_generator(rng)
    log_msd = []
    for bits in bits_list:
        cb = build_random_codebook(n, K, bits, seed=int(rng.integers(2**63)))
        report = measure_distortion(cb, trials, rng)
        log_msd.append(math.log2(report.mean_observed))
    slope = np.polyfit(np.asarray(bits_list, dtype=float), np.asarray(log_msd), 1)[0]
    return float(slope)


def save_codebook(cb: Codebook, path) -> None:
    """Write a codebook as a textual table of complex coordinates.

    One line per codeword holding K*n entries (component-major); the header
    records (n, K, bits, seed) so implicit codebooks round-trip too.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# iafb-codebook v1\n")
        seed = "none" if cb.seed is None else str(cb.seed)
        fh.write(f"n={cb.n} K={cb.K} bits={cb.bits} mode={cb.mode} seed={seed}\n")
        if cb.mode == "materialized":
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
        mode = header["mode"]
        seed = None if header["seed"] == "none" else int(header["seed"])
        if mode == "implicit":
            return Codebook(n=n, K=K, bits=bits, mode="implicit", seed=seed)
        rows = []
        for line in fh:
            if line.strip():
                rows.append([complex(tok) for tok in line.split()])
        points = np.asarray(rows, dtype=complex).reshape(1 << bits, K, n)
        return Codebook(n=n, K=K, bits=bits, mode="materialized", seed=seed, points=points)
