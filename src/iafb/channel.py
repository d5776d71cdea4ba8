"""Frequency-selective K-user channel model and the feedback pipeline.

Conventions used throughout (pinned by tests, since several downstream
norm identities depend on them):

* Tap matrices ``T[i][k]`` are L x R: row l holds the transposed tap
  vector of delay l from transmitter k to receiver i, column m the tap
  sequence of receive antenna m.
* ``to_tone_domain`` applies the unnormalized forward DFT per column, so
  the N x R tone matrix F satisfies ||F||_F^2 = N ||T||_F^2.
* Everything the alignment/rate pipeline consumes (stacked tone vectors,
  block-diagonal channel matrices, reconstructed direction matrices) is
  scaled by 1/sqrt(N), i.e. uses the unitary DFT. Under that scaling the
  stacked tone channel has the same norm as the vectorized taps and
  reconstructed directions stay unit-norm, which is what keeps the
  quantization-error bookkeeping exact.
* Vectorization of T is column-major: entry (l, m) lands at m*L + l.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grassmann import CompositeGrassmannPoint, GrassmannPoint
from .quantizer import Codebook, FeedbackBudget, decode, distortion_oracle_quantize, encode
from .rng import as_generator, complex_normal

__all__ = [
    "ChannelRealization",
    "ToneChannel",
    "FeedbackMessage",
    "ReconstructedChannel",
    "generate_channel",
    "to_tone_domain",
    "vectorize_direction",
    "receiver_feedback",
    "reconstruct",
    "save_channel",
    "load_channel",
]

TAP_DISTRIBUTIONS = ("cn", "truncated-cn")
_TRUNCATION_RADIUS = 4.0


@dataclass(frozen=True)
class ChannelRealization:
    """All K*K tap matrices of one channel draw.

    ``taps`` has shape (K, K, L, R); ``taps[i, k]`` is the L x R matrix for
    the link from transmitter k to receiver i. Immutable after generation.
    """

    K: int
    R: int
    L: int
    taps: np.ndarray = field(repr=False)
    noise_power: float = 1.0

    def __post_init__(self):
        if self.taps.shape != (self.K, self.K, self.L, self.R):
            raise ValueError("tap array shape must be (K, K, L, R)")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("taps must be finite")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        self.taps.setflags(write=False)

    def tap_matrix(self, i: int, k: int) -> np.ndarray:
        return self.taps[i, k]


@dataclass(frozen=True)
class ToneChannel:
    """Per-tone form of a channel realization.

    ``tones[i, k]`` is the N x R matrix whose rows are the tone-domain
    channel vectors (unnormalized DFT of the zero-padded tap columns).
    Accessors ending in ``hbar`` hand out the unitary-scaled quantities
    described in the module docstring.
    """

    K: int
    R: int
    N: int
    tones: np.ndarray = field(repr=False)
    noise_power: float = 1.0

    def __post_init__(self):
        if self.tones.shape != (self.K, self.K, self.N, self.R):
            raise ValueError("tone array shape must be (K, K, N, R)")
        self.tones.setflags(write=False)

    def tone_matrix(self, i: int, k: int) -> np.ndarray:
        """The raw N x R tone matrix of link (i, k)."""
        return self.tones[i, k]

    def hbar(self, i: int, k: int) -> np.ndarray:
        """Stacked tone channel (length R*N, tone-major), unitary scaling."""
        return self.tones[i, k].reshape(-1) / np.sqrt(self.N)

    def hbar_matrix(self, i: int, k: int) -> np.ndarray:
        """Dense R*N x N block-diagonal channel matrix, unitary scaling.

        Block r (rows r*R..(r+1)*R, column r) holds the conjugated tone
        vector of tone r.
        """
        return _block_diag_from_rows(np.conj(self.tones[i, k]) / np.sqrt(self.N))


@dataclass(frozen=True)
class FeedbackMessage:
    """One receiver's broadcast: its K quantized channel directions.

    ``point`` lives on the composite Grassmann manifold with ambient
    dimension R*L; ``index`` is the codeword id for codebook feedback and
    None in oracle or perfect-feedback mode. R and L ride along so the
    reconstruction side can undo the vectorization.
    """

    user: int
    point: CompositeGrassmannPoint
    R: int
    L: int
    bits: int | None = None
    index: int | None = None

    def __post_init__(self):
        if self.point.n != self.R * self.L:
            raise ValueError("direction vectors must have length R*L")


@dataclass(frozen=True)
class ReconstructedChannel:
    """Channel surrogate every node rebuilds from the K feedback messages.

    ``qhat[i, k]`` is the quantized direction reshaped back to an L x R tap
    layout; ``wtones[i, k]`` is its zero-padded, unitary-scaled DFT (N x R),
    so each stacked direction matrix has unit Frobenius norm.
    """

    K: int
    R: int
    L: int
    N: int
    qhat: np.ndarray = field(repr=False)
    wtones: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.qhat.setflags(write=False)
        self.wtones.setflags(write=False)

    def qhat_matrix(self, i: int, k: int) -> np.ndarray:
        return self.qhat[i, k]

    def wtilde_vec(self, i: int, k: int) -> np.ndarray:
        """Stacked unit-norm reconstructed direction (length R*N)."""
        return self.wtones[i, k].reshape(-1)

    def wtilde_matrix(self, i: int, k: int) -> np.ndarray:
        """Dense R*N x N block-diagonal reconstructed channel matrix."""
        return _block_diag_from_rows(np.conj(self.wtones[i, k]))


def _block_diag_from_rows(rows: np.ndarray) -> np.ndarray:
    """(N, R) rows -> (R*N, N) matrix with row r as the r-th diagonal block."""
    N, R = rows.shape
    out = np.zeros((R * N, N), dtype=complex)
    idx = np.arange(N)
    for r in range(R):
        out[idx * R + r, idx] = rows[:, r]
    return out


def generate_channel(K: int, R: int, L: int, dist: str = "cn", seed=None) -> ChannelRealization:
    """Draw i.i.d. taps for all K*K links.

    The default distribution is unit-variance circularly-symmetric complex
    Gaussian. ``truncated-cn`` redraws any entry with magnitude above 4 to
    obtain an almost-surely bounded continuous distribution; at that radius
    the difference from the plain Gaussian is statistically invisible.
    """
    if K < 2 or R < 1 or L < 1:
        raise ValueError("need K >= 2, R >= 1, L >= 1")
    if dist not in TAP_DISTRIBUTIONS:
        raise ValueError(f"unknown tap distribution {dist!r}; choose from {TAP_DISTRIBUTIONS}")
    rng = as_generator(seed)
    shape = (K, K, L, R)
    taps = complex_normal(rng, shape) / np.sqrt(2.0)
    if dist == "truncated-cn":
        bad = np.abs(taps) > _TRUNCATION_RADIUS
        while np.any(bad):
            redraw = complex_normal(rng, shape) / np.sqrt(2.0)
            taps = np.where(bad, redraw, taps)
            bad = np.abs(taps) > _TRUNCATION_RADIUS
    return ChannelRealization(K=K, R=R, L=L, taps=taps)


def to_tone_domain(ch: ChannelRealization, N: int) -> ToneChannel:
    """Zero-pad each tap column to N and DFT it (unnormalized convention)."""
    if N < ch.L:
        raise ValueError(f"need at least as many tones as taps (N={N} < L={ch.L})")
    tones = np.fft.fft(ch.taps, n=N, axis=2)
    return ToneChannel(K=ch.K, R=ch.R, N=N, tones=tones, noise_power=ch.noise_power)


def vectorize_direction(ch: ChannelRealization, i: int, k: int) -> GrassmannPoint:
    """Unit-norm column-major vectorization of tap matrix (i, k)."""
    vec = ch.taps[i, k].reshape(-1, order="F")
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError(f"channel ({i}, {k}) is identically zero; cannot form a direction")
    return GrassmannPoint(vec / norm)


def receiver_feedback(
    ch: ChannelRealization,
    i: int,
    quantizer: Codebook | FeedbackBudget | None = None,
    rng=None,
) -> FeedbackMessage:
    """Assemble and quantize receiver i's K channel directions.

    ``quantizer`` selects the mode: a Codebook performs nearest-neighbor
    encoding, a FeedbackBudget invokes the distortion oracle (needs `rng`),
    and None returns the exact directions (perfect feedback).
    """
    if not 0 <= i < ch.K:
        raise ValueError(f"user index {i} out of range")
    exact = CompositeGrassmannPoint(
        tuple(vectorize_direction(ch, i, k) for k in range(ch.K))
    )
    if quantizer is None:
        return FeedbackMessage(user=i, point=exact, R=ch.R, L=ch.L)
    if isinstance(quantizer, Codebook):
        idx = encode(exact, quantizer)
        return FeedbackMessage(
            user=i, point=decode(idx, quantizer), R=ch.R, L=ch.L,
            bits=quantizer.bits, index=idx,
        )
    if isinstance(quantizer, FeedbackBudget):
        point = distortion_oracle_quantize(exact, quantizer, rng)
        return FeedbackMessage(user=i, point=point, R=ch.R, L=ch.L, bits=quantizer.bits)
    raise TypeError(f"unsupported quantizer config: {type(quantizer).__name__}")


def reconstruct(msgs, N: int) -> ReconstructedChannel:
    """Rebuild the tone-domain channel surrogate from all K messages.

    Each fed-back direction is reshaped to L x R (undoing the column-major
    vectorization), zero-padded to N taps and DFT'd with the 1/sqrt(N)
    unitary scaling, so every stacked reconstructed direction keeps norm 1.
    """
    msgs = list(msgs)
    if not msgs:
        raise ValueError("no feedback messages given")
    K = msgs[0].point.K
    R, L = msgs[0].R, msgs[0].L
    by_user = {m.user: m for m in msgs}
    missing = [i for i in range(K) if i not in by_user]
    if missing or len(msgs) != K:
        raise ValueError(f"need exactly one message per user 0..{K - 1}; missing {missing}")
    if N < L:
        raise ValueError(f"need at least as many tones as taps (N={N} < L={L})")

    qhat = np.empty((K, K, L, R), dtype=complex)
    wtones = np.empty((K, K, N, R), dtype=complex)
    for i in range(K):
        parts = by_user[i].point.parts
        for k in range(K):
            mat = parts[k].coords.reshape(L, R, order="F")
            qhat[i, k] = mat
            wtones[i, k] = np.fft.fft(mat, n=N, axis=0) / np.sqrt(N)
    return ReconstructedChannel(K=K, R=R, L=L, N=N, qhat=qhat, wtones=wtones)


def save_channel(ch: ChannelRealization, path) -> None:
    """Write a realization as a textual archive keyed by (i, k)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# iafb-channel v1\n")
        fh.write(f"K={ch.K} R={ch.R} L={ch.L} noise_power={ch.noise_power!r}\n")
        for i in range(ch.K):
            for k in range(ch.K):
                fh.write(f"T {i} {k}\n")
                for row in ch.taps[i, k]:
                    fh.write(" ".join(repr(complex(z)) for z in row) + "\n")


def load_channel(path) -> ChannelRealization:
    """Read a realization written by `save_channel`."""
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().strip()
        if magic != "# iafb-channel v1":
            raise ValueError(f"not a channel file: {path}")
        header = dict(item.split("=", 1) for item in fh.readline().split())
        K, R, L = int(header["K"]), int(header["R"]), int(header["L"])
        noise = float(header["noise_power"])
        taps = np.zeros((K, K, L, R), dtype=complex)
        seen = set()
        for line in fh:
            tag = line.split()
            if not tag:
                continue
            if tag[0] != "T" or len(tag) != 3:
                raise ValueError(f"malformed entry header: {line.rstrip()}")
            i, k = int(tag[1]), int(tag[2])
            for l in range(L):
                taps[i, k, l] = [complex(tok) for tok in fh.readline().split()]
            seen.add((i, k))
        if len(seen) != K * K:
            raise ValueError("channel file is missing link entries")
        return ChannelRealization(K=K, R=R, L=L, taps=taps, noise_power=noise)
