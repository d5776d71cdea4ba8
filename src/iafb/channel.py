"""Frequency-selective K-user channel model and the feedback pipeline.

Channels, tones, feedback and reconstructions stay plain arrays, batched
over leading axes: `generate_channel` turns drawn complex normals into a
(..., K, K, L, R) tap array, from whose shape every function reads K, L
and R,
`to_tone_domain` gives the (..., K, K, N, R) tones that rates are
measured on, `receiver_feedback` gives every receiver's (..., K, K, R*L)
directions in one pass, and `reconstruct` rebuilds from them the
read-only (..., K, K, N, R) tone array every node aligns against.
`save_channel` and `load_channel` write and read one unbatched tap
array.

Conventions used throughout (pinned by tests, since several downstream
norm identities depend on them):

* Tap matrices ``taps[i, k]`` are L x R: row l holds the transposed tap
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

import numpy as np

from .quantizer import encode

__all__ = [
    "ReconstructedChannel",
    "generate_channel",
    "to_tone_domain",
    "receiver_feedback",
    "reconstruct",
    "save_channel",
    "load_channel",
]


class ReconstructedChannel:
    """Leakage-min's dense view of one reconstruction, a (K, K, N, R) `reconstruct` tone array.

    `wtilde_matrix` serves the element's R*N x N block-diagonal matrices.
    The tone array itself is the reconstruction. The class stays because
    `bench/tracer.py`'s ``channel.dense`` span wraps ``wtilde_matrix`` from
    the class dict and reads the instance attributes ``R`` and ``N`` to
    count its dense bytes; it goes once leakage-min runs on the tones and
    that span moves with it.
    """

    def __init__(self, wtones: np.ndarray):
        self.wtones = wtones
        self.N, self.R = wtones.shape[-2:]

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


# Not in __all__: bench/tracer.py times every function listed there, and
# this one runs inside alignment and rate calls.
def tone_images(tones: np.ndarray, V) -> list:
    """Every receiver's view of every transmitter: images[i][k] = W_ik V_k.

    W_ik is the R*N x N block-diagonal matrix whose block r (rows
    r*R..(r+1)*R, column r) is the conjugated tone row
    ``tones[..., i, k, r, :]``, so the product is elementwise: row r*R + m
    of the image is conj(tones[..., i, k, r, m]) times row r of V_k.
    ``V[k]`` is (..., N, d_k); leading axes broadcast against those of
    ``tones``, which are (..., K, K, N, R).
    """
    conj = np.conj(tones)
    K = tones.shape[-4]
    images = []
    for i in range(K):
        row = []
        for k in range(K):
            img = conj[..., i, k, :, :, None] * V[k][..., :, None, :]
            row.append(img.reshape(*img.shape[:-3], -1, img.shape[-1]))
        images.append(row)
    return images


def generate_channel(K: int, R: int, L: int, normals) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian taps for all K*K links, from drawn normals.

    ``normals`` is a complex (K, K, L, R) `rng.complex_normal` draw, or a
    (B, K, K, L, R) stack of them, as `rng.trial_normals` draws a block's
    channels (the draw order is in the `rng` module docstring). Returns
    ``normals / sqrt(2)``, the (K, K, L, R) tap array or the
    (B, K, K, L, R) batch: ``taps[i, k]`` is the L x R matrix of the link
    from transmitter k to receiver i.
    """
    if K < 2 or R < 1 or L < 1:
        raise ValueError("need K >= 2, R >= 1, L >= 1")
    normals = np.asarray(normals)
    if normals.ndim not in (4, 5) or normals.shape[-4:] != (K, K, L, R) or not np.iscomplexobj(normals):
        raise ValueError(f"need {(K, K, L, R)}-shaped complex normals or a stack, got {normals.dtype} {normals.shape}")
    return normals / np.sqrt(2.0)


def _dims(taps: np.ndarray) -> tuple:
    """(K, L, R) of a (..., K, K, L, R) tap array."""
    if taps.ndim < 4 or taps.shape[-4] != taps.shape[-3]:
        raise ValueError(f"need a (..., K, K, L, R) tap array, got shape {taps.shape}")
    return taps.shape[-3:]


def to_tone_domain(taps: np.ndarray, N: int) -> np.ndarray:
    """Zero-pad each tap column to N and DFT it (unnormalized convention).

    Returns the (K, K, N, R) tone array of a (K, K, L, R) tap array:
    ``tones[i, k]`` is the N x R matrix whose rows are link (i, k)'s
    tone-domain channel vectors. A batch of tap arrays gives
    (B, K, K, N, R), in one FFT.
    """
    _, L, _ = _dims(taps)
    if N < L:
        raise ValueError(f"need at least as many tones as taps (N={N} < L={L})")
    return np.fft.fft(taps, n=N, axis=-2)


def receiver_feedback(taps: np.ndarray, codebook=None) -> np.ndarray:
    """Every receiver's fed-back channel directions, (..., K, K, R*L), in one pass.

    ``taps`` is a (..., K, K, L, R) tap array. Row [i, k] is link (i, k)'s
    taps, vectorized column-major and scaled to unit norm: exactly
    ``v / np.linalg.norm(v)`` (perfect feedback). With ``codebook``, a
    callable ``i -> Codebook``, an unbatched tap array's receiver i feeds
    back the nearest codeword (`encode`) of ``codebook(i)``, which is
    built when called and dropped before the next receiver's. A
    direction is a line in C^(R*L), so R*L = 1 (one scalar tap) is
    rejected, as is a link whose taps are all zero.
    """
    _, L, R = _dims(taps)
    if R * L < 2:
        raise ValueError(f"need R*L >= 2, got R={R}, L={L}: a single scalar tap carries no direction information")
    # column-major vectorization: entry m*L + l is tap l of antenna m
    vec = np.swapaxes(taps, -1, -2).reshape(*taps.shape[:-2], -1)
    # np.linalg.norm's sum, bit for bit: one dot product each of the real and
    # imaginary views (a sum of squares rounds differently)
    re, im = vec.real, vec.imag
    norm = np.sqrt((re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None])[..., 0])
    if not norm.all():
        i, k = np.argwhere(norm[..., 0] == 0.0)[0][-2:]
        raise ValueError(f"channel ({i}, {k}) is identically zero; cannot form a direction")
    exact = vec / norm
    if codebook is None:
        return exact
    if exact.ndim != 3:
        raise ValueError(f"codebook feedback takes one realization, got a batch of shape {exact.shape[:-3]}")
    # one codebook held at a time: each is dropped before the next is built,
    # and its codeword is copied out, so no view keeps it
    fed = np.empty_like(exact)
    for i, x in enumerate(exact):
        cb = codebook(i)
        fed[i] = cb.points[encode(x, cb)]
        del cb
    return fed


def reconstruct(directions: np.ndarray, N: int, *, R: int) -> np.ndarray:
    """Rebuild the tone-domain channel surrogate from the fed-back directions.

    ``directions`` is (K, K, R*L), whose [i] is receiver i's fed-back
    directions (`receiver_feedback`), or a batch of those, (B, K, K, R*L).
    Each direction is reshaped to L x R (undoing the column-major
    vectorization), zero-padded to N taps and DFT'd with the 1/sqrt(N)
    unitary scaling, so every stacked reconstructed direction keeps norm 1.
    One FFT transforms the whole batch. Returns the read-only
    (K, K, N, R) or (B, K, K, N, R) tone array: ``[..., i, k, :, :]`` is
    link (i, k)'s reconstructed N x R direction matrix.
    """
    vectors = np.asarray(directions)
    if R < 1 or vectors.ndim not in (3, 4) or vectors.shape[-3] != vectors.shape[-2] or vectors.shape[-1] % R:
        raise ValueError(f"need directions shaped (K, K, R*L) or (B, K, K, R*L) for R={R}, got {vectors.shape}")
    L = vectors.shape[-1] // R
    if N < L:
        raise ValueError(f"need at least as many tones as taps (N={N} < L={L})")

    # column-major vectorization: entry m*L + l is tap l of antenna m
    taps = np.swapaxes(vectors.reshape(*vectors.shape[:-1], R, L), -1, -2)
    wtones = np.fft.fft(taps, n=N, axis=-2) / np.sqrt(N)
    wtones.setflags(write=False)
    return wtones


def save_channel(taps: np.ndarray, path) -> None:
    """Write one (K, K, L, R) tap array as a textual archive keyed by (i, k)."""
    K, L, R = _dims(taps)
    if taps.ndim != 4:
        raise ValueError(f"an archive holds one (K, K, L, R) tap array, got shape {taps.shape}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# iafb-channel v1\n")
        fh.write(f"K={K} R={R} L={L}\n")
        for i in range(K):
            for k in range(K):
                fh.write(f"T {i} {k}\n")
                for row in taps[i, k]:
                    fh.write(" ".join(repr(complex(z)) for z in row) + "\n")


def load_channel(path) -> np.ndarray:
    """Read the (K, K, L, R) tap array written by `save_channel`.

    A malformed archive raises ValueError: a wrong first line, a header
    without K, R or L, an entry outside the K x K links, a tap row without
    R values, a missing link, a non-finite tap, or a link whose taps are
    all zero (it has no direction to feed back). Other header keys, such
    as the ``noise_power`` that older archives carry, are ignored: the
    noise power is a run's ``--noise``, not part of the channel.
    """
    with open(path, "r", encoding="ascii") as fh:
        if fh.readline().strip() != "# iafb-channel v1":
            raise ValueError("not a channel archive: the first line must be '# iafb-channel v1'")
        header = dict(item.partition("=")[::2] for item in fh.readline().split())
        missing = [key for key in ("K", "R", "L") if key not in header]
        if missing:
            raise ValueError(f"the header lacks {', '.join(missing)}")
        K, R, L = int(header["K"]), int(header["R"]), int(header["L"])
        taps = np.zeros((K, K, L, R), dtype=complex)
        seen = set()
        for line in fh:
            tag = line.split()
            if not tag:
                continue
            if tag[0] != "T" or len(tag) != 3:
                raise ValueError(f"malformed entry header: {line.rstrip()}")
            i, k = int(tag[1]), int(tag[2])
            if not (0 <= i < K and 0 <= k < K):
                raise ValueError(f"link ({i}, {k}) lies outside K={K}")
            for l in range(L):
                row = [complex(tok) for tok in fh.readline().split()]
                if len(row) != R:
                    raise ValueError(f"tap {l} of link ({i}, {k}) holds {len(row)} values, not R={R}")
                taps[i, k, l] = row
            seen.add((i, k))
        if len(seen) != K * K:
            raise ValueError("channel file is missing link entries")
        nonfinite = np.argwhere(~np.isfinite(taps).all(axis=(-2, -1)))
        if len(nonfinite):
            raise ValueError(f"link ({nonfinite[0][0]}, {nonfinite[0][1]}) holds a non-finite tap")
        zero = np.argwhere(~taps.any(axis=(-2, -1)))
        if len(zero):
            raise ValueError(f"link ({zero[0][0]}, {zero[0][1]}) is identically zero, so it has no direction")
        return taps
