"""Direct and dense forms of the metric and the channel, the references for the batched and structured kernels.

`composite_dist_sq` is the direct formula of the composite Grassmann
metric, the reference for the quantizer's embedded scores. `hbar` and
`hbar_matrix` take a (K, K, N, R) tone array
(`iafb.channel.to_tone_domain`) and use the unitary scaling of the
`iafb.channel` module docstring. `direction` is one link's fed-back
direction, the reference for `iafb.channel.receiver_feedback`, and
`seeded_channel` draws a (K, K, L, R) tap array from one seed or generator.
"""

import numpy as np

from iafb.channel import _block_diag_from_rows, generate_channel
from iafb.rng import as_generator


def composite_dist_sq(a, b):
    """Sum of per-component squared chordal distances 1 - |<a_k, b_k>|^2.

    ``a`` and ``b`` are broadcastable (..., K, n) arrays of unit rows; the
    (...) result lies in [0, K]. Each component's term is symmetric,
    phase-invariant and clamped to [0, 1]. A single line is the K = 1 case.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"need (..., K, n) points of one shape, got {a.shape} and {b.shape}")
    ip = np.einsum("...j,...j->...", a.conj(), b)
    return np.clip(1.0 - (ip.real * ip.real + ip.imag * ip.imag), 0.0, 1.0).sum(axis=-1)


def seeded_channel(K, R, L, seed):
    """The taps whose (2, K, K, L, R) normals `seed` (an integer or a Generator) draws in one call."""
    return generate_channel(K, R, L, as_generator(seed).standard_normal((2, K, K, L, R)))


def direction(taps):
    """One link's L x R taps as a unit-norm column-major (R*L,) vector: ``v / np.linalg.norm(v)``."""
    v = np.asarray(taps).reshape(-1, order="F")
    return v / np.linalg.norm(v)


def directions(taps):
    """Every link's `direction`, (K, K, R*L), of an unbatched (K, K, L, R) tap array."""
    return np.array([[direction(link) for link in row] for row in taps])


def hbar(tones, i, k):
    """Stacked tone channel of link (i, k): length R*N, tone-major."""
    return tones[i, k].reshape(-1) / np.sqrt(tones.shape[-2])


def hbar_matrix(tones, i, k):
    """Dense R*N x N block-diagonal channel matrix of link (i, k).

    Block r (rows r*R..(r+1)*R, column r) holds the conjugated tone
    vector of tone r.
    """
    return _block_diag_from_rows(np.conj(tones[i, k]) / np.sqrt(tones.shape[-2]))
