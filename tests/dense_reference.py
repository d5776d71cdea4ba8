"""Per-link and dense forms of the channel, the references for the batched and structured kernels.

`hbar` and `hbar_matrix` take a (K, K, N, R) tone array
(`iafb.channel.to_tone_domain`) and use the unitary scaling of the
`iafb.channel` module docstring. `direction` is one link's fed-back
direction, the reference for `iafb.channel.receiver_feedback`, and
`seeded_channel` draws a channel from one seed or generator.
"""

import numpy as np

from iafb.channel import _block_diag_from_rows, generate_channel
from iafb.rng import as_generator, complex_normal_parts


def seeded_channel(K, R, L, seed):
    """The realization whose normals `complex_normal_parts` draws from `seed` (an integer or a Generator)."""
    return generate_channel(K, R, L, complex_normal_parts(as_generator(seed), (K, K, L, R)))


def direction(taps):
    """One link's L x R taps as a unit-norm column-major (R*L,) vector: ``v / np.linalg.norm(v)``."""
    v = np.asarray(taps).reshape(-1, order="F")
    return v / np.linalg.norm(v)


def directions(ch):
    """Every link's `direction`, (K, K, R*L), for an unbatched realization."""
    return np.array([[direction(ch.taps[i, k]) for k in range(ch.K)] for i in range(ch.K)])


def hbar(tones, i, k):
    """Stacked tone channel of link (i, k): length R*N, tone-major."""
    return tones[i, k].reshape(-1) / np.sqrt(tones.shape[-2])


def hbar_matrix(tones, i, k):
    """Dense R*N x N block-diagonal channel matrix of link (i, k).

    Block r (rows r*R..(r+1)*R, column r) holds the conjugated tone
    vector of tone r.
    """
    return _block_diag_from_rows(np.conj(tones[i, k]) / np.sqrt(tones.shape[-2]))
