"""Dense forms of a tone channel's links, the references for the structured kernels.

Both take a (K, K, N, R) tone array (`iafb.channel.to_tone_domain`) and use
the unitary scaling of the `iafb.channel` module docstring.
"""

import numpy as np

from iafb.channel import _block_diag_from_rows


def hbar(tones, i, k):
    """Stacked tone channel of link (i, k): length R*N, tone-major."""
    return tones[i, k].reshape(-1) / np.sqrt(tones.shape[-2])


def hbar_matrix(tones, i, k):
    """Dense R*N x N block-diagonal channel matrix of link (i, k).

    Block r (rows r*R..(r+1)*R, column r) holds the conjugated tone
    vector of tone r.
    """
    return _block_diag_from_rows(np.conj(tones[i, k]) / np.sqrt(tones.shape[-2]))
