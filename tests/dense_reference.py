"""Dense forms of a tone channel's links, the references for the structured kernels.

Both use the unitary scaling of the `iafb.channel` module docstring.
"""

import numpy as np

from iafb.channel import _block_diag_from_rows


def hbar(tone, i, k):
    """Stacked tone channel of link (i, k): length R*N, tone-major."""
    return tone.tones[i, k].reshape(-1) / np.sqrt(tone.N)


def hbar_matrix(tone, i, k):
    """Dense R*N x N block-diagonal channel matrix of link (i, k).

    Block r (rows r*R..(r+1)*R, column r) holds the conjugated tone
    vector of tone r.
    """
    return _block_diag_from_rows(np.conj(tone.tones[i, k]) / np.sqrt(tone.N))
