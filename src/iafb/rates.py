"""Rates, interference decomposition and degrees-of-freedom estimation.

Beamformers are designed against the reconstructed channel but evaluated
here against the TRUE tone-domain channel; the gap between the two is
exactly what limited feedback costs. Per stream m of user i:

* signal  = P/(K d_i) |hbar_ii^H b_ii^{m,m}|^2
* I1      = same-transmitter interference from the user's other streams
* I2      = interference from all other transmitters
* rate    = (1/N) sum_m log2(1 + signal / (I1 + I2 + noise))

with every transmitter spending P/(K d_k) per stream. `achievable_rates`
summarizes each user's streams in five stats, the quantities the CSV rows
and the slope experiments read. Degrees of freedom (`dof_fit`) and the
growth of interference (`interference_slope`) are least-squares slopes
against log2(P) over a finite power grid, returned as plain floats.
"""

from __future__ import annotations

import math

import numpy as np

from .alignment import BeamformerSet
from .channel import tone_images

__all__ = [
    "interference_terms",
    "achievable_rates",
    "dof_fit",
    "interference_slope",
]

CSV_COLUMNS = (
    "seed", "K", "R", "L", "n", "P_log2", "alpha", "user", "rate", "I1", "I2", "signal",
)

# Interference below this absolute level is residue of the alignment
# solver, not a physical quantity; `interference_slope` clamps up to it.
INTERFERENCE_FLOOR = 1e-10


def interference_terms(tones: np.ndarray, bf: BeamformerSet, P):
    """Per-stream (signal, I1, I2) triples against the true channel.

    ``tones`` is the (..., K, K, N, R) array of `channel.to_tone_domain`.
    Returns three lists indexed by user, each holding a (..., d_i) array
    whose leading axes broadcast those of `tones`, the batch axis of `bf`
    and the shape of `P`. The filtered gains U_i^H Hbar_ik V_k do not
    depend on the power, so one call covers a whole power sweep.
    """
    if np.any(np.asarray(P) <= 0):
        raise ValueError("power must be positive")
    K, N, R = tones.shape[-4], tones.shape[-2], tones.shape[-1]
    p = bf.params
    if (p.K, p.R, p.N) != (K, R, N):
        raise ValueError(
            f"beamformers sized (K={p.K}, R={p.R}, N={p.N}) do not match the "
            f"channel (K={K}, R={R}, N={N})"
        )
    images = tone_images(tones * (1.0 / math.sqrt(N)), bf.v)
    P = np.asarray(P, dtype=float)[..., None]
    d = p.d
    signal, own, cross = [], [], []
    for i in range(K):
        uh = np.conj(np.swapaxes(bf.u[i], -1, -2))
        gain_ii = np.abs(uh @ images[i][i]) ** 2
        diag = np.diagonal(gain_ii, axis1=-2, axis2=-1)
        scale_i = P / (K * d[i])
        i2 = np.zeros(np.broadcast_shapes(P.shape, diag.shape))
        for k in range(K):
            if k != i:
                i2 += (P / (K * d[k])) * (np.abs(uh @ images[i][k]) ** 2).sum(axis=-1)
        signal.append(scale_i * diag)
        own.append(scale_i * (gain_ii.sum(axis=-1) - diag))
        cross.append(i2)
    return signal, own, cross


def achievable_rates(tones: np.ndarray, bf: BeamformerSet, P, noise: float) -> np.ndarray:
    """Treat all interference as noise: per-user stats, shape (..., K, 5).

    Per user: the rate, the worst stream's I1 and I2, the weakest stream's
    signal, and the worst stream's total interference I1 + I2, at noise
    power `noise`. `P` is one power or an array of them. It broadcasts
    against the batch axis of `bf`: one set at many powers, or one power
    per set.
    """
    if noise <= 0:
        raise ValueError("noise power must be positive")
    signal, own, cross = interference_terms(tones, bf, P)
    N = bf.params.N
    return np.stack(
        [
            np.stack(
                [
                    np.sum(np.log2(1.0 + s / (i1 + i2 + noise)), axis=-1) / N,
                    i1.max(-1), i2.max(-1), s.min(-1), (i1 + i2).max(-1),
                ],
                axis=-1,
            )
            for s, i1, i2 in zip(signal, own, cross)
        ],
        axis=-2,
    )


def dof_fit(points) -> float:
    """Least-squares slope of value against log2(P) over (P, value) points."""
    pts = [(float(p), float(v)) for p, v in points]
    if len({p for p, _ in pts}) < 3:
        raise ValueError("need at least three distinct power levels for a slope fit")
    return float(np.polyfit(np.log2([p for p, _ in pts]), [v for _, v in pts], 1)[0])


def interference_slope(sweep) -> float:
    """Log-log slope of interference against power over (P, value) points.

    Bounded interference shows slope ~= 0. Values below
    `INTERFERENCE_FLOOR` are clamped up, so that solver residue (which
    scales like P times a tiny squared alignment error) cannot masquerade
    as growth.
    """
    powers, values = zip(*sweep)
    return dof_fit(zip(powers, np.log2(np.maximum(values, INTERFERENCE_FLOOR))))
