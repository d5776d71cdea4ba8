"""Rates, interference decomposition and degrees-of-freedom estimation.

Beamformers are designed against the reconstructed channel but evaluated
here against the TRUE tone-domain channel; the gap between the two is
exactly what limited feedback costs. Per stream m of user i:

* signal  = P/(K d_i) |hbar_ii^H b_ii^{m,m}|^2
* I1      = same-transmitter interference from the user's other streams
* I2      = interference from all other transmitters
* rate    = (1/N) sum_m log2(1 + signal / (I1 + I2 + noise))

with every transmitter spending P/(K d_k) per stream. Degrees of freedom
are estimated as the least-squares slope of a quantity against log2(P)
over a finite power grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import BeamformerSet
from .channel import ToneChannel, tone_images

__all__ = [
    "RateReport",
    "DofEstimate",
    "BoundednessReport",
    "coupling_matrices",
    "interference_terms",
    "achievable_rates",
    "dof_fit",
    "interference_boundedness",
]

CSV_COLUMNS = (
    "seed", "K", "R", "L", "n", "P_log2", "alpha", "user", "rate", "I1", "I2", "signal",
)

# Interference below this absolute level is numerical residue of the
# alignment solver, not a physical quantity; slope fits clamp up to it.
NUMERICAL_FLOOR = 1e-20


@dataclass(frozen=True)
class RateReport:
    """Per-stream SINR decomposition and per-user rates at one power level.

    For a batch of beamformer sets or powers (see `achievable_rates`) every
    array carries the batch axis first: ``rates`` is (B, K), ``signal[i]``
    (B, d_i), and ``P`` and ``rate_sum`` are arrays over it.
    """

    P: float
    noise_power: float
    N: int
    signal: tuple
    interference_own: tuple
    interference_cross: tuple
    rates: np.ndarray
    rate_sum: float

    def user_stats(self) -> np.ndarray:
        """Per-user summary over streams, shape (..., K, 5).

        Per user: the rate, the worst stream's I1 and I2, the weakest
        stream's signal, and the worst stream's total interference I1 + I2
        (the quantities the CSV rows and the slope experiments read).
        """
        return np.stack(
            [
                np.stack(
                    [self.rates[..., i], own.max(-1), cross.max(-1), sig.min(-1), (own + cross).max(-1)],
                    axis=-1,
                )
                for i, (sig, own, cross) in enumerate(
                    zip(self.signal, self.interference_own, self.interference_cross)
                )
            ],
            axis=-2,
        )


@dataclass(frozen=True)
class DofEstimate:
    """Slope of a rate-like quantity against log2(P) plus fit diagnostics."""

    slope: float
    intercept: float
    fit_quality: float
    points: tuple


@dataclass(frozen=True)
class BoundednessReport:
    """Log-log slope of an interference sweep and the bounded-or-not verdict."""

    slope: float
    slope_max: float
    passed: bool
    points: tuple


def coupling_matrices(tone: ToneChannel, bf: BeamformerSet):
    """Filtered true-channel gains G[i][k] = U_i^H Hbar_ik V_k.

    These are power-independent; rate evaluation across a power sweep can
    reuse one set of couplings per (channel, beamformer) pair. A batched
    `bf` gives couplings with its batch axis first.
    """
    K, R, N = tone.K, tone.R, tone.N
    p = bf.params
    if (p.K, p.R, p.N) != (K, R, N):
        raise ValueError(
            f"beamformers sized (K={p.K}, R={p.R}, N={p.N}) do not match the "
            f"channel (K={K}, R={R}, N={N})"
        )
    images = tone_images(tone.tones * (1.0 / math.sqrt(N)), bf.v)
    return [
        [np.conj(np.swapaxes(bf.u[i], -1, -2)) @ images[i][k] for k in range(K)]
        for i in range(K)
    ]


def _terms_from_couplings(G, d, K: int, P):
    P = np.asarray(P, dtype=float)[..., None]
    signal, own, cross = [], [], []
    for i in range(K):
        gain_ii = np.abs(G[i][i]) ** 2
        diag = np.diagonal(gain_ii, axis1=-2, axis2=-1)
        scale_i = P / (K * d[i])
        sig = scale_i * diag
        i1 = scale_i * (gain_ii.sum(axis=-1) - diag)
        i2 = np.zeros(np.broadcast_shapes(P.shape, diag.shape))
        for k in range(K):
            if k == i:
                continue
            i2 += (P / (K * d[k])) * (np.abs(G[i][k]) ** 2).sum(axis=-1)
        signal.append(sig)
        own.append(i1)
        cross.append(i2)
    return signal, own, cross


def interference_terms(tone: ToneChannel, bf: BeamformerSet, P):
    """Per-stream (signal, I1, I2) triples against the true channel.

    Returns three lists indexed by user, each holding a length-d_i array,
    or with a batched `bf` or an array `P` (which broadcast against each
    other) a (B, d_i) array.
    """
    if np.any(np.asarray(P) <= 0):
        raise ValueError("power must be positive")
    G = coupling_matrices(tone, bf)
    return _terms_from_couplings(G, bf.params.d, tone.K, P)


def achievable_rates(
    tone: ToneChannel, bf: BeamformerSet, P, noise_power: float | None = None
) -> RateReport:
    """Treat all interference as noise and evaluate the per-user rates.

    `P` is one power or an array of them. It broadcasts against the batch
    axis of `bf`: one set at many powers, or one power per set.
    """
    noise = tone.noise_power if noise_power is None else noise_power
    if noise <= 0:
        raise ValueError("noise power must be positive")
    signal, own, cross = interference_terms(tone, bf, P)
    N = bf.params.N
    rates = np.stack(
        [
            np.sum(np.log2(1.0 + s / (i1 + i2 + noise)), axis=-1) / N
            for s, i1, i2 in zip(signal, own, cross)
        ],
        axis=-1,
    )
    rate_sum = rates.sum(axis=-1)
    return RateReport(
        P=P,
        noise_power=noise,
        N=N,
        signal=tuple(signal),
        interference_own=tuple(own),
        interference_cross=tuple(cross),
        rates=rates,
        rate_sum=float(rate_sum) if rate_sum.ndim == 0 else rate_sum,
    )


def dof_fit(points) -> DofEstimate:
    """Least-squares slope of value against log2(P)."""
    pts = [(float(p), float(v)) for p, v in points]
    if len({p for p, _ in pts}) < 3:
        raise ValueError("need at least three distinct power levels for a slope fit")
    x = np.log2([p for p, _ in pts])
    y = np.asarray([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    if ss_tot <= 1e-30:
        quality = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        quality = max(0.0, 1.0 - ss_res / ss_tot)
    return DofEstimate(
        slope=float(slope),
        intercept=float(intercept),
        fit_quality=float(min(quality, 1.0)),
        points=tuple(zip(x.tolist(), y.tolist())),
    )


def interference_boundedness(sweep, slope_max: float = 0.1, floor: float = NUMERICAL_FLOOR) -> BoundednessReport:
    """Fit the log-log slope of interference against power.

    Bounded interference shows slope ~= 0; values below `floor` are
    clamped up so that solver residue (which scales like P times a tiny
    squared alignment error) cannot masquerade as growth.
    """
    pts = [(float(p), max(float(v), floor)) for p, v in sweep]
    if len({p for p, _ in pts}) < 3:
        raise ValueError("need at least three distinct power levels")
    x = np.log2([p for p, _ in pts])
    y = np.log2([v for _, v in pts])
    slope = float(np.polyfit(x, y, 1)[0])
    return BoundednessReport(
        slope=slope,
        slope_max=slope_max,
        passed=bool(slope <= slope_max),
        points=tuple(zip(x.tolist(), y.tolist())),
    )
