"""Geometry of the composite Grassmann manifold G_{n,1}^K.

A point of G_{n,1} is a complex line through the origin of C^n,
represented by a unit vector modulo phase. The composite manifold is the
direct sum of K such factors; its natural metric is the sum of squared
per-component chordal distances, sum_k (1 - |<a_k, b_k>|^2). A point is
a (K, n) array of unit rows, and a batch of points a (..., K, n) array.
This module provides uniform sampling, the exact normalized volume of a
metric ball, and the one Monte Carlo ball count that validates the
closed form: `empirical_ball_cdf`, which volume-check calls once per
Monte Carlo chunk (acceptance criterion 1 runs volume-check). The
library scores the metric where it is used: the quantizer through its
embedded inner products (`quantizer._embed`), the ball count against a
fixed reference. The tests keep the direct formula as their reference
metric.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import two_pass_normals

__all__ = [
    "sample_uniform",
    "ball_volume_normalized",
    "sum_dist_sq_cdf",
    "empirical_ball_cdf",
]


def _check_manifold(n: int, K: int) -> None:
    if n < 2:
        raise ValueError("ambient dimension n must be >= 2")
    if K < 1:
        raise ValueError("number of components K must be >= 1")


def sample_uniform(n: int, K: int, normals) -> np.ndarray:
    """Uniform points from drawn normals: K independent normalized complex Gaussians each.

    ``normals`` is a complex (B, K, n) array, one point's K rows each, as
    `rng.trial_normals` or `rng.complex_normal` draw them. Returns the B
    points as one (B, K, n) array of unit rows.
    """
    _check_manifold(n, K)
    normals = np.asarray(normals)
    if normals.ndim != 3 or normals.shape[1:] != (K, n) or not np.iscomplexobj(normals):
        raise ValueError(f"need complex (B, {K}, {n}) normals for G_{{{n},1}}^{K}, got {normals.dtype} {normals.shape}")
    return normals / np.linalg.norm(normals, axis=-1, keepdims=True)


def _log_volume_const(n: int, K: int) -> float:
    """log of Gamma(n)^K / Gamma(K(n-1) + 1), evaluated stably."""
    return K * math.lgamma(n) - math.lgamma(K * (n - 1) + 1)


def _closed_form_cdf(n: int, K: int, x: float) -> float:
    """Closed form of P(total squared distance <= x) for x in [0, 1]."""
    if x == 0.0:
        return 0.0
    dim_half = K * (n - 1)
    return math.exp(_log_volume_const(n, K) + dim_half * math.log(x))


def ball_volume_normalized(n: int, K: int, delta: float) -> float:
    """Normalized volume of a radius-delta ball on G_{n,1}^K.

    Evaluates Gamma(n)^K / Gamma(K(n-1)+1) * delta^(2K(n-1)) through
    log-gamma arithmetic so large n*K stays finite. The closed form holds
    for 0 <= delta <= 1 only; larger radii are rejected.
    """
    _check_manifold(n, K)
    if delta < 0:
        raise ValueError("radius must be non-negative")
    if delta * delta > 1.0 + 1e-15:
        raise ValueError(f"closed form requires delta**2 <= 1, got delta={delta!r}")
    return _closed_form_cdf(n, K, delta * delta)


def sum_dist_sq_cdf(n: int, K: int, x: float, trials: int = 500_000, rng=None) -> float:
    """CDF of the summed squared chordal distance at x.

    On [0, 1] this is the exact closed form and agrees bit-for-bit with
    `ball_volume_normalized` at delta = sqrt(x). Outside [0, 1] the value
    is clamped to 0 below and 1 at x >= K; on (1, K) no closed form is
    available and a seeded Monte Carlo estimate is returned (`trials`
    samples; `rng` defaults to a fixed stream for reproducibility).
    """
    _check_manifold(n, K)
    if x <= 0.0:
        return 0.0
    if x >= K:
        return 1.0
    if x <= 1.0:
        return _closed_form_cdf(n, K, x)
    return empirical_ball_cdf(n, K, math.sqrt(x), trials, 20240901 if rng is None else rng)


# samples per sub-block, whose imaginary parts and (sub-block, K)
# temporaries stay in L2. Sub-block curve at (n, K) = (2, 3), median ms
# per 2^16 samples over 15 alternating rounds and traced peak (one core,
# 2-core shared VM): 1024 15.0 ms 3.07 MiB, 2048 14.8 3.15, 4096 14.8 3.29,
# 8192 14.7 3.57, 16384 14.4 4.14, 65536 14.9 7.57. The time is the
# Gaussian generator's and barely moves with the sub-block; at 4096 the
# peak stays within 10% of the draw's real parts
MC_TILE = 1 << 12


def empirical_ball_cdf(n: int, K: int, delta: float, trials: int, rng) -> float:
    """Monte Carlo estimate of the normalized ball volume at radius delta.

    The fraction of `trials` uniform samples, drawn off
    ``np.random.default_rng(rng)``, within composite distance delta of a
    fixed reference; by homogeneity of the manifold the reference is
    immaterial, so the first canonical basis vector is used in every
    component. A sample is K unnormalized complex Gaussian rows q_k, and
    its squared distance to the reference is
    sum_k (1 - |q_k[0]|^2 / ||q_k||^2), so no sample is normalized. The
    kernel works on the real and imaginary parts of the draw
    (|q|^2 = re^2 + im^2) and adds the short n and K axes term by term, in
    order. The samples are one `complex_normal(rng, (trials, K, n))` draw,
    taken off `rng.two_pass_normals` in sub-blocks of `MC_TILE` (the draw
    order is in the `rng` module docstring), so the draw holds all
    `trials` samples' real parts: volume-check bounds it by calling once
    per chunk of `cli.MC_CHUNK` samples. The hit count is
    ``round(p * trials)`` of the returned p exactly, at any count below
    2^50: volume-check adds its chunks' counts that way. Traced peak at
    2^16 samples: 1.10 MiB at (n, K) = (2, 1), 3.29 MiB at (2, 3) and
    6.48 MiB at (4, 3).
    """
    _check_manifold(n, K)
    if trials < 1:
        raise ValueError("need at least one trial")
    if delta < 0:
        raise ValueError("radius must be non-negative")
    thresh = delta * delta
    chordal_buf = np.empty((min(MC_TILE, trials), K))
    hits = 0
    for _, real, power in two_pass_normals(np.random.default_rng(rng), (trials, K, n), MC_TILE):
        chordal = chordal_buf[: len(power)]
        np.square(real, out=real)
        np.square(power, out=power)
        np.add(real, power, out=power)
        # squared chordal distance per component, (sub-block, K), in
        # place: ||q_k||^2, then |q_k[0]|^2 / ||q_k||^2, then 1 minus that
        np.add(power[..., 0], power[..., 1], out=chordal)
        for j in range(2, n):
            chordal += power[..., j]
        np.divide(power[..., 0], chordal, out=chordal)
        np.subtract(1.0, chordal, out=chordal)
        dist_sq = chordal[:, 0]  # the K sum accumulates in column 0
        for k in range(1, K):
            dist_sq += chordal[:, k]
        hits += int(np.count_nonzero(dist_sq <= thresh))
    return hits / trials
