"""Geometry of the composite Grassmann manifold G_{n,1}^K.

A point of G_{n,1} is a complex line through the origin of C^n,
represented by a unit vector modulo phase. The composite manifold is the
direct sum of K such factors; its natural metric is the sum of squared
per-component chordal distances, sum_k (1 - |<a_k, b_k>|^2). A point is
a (K, n) array of unit rows, and a batch of points a (..., K, n) array.
This module provides uniform sampling, the exact normalized volume of a
metric ball, and a Monte Carlo estimator used to validate the closed
form. The library scores the metric where it is used: the quantizer
through its embedded inner products (`quantizer._embed`), the ball count
against a fixed reference. The tests keep the direct formula as their
reference metric.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import as_generator

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

    ``normals`` is a (B, 2, K, n) array of standard normals, each point's
    real parts before its imaginary parts, as `rng.trial_normals` or
    ``rng.standard_normal((B, 2, K, n))`` draw them. Returns the B points
    as one (B, K, n) array of unit rows.
    """
    _check_manifold(n, K)
    normals = np.asarray(normals)
    if normals.ndim != 4 or normals.shape[1:] != (2, K, n):
        raise ValueError(f"need (B, 2, {K}, {n}) normals for G_{{{n},1}}^{K}, got shape {normals.shape}")
    raw = normals[:, 0] + 1j * normals[:, 1]
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw


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
    for 0 <= delta <= 1 only; larger radii are served by the Monte Carlo
    path of `sum_dist_sq_cdf` and rejected here.
    """
    _check_manifold(n, K)
    if delta < 0:
        raise ValueError("radius must be non-negative")
    if delta * delta > 1.0 + 1e-15:
        raise ValueError(
            "closed form requires delta**2 <= 1; use sum_dist_sq_cdf for larger radii"
        )
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
    rng = np.random.default_rng(20240901) if rng is None else as_generator(rng)
    return empirical_ball_cdf(n, K, math.sqrt(x), trials, rng)


# Monte Carlo samples drawn per batch, bounding memory at any trial count
MC_CHUNK = 1 << 16
# samples per sub-block of a batch, whose imaginary parts and (sub-block,
# K) temporaries stay in L2 (the sub-block curve is in `ball_hit_count`)
MC_TILE = 1 << 12


# Not in __all__: bench/tracer.py times every function listed there, and
# its tests pin `empirical_ball_cdf` as a leaf span.
def ball_hit_count(n: int, K: int, delta: float, trials: int, rng) -> int:
    """Count of `trials` uniform samples within composite distance delta.

    The distance is taken to a fixed reference; by homogeneity of the
    manifold the reference is immaterial, so the first canonical basis
    vector is used in every component. A sample is K unnormalized complex
    Gaussian rows q_k, and its squared distance to the reference is
    sum_k (1 - |q_k[0]|^2 / ||q_k||^2), so no sample is normalized. The
    kernel works on the real and imaginary parts of the draw
    (|q|^2 = re^2 + im^2) and adds the short n and K axes term by term, in
    order. Samples come off `rng` in batches of `MC_CHUNK`, each batch in
    `rng.complex_normal`'s layout: the same numbers
    `complex_normal(rng, (batch, K, n))` would draw, all of its real
    parts, then all of its imaginary parts.

    A batch is finished in sub-blocks of `MC_TILE` samples, in two passes
    over the stream, the order in which `rng.draw_unit_rows` draws the
    quantizer's codewords and sources. The first fills one (batch, K, n)
    buffer with the real parts, one sub-block at a time, and squares each
    sub-block while it is still in cache. The second draws the imaginary
    parts one sub-block at a time into one reused (MC_TILE, K, n) buffer
    and runs the steps above on it. The generator fills arrays in order, so the
    sub-block fills read the same numbers as one draw of the whole batch,
    and every hit count is the same. Traced peak of one full batch: 1.10
    MiB at (n, K) = (2, 1), 3.29 MiB at (2, 3) and 6.48 MiB at (4, 3),
    against 3.29, 7.56 and 13.56 MiB for one draw of the batch's
    (2, batch, K, n) normals. Sub-block curve at (2, 3), median ms per
    full batch over 15 alternating rounds and traced peak (one core,
    2-core shared VM): 1024 15.0 ms 3.07 MiB, 2048 14.8 3.15, 4096 14.8
    3.29, 8192 14.7 3.57, 16384 14.4 4.14, 65536 14.9 7.57, against 15.1
    ms for the whole-batch draw. The time is the Gaussian generator's and
    barely moves with the sub-block; at 4096 the peak stays within 10% of
    the real parts' buffer.
    """
    _check_manifold(n, K)
    if trials < 1:
        raise ValueError("need at least one trial")
    if delta < 0:
        raise ValueError("radius must be non-negative")
    rng = as_generator(rng)
    thresh = delta * delta
    tile = min(MC_TILE, trials)
    re_buf = np.empty((min(MC_CHUNK, trials), K, n))
    power_buf, chordal_buf = np.empty((tile, K, n)), np.empty((tile, K))
    hits = 0
    for start in range(0, trials, MC_CHUNK):
        re_sq = re_buf[: min(MC_CHUNK, trials - start)]
        for s in range(0, len(re_sq), tile):
            part = re_sq[s : s + tile]
            rng.standard_normal(out=part)
            np.square(part, out=part)
        for s in range(0, len(re_sq), tile):
            part = re_sq[s : s + tile]
            power, chordal = power_buf[: len(part)], chordal_buf[: len(part)]
            rng.standard_normal(out=power)
            np.square(power, out=power)
            np.add(part, power, out=power)
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
    return hits


def empirical_ball_cdf(n: int, K: int, delta: float, trials: int, rng) -> float:
    """Monte Carlo estimate of the normalized ball volume at radius delta.

    The fraction of `trials` uniform samples that `ball_hit_count` counts.
    """
    return ball_hit_count(n, K, delta, trials, rng) / trials
