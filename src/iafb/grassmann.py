"""Geometry of the composite Grassmann manifold G_{n,1}^K.

A point of G_{n,1} is a complex line through the origin of C^n,
represented by a unit vector modulo phase. The composite manifold is the
direct sum of K such factors; its natural metric is the sum of squared
per-component chordal distances. This module provides points, distances,
uniform sampling, the exact normalized volume of a metric ball, and a
Monte Carlo estimator used to validate the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import as_generator, complex_normal

__all__ = [
    "GrassmannPoint",
    "CompositeGrassmannPoint",
    "BallVolumeSpec",
    "chordal_dist_sq",
    "composite_dist_sq",
    "sample_uniform",
    "ball_volume_normalized",
    "sum_dist_sq_density",
    "sum_dist_sq_cdf",
    "empirical_ball_cdf",
]

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class GrassmannPoint:
    """A line in G_{n,1}, stored as a unit-norm complex vector of length n >= 2."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("a Grassmann line needs a 1-D vector with n >= 2")
        if abs(np.vdot(coords, coords).real - 1.0) > _UNIT_NORM_TOL:
            raise ValueError("coordinates must have unit Euclidean norm")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_vector(cls, vec) -> "GrassmannPoint":
        """Normalize an arbitrary nonzero vector onto the manifold."""
        vec = np.asarray(vec, dtype=complex)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(vec / norm)

    @property
    def n(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class CompositeGrassmannPoint:
    """Ordered tuple of K lines, all living in the same ambient dimension."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if len(parts) < 1:
            raise ValueError("need at least one component")
        n = parts[0].n
        if any(p.n != n for p in parts):
            raise ValueError("all components must share the ambient dimension")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def from_array(cls, arr) -> "CompositeGrassmannPoint":
        """Build from a (K, n) array whose rows are unit vectors."""
        arr = np.asarray(arr, dtype=complex)
        return cls(tuple(GrassmannPoint(row) for row in arr))

    def as_array(self) -> np.ndarray:
        """Stack the components into a (K, n) array."""
        return np.stack([p.coords for p in self.parts])

    @property
    def K(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return self.parts[0].n


@dataclass(frozen=True)
class BallVolumeSpec:
    """Arguments of the closed-form ball volume on G_{n,1}^K.

    The closed form is valid for delta**2 <= 1 only; larger radii are
    served by the Monte Carlo path (see `sum_dist_sq_cdf`).
    """

    n: int
    K: int
    delta: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension n must be >= 2")
        if self.K < 1:
            raise ValueError("number of components K must be >= 1")
        if self.delta < 0:
            raise ValueError("radius must be non-negative")


def chordal_dist_sq(p: GrassmannPoint, q: GrassmannPoint) -> float:
    """Squared chordal distance 1 - |<p, q>|^2 between two lines.

    Symmetric, phase-invariant, and confined to [0, 1].
    """
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    ip = np.vdot(p.coords, q.coords)
    val = 1.0 - (ip.real * ip.real + ip.imag * ip.imag)
    return float(min(max(val, 0.0), 1.0))


def composite_dist_sq(a: CompositeGrassmannPoint, b: CompositeGrassmannPoint) -> float:
    """Sum of per-component squared chordal distances; lies in [0, K]."""
    if a.K != b.K or a.n != b.n:
        raise ValueError(
            f"shape mismatch: (n={a.n}, K={a.K}) vs (n={b.n}, K={b.K})"
        )
    return float(sum(chordal_dist_sq(p, q) for p, q in zip(a.parts, b.parts)))


def sample_uniform(n: int, K: int, rng) -> CompositeGrassmannPoint:
    """Draw a uniform point: K independent normalized complex Gaussians."""
    if n < 2:
        raise ValueError("ambient dimension n must be >= 2")
    if K < 1:
        raise ValueError("number of components K must be >= 1")
    rng = as_generator(rng)
    raw = complex_normal(rng, (K, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return CompositeGrassmannPoint.from_array(raw)


def _log_volume_const(n: int, K: int) -> float:
    """log of Gamma(n)^K / Gamma(K(n-1) + 1), evaluated stably."""
    return K * math.lgamma(n) - math.lgamma(K * (n - 1) + 1)


def _closed_form_cdf(n: int, K: int, x: float) -> float:
    """Closed form of P(total squared distance <= x) for x in [0, 1]."""
    if x == 0.0:
        return 0.0
    dim_half = K * (n - 1)
    return math.exp(_log_volume_const(n, K) + dim_half * math.log(x))


def ball_volume_normalized(spec: BallVolumeSpec) -> float:
    """Normalized volume of a radius-delta ball on G_{n,1}^K.

    Evaluates Gamma(n)^K / Gamma(K(n-1)+1) * delta^(2K(n-1)) through
    log-gamma arithmetic so large n*K stays finite. Radii with
    delta**2 > 1 are outside the closed form's domain and rejected.
    """
    if spec.delta * spec.delta > 1.0 + 1e-15:
        raise ValueError(
            "closed form requires delta**2 <= 1; use sum_dist_sq_cdf for larger radii"
        )
    return _closed_form_cdf(spec.n, spec.K, spec.delta * spec.delta)


def sum_dist_sq_density(n: int, K: int, x: float) -> float:
    """Density of the summed squared chordal distance of a uniform point.

    Each component contributes an independent variable with density
    (n-1) x^(n-2) on [0, 1]; their sum has the closed-form density
    (n-1)^K x^(K(n-1)-1) Gamma(n-1)^K / Gamma(K(n-1)) on [0, 1].
    For K >= 2 the closed form does not extend past x = 1.
    """
    if n < 2 or K < 1:
        raise ValueError("need n >= 2 and K >= 1")
    if x < 0.0:
        return 0.0
    if x > 1.0:
        if K == 1:
            return 0.0
        raise ValueError("closed-form density is only available on [0, 1] for K >= 2")
    expo = K * (n - 1) - 1
    if x == 0.0:
        return 1.0 if expo == 0 else 0.0
    log_val = (
        K * math.log(n - 1)
        + expo * math.log(x)
        + K * math.lgamma(n - 1)
        - math.lgamma(K * (n - 1))
    )
    return math.exp(log_val)


def sum_dist_sq_cdf(n: int, K: int, x: float, trials: int = 500_000, rng=None) -> float:
    """CDF of the summed squared chordal distance at x.

    On [0, 1] this is the exact closed form and agrees bit-for-bit with
    `ball_volume_normalized` at delta = sqrt(x). Outside [0, 1] the value
    is clamped to 0 below and 1 at x >= K; on (1, K) no closed form is
    available and a seeded Monte Carlo estimate is returned (`trials`
    samples; `rng` defaults to a fixed stream for reproducibility).
    """
    if n < 2 or K < 1:
        raise ValueError("need n >= 2 and K >= 1")
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


# Not in __all__: bench/tracer.py times every function listed there, and
# its tests pin `empirical_ball_cdf` as a leaf span.
def ball_hit_count(n: int, K: int, delta: float, trials: int, rng) -> int:
    """Count of `trials` uniform samples within composite distance delta.

    The distance is taken to a fixed reference; by homogeneity of the
    manifold the reference is immaterial, so the first canonical basis
    vector is used in every component. The squared distance to that
    reference is K - sum_k |q_k[0]|^2 / ||q_k||^2, which avoids
    materializing normalized samples. Samples are drawn off `rng` in
    batches of `MC_CHUNK`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if delta < 0:
        raise ValueError("radius must be non-negative")
    rng = as_generator(rng)
    thresh = delta * delta
    hits = 0
    for start in range(0, trials, MC_CHUNK):
        power = np.abs(complex_normal(rng, (min(MC_CHUNK, trials - start), K, n))) ** 2
        dist_sq = np.sum(1.0 - power[:, :, 0] / power.sum(axis=2), axis=1)
        hits += int(np.count_nonzero(dist_sq <= thresh))
    return hits


def empirical_ball_cdf(n: int, K: int, delta: float, trials: int, rng) -> float:
    """Monte Carlo estimate of the normalized ball volume at radius delta.

    The fraction of `trials` uniform samples that `ball_hit_count` counts.
    """
    return ball_hit_count(n, K, delta, trials, rng) / trials
