"""Seeding helpers shared by all modules.

Every stochastic entry point accepts either an integer seed or a ready
``numpy.random.Generator``. Monte Carlo drivers derive one independent
stream per trial from ``(seed, trial_index)`` so that results do not
depend on how trials are distributed over workers.
"""

from __future__ import annotations

import numpy as np


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator for `seed`; pass Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_generator(seed: int, *key: int) -> np.random.Generator:
    """Independent stream reproducible from (seed, *key), such as (seed, trial).

    Every derived stream in the library comes from here: the entropy is the
    integer list [seed, *key].
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def complex_normal_parts(rng: np.random.Generator, shape) -> np.ndarray:
    """Real and imaginary parts of a `complex_normal` draw, as one real array.

    Returns float64 of shape ``(2, *shape)``: index 0 holds the real parts,
    index 1 the imaginary parts. The generator fills the array in C order,
    so one call draws the same numbers as two calls of `shape` each, real
    parts first. Every complex draw in the library goes through here.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    return rng.standard_normal((2, *shape))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries, unscaled.

    Real and imaginary parts are independent standard normals, so each
    entry has variance 2; callers needing unit variance divide by sqrt(2).
    """
    parts = complex_normal_parts(rng, shape)
    return parts[0] + 1j * parts[1]


def complex_normal_streams(rngs, shape) -> np.ndarray:
    """One `complex_normal` draw of `shape` per generator, stacked.

    Returns complex of shape ``(len(rngs), *shape)``; row b holds exactly
    the numbers ``complex_normal(rngs[b], shape)`` would draw.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    parts = np.stack([complex_normal_parts(g, shape) for g in rngs], axis=1)
    return parts[0] + 1j * parts[1]
