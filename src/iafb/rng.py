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


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, reproducible from (seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries, unscaled.

    Real and imaginary parts are independent standard normals, so each
    entry has variance 2; callers needing unit variance divide by sqrt(2).
    Every complex draw in the library goes through here, real parts first.
    """
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
