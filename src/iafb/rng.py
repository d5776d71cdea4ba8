"""Seeding helpers shared by all modules.

Every stochastic entry point accepts either an integer seed or a ready
``numpy.random.Generator``. Monte Carlo drivers derive one independent
stream per trial from ``(seed, trial_index)`` so that results do not
depend on how trials are distributed over workers. `trial_generator`
builds one such stream; `trial_generators` builds many at once, with the
same streams, seeding all of them in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which
# `trial_generators` runs over uint32 arrays: a pool of 4 words, mixed with
# the multipliers below, then expanded into PCG64's 4 uint64 seed words.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _consts(init: int, mult: int, first: int, count: int) -> tuple:
    """(xor, mult) uint32 arrays of a hash's calls first .. first + count - 1.

    Call t xors its value with init * mult^t and multiplies it by
    init * mult^(t+1), modulo 2^32; neither depends on the data.
    """
    h = [init * pow(mult, t, 1 << 32) & _MASK32 for t in range(first, first + count + 1)]
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


# mix_entropy's hashmix calls 0-3 take the pool words; calls 4 + 3*src ..
# 6 + 3*src mix pool word src into the other three; calls 16 + 4*s ..
# 19 + 4*s take entropy word 4 + s, past the pool, into every pool word
_FILL = _consts(_INIT_A, _MULT_A, 0, _POOL)
_CROSS = [_consts(_INIT_A, _MULT_A, _POOL + (_POOL - 1) * src, _POOL - 1) for src in range(_POOL)]
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]
# generate_state(4, uint64) hashes 8 uint32 words, reading the pool twice
_STATE = _consts(_INIT_B, _MULT_B, 0, 2 * _POOL)


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator for `seed`; pass Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_generator(seed: int, *key: int) -> np.random.Generator:
    """Independent stream reproducible from (seed, *key), such as (seed, trial).

    Every derived stream in the library comes from here or from its
    batched equal, `trial_generators`: the entropy is the integer list
    [seed, *key].
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


class _SeedWords:
    """A seed sequence that hands `PCG64` its already hashed seed words.

    It answers PCG64's one request, ``generate_state(4, np.uint64)``.
    `trial_generators` registers it as a subclass of numpy's
    ``ISeedSequence``, the type PCG64 accepts, when it runs rather than at
    import: importing that base class imports ``numpy.random``, about 15 ms
    that ``import iafb`` need not pay.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uint32_words(value: int) -> list:
    """SeedSequence's coercion of a non-negative integer: its 32-bit words, low first."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(values: np.ndarray, consts: tuple) -> np.ndarray:
    xor, mult = consts
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def trial_generators(seed: int, keys) -> list:
    """[trial_generator(seed, *key) for key in keys], seeded in one vectorized pass.

    Runs numpy's SeedSequence hash over every key at once as uint32 array
    arithmetic, which wraps as the hash's C code does, and hands each
    `PCG64` its seed words: the streams equal `trial_generator`'s bit for
    bit. A negative seed or key raises ValueError, as SeedSequence does.
    The generators' seed sequences cannot spawn children.
    """
    head = _uint32_words(int(seed))
    entropy = [head + [w for k in key for w in _uint32_words(int(k))] for key in keys]
    if not entropy:
        return []
    # words past the pool's 4 hash as zeros when a row is shorter
    pool = np.array([(row + [0] * _POOL)[:_POOL] for row in entropy], dtype=np.uint32)
    pool = _hashmix(pool, _FILL)
    for src in range(_POOL):
        others = _OTHERS[src]
        pool[:, others] = _mix(pool[:, others], _hashmix(pool[:, src, None], _CROSS[src]))
    # a row of more words mixes each one past the pool into every pool word;
    # rows of one length share the loop
    long_rows = {}
    for r, row in enumerate(entropy):
        if len(row) > _POOL:
            long_rows.setdefault(len(row), []).append(r)
    for length, rows in long_rows.items():
        extra = np.array([entropy[r][_POOL:] for r in rows], dtype=np.uint32)
        mixed = pool[rows]
        for s in range(length - _POOL):
            consts = _consts(_INIT_A, _MULT_A, _POOL * (_POOL + s), _POOL)
            mixed = _mix(mixed, _hashmix(extra[:, s, None], consts))
        pool[rows] = mixed
    # generate_state(4, uint64): 8 uint32 words read as 4 little-endian uint64
    state = _hashmix(np.tile(pool, 2), _STATE)
    state = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    return [np.random.Generator(np.random.PCG64(_SeedWords(words))) for words in state]


def complex_normal_parts(rng: np.random.Generator, shape) -> np.ndarray:
    """Real and imaginary parts of a `complex_normal` draw, as one real array.

    Returns float64 of shape ``(2, *shape)``: index 0 holds the real parts,
    index 1 the imaginary parts. The generator fills the array in C order,
    so one call draws the same numbers as two calls of `shape` each, real
    parts first. Every complex draw in the library goes through here or
    through `complex_normal_streams`, which fills the same layout.
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
    the numbers ``complex_normal(rngs[b], shape)`` would draw. Each
    generator fills its own ``(2, *shape)`` slice of one preallocated
    array, in the C order of `complex_normal_parts`.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    parts = np.empty((len(rngs), 2, *shape))
    for g, out in zip(rngs, parts):
        g.standard_normal(out=out)
    return parts[:, 0] + 1j * parts[:, 1]
