"""Seeding helpers and the complex Gaussian draw shared by all modules.

Every stochastic entry point accepts normals already drawn or what
``np.random.default_rng`` accepts: an integer seed, or a ready
``Generator``, which it passes through unchanged. Monte Carlo drivers
derive one independent stream per trial from ``(seed, trial_index)``, so
results do not depend on how trials are distributed over workers.
`trial_generator` builds one such stream. `trial_normals` draws from many
at once, the streams ``(seed, key)`` of a 1-D array of integer keys
below 2^64, and keeps no generator: a dof-sweep block's channels are one
call, its oracle rows another. It runs SeedSequence's hash over the
seed's uint32 words and each key's one or two as array arithmetic, and
hands each `PCG64` its seed words through a real ``ISeedSequence``
subclass, defined on first use so that importing the library does not
import ``numpy.random``. What is left per stream is that `PCG64`
construction.

Draw order. A complex normal draw of `shape` takes two draws of `shape`
standard normals off its stream, all real parts first, then all
imaginary parts: `complex_normal` draws both as one (2, *shape) array,
and `trial_normals` fills one such array per key. Every complex draw in
the library keeps that order, so it reads the numbers `complex_normal`
would, and the callers take complex arrays. `two_pass_normals` draws a
large one in sub-blocks of its leading axis: all real parts into one
array, then the imaginary parts one sub-block at a time. The generator
fills arrays in C order, so each sub-block reads the numbers of the whole
draw. It serves `draw_unit_rows`, the quantizer's codewords and sources,
and `grassmann.empirical_ball_cdf`, the Monte Carlo samples, whose caller
bounds the draw: volume-check hands it one chunk at a time.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which
# `_seed_states` runs over uint32 arrays: a pool of 4 words, mixed with
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


def trial_generator(seed: int, *key: int) -> np.random.Generator:
    """Independent stream reproducible from (seed, *key), such as (seed, trial).

    Every derived stream in the library comes from here or from its
    batched equal, `trial_normals`: the entropy is the integer list
    [seed, *key].
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


@functools.cache
def _seed_words_type():
    """A numpy ``ISeedSequence`` that hands `PCG64` its already hashed seed words.

    It answers PCG64's one request, ``generate_state(4, np.uint64)``, and
    cannot spawn children. The class is defined on first use rather than at
    import: importing its base class imports ``numpy.random``, about 15 ms
    that ``import iafb`` need not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _hashmix(values: np.ndarray, consts: tuple) -> np.ndarray:
    xor, mult = consts
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _seed_states(seed: int, keys) -> np.ndarray:
    """The (M, 4) uint64 PCG64 seed words of [trial_generator(seed, key) for key in keys].

    Checks ``keys`` as `trial_normals` documents and runs numpy's
    SeedSequence hash over every key at once as uint32 array arithmetic,
    which wraps as the hash's C code does. Each row's entropy is the
    seed's words, formed once, then its key's low word and, for a key
    past 2^32, its high word. A one-word key's high word is zero, which is
    also how the hash reads the words past a short entropy's end.
    """
    seed, keys = int(seed), np.asarray(keys)
    if seed < 0 or keys.ndim != 1 or keys.dtype.kind not in "iu" or (keys < 0).any():
        raise ValueError(f"expected a non-negative seed and a 1-D array of non-negative integer keys, got {keys.dtype} "
                         f"of shape {keys.shape}")
    head = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        head.append(seed & _MASK32)
    high = keys >> 32
    length = len(head) + 1 + (high > 0)
    entropy = np.zeros((len(keys), max(len(head) + 2, _POOL)), dtype=np.uint32)
    entropy[:, : len(head)] = head
    entropy[:, len(head)], entropy[:, len(head) + 1] = keys & _MASK32, high
    # words past a row's length hash as zeros into the pool, as SeedSequence
    # runs its hash out over a short entropy
    pool = _hashmix(entropy[:, :_POOL], _FILL)
    for src in range(_POOL):
        others = _OTHERS[src]
        pool[:, others] = _mix(pool[:, others], _hashmix(pool[:, src, None], _CROSS[src]))
    # each word past the pool (seeds past 2^64) mixes into every pool word,
    # in rows that have it
    for s in range(entropy.shape[1] - _POOL):
        consts = _consts(_INIT_A, _MULT_A, _POOL * (_POOL + s), _POOL)
        mixed = _mix(pool, _hashmix(entropy[:, _POOL + s, None], consts))
        pool = np.where((length > _POOL + s)[:, None], mixed, pool)
    # generate_state(4, uint64): 8 uint32 words read as 4 little-endian uint64
    state = _hashmix(np.tile(pool, 2), _STATE)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def trial_normals(seed: int, keys, shape: tuple) -> np.ndarray:
    """One `complex_normal` draw of `shape` per key, each from its own stream, stacked.

    Returns complex128 of shape ``(M, *shape)``: row m is bit for bit
    ``complex_normal(trial_generator(seed, keys[m]), shape)``.

    ``keys`` is a 1-D array of M integers in [0, 2^64); a negative seed or
    key (as in SeedSequence) or any other form raises ValueError. Each
    row's `PCG64` is built from `_seed_states`' seed words, fills that
    row's (2, *shape) parts in one float buffer and is dropped, so no list
    of generators is held; the buffer becomes complex once, at the end.
    """
    states = _seed_states(seed, keys)
    parts = np.empty((len(states), 2, *shape))
    words_type, bit_generator, generator = _seed_words_type(), np.random.PCG64, np.random.Generator
    for row, words in zip(parts, states):
        generator(bit_generator(words_type(words))).standard_normal(out=row)
    return parts[:, 0] + 1j * parts[:, 1]


def complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries, unscaled, in the module's draw order.

    Real and imaginary parts are independent standard normals, so each
    entry has variance 2; callers needing unit variance divide by sqrt(2).
    """
    parts = rng.standard_normal((2, *shape))
    return parts[0] + 1j * parts[1]


def two_pass_normals(rng: np.random.Generator, shape, tile: int):
    """Yield (start, real, imag): the parts of one `complex_normal(rng, shape)` draw, a sub-block of `tile` rows at a time.

    The draw is taken in two passes: all its real parts into one array,
    then its imaginary parts `tile` rows at a time into one reused
    sub-block. ``real`` and ``imag`` hold the parts of rows
    ``start .. start + len(imag)``; both are views of those two buffers,
    which the caller may overwrite and which are valid until the next
    sub-block is drawn. So the draw holds the real parts and one sub-block.
    """
    real = np.empty(shape)
    rng.standard_normal(out=real)
    imag_buf = np.empty((min(tile, shape[0]), *shape[1:]))
    for start in range(0, shape[0], tile):
        imag = imag_buf[: min(tile, shape[0] - start)]
        rng.standard_normal(out=imag)
        yield start, real[start : start + len(imag)], imag


# rows per sub-block of `draw_unit_rows`. Sub-blocks of 1024 and 4096
# rows time the same within noise (codebook-distortion argv, 15 alternating
# in-process rounds, one BLAS thread), and building (n, K, bits) = (2, 3, 16)
# traces 7.0 MiB at 1024 against 7.5 at 4096 and 9.8 at 16384
UNIT_TILE = 1 << 10


def draw_unit_rows(rng: np.random.Generator, shape, out: np.ndarray | None = None):
    """Yield (start, rows): `complex_normal(rng, shape)` normalized along its last axis, in sub-blocks.

    ``rows`` holds the unit rows ``start .. start + len(rows)`` of the
    leading axis, bit for bit what normalizing the whole draw in one go
    gives: ``z / np.linalg.norm(z, axis=-1, keepdims=True)``. The rows
    come from `two_pass_normals` in sub-blocks of `UNIT_TILE`, each joined
    and normalized in place. With ``out``, a complex array of `shape`,
    each sub-block is written into it and ``rows`` is that slice of
    ``out``; without it, ``rows`` is one reused buffer, valid until the
    next sub-block is drawn.
    """
    shape = tuple(shape)
    block = np.empty((min(UNIT_TILE, shape[0]), *shape[1:]), dtype=complex) if out is None else None
    for start, real, imag in two_pass_normals(rng, shape, UNIT_TILE):
        rows = (block if out is None else out[start:])[: len(imag)]
        rows.real = real
        rows.imag = imag
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        yield start, rows
