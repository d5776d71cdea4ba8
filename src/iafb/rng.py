"""Seeding helpers shared by all modules.

Every stochastic entry point accepts an integer seed, a ready
``numpy.random.Generator`` or normals already drawn. Monte Carlo drivers
derive one independent stream per trial from ``(seed, trial_index)``, so
results do not depend on how trials are distributed over workers.
`trial_generator` builds one such stream. `trial_normals` draws from many
at once, one per row of an (M, k) integer array of keys, and keeps no
generator: a dof-sweep block's channels are one call, its oracle rows
another. It runs SeedSequence's hash over every key's uint32 words as
array arithmetic and hands each `PCG64` its seed words through a real
``ISeedSequence`` subclass, defined on first use so that importing the
library does not import ``numpy.random``. What is left per stream is
that `PCG64` construction. `draw_unit_rows` draws normalized complex
rows, the quantizer's codewords and sources, in sub-blocks.
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


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator for `seed`; pass Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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


def _uint32_words(values: np.ndarray):
    """SeedSequence's coercion of non-negative integers: (words, count).

    ``words[..., w]`` holds word w of each value, low first, zero past its
    last word; ``count`` holds each value's word count (one for zero).
    Works on integer arrays and on object arrays of Python integers.
    """
    words, count = [], np.ones(values.shape, dtype=np.int64)
    while True:
        words.append((values & _MASK32).astype(np.uint32))
        values = values >> 32
        more = np.asarray(values > 0, dtype=bool)
        if not more.any():
            return np.stack(words, axis=-1), count
        count += more


def _hashmix(values: np.ndarray, consts: tuple) -> np.ndarray:
    xor, mult = consts
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _seed_states(seed: int, keys) -> np.ndarray:
    """The (M, 4) uint64 PCG64 seed words of [trial_generator(seed, *key) for key in keys].

    Checks ``keys`` as `trial_normals` documents and runs numpy's
    SeedSequence hash over every key at once as uint32 array arithmetic,
    which wraps as the hash's C code does: each row's entropy is the
    seed's words followed by each key entry's words, however many words
    each entry takes.
    """
    if int(seed) < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    try:
        keys = np.asarray(keys)
    except ValueError:
        raise ValueError("keys must form an (M, k) array of integers: one length for every key") from None
    if not keys.size:  # no keys, or M empty ones; numpy types both as floats
        return np.tile(np.random.SeedSequence([int(seed)]).generate_state(4, np.uint64), (len(keys), 1))
    if keys.ndim != 2 or keys.dtype.kind not in "biuO":
        raise ValueError(f"keys must form an (M, k) array of integers, got {keys.dtype} of shape {keys.shape}")
    if (keys < 0).any():
        raise ValueError("expected non-negative integer keys")
    head, head_count = _uint32_words(np.array([int(seed)]))
    head = head[0, : head_count[0]]
    words, count = _uint32_words(keys)
    # each row's key words in entry order, with the (zero) padding of its
    # entries moved past its last word
    padding = (np.arange(words.shape[-1]) >= count[..., None]).reshape(len(keys), -1)
    body = np.take_along_axis(words.reshape(len(keys), -1), np.argsort(padding, axis=1, kind="stable"), axis=1)
    length = len(head) + count.sum(axis=1)
    entropy = np.zeros((len(keys), max(len(head) + body.shape[1], _POOL)), dtype=np.uint32)
    entropy[:, : len(head)], entropy[:, len(head) : len(head) + body.shape[1]] = head, body
    # words past a row's length hash as zeros into the pool, as SeedSequence
    # runs its hash out over a short entropy
    pool = _hashmix(entropy[:, :_POOL], _FILL)
    for src in range(_POOL):
        others = _OTHERS[src]
        pool[:, others] = _mix(pool[:, others], _hashmix(pool[:, src, None], _CROSS[src]))
    # each word past the pool mixes into every pool word, in rows that have it
    for s in range(entropy.shape[1] - _POOL):
        consts = _consts(_INIT_A, _MULT_A, _POOL * (_POOL + s), _POOL)
        mixed = _mix(pool, _hashmix(entropy[:, _POOL + s, None], consts))
        pool = np.where((length > _POOL + s)[:, None], mixed, pool)
    # generate_state(4, uint64): 8 uint32 words read as 4 little-endian uint64
    state = _hashmix(np.tile(pool, 2), _STATE)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def trial_normals(seed: int, keys, shape) -> np.ndarray:
    """One draw of `shape` complex normals' parts per key, from its own stream, stacked.

    Returns float64 of shape ``(M, 2, *shape)`` in `complex_normal`'s
    layout, real parts at index 0: row m holds exactly the numbers
    ``trial_generator(seed, *keys[m]).standard_normal((2, *shape))`` draws,
    the parts of that stream's `complex_normal` draw.

    ``keys`` is an (M, k) array of non-negative integers, one key per row
    (an array of Python integers for keys past 2^64), so every key of a
    call has the same length. Keys of several lengths or not integers, and
    a negative seed or key (as in SeedSequence), raise ValueError. Each
    row's `PCG64` is built from `_seed_states`' seed words, fills its row
    in place and is dropped, so no list of generators is held.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    states = _seed_states(seed, keys)
    out = np.empty((len(states), 2, *shape))
    words_type, bit_generator, generator = _seed_words_type(), np.random.PCG64, np.random.Generator
    for row, words in zip(out, states):
        generator(bit_generator(words_type(words))).standard_normal(out=row)
    return out


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries, unscaled.

    Real and imaginary parts are independent standard normals, so each
    entry has variance 2; callers needing unit variance divide by sqrt(2).
    The parts come from one ``rng.standard_normal((2, *shape))`` draw,
    real parts at index 0 and imaginary parts at index 1. The generator
    fills that array in C order, so it holds the same numbers as two draws
    of `shape` each, real parts first. Every complex draw in the library
    takes this layout: drawn here, per key by `trial_normals`, or straight
    off the generator in two passes, all real parts and then the imaginary
    parts one sub-block at a time: `draw_unit_rows` for codewords and
    sources, `grassmann.ball_hit_count` for Monte Carlo samples.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    parts = rng.standard_normal((2, *shape))
    return parts[0] + 1j * parts[1]


# rows per sub-block of `draw_unit_rows`. Sub-blocks of 1024 and 4096
# rows time the same within noise (codebook-distortion argv, 15 alternating
# in-process rounds, one BLAS thread), and building (n, K, bits) = (2, 3, 16)
# traces 7.0 MiB at 1024 against 7.5 at 4096 and 9.8 at 16384
UNIT_TILE = 1 << 10


def draw_unit_rows(rng: np.random.Generator, shape, out: np.ndarray | None = None):
    """Yield (start, rows): `complex_normal(rng, shape)` normalized along its last axis, in sub-blocks.

    ``rows`` holds the unit rows ``start .. start + len(rows)`` of the
    leading axis, bit for bit what normalizing the whole draw in one go
    gives: ``z / np.linalg.norm(z, axis=-1, keepdims=True)``. The draw
    takes two passes over the stream, in `complex_normal`'s layout: all
    real parts into one float array of `shape`, then the imaginary parts
    of `UNIT_TILE` rows at a time, each sub-block joined to its real parts
    and normalized in place. With ``out``, a complex array of `shape`,
    each sub-block is written into it and ``rows`` is that slice of
    ``out``; without it, ``rows`` is one reused buffer, valid until the
    next sub-block is drawn. So no (2, *shape) parts array and no second
    complex copy is held: beside ``out`` the draw holds the real parts
    and one sub-block.
    """
    shape = tuple(shape)
    count = shape[0]
    real = rng.standard_normal(shape)
    tile = min(UNIT_TILE, count)
    imag = np.empty((tile, *shape[1:]))
    block = np.empty((tile, *shape[1:]), dtype=complex) if out is None else None
    for start in range(0, count, tile):
        part = imag[: min(tile, count - start)]
        rng.standard_normal(out=part)
        rows = (block if out is None else out[start:])[: len(part)]
        rows.real = real[start : start + len(part)]
        rows.imag = part
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        yield start, rows
