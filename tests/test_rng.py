import numpy as np
import pytest

from iafb.cli import MC_CHUNK
from iafb.rng import (
    _seed_states,
    _seed_words_type,
    complex_normal,
    trial_generator,
    trial_normals,
    two_pass_normals,
)


# the complex draw's parts are one (2, *shape) draw, which equals two draws
# of `shape`, real parts first: the Monte Carlo ball count and the drawn
# normals of the channel and the oracle rely on that stream
@pytest.mark.parametrize("shape", [(3,), (5, 2, 3), (MC_CHUNK, 3, 2)])
def test_parts_are_the_complex_draw(shape):
    z = complex_normal(np.random.default_rng(7), shape)
    assert z.shape == shape and z.dtype == np.complex128
    parts = np.random.default_rng(7).standard_normal((2, *shape))
    assert np.array_equal(parts[0], z.real) and np.array_equal(parts[1], z.imag)
    rng = np.random.default_rng(7)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    assert np.array_equal(parts[0], re) and np.array_equal(parts[1], im)


# sub-blocks of 4 rows: one row; one sub-block short of, at and past full;
# a second sub-block short of full; and a last sub-block of one row
@pytest.mark.parametrize("count", [1, 3, 4, 5, 6, 7, 13])
def test_two_pass_draw_is_one_complex_draw_per_batch(count):
    real, imag = np.empty((count, 2, 3)), np.empty((count, 2, 3))
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for start, re, im in two_pass_normals(rng, (count, 2, 3), 4):
        assert len(re) == len(im) <= 4
        real[start : start + len(re)], imag[start : start + len(im)] = re, im
    want = complex_normal(ref, (count, 2, 3))
    assert np.array_equal(real, want.real) and np.array_equal(imag, want.imag)
    # the stream is left where the one draw leaves it
    assert rng.standard_normal() == ref.standard_normal()


# seeds of one, two and three uint32 words, across the 2^32 and 2^64
# boundaries, and keys of one and two words, up to the last below 2^64
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]
KEYS = np.array([0, 2**32 - 1, 2**32, 2**64 - 1, 2**40 + 7, 14_000_000_000_000], dtype=np.uint64)


def assert_same_streams(seed, keys):
    # a generator built from each row of seed words, as `trial_normals`
    # builds one, has the state and the stream of the key's `trial_generator`
    states = _seed_states(seed, keys)
    assert states.shape == (len(keys), 4) and states.dtype == np.uint64
    for words, key in zip(states, keys):
        gen = np.random.Generator(np.random.PCG64(_seed_words_type()(words)))
        ref = trial_generator(seed, key)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.standard_normal((2, 3, 2)), ref.standard_normal((2, 3, 2)))


# forms `trial_generator` takes but `trial_normals` does not: the former
# (M, k) key rows, of one entry and of two, and arrays that numpy makes of
# floats (a uint64 beside a Python int) or of Python objects, which are
# not keys below 2^64
UNSUPPORTED = [
    [[1], [2]],
    np.array([[3, 7]]),
    [np.uint64(2**63), 1],
    np.array([1.0, 2.0]),
    np.array([2**64 + 3], dtype=object),
]


class TestTrialGenerators:
    """The batched seed words build each key's `trial_generator`, state and stream, bit for bit."""

    # seeds of one to four words: entropies of 2 to 6 words, inside the
    # 4-word pool and past it
    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 5, 2**96 + 3])
    def test_states_are_seed_sequence_states(self, seed):
        keys = np.array([0, 1, 2**32 - 1, 2**32, 2**40 + 7, int(1.4e13)])
        want = [np.random.SeedSequence([seed, int(k)]).generate_state(4, np.uint64) for k in keys]
        assert np.array_equal(_seed_states(seed, keys), want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_word_lengths_mixed_in_one_call(self, seed):
        # keys of one and two words side by side
        assert_same_streams(seed, np.concatenate([KEYS, KEYS[::-1]]))

    def test_sweep_keys(self):
        # dof-sweep's oracle keys for trials 42 and 43, which cross 2^32
        keys = [(t * 100_000 + j) * 1009 + i for t in (42, 43) for j in range(11) for i in range(3)]
        assert_same_streams(2**31 + 7, keys)

    def test_empty(self):
        assert _seed_states(0, np.arange(0)).shape == (0, 4)

    @pytest.mark.parametrize("seed, keys", [(0, [1, -1]), (-1, [1]), (0, [2, -3])])
    def test_negative_entropy_raises(self, seed, keys):
        with pytest.raises(ValueError, match="non-negative"):
            _seed_states(seed, keys)

    @pytest.mark.parametrize("keys", UNSUPPORTED)
    def test_unsupported_key_forms_raise(self, keys):
        with pytest.raises(ValueError, match="1-D array of non-negative integer keys"):
            _seed_states(0, keys)


def assert_same_normals(seed, keys, shape):
    got = trial_normals(seed, keys, shape)
    assert got.shape == (len(keys), *shape) and got.dtype == np.complex128
    for row, key in zip(got, keys):
        assert np.array_equal(row, complex_normal(trial_generator(seed, key), shape))


class TestTrialNormals:
    """Row m is `complex_normal(trial_generator(seed, keys[m]), shape)`, bit for bit."""

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3, 2)])
    def test_one_word_keys(self, shape):
        assert_same_normals(7, range(6), shape)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", KEYS)
    def test_single_key(self, seed, key):
        assert_same_normals(seed, [key], (3, 2))

    def test_rows_past_the_pool(self):
        # a 3-word seed and keys of 2 and 1 words: rows of 5 words take the
        # mixing loop past the 4-word pool beside rows of 4 that stop at it;
        # a 4-word seed takes every row past it
        assert_same_normals(2**64 + 5, np.array([2**40 + 7, 4, 2**32]), (3, 2))
        assert_same_normals(2**96 + 3, np.array([2**40 + 7, 4]), (3, 2))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_integer_arrays(self, dtype):
        assert_same_normals(9, np.array([0, 5, 2**32 - 1, 2**32, 2**33 + 7], dtype=dtype), (3, 2))
        assert_same_normals(9, np.array([2**64 - 1], dtype=np.uint64), (3, 2))

    def test_repeated_key(self):
        # each row draws from a stream of its own, so a repeated key repeats its row
        a, b = trial_normals(3, [9, 9], (4,))
        assert np.array_equal(a, b)
        assert np.array_equal(a, complex_normal(trial_generator(3, 9), (4,)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_several_word_keys(self, seed):
        # keys of one and two words in one call
        assert_same_normals(seed, KEYS, (3, 2))

    def test_sweep_keys(self):
        # dof-sweep's oracle keys for trials 42 and 43, which cross 2^32
        keys = np.array([(t * 100_000 + j) * 1009 + i for t in (42, 43) for j in range(11) for i in range(3)])
        assert_same_normals(2**31 + 7, keys, (3, 2))

    def test_empty(self):
        assert trial_normals(0, np.arange(0), (3, 2)).shape == (0, 3, 2)

    @pytest.mark.parametrize("seed, keys", [(0, [1, -1]), (-1, [1]), (0, [2, -3])])
    def test_negative_entropy_raises(self, seed, keys):
        with pytest.raises(ValueError, match="non-negative"):
            trial_normals(seed, keys, (3, 2))

    @pytest.mark.parametrize("keys", UNSUPPORTED)
    def test_unsupported_key_forms_raise(self, keys):
        with pytest.raises(ValueError, match="1-D array of non-negative integer keys"):
            trial_normals(0, keys, (3, 2))
