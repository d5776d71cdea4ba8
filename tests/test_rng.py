import numpy as np
import pytest

from iafb.grassmann import MC_CHUNK
from iafb.rng import complex_normal, complex_normal_parts, complex_normal_streams, trial_generator, trial_generators


# one (2, *shape) draw must equal two draws of `shape`, real parts first:
# the Monte Carlo ball count reads the parts and relies on that stream
@pytest.mark.parametrize("shape", [(3,), (5, 2, 3), (MC_CHUNK, 3, 2)])
def test_parts_are_the_complex_draw(shape):
    parts = complex_normal_parts(np.random.default_rng(7), shape)
    assert parts.shape == (2, *shape) and parts.dtype == np.float64
    z = complex_normal(np.random.default_rng(7), shape)
    assert np.array_equal(parts[0], z.real) and np.array_equal(parts[1], z.imag)
    rng = np.random.default_rng(7)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    assert np.array_equal(parts[0], re) and np.array_equal(parts[1], im)


def test_integer_shape():
    assert complex_normal_parts(np.random.default_rng(0), 4).shape == (2, 4)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3, 2)])
def test_streams_are_per_generator_draws(shape):
    got = complex_normal_streams([np.random.default_rng(40 + b) for b in range(4)], shape)
    assert got.shape == (4, *shape)
    for b, row in enumerate(got):
        assert np.array_equal(row, complex_normal(np.random.default_rng(40 + b), shape))


def test_streams_of_no_generators():
    assert complex_normal_streams([], (3, 2)).shape == (0, 3, 2)


def assert_same_streams(seed, keys):
    gens = trial_generators(seed, keys)
    assert len(gens) == len(keys)
    for gen, key in zip(gens, keys):
        ref = trial_generator(seed, *key)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.standard_normal((2, 3, 2)), ref.standard_normal((2, 3, 2)))


# one, two and three uint32 words each, across the 2^32 and 2^64 boundaries
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]
KEYS = [(0,), (2**32 - 1,), (2**32,), (2**64 + 3,), (3, 7), (2**32, 1)]


class TestTrialGenerators:
    """The batched seeding equals one `trial_generator` per key, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", KEYS)
    def test_single_key(self, seed, key):
        assert_same_streams(seed, [key])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_word_lengths_mixed_in_one_call(self, seed):
        assert_same_streams(seed, KEYS + [(), (5,), (2**64 + 3, 2**32)])

    def test_rows_past_the_pool(self):
        # rows of 6 (3 + 3) and 8 (3 + 1 + 3 + 1) words take the mixing loop
        # past the 4-word pool, beside a row of 4 words in the same call
        assert_same_streams(2**64 + 5, [(2**64 + 3,), (1, 2**64 + 3, 9), (4,), (2**64 + 3,)])

    def test_sweep_keys(self):
        # dof-sweep's oracle keys for trials 42 and 43, which cross 2^32
        keys = [((t * 100_000 + j) * 1009 + i,) for t in (42, 43) for j in range(11) for i in range(3)]
        assert_same_streams(2**31 + 7, keys)

    def test_repeated_key_gives_separate_generators(self):
        a, b = trial_generators(3, [(9,), (9,)])
        assert a is not b
        assert np.array_equal(a.standard_normal(4), b.standard_normal(4))

    def test_empty(self):
        assert trial_generators(0, []) == []

    @pytest.mark.parametrize("seed, keys", [(0, [(1,), (-1,)]), (-1, [(1,)]), (0, [(2, -3)])])
    def test_negative_entropy_raises(self, seed, keys):
        with pytest.raises(ValueError, match="non-negative"):
            trial_generators(seed, keys)
