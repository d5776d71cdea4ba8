import numpy as np
import pytest

from iafb.grassmann import MC_CHUNK
from iafb.rng import complex_normal, complex_normal_parts


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
