"""The blocked Box-Muller sampler against the whole-array transform."""
import tracemalloc

import numpy as np
import pytest

from ucast.rng import BLOCK_PAIRS, Stream, _TWO_PI


def reference_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Box-Muller over the whole draw at once: u1 is the next `pairs`
    uniforms of the stream, u2 the `pairs` after them."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    u1 = 1.0 - gen.random(pairs, dtype=np.float64)
    u2 = gen.random(pairs, dtype=np.float64)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = radius * np.cos(_TWO_PI * u2)
    z[1::2] = radius * np.sin(_TWO_PI * u2)
    return z[:n].reshape(shape)


SIZES = [(), 1, 7, 2 * BLOCK_PAIRS - 1, 2 * BLOCK_PAIRS + 1,
         2 * BLOCK_PAIRS + 2, 6 * BLOCK_PAIRS + 5, (20000, 128), (3, 0)]


@pytest.mark.parametrize("size", SIZES, ids=str)
def test_matches_whole_array_transform_bit_for_bit(size):
    stream, ref = Stream(5, (1, 2)), Stream(5, (1, 2))
    # an odd-length permutation leaves a buffered 32-bit half-draw behind
    assert np.array_equal(stream.permutation(4), ref.permutation(4))
    z = stream.normal(size)
    expected = reference_normal(ref._gen, size)
    assert z.shape == expected.shape and z.dtype == np.float64
    assert z.tobytes() == expected.tobytes()
    # the stream continues exactly where the whole-array transform left it
    assert stream.normal(5).tobytes() == reference_normal(ref._gen, 5).tobytes()
    assert stream.uniform(-1.0, 1.0, 9).tobytes() == ref.uniform(-1.0, 1.0, 9).tobytes()
    assert np.array_equal(stream.permutation(7), ref.permutation(7))


def test_peak_memory_is_the_output():
    stream = Stream(1, (1, 128, 13))
    tracemalloc.start()
    try:
        z = stream.normal((20000, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < z.nbytes + 2 * 2**20
