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


# (rows, cols, block_rows): blocks of an odd size split a pair across two
# blocks, a draw below one block, last blocks that are not full, and draws
# across BLOCK_PAIRS pairs both per block and in total
BLOCK_DRAWS = [(5, 3, 2), (7, 3, 3), (3, 7, 4), (1, 1, 4096), (0, 5, 3),
               (4, 0, 3), (4097, 7, 4096), (5000, 9, 4095),
               (9, 2 * BLOCK_PAIRS + 1, 3), (2 * BLOCK_PAIRS + 3, 1, 4095),
               (3, 2 * BLOCK_PAIRS - 1, 3)]


@pytest.mark.parametrize("rows,cols,block_rows", BLOCK_DRAWS, ids=str)
def test_blocks_match_normal_bit_for_bit(rows, cols, block_rows):
    stream, ref = Stream(5, (1, 2)), Stream(5, (1, 2))
    assert np.array_equal(stream.permutation(3), ref.permutation(3))
    blocks = stream.normal_blocks(rows, cols, block_rows)
    expected = ref.normal((rows, cols))
    # the stream has already moved past the whole draw, before any block
    assert stream.normal(5).tobytes() == ref.normal(5).tobytes()
    got = list(blocks)
    assert len(got) == -(-rows // block_rows)
    assert all(len(b) == block_rows for b in got[:-1])
    joined = np.concatenate(got) if got else np.empty((0, cols))
    assert joined.shape == expected.shape and joined.dtype == np.float64
    assert joined.tobytes() == expected.tobytes()
    assert stream.uniform(-1.0, 1.0, 9).tobytes() == ref.uniform(-1.0, 1.0, 9).tobytes()
    assert np.array_equal(stream.permutation(7), ref.permutation(7))


def test_blocks_hold_one_block():
    stream = Stream(1, (1, 128, 13))
    tracemalloc.start()
    try:
        for block in stream.normal_blocks(40000, 128, 4096):
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 128 * 8 + 2 * 2**20
