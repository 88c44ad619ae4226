"""Deterministic random streams.

All randomness in the package flows through :class:`Stream`: a PCG64 bit
generator seeded through a SeedSequence key, with Gaussians produced by an
explicit Box-Muller transform over the uniform stream.  Keeping the Gaussian
transform in-package (instead of the bit generator's native ziggurat sampler)
pins the exact draw sequence, so experiment tables depend only on (seed, key)
and not on the host library's sampling internals.  Gaussians are generated
block by block, BLOCK_PAIRS pairs at a time, so a large draw holds its output
and two block-sized buffers rather than full-size temporaries;
`normal_blocks` hands the same draw out in row blocks, so its caller need not
hold the output either.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import ParameterError

_TWO_PI = 2.0 * np.pi
BLOCK_PAIRS = 1 << 15


def _box_muller(first: np.random.Generator, second: np.random.Generator,
                z: np.ndarray) -> None:
    """Fill the k x 2 array z with k pairs: u1_i from `first`, u2_i from
    `second`; z[i] = radius_i (cos, sin)(2 pi u2_i)."""
    for lo in range(0, len(z), BLOCK_PAIRS):
        block = z[lo:lo + BLOCK_PAIRS]
        k = len(block)
        # 1 - U keeps the log argument in (0, 1]; U itself can be exactly 0.
        radius = first.random(k, dtype=np.float64)
        np.subtract(1.0, radius, out=radius)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = second.random(k, dtype=np.float64)
        angle *= _TWO_PI
        np.cos(angle, out=block[:, 0])
        np.sin(angle, out=block[:, 1])
        # one multiply per column: a 2-wide broadcast loops once per row
        block[:, 0] *= radius
        block[:, 1] *= radius


def _row_blocks(first: np.random.Generator, second: np.random.Generator,
                rows: int, cols: int, block_rows: int
                ) -> Iterator[np.ndarray]:
    # a block that ends on the cosine of a pair leaves its sine to the next
    carry = None
    for lo in range(0, rows, block_rows):
        out = np.empty((min(block_rows, rows - lo), cols), dtype=np.float64)
        flat = out.reshape(-1)
        start = 0
        if carry is not None:
            flat[0], carry, start = carry, None, 1
        whole = (flat.size - start) // 2
        _box_muller(first, second,
                    flat[start:start + 2 * whole].reshape(whole, 2))
        if start + 2 * whole < flat.size:
            last = np.empty((1, 2), dtype=np.float64)
            _box_muller(first, second, last)
            flat[-1], carry = last[0]
        yield out
        # unless the caller keeps it, a block is freed before the next is drawn
        del out, flat


class Stream:
    """Seeded random stream; every consumer names its own sub-stream key."""

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        entropy = (int(seed), *(int(k) for k in key))
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy)))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        if high < low:
            raise ValueError(f"empty uniform range [{low}, {high}]")
        return low + (high - low) * self._gen.random(size, dtype=np.float64)

    def _ahead(self, steps: int) -> np.random.Generator:
        """A private cursor `steps` uniforms ahead of the stream.  advance()
        drops the 32-bit half-draw a permutation may have buffered; uniforms
        never consume it, so it is carried over."""
        state = self._gen.bit_generator.state
        ahead = np.random.PCG64()
        ahead.state = state
        ahead.advance(steps)
        ahead.state = {**ahead.state, "has_uint32": state["has_uint32"],
                       "uinteger": state["uinteger"]}
        return np.random.Generator(ahead)

    def normal(self, size) -> np.ndarray:
        """Standard normals via Box-Muller on uniform pairs (u1_i, u2_i).

        u1 is the next `pairs` uniforms of the stream and u2 the `pairs`
        after them; output 2i is radius_i cos(2 pi u2_i), 2i+1 the sine.
        """
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        first = self._gen
        if pairs > BLOCK_PAIRS:
            # u2 is read block by block from a second cursor, and the
            # stream then continues from it
            self._gen = self._ahead(pairs)
        z = np.empty((pairs, 2), dtype=np.float64)
        _box_muller(first, self._gen, z)
        return z.reshape(-1)[:n].reshape(shape)

    def normal_blocks(self, rows: int, cols: int,
                      block_rows: int) -> Iterator[np.ndarray]:
        """`normal((rows, cols))` handed out as consecutive blocks of up to
        `block_rows` rows, bit for bit.

        The stream moves past the whole draw now; the blocks are drawn
        lazily from two private cursors, so at most one block is held.
        """
        pairs = (rows * cols + 1) // 2
        first, second = self._gen, self._ahead(pairs)
        self._gen = self._ahead(2 * pairs)
        return _row_blocks(first, second, rows, cols, block_rows)

    def normal_matrix(self, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
        z = self.normal((rows, cols))
        z *= std
        return z

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
