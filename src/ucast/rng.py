"""Deterministic random streams.

All randomness in the package flows through :class:`Stream`: a PCG64 bit
generator seeded through a SeedSequence key, with Gaussians produced by an
explicit Box-Muller transform over the uniform stream.  Keeping the Gaussian
transform in-package (instead of the bit generator's native ziggurat sampler)
pins the exact draw sequence, so experiment tables depend only on (seed, key)
and not on the host library's sampling internals.  Gaussians are generated
block by block, BLOCK_PAIRS pairs at a time, so a large draw holds its output
and two block-sized buffers rather than full-size temporaries.
"""
from __future__ import annotations

import numpy as np

_TWO_PI = 2.0 * np.pi
BLOCK_PAIRS = 1 << 15


class Stream:
    """Seeded random stream; every consumer names its own sub-stream key."""

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        entropy = (int(seed), *(int(k) for k in key))
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy)))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        if high < low:
            raise ValueError(f"empty uniform range [{low}, {high}]")
        return low + (high - low) * self._gen.random(size, dtype=np.float64)

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
            # a second cursor, `pairs` uniforms ahead, reads u2 block by
            # block, and the stream then continues from it.  advance() drops
            # the 32-bit half-draw a permutation may have buffered; uniforms
            # never consume it, so it is carried over.
            state = first.bit_generator.state
            ahead = np.random.PCG64()
            ahead.state = state
            ahead.advance(pairs)
            ahead.state = {**ahead.state, "has_uint32": state["has_uint32"],
                           "uinteger": state["uinteger"]}
            self._gen = np.random.Generator(ahead)
        z = np.empty((pairs, 2), dtype=np.float64)
        for lo in range(0, pairs, BLOCK_PAIRS):
            k = min(BLOCK_PAIRS, pairs - lo)
            # 1 - U keeps the log argument in (0, 1]; U itself can be exactly 0.
            radius = first.random(k, dtype=np.float64)
            np.subtract(1.0, radius, out=radius)
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle = self._gen.random(k, dtype=np.float64)
            angle *= _TWO_PI
            block = z[lo:lo + k]
            np.cos(angle, out=block[:, 0])
            np.sin(angle, out=block[:, 1])
            block *= radius[:, None]
        return z.reshape(-1)[:n].reshape(shape)

    def normal_matrix(self, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
        z = self.normal((rows, cols))
        z *= std
        return z

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
