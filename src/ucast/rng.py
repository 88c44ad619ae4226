"""Deterministic random streams.

All randomness in the package flows through :class:`Stream`: a PCG64 bit
generator seeded through a SeedSequence key, with Gaussians produced by an
explicit Box-Muller transform over the uniform stream.  Keeping the Gaussian
transform in-package (instead of the bit generator's native ziggurat sampler)
pins the exact draw sequence, so experiment tables depend only on (seed, key)
and not on the host library's sampling internals.
"""
from __future__ import annotations

import numpy as np

_TWO_PI = 2.0 * np.pi


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
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        # 1 - U keeps the log argument in (0, 1]; U itself can be exactly 0.
        u1 = 1.0 - self._gen.random(pairs, dtype=np.float64)
        u2 = self._gen.random(pairs, dtype=np.float64)
        radius = np.sqrt(-2.0 * np.log(u1))
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = radius * np.cos(_TWO_PI * u2)
        z[1::2] = radius * np.sin(_TWO_PI * u2)
        return z[:n].reshape(shape)

    def normal_matrix(self, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
        return std * self.normal((rows, cols))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
