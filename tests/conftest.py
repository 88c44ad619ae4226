"""Shared builders for the test suite."""
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from ucast.model import UCastConfig
from ucast.rng import Stream
from ucast.varlab import VarProcessSpec, spectral_radius


def random_spd(n: int, seed: int = 0, ridge: float = 0.1) -> np.ndarray:
    """Well-conditioned symmetric positive definite test matrix."""
    g = Stream(seed, (n, 71)).normal((n, n))
    return g @ g.T / n + ridge * np.eye(n)


def random_stable_spec(c: int, seed: int, radius: float = 0.9,
                       unit_noise: bool = False) -> VarProcessSpec:
    """Dense random coefficient matrix rescaled to the requested radius."""
    stream = Stream(seed, (c, 73))
    a = stream.normal((c, c))
    a *= radius / spectral_radius(a)
    noise = np.ones(c) if unit_noise else stream.uniform(0.5, 2.0, c)
    return VarProcessSpec(structure="custom", C=c, A=a, noise_diag=noise,
                          seed=seed)


def signed_unstable_spec() -> VarProcessSpec:
    """A signed 6x6 A scaled to a true spectral radius of 1.002, which the
    power iteration rates at 0.9966, below one."""
    a = np.random.default_rng(0).standard_normal((6, 6))
    a *= 1.002 / np.abs(np.linalg.eigvals(a)).max()
    return VarProcessSpec(structure="custom", C=6, A=a, noise_diag=np.ones(6))


def rotation_spec(theta: float = 0.3) -> VarProcessSpec:
    """A 2 x 2 rotation with unit noise: eigvals reads a radius just below
    one, and the doubling stops at an S with ~1.7e16 on its diagonal."""
    a = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    return VarProcessSpec(structure="custom", C=2, A=a, noise_diag=np.ones(2))


def tiny_config(**overrides) -> UCastConfig:
    base = dict(channels=6, lookback=8, horizon=4, d=8, layers=2, ratio=2,
                heads=1, alpha=0.1, eps_cov=1e-4, seed=0)
    base.update(overrides)
    return UCastConfig(**base)


# every scalar a JSON file can hold, non-finite floats and integers beyond
# the float range included
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.integers(2 ** 1023, 2 ** 1100), st.text(max_size=6))
REFUSED = object()


def read_as(kind: str, value):
    """The value a setting declared "int", "float" or "str" reads from a JSON
    scalar, with its exact type, or REFUSED: 8.0 reads as the int 8, while
    8.7, true, "8", null and non-finite numbers are refused."""
    if kind == "str":
        return value if type(value) is str else REFUSED
    if type(value) is int and kind == "int":
        return value
    if type(value) not in (int, float):
        return REFUSED
    try:
        number = float(value)
    except OverflowError:
        return REFUSED
    if not math.isfinite(number):
        return REFUSED
    if kind == "float":
        return number
    return int(number) if number.is_integer() else REFUSED


@pytest.fixture
def rng():
    return Stream(0, (999,))
