"""Dense matrix kernels and their contracts.

A "matrix" throughout the package is a 2-D float64 numpy array in row-major
(C) order; helpers here validate that shape contract.  The row-wise kernels
(softmax, layer norm, log-det) also take a 3-D stack of matrices and apply
per matrix.  Operations are pure: inputs are never mutated, every call
returns a fresh array.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DefinitenessError, NumericError, ShapeError

SYMMETRY_TOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """One matrix, or a B x rows x cols stack of them."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"{name}: expected 2-D or 3-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def require_finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name}: non-finite entries")
    return a


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax; max-shifted so the exponentials cannot overflow."""
    m = as_stack(m, "softmax input")
    require_finite(m, "softmax input")
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(m: np.ndarray, gain: np.ndarray, bias: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    """Standardize each row to zero mean / unit variance, then scale and shift.

    gain and bias have one entry per column; eps sits inside the square root.
    """
    m = as_stack(m, "layer_norm input")
    gain = np.asarray(gain, dtype=np.float64).reshape(-1)
    bias = np.asarray(bias, dtype=np.float64).reshape(-1)
    if gain.shape[0] != m.shape[-1] or bias.shape[0] != m.shape[-1]:
        raise ShapeError(
            f"layer_norm: gain/bias length {gain.shape[0]}/{bias.shape[0]} "
            f"vs {m.shape[-1]} columns")
    mu = m.mean(axis=-1, keepdims=True)
    var = m.var(axis=-1, keepdims=True)
    normed = (m - mu) / np.sqrt(var + eps)
    return normed * gain + bias


def cholesky_logdet(s: np.ndarray) -> float | np.ndarray:
    """log det of a symmetric PD matrix via its triangular factorization.

    The input is symmetrized as (S + S^T)/2 first; asymmetry beyond
    SYMMETRY_TOL is rejected rather than silently averaged away.  A stack of
    matrices gives one log det per matrix.
    """
    s = as_stack(s, "cholesky input")
    if s.shape[-2] != s.shape[-1]:
        raise ShapeError(f"cholesky: matrix not square, shape {s.shape}")
    require_finite(s, "cholesky input")
    s_t = np.swapaxes(s, -1, -2)
    asym = float(np.abs(s - s_t).max()) if s.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NumericError(f"cholesky: asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    sym = 0.5 * (s + s_t)
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(
            "cholesky: matrix is not positive definite; add eps*I before "
            "factorizing") from exc
    logdets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return float(logdets) if s.ndim == 2 else logdets


def save_matrix_csv(path, m: np.ndarray) -> None:
    """Write a matrix row-major; repr-formatted floats round-trip exactly."""
    m = as_matrix(m, "save_matrix_csv input")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in m:
            writer.writerow([repr(float(x)) for x in row])
