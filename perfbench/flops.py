"""Analytic floating-point operation counts for one training window.

Counts are computed from the configuration, not measured.  They cover the
dense kernels only: every matrix product (2mkn forward; 2mkn backward for
each operand that carries a gradient), and the covariance penalty's Gram
product, Cholesky factorization (n^3/3) and linear solve (LU 2n^3/3 plus
2n^2 per right-hand side).  Element-wise work (softmax, layer norm, the loss)
is left out; it is linear in the activation size and small beside the
products at any width the benchmark runs.
"""
from __future__ import annotations

from ucast.model import UCastConfig, ladder_sizes


def gemm(m: int, k: int, n: int, grad_operands: int) -> int:
    """Forward plus backward flops of an (m x k) @ (k x n) product."""
    return 2 * m * k * n * (1 + grad_operands)


def attention(query_rows: int, key_rows: int, d: int) -> int:
    """Projections, scores, weighted sum and output projection of one stage.

    Head splitting does not change the total: the per-head score products
    sum to one product over the full width, the `analysis.score_entries`
    count (query_rows x key_rows per head) times 2d.
    """
    return (gemm(query_rows, d, d, 2)           # Q = rows W_q
            + 2 * gemm(key_rows, d, d, 2)       # K and V
            + gemm(query_rows, d, key_rows, 2)  # Q K^T
            + gemm(query_rows, key_rows, d, 2)  # A V
            + gemm(query_rows, d, d, 2))        # output projection


def cov_penalty(rows: int, d: int) -> int:
    """Gram matrix and Cholesky forward; LU solve against H backward."""
    forward = 2 * rows * rows * d + rows ** 3 // 3
    backward = 2 * rows ** 3 // 3 + 2 * rows * rows * d
    return forward + backward


def forecaster_stages(config: UCastConfig) -> dict[str, int]:
    """Per-stage flops of one window's forward and backward pass."""
    if config.variant == "no_upsampling":
        raise ValueError("the FLOP model covers the attention decoder only")
    c, d = config.channels, config.d
    sizes = [c] + ladder_sizes(c, config.ratio, config.layers)
    stages = {"embed": gemm(c, config.lookback, d, 1)}
    for level in range(1, config.layers + 1):
        stages[f"enc{level}"] = attention(sizes[level], sizes[level - 1], d)
        if config.alpha > 0:
            stages[f"cov{level}"] = cov_penalty(sizes[level], d)
    stages["f_pred"] = gemm(sizes[-1], d, d, 2)
    for level in range(config.layers, 0, -1):
        stages[f"dec{level}"] = attention(sizes[level - 1], sizes[level], d)
    stages["out"] = gemm(c, d, config.horizon, 2)
    return stages


def forecaster_window(config: UCastConfig) -> int:
    return sum(forecaster_stages(config).values())


def baseline_window(mode: str, channels: int, lookback: int,
                    horizon: int) -> int:
    """The ci temporal map on a constant input, then cd's channel mixing."""
    flops = gemm(channels, lookback, horizon, 1)
    if mode == "cd":
        flops += gemm(channels, channels, horizon, 2)
    return flops
