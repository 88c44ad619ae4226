"""Reverse-mode automatic differentiation on a recorded operation tape.

The primitive set is fixed and small; every adjoint is written out by hand
against its forward formula.  A tape is built for one loss evaluation (one
window or a whole minibatch stack), swept backward once, and discarded.
Node values are float64 numpy arrays; scalars are 0-d arrays.  The log-det
penalty gets a closed-form adjoint rather than differentiating through its
factorization.  A primitive builds what only its adjoint reads inside the
adjoint, so a gradient-free forward never builds it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MissingGradientError, NumericError, ShapeError
from .linalg import (as_stack, cholesky_logdet, require_finite, row_sums,
                     softmax_rows)


class Node:
    __slots__ = ("value", "requires_grad", "grad")

    def __init__(self, value: np.ndarray, requires_grad: bool):
        self.value = value
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None


def _accumulate(node: Node, delta: np.ndarray) -> None:
    """Adopt a node's first delta as it is and add later ones out of place,
    so a delta may alias another node's gradient: none is written in place."""
    if node.requires_grad:
        node.grad = delta if node.grad is None else node.grad + delta


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to an operand's shape."""
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _tiled(v: np.ndarray, other: np.ndarray) -> np.ndarray:
    """A 2-D operand that broadcasts over a stack's trailing (rows, cols),
    materialized at that shape, so the sum runs as one long inner loop
    rather than one short loop per row."""
    if v.ndim == 2 and other.ndim == 3 and v.shape != other.shape[1:]:
        return np.broadcast_to(v, other.shape[1:]).copy()
    return v


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; a stack times one matrix runs as a single flattened product."""
    if a.ndim == 3 and b.ndim == 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(*a.shape[:-1], b.shape[1])
    return a @ b


class Tape:
    """Ordered record of primitive applications for one backward sweep.

    Every primitive takes one (rows, cols) window or a (B, rows, cols) stack
    of them; a 2-D operand meeting a stack is shared by every window, and
    its gradient is the sum over the stack.
    """

    def __init__(self):
        self._records: list[tuple[Node, Callable[[np.ndarray], None]]] = []

    # -- leaves ------------------------------------------------------------

    def leaf(self, value, requires_grad: bool = False) -> Node:
        arr = np.asarray(value, dtype=np.float64)
        return Node(arr, requires_grad)

    def constant(self, value) -> Node:
        return self.leaf(value, requires_grad=False)

    def _emit(self, out: Node, backward: Callable[[np.ndarray], None]) -> Node:
        if out.requires_grad:
            self._records.append((out, backward))
        return out

    # -- primitives --------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        if min(av.ndim, bv.ndim) < 2 or av.shape[-1] != bv.shape[-2]:
            raise ShapeError(f"matmul: inner dims differ, {av.shape} x {bv.shape}")
        out = Node(_matmul(av, bv), a.requires_grad or b.requires_grad)

        def backward(g):
            # a shared 2-D operand reduces over the stack in one product
            if a.requires_grad:
                _accumulate(a, _matmul(g, _swap(bv)) if av.ndim == g.ndim
                            else np.tensordot(g, bv, axes=([0, 2], [0, 2])))
            if b.requires_grad:
                _accumulate(b, _swap(av) @ g if bv.ndim == g.ndim
                            else av.reshape(-1, av.shape[-1]).T
                            @ g.reshape(-1, g.shape[-1]))

        return self._emit(out, backward)

    def transpose(self, a: Node) -> Node:
        out = Node(_swap(a.value), a.requires_grad)

        def backward(g):
            _accumulate(a, _swap(g))

        return self._emit(out, backward)

    def add(self, a: Node, b: Node) -> Node:
        """Elementwise sum; a row or column bias broadcasts over a matrix or
        a stack, and its gradient sums back to the bias shape."""
        try:
            out_val = np.add(_tiled(a.value, b.value), _tiled(b.value, a.value))
        except ValueError:
            raise ShapeError(f"add: shapes differ, {a.value.shape} vs "
                             f"{b.value.shape}") from None
        out = Node(out_val, a.requires_grad or b.requires_grad)

        def backward(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(g, a.value.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(g, b.value.shape))

        return self._emit(out, backward)

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        out = Node(a.value * c, a.requires_grad)

        def backward(g):
            _accumulate(a, g * c)

        return self._emit(out, backward)

    def mse(self, pred: Node, target: Node) -> Node:
        """Mean of (pred - target)^2 over every entry.

        The adjoint scales the kept residual in place by 2 g / n, bit-equal
        to sweeping mean, square and a difference: doubling is exact, so
        (2 r) (g / n) and r (2 (g / n)) round alike."""
        if pred.value.shape != target.value.shape:
            raise ShapeError(f"mse: shapes differ, {pred.value.shape} vs "
                             f"{target.value.shape}")
        resid = pred.value - target.value
        out = Node(np.asarray((resid * resid).mean(), dtype=np.float64),
                   pred.requires_grad or target.requires_grad)

        def backward(g):
            np.multiply(resid, 2.0 * (float(g) / resid.size), out=resid)
            if target.requires_grad:
                _accumulate(target, -resid)
            if pred.requires_grad:
                _accumulate(pred, resid)

        return self._emit(out, backward)

    def softmax_rows(self, m: Node) -> Node:
        s = softmax_rows(m.value)
        out = Node(s, m.requires_grad)

        def backward(g):
            delta = g * s
            dot = row_sums(delta)
            np.subtract(g, dot, out=delta)
            delta *= s
            _accumulate(m, delta)

        return self._emit(out, backward)

    def layer_norm(self, m: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
        """Standardize each row to zero mean and unit variance, then scale
        and shift per column; eps sits inside the square root."""
        x = as_stack(m.value, "layer_norm input")
        cols = x.shape[-1]
        g_row = gain.value.reshape(-1)
        b_row = bias.value.reshape(-1)
        if g_row.shape[0] != cols or b_row.shape[0] != cols:
            raise ShapeError(
                f"layer_norm: gain/bias length {g_row.shape[0]}/{b_row.shape[0]} "
                f"vs {cols} columns")
        centered = x - row_sums(x) / cols
        # the row variance from the centered rows, as x.var forms it
        sq = centered * centered
        std = np.sqrt(row_sums(sq) / cols + eps)
        out_val = np.divide(centered, std, out=sq)
        out_val *= g_row
        out_val += b_row
        out = Node(out_val,
                   m.requires_grad or gain.requires_grad or bias.requires_grad)

        def backward(g):
            inv = 1.0 / std
            xhat = centered * inv
            gx_hat = g * g_row
            m1 = row_sums(gx_hat) / cols
            m2 = row_sums(gx_hat * xhat) / cols
            _accumulate(m, inv * (gx_hat - m1 - xhat * m2))
            _accumulate(gain, (g * xhat).reshape(-1, cols).sum(axis=0)
                        .reshape(gain.value.shape))
            _accumulate(bias, g.reshape(-1, cols).sum(axis=0)
                        .reshape(bias.value.shape))

        return self._emit(out, backward)

    def slice(self, m: Node, j0: int, j1: int, axis: int = -1) -> Node:
        """Columns (axis=-1) or rows (axis=-2) j0:j1 of a window or a
        stack, as a view."""
        if axis not in (-1, -2) or not 0 <= j0 < j1 <= m.value.shape[axis]:
            raise ShapeError(f"slice: [{j0}:{j1}] on axis {axis} out of "
                             f"range for {m.value.shape}")
        cut = (..., slice(j0, j1)) + (slice(None),) * (-1 - axis)
        out = Node(m.value[cut], m.requires_grad)

        def backward(g):
            full = np.zeros_like(m.value)
            full[cut] = g
            _accumulate(m, full)

        return self._emit(out, backward)

    def row_affine_const(self, m: Node, mul: np.ndarray, shift: np.ndarray) -> Node:
        """out[..., i, :] = m[..., i, :] * mul[..., i] + shift[..., i];
        mul/shift carry no gradient."""
        mul = np.asarray(mul, dtype=np.float64)[..., None]
        shift = np.asarray(shift, dtype=np.float64)[..., None]
        if mul.shape[:-1] != m.value.shape[:-1] or shift.shape != mul.shape:
            raise ShapeError("row_affine_const: per-row constants mismatch rows")
        out = Node(m.value * mul + shift, m.requires_grad)

        def backward(g):
            _accumulate(m, g * mul)

        return self._emit(out, backward)

    def cov_penalty(self, h: Node, eps: float) -> Node:
        """-(1/C') log det((1/d) H H^T + eps I) with its closed-form adjoint;
        a stack gives the mean penalty over its windows."""
        hv = as_stack(h.value, "cov_penalty input")
        c_rows, d = hv.shape[-2:]
        windows = hv.size // (c_rows * d)
        guarded = _matmul(hv, _swap(hv)) / d + eps * np.eye(c_rows)
        val = -np.mean(cholesky_logdet(guarded)) / c_rows
        out = Node(np.asarray(val, dtype=np.float64), h.requires_grad)

        def backward(g):
            # d/dH of -(1/C') log det((1/d) H H^T + eps I), per window
            _accumulate(h, float(g) * (-2.0 / (c_rows * d * windows))
                        * np.linalg.solve(guarded, hv))

        return self._emit(out, backward)

    # -- sweep -------------------------------------------------------------

    def backward(self, loss: Node) -> None:
        """Sweep the tape once, newest record first.

        Each record, and its output's gradient, is dropped once swept, so
        activations are released as the sweep passes them.
        """
        if loss.value.ndim != 0:
            raise ShapeError(
                f"backward: loss must be scalar, got shape {loss.value.shape}")
        if not np.isfinite(loss.value):
            raise NumericError("backward: loss is non-finite")
        loss.grad = np.asarray(1.0, dtype=np.float64)
        records = self._records
        while records:
            out, backward_fn = records.pop()
            if out.grad is not None:
                backward_fn(out.grad)
                out.grad = None


def gradients(nodes: dict[str, Node]) -> dict[str, np.ndarray]:
    """Collect leaf gradients after a backward sweep; missing ones are errors.

    Values are not checked for finiteness here: the optimizer certifies
    them from the norm it sums anyway.  A returned gradient may share memory
    with another one, so callers must not write into it; rebind the name to
    a new array instead.
    """
    out = {}
    for name, node in nodes.items():
        if node.grad is None:
            raise MissingGradientError(f"no gradient recorded for '{name}'")
        out[name] = node.grad
    return out


# -- finite-difference verification ---------------------------------------

BuildLoss = Callable[[Tape, dict[str, Node]], Node]


@dataclass
class GradCheckReport:
    worst: dict[str, float]
    failed: list[str]
    tol: float

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def worst_overall(self) -> float:
        return max(self.worst.values()) if self.worst else 0.0


def analytic_gradients(build_loss: BuildLoss, params: dict[str, np.ndarray]
                       ) -> tuple[float, dict[str, np.ndarray]]:
    tape = Tape()
    nodes = {k: tape.leaf(v, requires_grad=True) for k, v in params.items()}
    loss = build_loss(tape, nodes)
    tape.backward(loss)
    grads = gradients(nodes)
    # grad_check fails a block only when its error >= tol, which a NaN
    # never is, so a non-finite gradient is refused here
    for name, g in grads.items():
        require_finite(g, f"gradient of '{name}'")
    return float(loss.value), grads


def fd_gradients(build_loss: BuildLoss, params: dict[str, np.ndarray],
                 step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences, one entry at a time."""

    def eval_loss(active: dict[str, np.ndarray]) -> float:
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in active.items()}
        return float(build_loss(tape, nodes).value)

    grads = {}
    work = {k: v.copy() for k, v in params.items()}
    for name, block in work.items():
        g = np.zeros_like(block)
        flat = block.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = eval_loss(work)
            flat[i] = orig - step
            down = eval_loss(work)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def grad_check(build_loss: BuildLoss, params: dict[str, np.ndarray],
               step: float = 1e-5, tol: float = 1e-6) -> GradCheckReport:
    """Verify the tape's gradients for a loss against central differences:
    a block fails when its worst |a - n| / max(1, |a|, |n|) reaches tol."""
    _, analytic = analytic_gradients(build_loss, params)
    numeric = fd_gradients(build_loss, params, step)
    worst = {}
    for name, a in analytic.items():
        n = numeric[name]
        err = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst[name] = float(err.max(initial=0.0))
    return GradCheckReport(worst=worst, tol=tol,
                           failed=[k for k, e in worst.items() if e >= tol])
