"""Reverse-mode automatic differentiation on a recorded operation tape.

The primitive set is fixed and small; every adjoint is written out by hand
against the forward formula in :mod:`ucast.linalg`.  A tape is built for one
loss evaluation (one window or a whole minibatch stack), swept backward
once, and discarded.  Node values are float64
numpy arrays; scalars are 0-d arrays.  The log-det penalty gets a closed-form
adjoint rather than differentiating through its factorization.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MissingGradientError, NumericError, ShapeError
from .linalg import as_stack, cholesky_logdet, layer_norm, require_finite, softmax_rows


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


def _broadcasting(op, a: Node, b: Node) -> np.ndarray:
    try:
        return op(a.value, b.value)
    except ValueError:
        raise ShapeError(f"{op.__name__}: shapes differ, {a.value.shape} vs "
                         f"{b.value.shape}") from None


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
                            else np.tensordot(av, g, axes=([0, 1], [0, 1])))

        return self._emit(out, backward)

    def transpose(self, a: Node) -> Node:
        out = Node(_swap(a.value), a.requires_grad)

        def backward(g):
            _accumulate(a, _swap(g))

        return self._emit(out, backward)

    def add(self, a: Node, b: Node) -> Node:
        """Elementwise sum; a row or column bias broadcasts over a matrix or
        a stack, and its gradient sums back to the bias shape."""
        out = Node(_broadcasting(np.add, a, b), a.requires_grad or b.requires_grad)

        def backward(g):
            _accumulate(a, _unbroadcast(g, a.value.shape))
            _accumulate(b, _unbroadcast(g, b.value.shape))

        return self._emit(out, backward)

    def sub(self, a: Node, b: Node) -> Node:
        out = Node(_broadcasting(np.subtract, a, b),
                   a.requires_grad or b.requires_grad)

        def backward(g):
            _accumulate(a, _unbroadcast(g, a.value.shape))
            _accumulate(b, _unbroadcast(-g, b.value.shape))

        return self._emit(out, backward)

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        out = Node(a.value * c, a.requires_grad)

        def backward(g):
            _accumulate(a, g * c)

        return self._emit(out, backward)

    def square(self, a: Node) -> Node:
        out = Node(a.value * a.value, a.requires_grad)

        def backward(g):
            _accumulate(a, 2.0 * a.value * g)

        return self._emit(out, backward)

    def mean(self, a: Node) -> Node:
        out = Node(np.asarray(a.value.mean(), dtype=np.float64), a.requires_grad)
        n = a.value.size

        def backward(g):
            _accumulate(a, np.full_like(a.value, float(g) / n))

        return self._emit(out, backward)

    def softmax_rows(self, m: Node) -> Node:
        s = softmax_rows(m.value)
        out = Node(s, m.requires_grad)

        def backward(g):
            dot = (g * s).sum(axis=-1, keepdims=True)
            _accumulate(m, s * (g - dot))

        return self._emit(out, backward)

    def layer_norm(self, m: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
        x = as_stack(m.value, "layer_norm input")
        out_val = layer_norm(x, gain.value, bias.value, eps)
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
        xhat = (x - mu) * inv
        g_row = gain.value.reshape(-1)
        out = Node(out_val,
                   m.requires_grad or gain.requires_grad or bias.requires_grad)

        def backward(g):
            gx_hat = g * g_row
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(m, inv * (gx_hat - m1 - xhat * m2))
            cols = g.shape[-1]
            _accumulate(gain, (g * xhat).reshape(-1, cols).sum(axis=0)
                        .reshape(gain.value.shape))
            _accumulate(bias, g.reshape(-1, cols).sum(axis=0)
                        .reshape(bias.value.shape))

        return self._emit(out, backward)

    def slice_cols(self, m: Node, j0: int, j1: int) -> Node:
        if not (0 <= j0 < j1 <= m.value.shape[-1]):
            raise ShapeError(
                f"slice_cols: [{j0}:{j1}] out of range for {m.value.shape}")
        out = Node(m.value[..., j0:j1], m.requires_grad)

        def backward(g):
            full = np.zeros_like(m.value)
            full[..., j0:j1] = g
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

    A returned gradient may share memory with another one, so callers must
    not write into it; rebind the name to a new array instead.
    """
    out = {}
    for name, node in nodes.items():
        if node.grad is None:
            raise MissingGradientError(f"no gradient recorded for '{name}'")
        require_finite(node.grad, f"gradient of '{name}'")
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


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def analytic_gradients(build_loss: BuildLoss, params: dict[str, np.ndarray]
                       ) -> tuple[float, dict[str, np.ndarray]]:
    tape = Tape()
    nodes = {k: tape.leaf(v, requires_grad=True) for k, v in params.items()}
    loss = build_loss(tape, nodes)
    tape.backward(loss)
    return float(loss.value), gradients(nodes)


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


def compare_gradients(analytic: dict[str, np.ndarray],
                      numeric: dict[str, np.ndarray],
                      tol: float) -> GradCheckReport:
    worst = {}
    failed = []
    for name in analytic:
        a = analytic[name].reshape(-1)
        b = numeric[name].reshape(-1)
        err = max((_rel_err(float(x), float(y)) for x, y in zip(a, b)), default=0.0)
        worst[name] = err
        if err >= tol:
            failed.append(name)
    return GradCheckReport(worst=worst, failed=failed, tol=tol)


def grad_check(build_loss: BuildLoss, params: dict[str, np.ndarray],
               step: float = 1e-5, tol: float = 1e-6) -> GradCheckReport:
    """Verify the tape's gradients for a loss against central differences."""
    _, analytic = analytic_gradients(build_loss, params)
    numeric = fd_gradients(build_loss, params, step)
    return compare_gradients(analytic, numeric, tol)
