"""Every tape primitive's adjoint against central finite differences."""
import numpy as np
import pytest

from ucast.autodiff import (Tape, analytic_gradients, fd_gradients,
                            grad_check, gradients)
from ucast.errors import MissingGradientError, NumericError, ShapeError
from ucast.rng import Stream


def params_for(*shapes, seed=0):
    stream = Stream(seed, (11,))
    return {f"p{i}": stream.normal(shape) for i, shape in enumerate(shapes)}


def mean_square(t, node):
    """mean(node^2): the one mse record against zeros."""
    return t.mse(node, t.constant(np.zeros_like(node.value)))


def check(build, params, tol=1e-6):
    report = grad_check(build, params, tol=tol)
    assert report.ok, f"worst errors {report.worst}"
    return report


class TestPrimitiveAdjoints:
    def test_matmul(self):
        p = params_for((3, 4), (4, 2))
        check(lambda t, n: mean_square(t, t.matmul(n["p0"], n["p1"])), p)

    def test_transpose(self):
        p = params_for((3, 5))
        check(lambda t, n: mean_square(t, t.transpose(n["p0"])), p)

    def test_add_sub(self):
        p = params_for((4, 3), (4, 3))
        check(lambda t, n: mean_square(t, t.add(n["p0"], n["p1"])), p)
        # the difference, both operands differentiated, inside mse
        check(lambda t, n: t.mse(n["p0"], n["p1"]), p)

    def test_add_broadcast_row(self):
        p = params_for((4, 3), (1, 3))
        check(lambda t, n: mean_square(t, t.add(n["p0"], n["p1"])), p)

    def test_add_broadcast_col(self):
        p = params_for((4, 3), (4, 1))
        check(lambda t, n: mean_square(t, t.add(n["p0"], n["p1"])), p)

    def test_scale(self):
        p = params_for((5, 2))
        check(lambda t, n: mean_square(t, t.scale(n["p0"], -2.5)), p)

    def test_softmax_rows(self):
        p = params_for((3, 6))
        check(lambda t, n: mean_square(t, t.softmax_rows(n["p0"])), p)

    def test_layer_norm(self):
        p = params_for((4, 8), (8,), (8,), seed=3)
        check(lambda t, n: mean_square(
            t, t.layer_norm(n["p0"], n["p1"], n["p2"])), p)

    def test_slice_cols(self):
        p = params_for((3, 8))

        def build(t, n):
            left = t.slice(n["p0"], 0, 3)
            right = t.slice(n["p0"], 5, 8)
            return mean_square(t, t.add(right, t.scale(left, 2.0)))

        check(build, p)

    def test_slice_rows(self):
        p = params_for((8, 3))

        def build(t, n):
            top = t.slice(n["p0"], 0, 3, axis=-2)
            bottom = t.slice(n["p0"], 5, 8, axis=-2)
            return mean_square(t, t.add(bottom, t.scale(top, 2.0)))

        check(build, p)
        tape = Tape()
        m = tape.constant(p["p0"])
        for j0, j1, axis in ((5, 9, -2), (2, 2, -2), (0, 3, 0)):
            with pytest.raises(ShapeError):
                tape.slice(m, j0, j1, axis=axis)

    def test_row_affine_const(self):
        p = params_for((4, 5))
        mul = Stream(9, (1,)).uniform(0.5, 2.0, 4)
        shift = Stream(9, (2,)).normal(4)
        check(lambda t, n: mean_square(
            t, t.row_affine_const(n["p0"], mul, shift)), p)

    def test_cov_penalty(self):
        p = params_for((4, 10), seed=5)
        check(lambda t, n: t.cov_penalty(n["p0"], 1e-3), p)


class TestStackedAdjoints:
    """The same primitives on a (B, rows, cols) stack; 2-D operands are
    shared by every window of the stack."""

    def test_matmul_shared_right(self):
        p = params_for((3, 4, 5), (5, 2))
        check(lambda t, n: mean_square(t, t.matmul(n["p0"], n["p1"])), p)

    def test_matmul_shared_left(self):
        p = params_for((4, 5), (3, 5, 2))
        check(lambda t, n: mean_square(t, t.matmul(n["p0"], n["p1"])), p)

    def test_matmul_stack_by_stack_transposed(self):
        p = params_for((3, 4, 5), (3, 6, 5))
        check(lambda t, n: mean_square(
            t, t.matmul(n["p0"], t.transpose(n["p1"]))), p)

    def test_add_sub_broadcast(self):
        p = params_for((3, 4, 2), (1, 2), (4, 1))
        check(lambda t, n: mean_square(
            t, t.add(t.add(n["p0"], n["p1"]), t.scale(n["p2"], -1.0))), p)

    def test_softmax_layer_norm(self):
        p = params_for((2, 4, 8), (8,), (8,), seed=3)
        check(lambda t, n: mean_square(t, t.softmax_rows(
            t.layer_norm(n["p0"], n["p1"], n["p2"]))), p)

    def test_slice_cols(self):
        p = params_for((2, 3, 8))

        def build(t, n):
            left = t.slice(n["p0"], 0, 3)
            right = t.slice(n["p0"], 5, 8)
            return mean_square(t, t.add(right, t.scale(left, 2.0)))

        check(build, p)

    def test_slice_rows(self):
        p = params_for((2, 8, 3))

        def build(t, n):
            top = t.slice(n["p0"], 0, 3, axis=-2)
            bottom = t.slice(n["p0"], 5, 8, axis=-2)
            return mean_square(t, t.add(bottom, t.scale(top, 2.0)))

        check(build, p)

    def test_row_affine_const(self):
        p = params_for((2, 4, 5))
        mul = Stream(9, (1,)).uniform(0.5, 2.0, (2, 4))
        shift = Stream(9, (2,)).normal((2, 4))
        check(lambda t, n: mean_square(
            t, t.row_affine_const(n["p0"], mul, shift)), p)

    def test_cov_penalty_is_the_window_mean(self):
        p = params_for((3, 4, 10), seed=5)
        check(lambda t, n: t.cov_penalty(n["p0"], 1e-3), p)
        tape = Tape()
        stacked = tape.cov_penalty(tape.constant(p["p0"]), 1e-3)
        singles = [float(tape.cov_penalty(tape.constant(h), 1e-3).value)
                   for h in p["p0"]]
        assert float(stacked.value) == pytest.approx(np.mean(singles),
                                                     rel=1e-12)

    def test_mismatched_shapes_rejected(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.add(tape.constant(np.ones((2, 3, 4))),
                     tape.constant(np.ones((3, 3))))
        with pytest.raises(ShapeError):
            tape.matmul(tape.constant(np.ones((2, 3, 4))),
                        tape.constant(np.ones((3, 2))))


def test_backward_releases_swept_records():
    x = Stream(4, (35,)).normal((2, 3, 3))
    tape = Tape()
    node = tape.leaf(x, requires_grad=True)
    hidden = tape.scale(node, 2.0)
    tape.backward(mean_square(tape, hidden))
    assert not tape._records
    assert hidden.grad is None
    assert np.allclose(node.grad, 8.0 * x / x.size)


def test_cov_penalty_adjoint_closed_form():
    """The recorded adjoint equals -(2/(C'd)) (Sigma + eps I)^{-1} H."""
    h = Stream(8, (21,)).normal((5, 12))
    eps = 1e-3
    tape = Tape()
    node = tape.leaf(h, requires_grad=True)
    loss = tape.cov_penalty(node, eps)
    tape.backward(loss)
    c_rows, d = h.shape
    guarded = h @ h.T / d + eps * np.eye(c_rows)
    expected = (-2.0 / (c_rows * d)) * np.linalg.solve(guarded, h)
    assert np.allclose(node.grad, expected, rtol=1e-12, atol=1e-14)


def test_gradient_accumulates_across_reuse():
    x = Stream(4, (33,)).normal((3, 3))
    tape = Tape()
    node = tape.leaf(x, requires_grad=True)
    # x used twice: loss = mean((x + x)^2), grad = 8x/n
    tape.backward(mean_square(tape, tape.add(node, node)))
    assert np.allclose(node.grad, 8.0 * x / x.size)


def test_composite_chain():
    p = params_for((4, 6), (6, 6), (1, 6), seed=7)

    def build(t, n):
        h = t.softmax_rows(t.matmul(n["p0"], n["p1"]))
        h = t.add(h, n["p2"])
        return mean_square(t, h)

    check(build, p)


def test_backward_requires_scalar():
    tape = Tape()
    node = tape.leaf(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        tape.backward(tape.scale(node, 2.0))


def test_backward_rejects_nonfinite_loss():
    tape = Tape()
    node = tape.leaf(np.array([[1e200, 1e200]]), requires_grad=True)
    with np.errstate(over="ignore"):
        loss = mean_square(tape, node)
    with pytest.raises(NumericError):
        tape.backward(loss)


def test_unreached_parameter_reported():
    tape = Tape()
    used = tape.leaf(np.ones((2, 2)), requires_grad=True)
    unused = tape.leaf(np.ones((2, 2)), requires_grad=True)
    tape.backward(mean_square(tape, used))
    with pytest.raises(MissingGradientError):
        gradients({"used": used, "unused": unused})


def test_constants_collect_no_gradient():
    x = np.ones((2, 3))
    tape = Tape()
    const = tape.constant(x)
    leaf = tape.leaf(x, requires_grad=True)
    tape.backward(mean_square(tape, tape.add(const, leaf)))
    assert const.grad is None
    assert leaf.grad is not None


def test_fd_and_analytic_agree_on_awkward_scales():
    """Gradients stay correct when blocks differ in magnitude by 1e3."""
    stream = Stream(12, (41,))
    params = {"big": 30.0 * stream.normal((2, 3)),
              "small": 0.03 * stream.normal((3, 2))}

    def build(t, n):
        return mean_square(t, t.matmul(n["big"], n["small"]))

    loss, analytic = analytic_gradients(build, params)
    numeric = fd_gradients(build, params, step=1e-5)
    assert np.isfinite(loss)
    for name in params:
        denom = np.maximum(1.0, np.abs(numeric[name]))
        assert np.all(np.abs(analytic[name] - numeric[name]) / denom < 1e-5)
