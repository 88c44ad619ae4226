"""Each single-pass kernel against its textbook form, byte for byte.

The forward kernels center a row once and reuse the centered rows, work in
place on their own temporaries, and reduce a shared weight's gradient with
one flattened product; the loss keeps its residual and scales it in place,
and a bias add materializes its bias at the stack's trailing shape.  Each
must give exactly the bits of the formula it replaces on the same host, at
desk-width shapes (B=32, C=64, d=32, r=4, lookback 96) and at the synth
cell's (B=32, C=250, lookback 4, horizon 4).
"""
import numpy as np
import pytest

from ucast.autodiff import Tape
from ucast.linalg import softmax_rows
from ucast.model import INSTANCE_NORM_GUARD, instance_normalize
from ucast.rng import Stream

DESK_WINDOWS = (32, 64, 96)
SYNTH_WINDOWS = (32, 250, 4)
# enc1 and enc2 outputs at desk width, and a synth-shaped stack
ROW_STACKS = [(32, 16, 32), (32, 4, 32), SYNTH_WINDOWS]
# scores of enc1 (latent rows over channels) and dec1 (channels over latents)
SCORE_STACKS = [(32, 16, 64), (32, 64, 16), SYNTH_WINDOWS]
# (stack, shared weight): w_in and a d x d weight at desk width, w_time in synth
SHARED_PRODUCTS = [(DESK_WINDOWS, (96, 32)), ((32, 16, 32), (32, 32)),
                   (SYNTH_WINDOWS, (4, 4))]


def draw(shape, seed=0, scale=3.0):
    return Stream(seed, (93, *shape)).normal(shape) * scale + 1.5


@pytest.mark.parametrize("shape", [DESK_WINDOWS, SYNTH_WINDOWS])
def test_instance_normalize_matches_textbook(shape):
    x = draw(shape)
    normed, got_mean, got_scale = instance_normalize(x)
    mean = x.mean(axis=-1, keepdims=True)
    scale = x.std(axis=-1, keepdims=True) + INSTANCE_NORM_GUARD
    assert np.array_equal(normed, (x - mean) / scale)
    assert np.array_equal(got_mean, mean[..., 0])
    assert np.array_equal(got_scale, scale[..., 0])


@pytest.mark.parametrize("shape", ROW_STACKS)
def test_layer_norm_matches_textbook(shape):
    x = draw(shape, seed=1)
    gain = draw(shape[-1:], seed=2)
    bias = draw(shape[-1:], seed=3)
    tape = Tape()
    m = tape.leaf(x, requires_grad=True)
    out = tape.layer_norm(m, tape.constant(gain), tape.constant(bias))
    eps = 1e-5
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    assert np.array_equal(out.value, (x - mu) / np.sqrt(var + eps) * gain + bias)

    # the input adjoint, with inv and xhat formed as a forward once held them
    tape.backward(tape.mse(out, tape.constant(np.zeros_like(out.value))))
    g = 2.0 * out.value * np.full_like(out.value, 1.0 / out.value.size)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gx_hat = g * gain
    m1 = gx_hat.mean(axis=-1, keepdims=True)
    m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
    assert np.array_equal(m.grad, inv * (gx_hat - m1 - xhat * m2))


@pytest.mark.parametrize("shape", SCORE_STACKS)
def test_softmax_rows_matches_textbook(shape):
    m = draw(shape, seed=4)
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(softmax_rows(m), s)

    tape = Tape()
    node = tape.leaf(m, requires_grad=True)
    out = tape.softmax_rows(node)
    tape.backward(tape.mse(out, tape.constant(np.zeros_like(out.value))))
    g = 2.0 * s * np.full_like(s, 1.0 / s.size)
    assert np.array_equal(node.grad, s * (g - (g * s).sum(axis=-1, keepdims=True)))


@pytest.mark.parametrize("stack,weight", SHARED_PRODUCTS)
def test_shared_weight_gradient_matches_tensordot(stack, weight):
    x = draw(stack, seed=5)
    tape = Tape()
    w = tape.leaf(draw(weight, seed=6, scale=0.1), requires_grad=True)
    out = tape.matmul(tape.constant(x), w)
    tape.backward(tape.mse(out, tape.constant(np.zeros_like(out.value))))
    g = 2.0 * out.value * np.full_like(out.value, 1.0 / out.value.size)
    assert np.array_equal(w.grad, np.tensordot(x, g, axes=([0, 1], [0, 1])))


# the loss stack at desk width (B, C, horizon) and in the synth cell
LOSS_STACKS = [(32, 64, 8), SYNTH_WINDOWS]


@pytest.mark.parametrize("shape", LOSS_STACKS)
@pytest.mark.parametrize("outer", [1.0, 0.37])
def test_mse_matches_sub_square_mean_chain(shape, outer):
    pred_v, target_v = draw(shape, seed=7), draw(shape, seed=8)
    tape = Tape()
    pred = tape.leaf(pred_v, requires_grad=True)
    target = tape.leaf(target_v, requires_grad=True)
    loss = tape.mse(pred, target)
    # the chain's value, and its adjoints as mean, square and the
    # difference formed them, for an incoming gradient `outer`
    err = pred_v - target_v
    assert np.array_equal(loss.value, (err * err).mean())
    tape.backward(tape.scale(loss, outer))
    g = 2.0 * err * np.full_like(err, outer / err.size)
    assert np.array_equal(pred.grad, g)
    assert np.array_equal(target.grad, -g)


# (stack, bias): row and column biases of the synth cell's ci and cd
# outputs, and a row bias at desk width
BIAS_ADDS = [(SYNTH_WINDOWS, (1, 4)), (SYNTH_WINDOWS, (250, 1)),
             ((32, 64, 8), (1, 8)), ((32, 64, 8), (64, 1))]


@pytest.mark.parametrize("stack,bias", BIAS_ADDS)
@pytest.mark.parametrize("bias_first", [False, True])
def test_tiled_bias_add_matches_broadcasting(stack, bias, bias_first):
    x, b = draw(stack, seed=9), draw(bias, seed=10)
    tape = Tape()
    xn = tape.leaf(x, requires_grad=True)
    bn = tape.leaf(b, requires_grad=True)
    out = tape.add(bn, xn) if bias_first else tape.add(xn, bn)
    assert np.array_equal(out.value, x + b)
    target = draw(stack, seed=11)
    tape.backward(tape.mse(out, tape.constant(target)))
    err = (x + b) - target
    g = 2.0 * err * np.full_like(err, 1.0 / err.size)
    assert np.array_equal(xn.grad, g)
    axis = 0 if bias[0] == 1 else 1
    assert np.array_equal(bn.grad, g.sum(axis=0).sum(axis=axis, keepdims=True))
