"""Each single-pass kernel against its textbook form, byte for byte.

The forward kernels center a row once and reuse the centered rows, work in
place on their own temporaries, and reduce a shared weight's gradient with
one flattened product; the loss keeps its residual and scales it in place,
and a bias add materializes its bias at the stack's trailing shape.  Each
must give exactly the bits of the formula it replaces on the same host, at
desk-width shapes (B=32, C=64, d=32, r=4, lookback 96) and at the synth
cell's (B=32, C=250, lookback 4, horizon 4).

Short-row statistics (softmax, layer norm, instance norm) sum each row as
one matrix-vector product against a ones vector and take a row's maximum by
halving; their textbook forms are written the same way, as `x @ ones` and
`x.max(-1)`.  BLAS adds in another order than numpy's pairwise sum, so each
is also checked against np.sum/np.mean/np.std at a tolerance measured on
these draws and stated where it is used.
"""
import numpy as np
import pytest

from ucast.autodiff import Tape
from ucast.linalg import row_max, row_sums, softmax_rows
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
# row widths for the row-statistic helpers: odd ones exercise the fold
ROW_WIDTHS = [1, 3, 5, 7, 16, 33, 64]

EPS = np.finfo(np.float64).eps
# |BLAS row sum - np.sum| in units of eps * sum|x| of the row: measured at
# most 1.9 over 50 seeds of every shape in this file
SUM_ULPS = 8.0
# max |kernel - numpy-reduction form| / max |numpy-reduction form| for the
# forward outputs: measured at most 3.2e-15 (instance norm 2.3e-15, softmax
# 9.8e-16 per entry) over 20 seeds
FORWARD_REL = 2e-14
# the same for the adjoints: measured at most 3.8e-14 (layer norm) and
# 6.7e-15 (softmax) over 20 seeds
ADJOINT_REL = 2e-13


def draw(shape, seed=0, scale=3.0):
    return Stream(seed, (93, *shape)).normal(shape) * scale + 1.5


def ones_sums(x):
    """The textbook row sum, x @ ones over every row of x at once, kept as a
    trailing axis.  One product, not one per matrix of a stack: BLAS may add
    the last rows of a call in another order than the rest."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones(n)).reshape(*x.shape[:-1], 1)


def assert_close_sums(got, x):
    bound = SUM_ULPS * EPS * np.abs(x).sum(axis=-1, keepdims=True)
    assert np.all(np.abs(got - x.sum(axis=-1, keepdims=True)) <= bound)


def assert_rel(got, want, tol):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("width", ROW_WIDTHS)
@pytest.mark.parametrize("lead", [(5,), (4, 6)])
def test_row_sums_is_one_product_per_row(lead, width):
    x = draw((*lead, width), seed=12)
    got = row_sums(x)
    assert got.shape == (*lead, 1)
    assert np.array_equal(got, ones_sums(x))
    assert_close_sums(got, x)


@pytest.mark.parametrize("width", ROW_WIDTHS)
@pytest.mark.parametrize("lead", [(5,), (4, 6)])
def test_row_max_is_exact(lead, width):
    x = draw((*lead, width), seed=13)
    got = row_max(x)
    assert got.shape == (*lead, 1)
    assert np.array_equal(got, x.max(axis=-1, keepdims=True))
    assert not np.shares_memory(got, x)
    # the largest entry at every column, the odd width's folded one included
    for j in range(width):
        y = x.copy()
        y[..., j] = 100.0
        assert np.all(row_max(y) == 100.0)
    assert np.array_equal(x, draw((*lead, width), seed=13))


@pytest.mark.parametrize("shape", [DESK_WINDOWS, SYNTH_WINDOWS])
def test_instance_normalize_matches_textbook(shape):
    x = draw(shape)
    n = shape[-1]
    normed, got_mean, got_scale = instance_normalize(x)
    mean = ones_sums(x) / n
    centered = x - mean
    scale = np.sqrt(ones_sums(centered * centered) / n) + INSTANCE_NORM_GUARD
    assert np.array_equal(normed, (x - mean) / scale)
    assert np.array_equal(got_mean, mean[..., 0])
    assert np.array_equal(got_scale, scale[..., 0])

    assert_rel(got_mean, np.mean(x, axis=-1), FORWARD_REL)
    np_scale = np.std(x, axis=-1, keepdims=True) + INSTANCE_NORM_GUARD
    assert_rel(got_scale, np_scale[..., 0], FORWARD_REL)
    assert_rel(normed, (x - np.mean(x, axis=-1, keepdims=True)) / np_scale,
               FORWARD_REL)


def layer_norm_adjoint(x, g, gain, mean, var, eps):
    """The input adjoint, with inv and xhat formed as a forward once held
    them and `mean` the row-mean reduction used throughout."""
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean(x)) * inv
    gx_hat = g * gain
    return inv * (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat))


@pytest.mark.parametrize("shape", ROW_STACKS)
def test_layer_norm_matches_textbook(shape):
    x = draw(shape, seed=1)
    gain = draw(shape[-1:], seed=2)
    bias = draw(shape[-1:], seed=3)
    tape = Tape()
    m = tape.leaf(x, requires_grad=True)
    out = tape.layer_norm(m, tape.constant(gain), tape.constant(bias))
    eps = 1e-5
    n = shape[-1]

    def ones_mean(v):
        return ones_sums(v) / n

    mu = ones_mean(x)
    var = ones_mean((x - mu) * (x - mu))
    assert np.array_equal(out.value, (x - mu) / np.sqrt(var + eps) * gain + bias)
    np_mu = np.mean(x, axis=-1, keepdims=True)
    np_var = np.var(x, axis=-1, keepdims=True)
    assert_rel(out.value, (x - np_mu) / np.sqrt(np_var + eps) * gain + bias,
               FORWARD_REL)

    tape.backward(tape.mse(out, tape.constant(np.zeros_like(out.value))))
    g = 2.0 * out.value * np.full_like(out.value, 1.0 / out.value.size)
    assert np.array_equal(
        m.grad, layer_norm_adjoint(x, g, gain, ones_mean, var, eps))

    def np_mean(v):
        return np.mean(v, axis=-1, keepdims=True)

    assert_rel(m.grad, layer_norm_adjoint(x, g, gain, np_mean, np_var, eps),
               ADJOINT_REL)


@pytest.mark.parametrize("shape", SCORE_STACKS)
def test_softmax_rows_matches_textbook(shape):
    m = draw(shape, seed=4)
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    s = e / ones_sums(e)
    assert np.array_equal(softmax_rows(m), s)
    np_s = e / np.sum(e, axis=-1, keepdims=True)
    assert np.all(np.abs(s - np_s) <= FORWARD_REL * np_s)

    tape = Tape()
    node = tape.leaf(m, requires_grad=True)
    out = tape.softmax_rows(node)
    tape.backward(tape.mse(out, tape.constant(np.zeros_like(out.value))))
    g = 2.0 * s * np.full_like(s, 1.0 / s.size)
    assert np.array_equal(node.grad, s * (g - ones_sums(g * s)))
    assert_rel(node.grad, s * (g - np.sum(g * s, axis=-1, keepdims=True)),
               ADJOINT_REL)


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
