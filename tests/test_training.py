"""Optimizer, early stopping, and the training loop's failure contracts."""
import numpy as np
import pytest

from conftest import tiny_config
from ucast.autodiff import Tape, gradients
from ucast.baselines import BASELINE_MODES, LinearBaseline
from ucast.data import WindowBatch
from ucast.errors import DefinitenessError, NumericError, ParameterError
from ucast.model import VARIANTS, Forecaster, build_variant
from ucast.rng import Stream
from ucast.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, EarlyStopper,
                            OptimizerState, TrainConfig, adam_step,
                            batch_gradients, clip_gradients, evaluate, train)


def toy_batch(count=24, c=2, t=4, s=2, seed=0):
    stream = Stream(seed, (81,))
    inputs = stream.normal((count, c, t))
    targets = stream.normal((count, c, s))
    return WindowBatch(inputs=inputs, targets=targets,
                       starts=np.arange(count))


class QuadraticModel:
    """min ||w - w_star||^2, reached from anywhere; ignores the data."""

    def __init__(self, w_star):
        self.w_star = w_star
        self.params = {"w": np.zeros_like(w_star)}

    def trainable(self):
        return ["w"]

    def build_loss(self, tape, nodes, x, y):
        diff = tape.sub(nodes["w"], tape.constant(self.w_star))
        return tape.mean(tape.square(diff))

    def predict(self, x):
        return np.zeros(x.shape[:-1] + (2,))


class FailingModel(QuadraticModel):
    """Raises a numeric error on the nth loss evaluation."""

    def __init__(self, w_star, fail_at: int):
        super().__init__(w_star)
        self.calls = 0
        self.fail_at = fail_at

    def build_loss(self, tape, nodes, x, y):
        self.calls += 1
        if self.calls >= self.fail_at:
            raise DefinitenessError("synthetic factorization failure")
        return super().build_loss(tape, nodes, x, y)


class UnstableEvalModel(QuadraticModel):
    """Trains normally; every prediction hits non-finite activations."""

    def predict(self, x):
        raise NumericError("non-finite activations after prediction")


def per_window_reference(model, inputs, targets):
    """Mean loss and gradients from one 2-D graph per window."""
    losses, grads = [], []
    for x, y in zip(inputs, targets):
        tape = Tape()
        nodes = {k: tape.leaf(v, requires_grad=True)
                 for k, v in model.params.items()}
        loss = model.build_loss(tape, nodes, x, y)
        tape.backward(loss)
        losses.append(float(loss.value))
        grads.append(gradients(nodes))
    return (float(np.mean(losses)),
            {k: np.mean([g[k] for g in grads], axis=0) for k in grads[0]})


def max_rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(lr=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(patience=0)
        with pytest.raises(ParameterError):
            TrainConfig(clip_norm=-1.0)

    @pytest.mark.parametrize("field", ["lr", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ParameterError):
            TrainConfig(**{field: value})


class TestAdam:
    def test_matches_reference_two_steps(self):
        stream = Stream(5, (82,))
        w0 = stream.normal((3, 2))
        g1 = stream.normal((3, 2))
        g2 = stream.normal((3, 2))
        lr = 0.05

        params = {"w": w0.copy()}
        state = OptimizerState.for_params(params, ["w"])
        adam_step(params, {"w": g1.copy()}, state, lr)
        adam_step(params, {"w": g2.copy()}, state, lr)

        # independent reference recursion
        w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
        for t, g in enumerate([g1, g2], start=1):
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            mh = m / (1 - ADAM_BETA1 ** t)
            vh = v / (1 - ADAM_BETA2 ** t)
            w -= lr * mh / (np.sqrt(vh) + ADAM_EPS)
        assert np.allclose(params["w"], w, atol=1e-15)

    def test_rejects_missing_or_nonfinite_grad(self):
        params = {"w": np.zeros(2)}
        state = OptimizerState.for_params(params, ["w"])
        with pytest.raises(NumericError):
            adam_step(params, {}, state, 0.1)
        with pytest.raises(NumericError):
            adam_step(params, {"w": np.array([np.nan, 0.0])}, state, 0.1)

    def test_updates_only_named_blocks(self):
        params = {"w": np.ones(2), "frozen": np.ones(2)}
        state = OptimizerState.for_params(params, ["w"])
        adam_step(params, {"w": np.ones(2), "frozen": np.ones(2)}, state, 0.1)
        assert np.array_equal(params["frozen"], np.ones(2))
        assert not np.array_equal(params["w"], np.ones(2))


class TestClip:
    def test_large_gradient_scaled_to_bound(self):
        # the returned norm is the one before clipping
        grads = {"a": np.array([3.0, 4.0])}
        returned = clip_gradients(grads, ["a"], 1.0)
        assert returned == 5.0
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)

    def test_no_bound_only_measures(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
        assert clip_gradients(grads, ["a", "b"], None) == 13.0
        assert np.array_equal(grads["a"], [3.0, 4.0])

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_adam_step_returns_pre_clip_norm(self, clip_norm):
        params = {"w": np.zeros(2), "frozen": np.zeros(1)}
        state = OptimizerState.for_params(params, ["w"])
        grads = {"w": np.array([3.0, 4.0]), "frozen": np.array([7.0])}
        assert adam_step(params, grads, state, 0.1, clip_norm) == 5.0

    def test_small_gradient_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        returned = clip_gradients(grads, ["a"], 1.0)
        assert returned == pytest.approx(0.5)
        assert np.array_equal(grads["a"], [0.3, 0.4])


class TestEarlyStopper:
    def test_patience_contract(self):
        # best at epoch 2, then patience=5 worse epochs -> stop at epoch 7
        values = [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96]
        stopper = EarlyStopper(patience=5)
        stopped_at = None
        for epoch, v in enumerate(values, start=1):
            if stopper.update(epoch, v):
                stopped_at = epoch
                break
        assert stopped_at == 7
        assert stopper.best_epoch == 2
        assert stopper.best == pytest.approx(0.9)

    def test_any_improvement_resets(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(1, 1.0)
        assert not stopper.update(2, 1.1)
        assert not stopper.update(3, 0.99)   # reset
        assert not stopper.update(4, 1.2)
        assert stopper.update(5, 1.2)

    def test_equal_value_is_not_improvement(self):
        stopper = EarlyStopper(patience=1)
        assert not stopper.update(1, 1.0)
        assert stopper.update(2, 1.0)


PARITY_MODELS = [(variant, heads) for variant in VARIANTS
                 for heads in (1, 2)] + [(mode, 0) for mode in BASELINE_MODES]


def parity_model(kind: str, heads: int):
    """A model with O(1) weights: at the 0.02-std init the attention maps are
    near uniform, and the query and key gradients are pure round-off."""
    if kind in BASELINE_MODES:
        model = LinearBaseline(kind, channels=6, lookback=8, horizon=4, seed=3)
    else:
        model = Forecaster(build_variant(tiny_config(heads=heads), kind))
    for i, (name, value) in enumerate(model.params.items()):
        model.params[name] = value + Stream(i, (86,)).normal(value.shape) * 0.5
    return model


class TestBatchGradients:
    @pytest.mark.parametrize("kind, heads", PARITY_MODELS)
    def test_mean_over_samples(self, kind, heads):
        # one stacked graph against one 2-D graph per window
        model = parity_model(kind, heads)
        batch = toy_batch(count=5, c=6, t=8, s=4)
        loss, grads = batch_gradients(model, batch.inputs, batch.targets)
        ref_loss, ref_grads = per_window_reference(model, batch.inputs,
                                                   batch.targets)
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        assert set(grads) == set(ref_grads)
        for name in grads:
            assert max_rel_err(grads[name], ref_grads[name]) <= 1e-10, name


class TestTrainLoop:
    def test_converges_on_quadratic(self):
        w_star = Stream(6, (83,)).normal((3, 3))
        model = QuadraticModel(w_star)
        cfg = TrainConfig(lr=0.05, batch_size=8, max_epochs=60, patience=60,
                          clip_norm=None, seed=0)
        report = train(model, toy_batch(), None, None, cfg)
        assert not report.diverged
        assert report.stopped_epoch == 60
        assert np.abs(model.params["w"] - w_star).max() < 1e-2

    def test_deterministic_given_seed(self):
        cfg_model = tiny_config()
        batch = toy_batch(count=12, c=cfg_model.channels,
                          t=cfg_model.lookback, s=cfg_model.horizon)
        cfg = TrainConfig(lr=0.01, batch_size=4, max_epochs=3, patience=5,
                          seed=7)
        runs = []
        for _ in range(2):
            model = Forecaster(cfg_model)
            report = train(model, batch, None, None, cfg)
            runs.append((report.epochs[-1].train_loss,
                         {k: v.copy() for k, v in model.params.items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            assert np.array_equal(runs[0][1][k], runs[1][1][k])

    def test_best_parameters_restored(self):
        cfg_model = tiny_config(alpha=0.0)
        stream = Stream(9, (84,))
        n = 20
        train_b = WindowBatch(
            inputs=stream.normal((n, 6, 8)), targets=stream.normal((n, 6, 4)),
            starts=np.arange(n))
        val_b = WindowBatch(
            inputs=stream.normal((6, 6, 8)), targets=stream.normal((6, 6, 4)),
            starts=np.arange(6))
        snapshots = {}

        def keep(epoch, model):
            snapshots[epoch] = {k: v.copy() for k, v in model.params.items()}

        model = Forecaster(cfg_model)
        cfg = TrainConfig(lr=0.05, batch_size=8, max_epochs=12, patience=2,
                          seed=1)
        report = train(model, train_b, val_b, None, cfg, epoch_callback=keep)
        assert report.best_epoch >= 1
        best = snapshots[report.best_epoch]
        for k in best:
            assert np.array_equal(model.params[k], best[k]), k

    def test_empty_training_set_rejected(self):
        model = QuadraticModel(np.ones((2, 2)))
        empty = WindowBatch(inputs=np.zeros((0, 2, 4)),
                            targets=np.zeros((0, 2, 2)), starts=np.zeros(0))
        with pytest.raises(ParameterError):
            train(model, empty, None, None, TrainConfig())

    def test_numeric_failure_after_progress_reports_divergence(self):
        # loss is evaluated once per batch; batch one is call 1, so call 2
        # fails inside the second batch
        model = FailingModel(np.ones((2, 2)), fail_at=2)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5,
                          seed=0)
        report = train(model, toy_batch(), None, None, cfg)
        assert report.diverged
        assert "numeric failure" in report.divergence_note

    def test_numeric_failure_on_first_batch_raises(self):
        model = FailingModel(np.ones((2, 2)), fail_at=1)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5,
                          seed=0)
        with pytest.raises(DefinitenessError):
            train(model, toy_batch(), None, None, cfg)

    def test_numeric_failure_in_validation_reports_divergence(self):
        model = UnstableEvalModel(np.ones((2, 2)))
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5)
        report = train(model, toy_batch(), toy_batch(count=6, seed=1), None,
                       cfg)
        assert report.diverged and report.stopped_epoch == 1
        assert "validation" in report.divergence_note

    def test_numeric_failure_in_test_evaluation_reports_divergence(self):
        model = UnstableEvalModel(np.ones((2, 2)))
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=2, patience=5)
        report = train(model, toy_batch(), None, toy_batch(count=6, seed=1),
                       cfg)
        assert report.diverged and report.stopped_epoch == 2
        assert "test evaluation" in report.divergence_note
        assert report.test_mse is None

    def test_test_metrics_populated(self):
        w_star = Stream(6, (85,)).normal((2, 2))
        model = QuadraticModel(w_star)
        batch = toy_batch()
        cfg = TrainConfig(lr=0.05, batch_size=8, max_epochs=2, patience=5)
        report = train(model, batch, None, batch, cfg)
        assert report.test_mse is not None and report.test_mae is not None

    def test_epoch_callback_sees_epoch_zero(self):
        seen = []
        model = QuadraticModel(np.ones((2, 2)))
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=2, patience=5)
        train(model, toy_batch(), None, None, cfg,
              epoch_callback=lambda e, m: seen.append(e))
        assert seen == [0, 1, 2]


class TestEvaluate:
    def test_known_values(self):
        class Zero:
            params = {}

            def trainable(self):
                return []

            def build_loss(self, *a):
                raise NotImplementedError

            def predict(self, x):
                return np.zeros(x.shape[:-1] + (2,))

        batch = WindowBatch(inputs=np.zeros((3, 2, 4)),
                            targets=np.full((3, 2, 2), 2.0),
                            starts=np.arange(3))
        mse, mae = evaluate(Zero(), batch)
        assert mse == pytest.approx(4.0)
        assert mae == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            evaluate(QuadraticModel(np.ones((2, 2))),
                     WindowBatch(inputs=np.zeros((0, 2, 4)),
                                 targets=np.zeros((0, 2, 2)),
                                 starts=np.zeros(0)))
