"""Optimizer, early stopping, and the training loop's failure contracts."""
import math
import warnings

import numpy as np
import pytest

from conftest import tiny_config
from ucast import training
from ucast.autodiff import Tape, gradients
from ucast.baselines import BASELINE_MODES, LinearBaseline
from ucast.data import WindowBatch
from ucast.errors import DefinitenessError, NumericError, ParameterError
from ucast.model import VARIANTS, Forecaster, build_variant
from ucast.rng import Stream
from ucast.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, OptimizerState,
                            TrainConfig, adam_step, batch_gradients, evaluate,
                            train)


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
        return tape.mse(nodes["w"], tape.constant(self.w_star))

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


class ScriptedValModel(QuadraticModel):
    """Trains toward w_star; each prediction is the square root of the next
    scripted value, so against zero targets one validation pass per epoch
    reads that value as its MSE."""

    def __init__(self, w_star, script):
        super().__init__(w_star)
        self.script = iter(script)

    def predict(self, x):
        return np.full(x.shape[:-1] + (2,), math.sqrt(next(self.script)))


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

    def test_overflowing_norm_raises_before_updating(self):
        # every entry is finite but a square, or the sum of the squares,
        # overflows: in the flat buffer, and in a transposed block's own
        # array; numpy's overflow warning must not reach the user either
        big = np.full((2, 2), 1e154)
        for grad in (np.array([[1e160, 0.0], [0.0, 0.0]]), big, big.T):
            params = {"w": np.zeros((2, 2))}
            state = OptimizerState.for_params(params, ["w"])
            with pytest.raises(NumericError, match="overflows"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                adam_step(params, {"w": grad}, state, 0.1, clip_norm=5.0)
            assert state.step == 0
            assert np.array_equal(params["w"], np.zeros((2, 2)))
            assert not state.m.any() and not state.v.any()

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

    def test_matches_per_block_reference_exactly(self):
        # three steps over blocks of three shapes plus a frozen one; the
        # gradients grow tenfold at step 2, so clipping fires there only
        stream = Stream(6, (82,))
        shapes = {"a": (3, 2), "b": (4,), "c": (1, 1), "frozen": (2,)}
        names = ["a", "b", "c"]
        w0 = {k: stream.normal(shape) for k, shape in shapes.items()}
        steps = [{k: stream.normal(shape) * scale
                  for k, shape in shapes.items()} for scale in (0.1, 10.0, 0.1)]
        # a transposed (Fortran-ordered) gradient block, as the tape makes;
        # its squares are summed in C order like every other block's
        steps[1]["a"] = np.asfortranarray(steps[1]["a"])
        lr, clip = 0.05, 1.0

        params = {k: v.copy() for k, v in w0.items()}
        state = OptimizerState.for_params(params, names)
        norms = [adam_step(params, grads, state, lr, clip) for grads in steps]

        w = {k: v.copy() for k, v in w0.items()}
        m = {k: np.zeros_like(w0[k]) for k in names}
        v = {k: np.zeros_like(w0[k]) for k in names}
        ref_norms = []
        for t, grads in enumerate(steps, start=1):
            total = math.sqrt(sum(float(np.sum(grads[k].ravel() ** 2))
                                  for k in names))
            ref_norms.append(total)
            if total > clip:
                grads = {k: grads[k] * (clip / total) for k in names}
            for k in names:
                m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * grads[k]
                v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * grads[k] * grads[k]
                mh = m[k] / (1 - ADAM_BETA1 ** t)
                vh = v[k] / (1 - ADAM_BETA2 ** t)
                w[k] -= lr * mh / (np.sqrt(vh) + ADAM_EPS)
        assert [n > clip for n in ref_norms] == [False, True, False]
        assert norms == ref_norms
        for k in shapes:
            assert np.array_equal(params[k], w[k]), k
        assert np.array_equal(params["frozen"], w0["frozen"])
        assert np.array_equal(state.m, np.concatenate([m[k].ravel() for k in names]))
        assert np.array_equal(state.v, np.concatenate([v[k].ravel() for k in names]))


class TestClip:
    def test_large_gradient_scaled_to_bound(self):
        # the returned norm is the one before clipping; the moment takes the
        # clipped gradient, and the caller's gradient is left as it was
        params = {"a": np.zeros(2)}
        state = OptimizerState.for_params(params, ["a"])
        grads = {"a": np.array([3.0, 4.0])}
        returned = adam_step(params, grads, state, 0.1, 1.0)
        assert returned == 5.0
        clipped = np.array([3.0, 4.0]) * (1.0 / 5.0)
        assert np.array_equal(state.m, (1.0 - ADAM_BETA1) * clipped)
        assert np.linalg.norm(state.m / (1.0 - ADAM_BETA1)) == pytest.approx(1.0)
        assert np.array_equal(grads["a"], [3.0, 4.0])

    def test_no_bound_only_measures(self):
        params = {"a": np.zeros(2), "b": np.zeros(1)}
        state = OptimizerState.for_params(params, ["a", "b"])
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
        assert adam_step(params, grads, state, 0.1, None) == 13.0
        assert np.array_equal(state.m, (1.0 - ADAM_BETA1)
                              * np.array([3.0, 4.0, 12.0]))

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_adam_step_returns_pre_clip_norm(self, clip_norm):
        params = {"w": np.zeros(2), "frozen": np.zeros(1)}
        state = OptimizerState.for_params(params, ["w"])
        grads = {"w": np.array([3.0, 4.0]), "frozen": np.array([7.0])}
        assert adam_step(params, grads, state, 0.1, clip_norm) == 5.0

    def test_small_gradient_untouched(self):
        params = {"a": np.zeros(2)}
        state = OptimizerState.for_params(params, ["a"])
        returned = adam_step(params, {"a": np.array([0.3, 0.4])}, state, 0.1, 1.0)
        assert returned == pytest.approx(0.5)
        assert np.array_equal(state.m, (1.0 - ADAM_BETA1) * np.array([0.3, 0.4]))


class TestEarlyStopper:
    """train's early stopping: only a strict decrease of the validation MSE
    improves, any improvement resets the count, patience epochs without one
    stop the run, and the best epoch's parameters come back.  Each script
    ends in an improvement that a correct stop never reaches."""

    def run(self, script, patience):
        model = ScriptedValModel(np.ones(3), script)
        val = WindowBatch(inputs=np.zeros((4, 2, 4)),
                          targets=np.zeros((4, 2, 2)), starts=np.arange(4))
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=len(script),
                          patience=patience, clip_norm=None, seed=0)
        seen = {}

        def record(epoch, m):
            seen[epoch] = m.params["w"].copy()

        report = train(model, toy_batch(count=8), val, None, cfg,
                       epoch_callback=record)
        return report, model.params["w"], seen

    def test_patience_contract(self):
        # best at epoch 2, then patience=5 worse epochs -> stop at epoch 7
        script = [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.5]
        report, w, seen = self.run(script, patience=5)
        assert (report.stopped_epoch, report.best_epoch) == (7, 2)
        assert report.epochs[1].val_mse == pytest.approx(0.9)
        assert np.array_equal(w, seen[2])
        assert not np.array_equal(seen[7], seen[2])

    def test_any_improvement_resets(self):
        script = [1.0, 1.1, 0.99, 1.2, 1.2, 0.5]
        report, w, seen = self.run(script, patience=2)
        assert (report.stopped_epoch, report.best_epoch) == (5, 3)
        assert np.array_equal(w, seen[3])

    def test_equal_value_is_not_improvement(self):
        report, w, seen = self.run([1.0, 1.0, 0.5], patience=1)
        assert (report.stopped_epoch, report.best_epoch) == (2, 1)
        assert np.array_equal(w, seen[1])
        assert not np.array_equal(seen[2], seen[1])


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
        # only the update set is taped and collected
        assert set(grads) == set(model.trainable())
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

    def test_divergence_restores_best_validated_epoch(self):
        # three batches an epoch: call 5 fails in epoch 2's second batch,
        # after epoch 1 validated and one more step moved the parameters
        class Validated(FailingModel):
            def predict(self, x):
                gap = float(np.sum((self.params["w"] - self.w_star) ** 2))
                return np.full(x.shape[:-1] + (2,), gap)

        model = Validated(np.ones((2, 2)), fail_at=5)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5,
                          seed=0)
        seen = {}

        def keep(epoch, m):
            seen[epoch] = m.params["w"].copy()

        report = train(model, toy_batch(), toy_batch(seed=1), None, cfg,
                       epoch_callback=keep)
        assert report.diverged and report.stopped_epoch == 2
        assert [r.epoch for r in report.epochs] == [1]
        assert report.best_epoch == 1
        assert report.summary()["best_epoch"] == 1
        assert np.array_equal(model.params["w"], seen[1])
        assert not np.array_equal(seen[1], seen[0])

    def test_divergence_without_validation_keeps_best_epoch_zero(self):
        model = FailingModel(np.ones((2, 2)), fail_at=5)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5,
                          seed=0)
        report = train(model, toy_batch(), None, None, cfg)
        assert report.diverged and report.best_epoch == 0

    def test_numeric_failure_on_first_batch_reports_divergence(self):
        # before any update the parameters are the initial ones, and the
        # report names epoch 0 as the best, with no epoch run to completion
        model = FailingModel(np.ones((2, 2)), fail_at=1)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5,
                          seed=0)
        report = train(model, toy_batch(), None, None, cfg)
        assert report.diverged and report.stopped_epoch == 1
        assert report.divergence_note == (
            "numeric failure at epoch 1: synthetic factorization failure")
        assert report.epochs == [] and report.best_epoch == 0
        assert np.array_equal(model.params["w"], np.zeros((2, 2)))

    @staticmethod
    def poison_gradient(monkeypatch, at_call: int):
        """batch_gradients as before, but call `at_call` returns a NaN
        gradient with a finite loss, so only adam_step can see it."""
        real = training.batch_gradients
        calls = []

        def poisoned(model, inputs, targets):
            loss, grads = real(model, inputs, targets)
            calls.append(1)
            if len(calls) == at_call:
                grads = {k: np.full_like(v, np.nan) for k, v in grads.items()}
            return loss, grads

        monkeypatch.setattr(training, "batch_gradients", poisoned)

    def test_non_finite_gradient_on_first_step_reports_divergence(
            self, monkeypatch):
        self.poison_gradient(monkeypatch, at_call=1)
        model = QuadraticModel(np.ones((2, 2)))
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5)
        report = train(model, toy_batch(), None, None, cfg)
        assert report.diverged and report.stopped_epoch == 1
        assert report.divergence_note == ("numeric failure at epoch 1: "
                                          "adam_step: non-finite gradient "
                                          "for 'w'")
        assert report.epochs == [] and report.best_epoch == 0
        assert np.array_equal(model.params["w"], np.zeros((2, 2)))

    def test_non_finite_gradient_after_progress_reports_divergence(
            self, monkeypatch):
        # toy_batch has 24 windows, so batch size 8 gives 3 steps an epoch
        self.poison_gradient(monkeypatch, at_call=5)
        model = QuadraticModel(np.ones((2, 2)))
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5)
        report = train(model, toy_batch(), None, None, cfg)
        assert report.diverged and report.stopped_epoch == 2
        assert "non-finite gradient for 'w'" in report.divergence_note
        assert len(report.epochs) == 1

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

    def test_callback_failure_before_first_update_diverges(self):
        def fail(epoch, m):
            raise NumericError(f"synthetic callback failure at {epoch}")

        model = QuadraticModel(np.ones((2, 2)))
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=3, patience=5)
        report = train(model, toy_batch(), None, toy_batch(count=8), cfg,
                       epoch_callback=fail)
        assert report.diverged and report.stopped_epoch == 0
        assert report.divergence_note == (
            "numeric failure after epoch 0: synthetic callback failure at 0")
        assert report.epochs == [] and report.best_epoch == 0
        assert report.test_mse is None
        assert np.array_equal(model.params["w"], np.zeros((2, 2)))

    def test_callback_failure_after_first_update_diverges(self):
        # validation reads 2.0, 1.0, 3.0: epoch 2 is the best when the
        # callback fails after epoch 3, whose record is already kept
        model = ScriptedValModel(np.ones(3), [2.0, 1.0, 3.0, 0.5])
        val = WindowBatch(inputs=np.zeros((4, 2, 4)),
                          targets=np.zeros((4, 2, 2)), starts=np.arange(4))
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=4, patience=5,
                          clip_norm=None)
        seen = {}

        def fail_at_three(epoch, m):
            seen[epoch] = m.params["w"].copy()
            if epoch == 3:
                raise NumericError("synthetic export failure")

        report = train(model, toy_batch(count=8), val, toy_batch(count=8),
                       cfg, epoch_callback=fail_at_three)
        assert report.diverged and report.stopped_epoch == 3
        assert report.divergence_note == (
            "numeric failure after epoch 3: synthetic export failure")
        assert [r.epoch for r in report.epochs] == [1, 2, 3]
        assert report.best_epoch == 2 and report.test_mse is None
        assert np.array_equal(model.params["w"], seen[2])
        assert not np.array_equal(seen[3], seen[2])

    def test_divergence_notes_name_where(self, monkeypatch):
        # the three notes a step, validation and test evaluation write
        self.poison_gradient(monkeypatch, at_call=5)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=2, patience=5)
        step = train(QuadraticModel(np.ones((2, 2))), toy_batch(), None,
                     None, cfg)
        val = train(UnstableEvalModel(np.ones((2, 2))), toy_batch(count=8),
                    toy_batch(count=6, seed=1), None, cfg)
        test = train(UnstableEvalModel(np.ones((2, 2))), toy_batch(count=8),
                     None, toy_batch(count=6, seed=1), cfg)
        assert step.divergence_note.startswith(
            "numeric failure at epoch 2: adam_step: non-finite gradient")
        assert val.divergence_note == ("numeric failure in validation at "
                                       "epoch 1: non-finite activations "
                                       "after prediction")
        assert test.divergence_note == ("numeric failure in test evaluation: "
                                        "non-finite activations after "
                                        "prediction")

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


def desk_forecaster(heads: int = 1) -> Forecaster:
    """The desk width (C=64, d=32, r=4), where BLAS results depend on a
    call's row count."""
    return Forecaster(tiny_config(channels=64, lookback=32, horizon=8, d=32,
                                  ratio=4, heads=heads))


class TestBatchContract:
    def test_evaluate_reproduces_its_bytes(self):
        # 70 windows: two full EVAL_WINDOWS chunks and a short one; a fresh
        # model from copied parameters, on copied windows, gives the same bits
        model = desk_forecaster()
        batch = toy_batch(count=70, c=64, t=32, s=8)
        assert training.EVAL_WINDOWS == 32
        first = evaluate(model, batch)
        twin = Forecaster(model.config,
                          {k: v.copy() for k, v in model.params.items()})
        again = evaluate(twin, WindowBatch(inputs=batch.inputs.copy(),
                                           targets=batch.targets.copy(),
                                           starts=batch.starts))
        assert [float.hex(v) for v in again] == [float.hex(v) for v in first]

    @pytest.mark.parametrize("heads", [1, 2])
    def test_window_alone_agrees_with_its_stacked_row(self, heads):
        # a window predicted alone may differ in its last bits from its row
        # of a stacked predict call.  Measured at this shape over seeds 0-3
        # (2 vCPU, numpy 2.4.6, OpenBLAS): at most 2.0e-16 of the window's
        # largest forecast at heads=1 and none at heads=2; 5.3e-16 at the
        # published width.  The bound is twice the larger figure.
        model = desk_forecaster(heads)
        x = Stream(0, (5,)).normal((32, 64, 32))
        stacked = model.predict(x)
        for i in range(len(x)):
            alone = model.predict(x[i])
            scale = np.abs(stacked[i]).max()
            assert np.abs(alone - stacked[i]).max() <= 1.1e-15 * scale, i


def loss_value(model, x, y) -> float:
    """The batch loss from an untaped forward pass."""
    tape = Tape()
    nodes = {k: tape.constant(v) for k, v in model.params.items()}
    return float(model.build_loss(tape, nodes, x, y).value)


def directional_errors(model, x, y, steps, directions=4, seed=0):
    """|grad L| from batch_gradients over all trainable blocks, and for each
    of `directions` seeded unit directions v: <grad L, v> and, for each step
    eps, its distance to the central difference
    (L(p + eps v) - L(p - eps v)) / 2 eps.  Each direction costs two forward
    passes per step, whatever the parameter count."""
    _, grads = batch_gradients(model, x, y)
    grad_norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    base = model.params
    results = []
    for k in range(directions):
        stream = Stream(seed, (97, k))
        v = {name: stream.normal(base[name].shape) for name in grads}
        norm = math.sqrt(sum(float(np.vdot(u, u)) for u in v.values()))
        v = {name: u / norm for name, u in v.items()}
        slope = sum(float(np.vdot(grads[name], u)) for name, u in v.items())
        errors = []
        for eps in steps:
            ends = []
            for sign in (1.0, -1.0):
                model.params = {**base, **{name: base[name] + sign * eps * u
                                           for name, u in v.items()}}
                ends.append(loss_value(model, x, y))
            model.params = base
            errors.append(abs((ends[0] - ends[1]) / (2 * eps) - slope))
        results.append((slope, errors))
    return grad_norm, results


class TestDirectionalGradients:
    @pytest.mark.parametrize("mode", BASELINE_MODES)
    def test_baseline_at_synth_cell_shape(self, mode):
        # B=32, C=250, lookback 4, horizon 4, the synth table's anti_self
        # C=250 cell, with weights of 0.1 std added so every bias is
        # nonzero.  ci's loss is quadratic in its parameters, so a central
        # difference is exact but for rounding; cd's is quartic, and its
        # error falls as eps^2.  Measured over 12 directions (these 4 and
        # seeds 1-2; 2 vCPU, numpy 2.4.6): ci at most 6.3e-13 |grad L| at
        # eps=1e-3; cd at most 1.7e-11 |grad L|, falling by 84x or more
        # from eps=1e-2.
        model = LinearBaseline(mode, channels=250, lookback=4, horizon=4)
        for i, (name, value) in enumerate(model.params.items()):
            model.params[name] = value + Stream(i, (88,)).normal(
                value.shape) * 0.1
        stream = Stream(2, (99,))
        x = stream.normal((32, 250, 4))
        y = stream.normal((32, 250, 4))
        grad_norm, results = directional_errors(model, x, y, (1e-2, 1e-3))
        for slope, (coarse, fine) in results:
            if mode == "ci":
                assert fine <= 1e-11 * grad_norm, (slope, fine / grad_norm)
            else:
                assert fine <= 1e-9 * grad_norm, (slope, fine / grad_norm)
                assert coarse >= 50 * fine, (slope, coarse / fine)

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_desk_stack_matches_central_differences(self, variant, heads):
        # a B=4 stack at desk width, with weights of 0.3 std added so the
        # attention maps are far from uniform.  Measured over these 40
        # directions (2 vCPU, numpy 2.4.6): the error at eps=1e-3 is at
        # most 2.1e-8 |grad L|, and it falls by 99.4x or more from
        # eps=1e-2, as eps^2 predicts (100x).  A gradient wrong along v
        # leaves an error that does not fall with eps.
        model = Forecaster(build_variant(tiny_config(
            channels=64, lookback=32, horizon=8, d=32, ratio=4, heads=heads),
            variant))
        for i, (name, value) in enumerate(model.params.items()):
            model.params[name] = value + Stream(i, (86,)).normal(
                value.shape) * 0.3
        stream = Stream(2, (98,))
        x = stream.normal((4, 64, 32))
        y = stream.normal((4, 64, 8))
        grad_norm, results = directional_errors(model, x, y, (1e-2, 1e-3))
        for slope, (coarse, fine) in results:
            assert fine <= 1e-7 * grad_norm, (slope, fine / grad_norm)
            assert coarse >= 50 * fine, (slope, coarse / fine)
