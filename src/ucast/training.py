"""Optimization loop shared by the forecaster and the linear baselines.

A trainable model exposes a parameter dict, the subset of names the optimizer
may update, a taped loss, and a plain predict.  The loss and predict take a
(B, C, T) stack of windows or one (C, T) window through the same code, so a
minibatch is one taped graph and one backward sweep.  The loop is
deterministic for a given seed: batch order comes from a seeded shuffle.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .autodiff import Node, Tape, gradients
from .data import WindowBatch
from .errors import NumericError, ParameterError
from .rng import Stream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainableModel(Protocol):
    params: dict[str, np.ndarray]

    def trainable(self) -> list[str]: ...

    def build_loss(self, tape: Tape, nodes: dict[str, Node],
                   x: np.ndarray, y: np.ndarray) -> Node:
        """Scalar loss, the mean over the windows of a (B, C, T) stack x
        against (B, C, S) targets y, or of one (C, T) window."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forecasts shaped x.shape[:-1] + (S,), for a stack or one window."""


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 5
    clip_norm: float | None = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ParameterError(
                f"lr must be finite and positive, got {self.lr}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ParameterError("batch_size, max_epochs must be positive")
        if self.patience < 1:
            raise ParameterError("patience must be >= 1")
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ParameterError(
                "clip_norm must be finite and positive or None, got "
                f"{self.clip_norm}")


# -- Adam ------------------------------------------------------------------


@dataclass
class OptimizerState:
    names: list[str]
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray],
                   names: list[str]) -> "OptimizerState":
        state = cls(names=list(names))
        for name in names:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        return state


def clip_gradients(grads: dict[str, np.ndarray], names: list[str],
                   max_norm: float | None) -> float:
    """Scale the update set so its global L2 norm is at most max_norm (None
    leaves it as it is); returns the norm before clipping."""
    total = math.sqrt(sum(float(np.sum(grads[n] ** 2)) for n in names))
    if max_norm is not None and total > max_norm and total > 0.0:
        factor = max_norm / total
        for n in names:
            grads[n] = grads[n] * factor
    return total


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptimizerState, lr: float,
              clip_norm: float | None = None) -> float:
    """One Adam update in place, touching only the state's update set;
    returns the update set's gradient norm before clipping."""
    for name in state.names:
        if name not in grads:
            raise NumericError(f"adam_step: no gradient for '{name}'")
        if not np.all(np.isfinite(grads[name])):
            raise NumericError(f"adam_step: non-finite gradient for '{name}'")
    norm = clip_gradients(grads, state.names, clip_norm)
    state.step += 1
    b1_corr = 1.0 - ADAM_BETA1 ** state.step
    b2_corr = 1.0 - ADAM_BETA2 ** state.step
    for name in state.names:
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / b1_corr
        v_hat = state.v[name] / b2_corr
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return norm


# -- early stopping --------------------------------------------------------


class EarlyStopper:
    """Patience counter on a minimized metric; any strict decrease resets it."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ParameterError("patience must be >= 1")
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.bad = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record one epoch's metric; True means stop after this epoch."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.bad = 0
            return False
        self.bad += 1
        return self.bad >= self.patience


# -- reports ---------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mse: float | None
    grad_norm: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    test_mse: float | None = None
    test_mae: float | None = None
    diverged: bool = False
    divergence_note: str = ""
    batch_seconds: list[float] = field(default_factory=list)

    def diverge(self, epoch: int, note: str) -> "TrainReport":
        self.diverged = True
        self.divergence_note = note
        self.stopped_epoch = epoch
        return self

    def epoch_dicts(self) -> list[dict]:
        return [{"epoch": e.epoch, "train_loss": e.train_loss,
                 "val_mse": e.val_mse, "grad_norm": e.grad_norm}
                for e in self.epochs]

    def summary(self) -> dict:
        """Deterministic run summary; wall-clock timing deliberately lives in
        timing() so artifact bytes do not depend on the host."""
        return {
            "epochs_run": self.stopped_epoch,
            "best_epoch": self.best_epoch,
            "test_mse": self.test_mse,
            "test_mae": self.test_mae,
            "diverged": self.diverged,
            "divergence_note": self.divergence_note,
        }

    def timing(self) -> dict:
        per_epoch = self.batch_seconds
        return {
            "epoch_seconds": per_epoch,
            "total_seconds": float(sum(per_epoch)),
        }


# -- evaluation ------------------------------------------------------------


# windows per predict call; bounds evaluation memory on long test sets
EVAL_WINDOWS = 32


def evaluate(model: TrainableModel, windows: WindowBatch) -> tuple[float, float]:
    """Mean squared / absolute error over every (sample, channel, step) cell."""
    if windows.count == 0:
        raise ParameterError("evaluate: empty window batch")
    sq = 0.0
    ab = 0.0
    cells = 0
    for lo in range(0, windows.count, EVAL_WINDOWS):
        hi = lo + EVAL_WINDOWS
        err = model.predict(windows.inputs[lo:hi]) - windows.targets[lo:hi]
        sq += float(np.sum(err ** 2))
        ab += float(np.sum(np.abs(err)))
        cells += err.size
    return sq / cells, ab / cells


# -- batch gradients -------------------------------------------------------


def batch_gradients(model: TrainableModel, inputs: np.ndarray,
                    targets: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss and gradients over one batch, from one taped graph."""
    tape = Tape()
    nodes = {k: tape.leaf(v, requires_grad=True) for k, v in model.params.items()}
    loss = model.build_loss(tape, nodes, inputs, targets)
    tape.backward(loss)
    return float(loss.value), gradients(nodes)


# -- the loop --------------------------------------------------------------


EpochCallback = Callable[[int, TrainableModel], None]


def train(model: TrainableModel, train_windows: WindowBatch,
          val_windows: WindowBatch | None, test_windows: WindowBatch | None,
          config: TrainConfig,
          epoch_callback: EpochCallback | None = None) -> TrainReport:
    """Run Adam to completion or early stop; restores the best-validation
    parameters before any test evaluation.

    Without a validation set the loop runs all epochs and keeps the final
    parameters.  A non-finite training loss, or a numeric failure after the
    first step (validation and test evaluation included), aborts with a
    diverged report instead of raising.  A batch whose graph does not fit in
    memory is a ParameterError: every full batch has the same shapes, so it
    fails at the first step.
    """
    if train_windows.count == 0:
        raise ParameterError("train: empty training set")
    names = model.trainable()
    state = OptimizerState.for_params(model.params, names)
    shuffle_stream = Stream(config.seed, (401,))
    stopper = EarlyStopper(config.patience) if val_windows is not None else None
    report = TrainReport()
    best_params = None

    if epoch_callback is not None:
        epoch_callback(0, model)

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_stream.permutation(train_windows.count)
        epoch_loss = 0.0
        epoch_norm = 0.0
        batches = 0
        tick = time.monotonic()
        for lo in range(0, train_windows.count, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            try:
                loss, grads = batch_gradients(
                    model, train_windows.inputs[idx], train_windows.targets[idx])
            except MemoryError as exc:
                raise ParameterError(
                    f"a batch of {len(idx)} windows does not fit in memory; "
                    "lower --batch-size") from exc
            except NumericError as exc:
                # A numeric failure on the very first step is a config
                # problem and propagates; after a successful step it means
                # the iterates blew up, which is a divergence outcome.
                if epoch == 1 and batches == 0:
                    raise
                return report.diverge(
                    epoch, f"numeric failure at epoch {epoch}: {exc}")
            if not math.isfinite(loss):
                return report.diverge(
                    epoch, f"non-finite training loss at epoch {epoch}")
            norm = adam_step(model.params, grads, state, config.lr,
                             config.clip_norm)
            epoch_loss += loss
            epoch_norm = max(epoch_norm, norm)
            batches += 1
        report.batch_seconds.append(time.monotonic() - tick)

        val_mse = None
        if val_windows is not None:
            try:
                val_mse, _ = evaluate(model, val_windows)
            except NumericError as exc:
                return report.diverge(
                    epoch, f"numeric failure in validation at epoch {epoch}: {exc}")
        report.epochs.append(EpochRecord(
            epoch=epoch, train_loss=epoch_loss / batches, val_mse=val_mse,
            grad_norm=epoch_norm))
        report.stopped_epoch = epoch
        if epoch_callback is not None:
            epoch_callback(epoch, model)

        if stopper is not None:
            improved = val_mse is not None and val_mse < stopper.best
            stop = stopper.update(epoch, float(val_mse))
            if improved:
                best_params = {k: v.copy() for k, v in model.params.items()}
            if stop:
                break

    if stopper is not None and best_params is not None:
        report.best_epoch = stopper.best_epoch
        for k, v in best_params.items():
            model.params[k][...] = v
    else:
        report.best_epoch = report.stopped_epoch

    if test_windows is not None:
        try:
            report.test_mse, report.test_mae = evaluate(model, test_windows)
        except NumericError as exc:
            return report.diverge(report.stopped_epoch,
                                  f"numeric failure in test evaluation: {exc}")
    return report
