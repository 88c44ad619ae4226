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
    # lr to clip_norm: the published table's defaults, which cli.SETTINGS reads
    lr: float = 1e-3
    batch_size: int = 128
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
    """Adam's moments m and v and two scratch buffers, each one flat array
    holding the update set's blocks end to end; `blocks` gives each block's
    name, shape and slice of them."""
    blocks: list[tuple[str, tuple[int, ...], slice]]
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    work: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray],
                   names: list[str]) -> "OptimizerState":
        blocks = []
        size = 0
        for name in names:
            blocks.append((name, params[name].shape,
                           slice(size, size + params[name].size)))
            size += params[name].size
        return cls(blocks=blocks, m=np.zeros(size), v=np.zeros(size),
                   grad=np.empty(size), work=np.empty(size))


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptimizerState, lr: float,
              clip_norm: float | None = None) -> float:
    """One Adam update in place, touching only the state's update set;
    returns the update set's gradient norm before clipping, after which a
    norm above clip_norm (None: never) scales the whole set down to it.
    A non-finite norm raises NumericError before anything is updated.

    The gradients are read, never written: they may alias each other."""
    names = [name for name, _, _ in state.blocks]
    for name in names:
        if name not in grads:
            raise NumericError(f"adam_step: no gradient for '{name}'")
    g, work = state.grad, state.work
    if names:
        np.concatenate([grads[name].reshape(-1) for name in names], out=g)
    # each block's squares summed in C order from its slice and the block
    # sums added in Python, which one sum over the buffer would reorder;
    # squares or sums that overflow give an infinite norm, refused below
    with np.errstate(over="ignore"):
        np.multiply(g, g, out=work)
        norm = math.sqrt(sum(float(work[sl].sum()) for _, _, sl in state.blocks))
    # a finite norm certifies every entry finite; only a non-finite one
    # sends the blocks through a scan, to name the bad block
    if not math.isfinite(norm):
        bad = next((n for n in names if not np.isfinite(grads[n]).all()), None)
        raise NumericError(
            f"adam_step: non-finite gradient for '{bad}'" if bad is not None
            else "adam_step: gradient norm overflows")
    if clip_norm is not None and norm > clip_norm and norm > 0.0:
        g *= clip_norm / norm
    state.step += 1
    b1_corr = 1.0 - ADAM_BETA1 ** state.step
    b2_corr = 1.0 - ADAM_BETA2 ** state.step
    # m = b1 m + (1 - b1) g,  v = b2 v + ((1 - b2) g) g
    np.multiply(g, 1.0 - ADAM_BETA1, out=work)
    state.m *= ADAM_BETA1
    state.m += work
    np.multiply(g, 1.0 - ADAM_BETA2, out=work)
    work *= g
    state.v *= ADAM_BETA2
    state.v += work
    # step = lr (m / b1_corr) / (sqrt(v / b2_corr) + eps)
    np.divide(state.m, b1_corr, out=g)
    g *= lr
    np.divide(state.v, b2_corr, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    g /= work
    for name, shape, sl in state.blocks:
        params[name] -= g[sl].reshape(shape)
    return norm


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
    epoch_seconds: list[float] = field(default_factory=list)

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
        return {
            "epoch_seconds": self.epoch_seconds,
            "total_seconds": float(sum(self.epoch_seconds)),
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
    """Mean loss over one batch, from one taped graph, and the gradients of
    the model's trainable parameters; the others are taped as constants."""
    names = model.trainable()
    tape = Tape()
    update = set(names)
    nodes = {k: tape.leaf(v, requires_grad=k in update)
             for k, v in model.params.items()}
    loss = model.build_loss(tape, nodes, inputs, targets)
    tape.backward(loss)
    return float(loss.value), gradients({k: nodes[k] for k in names})


# -- the loop --------------------------------------------------------------


EpochCallback = Callable[[int, TrainableModel], None]


def _restore(params: dict[str, np.ndarray],
             best: dict[str, np.ndarray] | None) -> None:
    """Copy the best validated epoch's parameters back, if one was kept."""
    for k, v in (best or {}).items():
        params[k][...] = v


def train(model: TrainableModel, train_windows: WindowBatch,
          val_windows: WindowBatch | None, test_windows: WindowBatch | None,
          config: TrainConfig,
          epoch_callback: EpochCallback | None = None) -> TrainReport:
    """Run Adam to completion or early stop: patience epochs without a
    strict decrease of the validation MSE stop the run, and the best
    epoch's parameters are restored before any test evaluation.

    Without a validation set the loop runs all epochs and keeps the final
    parameters.  A NumericError anywhere, the epoch-0 callback included,
    ends the run with a diverged report, which names the place and restores
    the best validated epoch (0 and the last parameters when none was).  A
    batch whose graph does not fit in memory is a ParameterError: every
    full batch has the same shapes, so it fails at the first step.
    """
    if train_windows.count == 0:
        raise ParameterError("train: empty training set")
    state = OptimizerState.for_params(model.params, model.trainable())
    shuffle_stream = Stream(config.seed, (401,))
    report = TrainReport()
    # the best validation MSE so far and its parameters (report.best_epoch)
    best_mse, best_params = math.inf, None
    epoch, where = 0, "after epoch 0"
    try:
        if epoch_callback is not None:
            epoch_callback(0, model)
        for epoch in range(1, config.max_epochs + 1):
            where = f"at epoch {epoch}"
            order = shuffle_stream.permutation(train_windows.count)
            epoch_loss, epoch_norm, batches = 0.0, 0.0, 0
            tick = time.monotonic()
            for lo in range(0, train_windows.count, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                try:
                    loss, grads = batch_gradients(
                        model, train_windows.inputs[idx],
                        train_windows.targets[idx])
                    norm = adam_step(model.params, grads, state, config.lr,
                                     config.clip_norm)
                except MemoryError as exc:
                    raise ParameterError(
                        f"a batch of {len(idx)} windows does not fit in "
                        "memory; lower --batch-size") from exc
                epoch_loss += loss
                epoch_norm = max(epoch_norm, norm)
                batches += 1
            report.epoch_seconds.append(time.monotonic() - tick)

            where = f"in validation at epoch {epoch}"
            val_mse = None
            if val_windows is not None:
                val_mse, _ = evaluate(model, val_windows)
            report.epochs.append(EpochRecord(
                epoch=epoch, train_loss=epoch_loss / batches, val_mse=val_mse,
                grad_norm=epoch_norm))
            report.stopped_epoch = epoch
            where = f"after epoch {epoch}"
            if epoch_callback is not None:
                epoch_callback(epoch, model)

            if val_mse is not None:
                if val_mse < best_mse:
                    best_mse, report.best_epoch = val_mse, epoch
                    best_params = {k: v.copy() for k, v in model.params.items()}
                elif epoch - report.best_epoch >= config.patience:
                    break

        where = "in test evaluation"
        if best_params is None:
            report.best_epoch = report.stopped_epoch
        _restore(model.params, best_params)
        if test_windows is not None:
            report.test_mse, report.test_mae = evaluate(model, test_windows)
    except NumericError as exc:
        _restore(model.params, best_params)
        report.diverged = True
        report.divergence_note = f"numeric failure {where}: {exc}"
        report.stopped_epoch = epoch
    return report
