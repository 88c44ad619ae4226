"""The benchmark's four workloads.

Each workload is a closed loop with one caller: an operation is set-up
(inputs generated from the seed) followed by the timed section, and the next
operation starts when the previous one returns.  Every operation of a run
repeats the same inputs, so its deterministic outputs must repeat bit for
bit.  The calls are the public library calls the CLI subcommands make.

  forecaster_desk  `ucast train` at the desk profile (d=32, r=4), where
                   Python dispatch of ~65 taped primitives per window
                   dominates.
  forecaster_wide  the published width (d=512, r=16) on 256 channels, where
                   BLAS products dominate.  It skips the checkpoint round
                   trip: the 96 MB CSV takes ~10 s, which leaves too few
                   operations in a run for a steady figure.  Not listed in
                   BENCHMARK.json (its run time goes to longer runs of the
                   others); run it by name for published-width numbers.
  synth_cell       the anti_self C=250 cell of `ucast synth`: both linear
                   baselines, no attention and no covariance penalty.
  risk_oracle      `ucast risk --mc`: closed-form Bayes risks and their
                   Monte-Carlo cross-check; no autodiff at all.

Throughput units per workload: forecasters count windows x epochs trained
and test windows predicted; synth_cell counts the same for both baselines;
risk_oracle counts the C closed-form p-channel predictors fitted by
`bayes_risk_sequence` as trained, and the sampled one-step windows scored by
`monte_carlo_risks` as predicted.
"""
from __future__ import annotations

import dataclasses
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ucast import analysis, cli, training
from ucast import baselines as bl
from ucast.data import WindowBatch
from ucast.model import Forecaster, load_checkpoint, save_checkpoint
from ucast.varlab import (bayes_risk_sequence, make_var_spec,
                          monte_carlo_risks, simulate)

import flops

# Monte-Carlo risks must sit within this many standard errors, R_p sqrt(2/n),
# of the closed form
MC_SIGMAS = 5.0


@dataclass
class Outcome:
    train_windows: int          # units in the TRAIN_SPANS
    predict_windows: int        # units in the PREDICT_SPANS
    test_mse: float
    fingerprint: tuple          # deterministic outputs; must repeat exactly
    checks: dict[str, bool]
    counts: dict[str, float] = field(default_factory=dict)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _prefix(batch: WindowBatch, count: int | None) -> WindowBatch:
    if count is None:
        return batch
    return WindowBatch(batch.inputs[:count], batch.targets[:count],
                       batch.starts[:count])


def _pool(batches: list[WindowBatch]) -> WindowBatch:
    return WindowBatch(np.concatenate([b.inputs for b in batches]),
                       np.concatenate([b.targets for b in batches]),
                       np.concatenate([b.starts for b in batches]))


class ForecasterWorkload:
    """resolve_data -> windows -> Forecaster -> train -> evaluate ->
    snapshot [-> checkpoint save and load]."""

    TRAIN_SPANS = ("training.train",)
    PREDICT_SPANS = ("training.evaluate",)

    def __init__(self, data: str, epochs: int, workdir: Path,
                 train_prefix: int | None = None,
                 test_prefix: int | None = None, checkpoint=True,
                 loss_must_fall=False, **profile):
        self.data = data
        self.epochs = epochs
        self.workdir = workdir
        self.train_prefix = train_prefix
        self.test_prefix = test_prefix
        self.checkpoint = checkpoint
        self.loss_must_fall = loss_must_fall
        self.profile = profile

    def setup(self, seed: int, tracer):
        cfg = dict(cli.DESK_DEFAULTS, **self.profile, seed=seed,
                   data=self.data, max_epochs=self.epochs)
        cfg["lookback"] = cfg["lookback"] or 4 * int(cfg["horizon"])
        with tracer.span("cli.resolve_data"):
            ds, _ = cli.resolve_data(cfg["data"], int(cfg["steps"]), seed)
        with tracer.span("cli.windows_from_dataset"):
            train_w, val_w, test_w = cli.windows_from_dataset(ds, cfg)
        with tracer.span("model.init_params"):
            forecaster = Forecaster(cli.model_config(cfg, ds.n_channels))
        windows = sum(w.count for w in (train_w, val_w, test_w) if w)
        return (cfg, forecaster, _prefix(train_w, self.train_prefix), val_w,
                _prefix(test_w, self.test_prefix), windows)

    def run(self, inputs, tracer) -> Outcome:
        cfg, forecaster, train_w, val_w, test_w, windows = inputs
        with tracer.span("training.train"):
            report = training.train(forecaster, train_w, val_w, None,
                                    cli.train_config(cfg))
        with tracer.span("training.evaluate"):
            mse, _ = training.evaluate(forecaster, test_w)
        with tracer.span("analysis.snapshot"):
            analysis.snapshot(forecaster.trace(train_w.inputs[0]),
                              report.stopped_epoch)
        losses = [e.train_loss for e in report.epochs]
        vals = [e.val_mse for e in report.epochs if val_w is not None]
        checks = {"not_diverged": not report.diverged,
                  "finite_losses": _finite(*losses, *vals, mse)}
        if self.loss_must_fall:
            checks["train_loss_falls"] = len(losses) > 1 and losses[-1] < losses[0]
        counts = {"data.windows": windows,
                  "model.flops_per_window":
                      flops.forecaster_window(forecaster.config)}
        if self.checkpoint:
            checks["checkpoint_round_trip"], counts["model.checkpoint_bytes"] = \
                self._round_trip(forecaster, tracer)
        return Outcome(
            train_windows=train_w.count * len(report.epochs),
            predict_windows=test_w.count, test_mse=mse,
            fingerprint=(mse, *losses), checks=checks, counts=counts)

    def _round_trip(self, forecaster, tracer) -> tuple[bool, int]:
        """Save and reload the checkpoint; (identical, bytes on disk)."""
        ckpt = self.workdir / "checkpoint"
        try:
            with tracer.span("model.save_checkpoint"):
                save_checkpoint(ckpt, forecaster.params, forecaster.config)
            size = sum(f.stat().st_size for f in ckpt.iterdir())
            with tracer.span("model.load_checkpoint"):
                params, config = load_checkpoint(ckpt)
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        same = (config == forecaster.config
                and params.keys() == forecaster.params.keys()
                and all(np.array_equal(params[k], v)
                        for k, v in forecaster.params.items()))
        return same, size


class SynthCellWorkload:
    """One cell of the ci/cd comparison: pooled simulated sequences, both
    baselines fitted with the experiment's optimizer settings."""

    TRAIN_SPANS = ("baselines.fit_ci", "baselines.fit_cd")
    PREDICT_SPANS = ("training.evaluate",)

    def __init__(self, channels: int, pooled: int, epochs: int):
        self.channels = channels
        self.pooled = pooled
        self.epochs = epochs

    def setup(self, seed: int, tracer):
        train_parts, test_parts = [], []
        for k in range(self.pooled):
            with tracer.span("varlab.make_var_spec"):
                spec = make_var_spec(
                    "anti_self", self.channels,
                    seed=seed + bl.SEQUENCE_SEED_STRIDE * k,
                    target_radius=bl.EXPERIMENT_TARGET_RADIUS)
            with tracer.span("varlab.simulate"):
                series = simulate(spec, bl.SERIES_STEPS, bl.SERIES_BURN_IN)
            with tracer.span("baselines.experiment_windows"):
                train_w, test_w = bl.experiment_windows(series)
            train_parts.append(train_w)
            test_parts.append(test_w)
        return seed, _pool(train_parts), _pool(test_parts)

    def run(self, inputs, tracer) -> Outcome:
        seed, train_w, test_w = inputs
        config = dataclasses.replace(bl.experiment_train_config(seed),
                                     max_epochs=self.epochs)
        mses, losses, diverged = {}, [], False
        for mode in bl.BASELINE_MODES:
            with tracer.span(f"baselines.fit_{mode}"):
                baseline, report = bl.fit_linear_baseline(
                    mode, train_w, None, None, self.channels,
                    bl.WINDOW_LOOKBACK, bl.WINDOW_HORIZON, config)
            with tracer.span("training.evaluate"):
                mses[mode], _ = training.evaluate(baseline, test_w)
            losses += [e.train_loss for e in report.epochs]
            diverged = diverged or report.diverged
        checks = {
            "not_diverged": not diverged,
            "finite_losses": _finite(*losses, *mses.values()),
            "cd_beats_ci": mses["cd"] < mses["ci"],
        }
        return Outcome(
            train_windows=train_w.count * self.epochs * len(mses),
            predict_windows=test_w.count * len(mses), test_mse=mses["cd"],
            fingerprint=(mses["ci"], mses["cd"], *losses), checks=checks,
            counts={"data.windows": train_w.count + test_w.count,
                    "model.flops_per_window": flops.baseline_window(
                        "cd", self.channels, bl.WINDOW_LOOKBACK,
                        bl.WINDOW_HORIZON)})


class RiskOracleWorkload:
    """Closed-form risk sequence plus its Monte-Carlo cross-check."""

    TRAIN_SPANS = ("varlab.bayes_risk_sequence",)
    PREDICT_SPANS = ("varlab.monte_carlo_risks",)

    def __init__(self, channels: int, target_radius: float, samples: int):
        self.channels = channels
        self.target_radius = target_radius
        self.samples = samples

    def setup(self, seed: int, tracer):
        with tracer.span("varlab.make_var_spec"):
            spec = make_var_spec("anti_self", self.channels, seed=seed,
                                 target_radius=self.target_radius)
        return seed, spec

    def run(self, inputs, tracer) -> Outcome:
        seed, spec = inputs
        with tracer.span("varlab.bayes_risk_sequence"):
            report = bayes_risk_sequence(spec)
        with tracer.span("varlab.monte_carlo_risks"):
            sampled = monte_carlo_risks(spec, self.samples, seed=seed)
        risks = report.risks
        mc = np.array([sampled[p] for p in range(1, spec.C + 1)])
        # closed-form round-off, relative to the scale of the risks
        slack = 1e-9 * report.var_y
        tolerance = MC_SIGMAS * np.sqrt(2.0 / self.samples) * risks
        checks = {
            "finite_risks": bool(np.all(np.isfinite(risks))
                                 and np.all(np.isfinite(mc))),
            "risks_non_increasing": bool(np.all(np.diff(risks) <= slack)),
            "ends_at_noise_floor": abs(risks[-1] - report.noise_floor) <= slack,
            "monte_carlo_agrees": bool(np.all(np.abs(mc - risks) <= tolerance)),
        }
        return Outcome(
            train_windows=spec.C, predict_windows=self.samples,
            test_mse=float(mc[-1]),
            fingerprint=(risks.tobytes(), mc.tobytes()), checks=checks)


def build(name: str, workdir: Path, smoke: bool = False):
    """The named workload at its benchmark size, or a seconds-long smoke
    size with the same code path."""
    if name == "forecaster_desk":
        if smoke:
            return ForecasterWorkload("var:anti_self:8:200", epochs=2,
                                      workdir=workdir, loss_must_fall=True,
                                      d=8, ratio=2, horizon=2)
        return ForecasterWorkload("var:anti_self:64:600", epochs=2,
                                  workdir=workdir, loss_must_fall=True)
    if name == "forecaster_wide":
        if smoke:
            return ForecasterWorkload("var:anti_self:16:200", epochs=1,
                                      workdir=workdir, train_prefix=8,
                                      test_prefix=8, checkpoint=False,
                                      d=32, ratio=4, horizon=2)
        return ForecasterWorkload("var:anti_self:256:600", epochs=1,
                                  workdir=workdir, train_prefix=32,
                                  test_prefix=16, checkpoint=False,
                                  d=512, ratio=16)
    if name == "synth_cell":
        if smoke:
            return SynthCellWorkload(channels=20, pooled=4, epochs=2)
        return SynthCellWorkload(channels=250, pooled=32, epochs=1)
    if name == "risk_oracle":
        if smoke:
            return RiskOracleWorkload(channels=8, target_radius=0.995,
                                      samples=2000)
        return RiskOracleWorkload(channels=128, target_radius=0.995,
                                  samples=20000)
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("forecaster_desk", "forecaster_wide", "synth_cell", "risk_oracle")
