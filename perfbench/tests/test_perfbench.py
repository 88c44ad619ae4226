"""Tests of the benchmark itself (not of the ucast package).

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import pickle
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import flops  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ucast.autodiff import Tape  # noqa: E402
from ucast.baselines import LinearBaseline  # noqa: E402
from ucast.model import Forecaster, UCastConfig  # noqa: E402
from ucast.rng import Stream  # noqa: E402
from ucast.training import batch_gradients  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_smoke(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc, time.monotonic() - started


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- BENCHMARK.json --------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for table, spec_rows in ((run.END_TO_END, SPEC["end_to_end"]),
                             (run.PER_LAYER, SPEC["per_layer"])):
        assert {r["name"]: (r["unit"], r["better"]) for r in spec_rows} == table
    names = [r["name"] for key in ("workloads", "end_to_end", "per_layer")
             for r in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(r["unit"])
               for r in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    bounds = {r["name"]: r["bound"] for r in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert all(b < bounds["setup_s"] for n, b in bounds.items()
               if n != "setup_s")


# -- runs of the command ---------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    names = None
    for seed in (1, 2):
        proc, seconds = _run_smoke(workload, seed, trace)
        result = _result(proc)
        assert seconds < 60
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {r["name"]: r["unit"] for r in table}
        if names is not None:
            assert list(result["metrics"]) == names
        names = list(result["metrics"])
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_exactly_for_a_seed():
    counts = ("autodiff.ops_per_step", "model.flops_per_window",
              "model.checkpoint_bytes", "data.windows")
    seen = []
    for _ in range(2):
        metrics = _result(_run_smoke("forecaster_desk", 3, 1)[0])["metrics"]
        seen.append({n: metrics[n]["value"] for n in counts})
    assert seen[0] == seen[1]
    assert all(v > 0 for v in seen[0].values())
    # a full batch of 32 windows at 65 primitives each (see the hand count)
    assert seen[0]["autodiff.ops_per_step"] == 32 * 65


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _ = _run_smoke("risk_oracle", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_inputs(workload, tmp_path):
    bench = workloads.build(workload, tmp_path, smoke=True)

    def inputs(seed):
        return pickle.dumps(bench.setup(seed, tracing.Tracer()))

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


# -- hand counts -----------------------------------------------------------


def _primitive_calls(fn) -> int:
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        fn()
    return tracer.primitive_calls


def _window(config: UCastConfig):
    stream = Stream(5, (1,))
    return (stream.normal_matrix(config.channels, config.lookback),
            stream.normal_matrix(config.channels, config.horizon))


@pytest.mark.parametrize("heads, expected", [
    # embed 1; per attention 3 projections + per head (3 slices, transpose,
    # scores, scale, softmax, weighted sum) + concat when heads > 1 + output
    # projection; encoder stages add layer norm, decoder stages the skip add;
    # f_pred 1; skip add, output product, de-normalization 3; loss sub,
    # square, mean 3; two cov penalties, their sum, scale, add 5
    (1, 1 + 2 * (12 + 1) + 1 + 2 * (12 + 1) + 3 + 3 + 5),
    (2, 1 + 2 * (21 + 1) + 1 + 2 * (21 + 1) + 3 + 3 + 5),
])
def test_forecaster_primitive_count(heads, expected):
    config = UCastConfig(channels=8, lookback=4, horizon=2, d=4, layers=2,
                         ratio=2, heads=heads)
    model = Forecaster(config)
    x, y = _window(config)

    def forward():
        tape = Tape()
        nodes = {k: tape.leaf(v, requires_grad=True)
                 for k, v in model.params.items()}
        tape.backward(model.build_loss(tape, nodes, x, y))

    assert _primitive_calls(forward) == expected


def test_ops_per_step_counts_every_window_of_a_batch():
    config = UCastConfig(channels=8, lookback=4, horizon=2, d=4, layers=2,
                         ratio=2)
    model = Forecaster(config)
    windows = [_window(config) for _ in range(3)]
    xs = np.stack([w[0] for w in windows])
    ys = np.stack([w[1] for w in windows])
    assert _primitive_calls(lambda: batch_gradients(model, xs, ys)) == 3 * 65


@pytest.mark.parametrize("mode, expected", [
    ("ci", 5),   # product, row bias, sub, square, mean
    ("cd", 7),   # plus mixing product and column bias
])
def test_baseline_primitive_count(mode, expected):
    baseline = LinearBaseline(mode, channels=3, lookback=4, horizon=2)
    stream = Stream(2, (3,))
    x, y = stream.normal_matrix(3, 4), stream.normal_matrix(3, 2)

    def forward():
        tape = Tape()
        nodes = {k: tape.leaf(v, requires_grad=True)
                 for k, v in baseline.params.items()}
        tape.backward(baseline.build_loss(tape, nodes, x, y))

    assert _primitive_calls(forward) == expected


def test_forecaster_flops_hand_count():
    # C=4, T=2, S=1, d=2, r=2, L=1: ladder 4 -> 2
    config = UCastConfig(channels=4, lookback=2, horizon=1, d=2, layers=1,
                         ratio=2)
    embed = 2 * 4 * 2 * 2 * 2                 # constant input: one gradient
    enc1 = 3 * 2 * (2 * 2 * 2                 # queries 2x2 @ W_q 2x2
                    + 2 * 4 * 2 * 2           # K and V, 4x2 @ 2x2
                    + 2 * 2 * 4               # scores 2x2 @ 2x4
                    + 2 * 4 * 2               # weights 2x4 @ V 4x2
                    + 2 * 2 * 2)              # output projection
    cov1 = (2 * 2 * 2 * 2 + 8 // 3) + (16 // 3 + 2 * 2 * 2 * 2)
    f_pred = 3 * 2 * 2 * 2 * 2
    dec1 = 3 * 2 * (4 * 2 * 2                 # queries are the 4 skip rows
                    + 2 * 2 * 2 * 2           # K and V from the 2 latent rows
                    + 4 * 2 * 2 + 4 * 2 * 2   # scores and weighted sum
                    + 4 * 2 * 2)
    out = 3 * 2 * 4 * 2 * 1
    assert flops.forecaster_stages(config) == {
        "embed": embed, "enc1": enc1, "cov1": cov1, "f_pred": f_pred,
        "dec1": dec1, "out": out}
    assert flops.forecaster_window(config) == 1159


def test_cov_penalty_flops_drop_without_alpha():
    config = UCastConfig(channels=4, lookback=2, horizon=1, d=2, layers=1,
                         ratio=2, alpha=0.0)
    assert "cov1" not in flops.forecaster_stages(config)


def test_baseline_flops_hand_count():
    # ci: 3x4 @ 4x2 on a constant input; cd adds 3x3 @ 3x2 with two gradients
    assert flops.baseline_window("ci", 3, 4, 2) == 2 * 3 * 4 * 2 * 2
    assert flops.baseline_window("cd", 3, 4, 2) == \
        2 * 3 * 4 * 2 * 2 + 2 * 3 * 3 * 2 * 3
