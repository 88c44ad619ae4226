"""End-to-end command line behavior, exit codes, and artifact determinism."""
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import MISSING, fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (JSON_SCALARS, REFUSED, read_as, rotation_spec,
                      signed_unstable_spec)
from ucast.cli import (DESK_DEFAULTS, EXIT_ASSERT_FAILED, EXIT_DIVERGED,
                       EXIT_MISSING_DATA, EXIT_OK, EXIT_USAGE, SETTINGS,
                       TABLE_DEFAULTS, main)
from ucast import analysis, baselines, cli, training
from ucast.errors import (DefinitenessError, NumericError, finite, integral,
                          text)
from ucast.model import (VARIANTS, Forecaster, UCastConfig, param_shapes,
                         save_checkpoint)
from ucast.rng import Stream
from ucast.training import TrainConfig
from ucast.varlab import (VarProcessSpec, bayes_risk_sequence,
                          make_var_spec, monte_carlo_risks)

TINY_TRAIN = ["--d", "8", "--ratio", "2", "--horizon", "2",
              "--max-epochs", "2", "--batch-size", "16", "--patience", "5"]


def assert_one_error_line(err: str, fragment: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert fragment in lines[0]


def read_bytes_map(out_dir, skip=("timing.json",)):
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name not in skip:
            files[str(path.relative_to(out_dir))] = path.read_bytes()
    return files


class Resolved(Exception):
    """Stops a run once its settings are resolved."""


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_run") / "run"
    argv = ["train", "--data", "var:independent:4:120", *TINY_TRAIN,
            "--out", str(out)]
    code = main(argv)
    return code, out, argv


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_train_requires_data(self, capsys):
        assert main(["train"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_choice_value(self, capsys):
        assert main(["synth", "--settings", "bogus"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("data", [
        "var:anti_self",             # missing channel count
        "var:anti_self:abc",         # non-numeric channels
        "var:anti_self:4:10:9",      # too many fields
        "var:unheard_of:4",          # unknown generator
    ])
    def test_var_spec_parse_errors(self, data, capsys):
        assert main(["train", "--data", data, *TINY_TRAIN]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_split(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"split": "a,b,c"}))
        for extra in (["--split", "0.8,0.2"], ["--split", "a,b,c"],
                      ["--config", str(cfg_file)]):
            code = main(["train", "--data", "var:independent:4:120",
                         *TINY_TRAIN, *extra])
            assert code == EXIT_USAGE, extra
            assert "--split" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["0.5,0.6,0.2", "-0.1,0.9,0.2",
                                       "nan,0.5,0.5"])
    def test_split_fractions_must_sum_to_one(self, split, capsys):
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     f"--split={split}"])
        assert code == EXIT_USAGE
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["1,0,0", "0.7,0.3,0", "0,0.5,0.5"])
    def test_split_needs_train_and_test(self, split, capsys):
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     f"--split={split}"])
        assert code == EXIT_USAGE
        assert_one_error_line(capsys.readouterr().err,
                              "nonzero train and test")

    def test_batch_out_of_memory_is_usage_error(self, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")
        monkeypatch.setattr(Forecaster, "build_loss", out_of_memory)
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "batch of 16 windows" in err and "--batch-size" in err

    def test_batch_out_of_memory_leaves_no_snapshot(self, tmp_path,
                                                    monkeypatch, capsys):
        # the epoch-0 export runs before the first batch; a refused run
        # writes no index, so the files it exported go again, and only those
        def out_of_memory(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")
        monkeypatch.setattr(training, "batch_gradients", out_of_memory)
        argv = ["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                "--snapshot-epochs", "0,final", "--out"]
        fresh = tmp_path / "fresh"
        assert main([*argv, str(fresh)]) == EXIT_USAGE
        assert not fresh.exists()
        kept = tmp_path / "kept"
        (kept / "snapshots").mkdir(parents=True)
        (kept / "snapshots" / "notes.txt").write_text("not written by train\n")
        assert main([*argv, str(kept)]) == EXIT_USAGE
        assert [str(path.relative_to(kept)) for path in kept.rglob("*")] == [
            "snapshots", str(Path("snapshots", "notes.txt"))]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(
            "a batch of 16 windows does not fit in memory" in line
            for line in err)

    @pytest.mark.parametrize("name", ["make_var_spec", "simulate"])
    def test_var_data_out_of_memory_is_usage_error(self, name, monkeypatch,
                                                   capsys):
        # nothing of that size is allocated: the generator steps are
        # replaced, the one before `name` by a stand-in spec
        def out_of_memory(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")
        monkeypatch.setattr(cli, "make_var_spec",
                            out_of_memory if name == "make_var_spec"
                            else lambda *args, **kwargs: None)
        monkeypatch.setattr(cli, "simulate", out_of_memory)
        code = main(["train", "--data", "var:anti_self:100000:5000",
                     *TINY_TRAIN])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "100000 channels over 5000 steps")

    @pytest.mark.parametrize("argv, target", [
        (["train", "--data", "var:independent:4:120", *TINY_TRAIN],
         (cli, "Forecaster")),
        (["ablate", "--data", "var:independent:4:120", *TINY_TRAIN],
         (cli, "Forecaster")),
        (["bench", "--channels", "8", "--d", "8", "--repeats", "1"],
         (analysis, "bench_attention"))], ids=["train", "ablate", "bench"])
    def test_out_of_memory_is_usage_error(self, argv, target, monkeypatch,
                                          capsys):
        # numpy's refusal is raised by a stand-in, so nothing is allocated
        refusal = ("Unable to allocate 238. GiB for an array with shape "
                   "(1000000000, 32) and data type float64")

        def out_of_memory(*args, **kwargs):
            raise MemoryError(refusal)
        monkeypatch.setattr(*target, out_of_memory)
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, f"{argv[0]}: out of memory")
        assert refusal in captured.err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_model_out_of_memory_names_d(self, command, monkeypatch, capsys):
        # numpy's refusal is raised by a stand-in, so nothing is allocated
        def out_of_memory(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")
        monkeypatch.setattr(Stream, "normal_matrix", out_of_memory)
        code = main([command, "--data", "var:independent:4:120", *TINY_TRAIN])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        shapes = param_shapes(UCastConfig(channels=4, lookback=8, horizon=2,
                                          d=8, ratio=2))
        count = sum(math.prod(shape) for shape in shapes.values())
        assert_one_error_line(
            captured.err, f"d=8: the model's {count:,} parameters do not fit "
            "in memory; use a smaller d")

    @pytest.mark.parametrize("layers", [5, 10**9])
    def test_layers_beyond_channels(self, layers, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"layers": layers}))
        for extra in (["--layers", str(layers)], ["--config", str(cfg_file)]):
            code = main(["train", "--data", "var:independent:4:120",
                         *TINY_TRAIN, *extra])
            assert code == EXIT_USAGE, extra
            assert f"layers={layers} exceeds channels=4" in capsys.readouterr().err

    def test_bad_snapshot_epoch(self, capsys):
        code = main(["train", "--data", "var:independent:4:120",
                     *TINY_TRAIN, "--snapshot-epochs", "zero"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("epochs", ["-3,final", "0,3", "1.5"])
    def test_unreachable_snapshot_epoch(self, epochs, tmp_path, monkeypatch,
                                        capsys):
        # TINY_TRAIN runs epochs 0..2; the list is read before any data
        def unbuilt(*args):
            raise AssertionError("data built before the epoch list was read")
        monkeypatch.setattr(cli, "resolve_data", unbuilt)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"snapshot_epochs": epochs}))
        for extra in ([f"--snapshot-epochs={epochs}"],
                      ["--config", str(cfg_file)]):
            out = tmp_path / "run"
            code = main(["train", "--data", "var:anti_self:8:200",
                         *TINY_TRAIN, *extra, "--out", str(out)])
            assert code == EXIT_USAGE, extra
            assert_one_error_line(capsys.readouterr().err, "snapshot epoch")
            assert not out.exists()

    def test_max_epochs_checked_before_snapshot_epochs(self, capsys):
        code = main(["train", "--data", "var:anti_self:8:200", *TINY_TRAIN,
                     "--max-epochs", "0", "--snapshot-epochs", "1"])
        assert code == EXIT_USAGE
        assert_one_error_line(capsys.readouterr().err,
                              "max_epochs must be positive")

    @pytest.mark.parametrize("argv", [
        ["synth"],
        ["risk", "--structure", "anti_self", "--channels", "2"],
        ["eval", "--checkpoint", "ckpt", "--data", "var:independent:4:120"],
        ["bench", "--channels", "8"],
    ], ids=["synth", "risk", "eval", "bench"])
    def test_config_only_where_read(self, argv, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("{}")
        assert main([*argv, "--config", str(cfg_file)]) == EXIT_USAGE
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "var:anti_self:8:200", "--d", "8", "--ratio", "2",
         "--horizon", "2", "--max-epochs", "1", "--seed", "-1"],
        ["synth", "--structure", "anti_self", "--channels", "4",
         "--pooled", "1", "--seed", "-3"],
        ["risk", "--structure", "anti_self", "--channels", "4",
         "--seed", "-1", "--mc", "10"],
        ["risk", "--structure", "anti_self", "--channels", "4",
         "--seed", "-1"],
        ["eval", "--checkpoint", "absent", "--data", "var:anti_self:4:120",
         "--seed", "-1"],
        ["bench", "--channels", "8", "--seed", "-1"],
    ], ids=["train", "synth", "risk-mc", "risk", "eval", "bench"])
    def test_negative_seed_exits_64(self, argv, tmp_path):
        # refused before any command begins, so no --out is created, even
        # where nothing would be drawn
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "ucast", *argv, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert_one_error_line(proc.stderr, "seed must be >= 0, got -")
        assert not out.exists()

    @pytest.mark.parametrize("argv, code, fragment", [
        (["synth", "--structure", "anti_self", "--channels", "4",
          "--pooled", "0"], EXIT_USAGE,
         "pooled sequences must be >= 1, got 0"),
        (["synth", "--structure", "nope", "--channels", "4"], EXIT_USAGE,
         "unknown structure 'nope'"),
        (["bench", "--channels", "8", "--heads", "3", "--d", "32"],
         EXIT_USAGE, "d=32 must be divisible by heads=3"),
        (["train", "--data", "var:anti_self:4:120", "--split", "0.5,0.5"],
         EXIT_USAGE, "--split needs three fractions, got '0.5,0.5'"),
        (["sweep", "--data", "var:anti_self:4:120", "--param", "alpha",
          "--split", "0.5,0.6,0.2"], EXIT_USAGE, "sum to 1"),
        (["risk", "--structure", "anti_self", "--channels", "4",
          "--target-radius", "1.5"], EXIT_USAGE, "spectral radius < 1"),
        (["train", "--data", "var:anti_self:8:120", "--d", "8", "--heads",
          "3"], EXIT_USAGE, "d=8 must be divisible by heads=3"),
        (["train", "--data", "var:nope:8:120"], EXIT_USAGE,
         "unknown structure 'nope'"),
        (["train", "--data", "var:anti_self:8:5"], EXIT_USAGE,
         "5 steps, need at least 11"),
        (["sweep", "--data", "var:anti_self:8:120", "--param", "ratio",
          "--values", "0"], EXIT_USAGE, "ratio must be >= 1, got 0"),
        (["ablate", "--data", "var:anti_self:8:120", "--layers", "50"],
         EXIT_USAGE, "layers=50 exceeds channels=8"),
        (["train", "--data", "var:anti_self:8:120", "--lookback", "200"],
         EXIT_MISSING_DATA, "too short to build a 208-row window"),
        (["train", "--data", "missing.csv"], EXIT_MISSING_DATA,
         "missing.csv: No such file or directory"),
        (["risk", "--structure", "anti_self", "--channels", "4", "--out", ""],
         EXIT_USAGE, "--out must name a directory, got ''"),
        (["train", "--data", "var:anti_self:8:120", "--force", "--out", ""],
         EXIT_USAGE, "--out must name a directory, got ''"),
    ], ids=["synth-pooled", "synth-structure", "bench", "train", "sweep",
            "risk-radius", "train-heads", "train-structure",
            "train-steps", "sweep-values", "ablate-layers", "train-lookback",
            "train-missing-csv", "risk-empty-out", "train-force-empty-out"])
    def test_refused_parameter_leaves_no_run_directory(self, argv, code,
                                                       fragment, tmp_path):
        # main makes --out before the command starts and removes it again
        # when the command ends without writing into it; a case's own --out
        # comes last and wins, and the command runs in tmp_path, so an --out
        # naming the working directory would write there
        src = Path(cli.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "ucast", argv[0], "--out",
             str(tmp_path / "run"), *argv[1:]], capture_output=True,
            text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == code
        assert proc.stdout == ""
        assert_one_error_line(proc.stderr, fragment)
        assert list(tmp_path.iterdir()) == []

    def test_refusal_removes_only_the_directories_it_made(self, tmp_path,
                                                          capsys):
        refused = ["train", "--data", str(tmp_path / "absent.csv")]
        assert main([*refused, "--out", str(tmp_path / "a/b/c")]) == (
            EXIT_MISSING_DATA)
        assert not (tmp_path / "a").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        # x/../kept names kept only once x is made: x goes, kept stays
        for out in (kept, kept / "x" / "y", tmp_path / "x" / ".." / "kept"):
            assert main([*refused, "--out", str(out)]) == EXIT_MISSING_DATA
            assert list(tmp_path.iterdir()) == [kept]
            assert list(kept.iterdir()) == []
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
    @pytest.mark.parametrize("flags, name", [
        (["--lookback", "0"], "lookback"),
        (["--lookback", "8", "--horizon", "0"], "horizon")])
    def test_zero_window_length_is_usage_error(self, command, flags, name,
                                               capsys):
        # the model config refuses it before any window is cut
        extra = ["--param", "alpha"] if command == "sweep" else []
        code = main([command, "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     *extra, *flags])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, f"{name} must be >= 1, got 0")

    @pytest.mark.parametrize("command, flag", [
        ("ablate", "--variant=no_cov"), ("ablate", "--snapshot-epochs=0"),
        ("sweep", "--snapshot-epochs=0")])
    def test_setting_flag_only_where_read(self, command, flag, capsys):
        extra = ["--param", "alpha"] if command == "sweep" else []
        code = main([command, "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     *extra, flag])
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


# refusals that need no series: (flags, error line) for each fitting
# command, on var:anti_self:8:120 at TINY_TRAIN
FIT_REFUSALS = {
    "heads": (["--d", "8", "--heads", "3"],
              "d=8 must be divisible by heads=3"),
    "lookback": (["--lookback", "0"], "lookback must be >= 1, got 0"),
    "horizon": (["--lookback", "8", "--horizon", "0"],
                "horizon must be >= 1, got 0"),
    "ratio": (["--ratio", "0"], "ratio must be >= 1, got 0"),
    "layers": (["--layers", "9"], "layers=9 exceeds channels=8"),
}
# the same for every command that reads --split and --data, eval included
SOURCE_REFUSALS = {
    "split-sum": (["--split", "0.5,0.6,0.2"],
                  "ratios must be non-negative with nonzero train and test, "
                  "and sum to 1, got (0.5, 0.6, 0.2)"),
    "split-count": (["--split", "0.8,0.2"],
                    "--split needs three fractions, got '0.8,0.2'"),
    "structure": (["--data", "var:nope:8:120"], "unknown structure 'nope'"),
    "one-channel": (["--data", "var:anti_self:1:120"],
                    "C must be >= 2, got 1"),
    "burn-in": (["--data", "var:anti_self:8:10"],
                "--data var:anti_self:8:10: 10 steps, need at least 11 to "
                "outlast the 10-step burn-in"),
}
REFUSED_BEFORE_DATA = {
    **{f"{command}-{name}": (command, flags, line)
       for command in ("train", "ablate", "sweep")
       for name, (flags, line) in FIT_REFUSALS.items()},
    **{f"{command}-{name}": (command, flags, line)
       for command in ("train", "ablate", "sweep", "eval")
       for name, (flags, line) in SOURCE_REFUSALS.items()},
    "train-snapshot-epoch": (
        "train", ["--snapshot-epochs", "0,3"],
        "snapshot epoch 3 outside 0..2: no run with max_epochs=2 reaches it"),
    "train-csv-layers": ("train", ["--data", "{csv}", "--layers", "5"],
                         "layers=5 exceeds channels=4"),
    "sweep-ratio-value": ("sweep", ["--param", "ratio", "--values", "2,0"],
                          "ratio must be >= 1, got 0"),
    "sweep-layers-value": ("sweep", ["--param", "layers", "--values", "1,9"],
                           "layers=9 exceeds channels=8"),
    "sweep-alpha-value": ("sweep", ["--param", "alpha", "--values", "0,inf"],
                          "alpha must be finite and >= 0, got inf"),
    "sweep-values-list": ("sweep", ["--param", "ratio", "--values", "2,x"],
                          "bad --values list '2,x'"),
    "eval-channels": ("eval", ["--data", "var:anti_self:6:120"],
                      "checkpoint expects 8 channels, dataset has 6"),
    "eval-csv-channels": ("eval", ["--data", "{csv}"],
                          "checkpoint expects 8 channels, dataset has 4"),
}


class TestRefusedBeforeData:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("before_data")
        cfg = UCastConfig(channels=8, lookback=8, horizon=2, d=8, ratio=2)
        save_checkpoint(root / "ckpt", Forecaster(cfg).params, cfg)
        write_series_csv(root / "series.csv")          # four channels
        return root

    @pytest.mark.parametrize("case", REFUSED_BEFORE_DATA)
    def test_refused_before_any_series(self, case, paths, monkeypatch,
                                       capsys):
        # the run plan refuses it with the exit code and the error line it
        # had when the series came first, and no series is built
        def unbuilt(*args):
            raise AssertionError("a series was built before the refusal")

        monkeypatch.setattr(cli, "resolve_data", unbuilt)
        command, flags, line = REFUSED_BEFORE_DATA[case]
        if command == "eval":
            argv = ["eval", "--checkpoint", str(paths / "ckpt"),
                    "--data", "var:anti_self:8:120"]
        else:
            argv = [command, "--data", "var:anti_self:8:120", *TINY_TRAIN]
            if command == "sweep":
                argv += ["--param", "alpha"]
        code = main([*argv, *(flag.format(csv=paths / "series.csv")
                              for flag in flags)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            EXIT_USAGE, "", f"error: {line}\n")


class TestMissingData:
    def test_missing_csv(self, capsys):
        code = main(["train", "--data", "/no/such/file.csv", *TINY_TRAIN])
        assert code == EXIT_MISSING_DATA
        capsys.readouterr()

    def test_missing_checkpoint(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope"),
                     "--data", "var:independent:4:120"])
        assert code == EXIT_MISSING_DATA
        capsys.readouterr()

    def test_series_too_short_for_windows(self, capsys):
        # thirty steps leave a 3-row val segment, below lookback + horizon
        code = main(["train", "--data", "var:independent:4:30", *TINY_TRAIN])
        assert code == EXIT_MISSING_DATA
        assert "too short" in capsys.readouterr().err

    def test_steps_not_beyond_burn_in(self, capsys):
        # generated series must outlast the discarded warm-up prefix
        code = main(["train", "--data", "var:independent:4:10", *TINY_TRAIN])
        assert code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("data", [["var:anti_self:8:5"],
                                      ["var:anti_self:8", "--steps", "10"]])
    def test_steps_minimum_named(self, data, capsys):
        code = main(["train", "--data", *data, *TINY_TRAIN])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert_one_error_line(err, f"--data {data[0]}:")
        assert "at least 11" in err and "burn_in" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_MISSING_DATA
        capsys.readouterr()

    def test_data_directory(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path), *TINY_TRAIN])
        assert code == EXIT_MISSING_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {tmp_path}: ")

    def test_unreadable_data_file(self, tmp_path, capsys, monkeypatch):
        # file modes do not bind every user (root reads anything), so the
        # refusal comes from a patched open
        data = tmp_path / "series.csv"
        write_series_csv(data)
        real_open = Path.open

        def deny(path, *args, **kwargs):
            if path == data:
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", deny)
        code = main(["train", "--data", str(data), *TINY_TRAIN])
        assert code == EXIT_MISSING_DATA
        assert capsys.readouterr().err == (
            f"error: {data}: Permission denied\n")


VAR_DATA = ["--data", "var:independent:4:120"]
RISK_CELL = ["risk", "--structure", "anti_self", "--channels", "4"]

# each refused file operation: the argv, with {missing}, {dir}, {file} and
# {ckpt} (a checkpoint whose manifest.json is a directory) standing for
# paths, and the path its error line must name
FILE_ERRORS = {
    "data-missing": (["train", "--data", "{missing}", *TINY_TRAIN],
                     "{missing}"),
    "data-directory": (["train", "--data", "{dir}", *TINY_TRAIN], "{dir}"),
    "config-missing": (["train", *VAR_DATA, *TINY_TRAIN,
                        "--config", "{missing}"], "{missing}"),
    "config-directory": (["train", *VAR_DATA, *TINY_TRAIN,
                          "--config", "{dir}"], "{dir}"),
    "spec-file-missing": (["risk", "--spec-file", "{missing}"], "{missing}"),
    "spec-file-directory": (["risk", "--spec-file", "{dir}"], "{dir}"),
    "checkpoint-missing": (["eval", "--checkpoint", "{missing}", *VAR_DATA],
                           "{missing}/manifest.json"),
    "checkpoint-file": (["eval", "--checkpoint", "{file}", *VAR_DATA],
                        "{file}/manifest.json"),
    "checkpoint-manifest-directory": (
        ["eval", "--checkpoint", "{ckpt}", *VAR_DATA],
        "{ckpt}/manifest.json"),
    **{f"{name}-out-{kind}": ([*argv, "--out", out], out)
       for name, argv in (("train", ["train", *VAR_DATA, *TINY_TRAIN]),
                          ("risk", RISK_CELL), ("synth", ["synth"]))
       for kind, out in (("file", "{file}"), ("under-file", "{file}/sub"))},
}

# each command's argv and the first piece of work that follows its --out
# check, as (module, attribute) to patch
WORK_AFTER_OUT = {
    "synth": (["synth"], cli.bl, "run_ci_cd_experiment"),
    "risk": (RISK_CELL, cli, "bayes_risk_sequence"),
    "bench": (["bench", "--channels", "8"], analysis, "bench_attention"),
    "eval": (["eval", *VAR_DATA], cli, "resolve_data"),
    "train": (["train", *VAR_DATA, *TINY_TRAIN], cli, "resolve_data"),
    "ablate": (["ablate", *VAR_DATA, *TINY_TRAIN], cli, "resolve_data"),
    "sweep": (["sweep", *VAR_DATA, *TINY_TRAIN, "--param", "alpha"], cli,
              "resolve_data"),
}


class TestFileErrors:
    @pytest.mark.parametrize("case", FILE_ERRORS)
    def test_refused_file_is_one_line(self, case, tmp_path, capsys):
        paths = {"missing": tmp_path / "absent", "dir": tmp_path / "dir",
                 "file": tmp_path / "plain", "ckpt": tmp_path / "ckpt"}
        paths["dir"].mkdir()
        paths["file"].write_text("")
        (paths["ckpt"] / "manifest.json").mkdir(parents=True)
        argv, named = FILE_ERRORS[case]
        code = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == EXIT_MISSING_DATA, captured.err
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"error: {named.format(**paths)}: ")

    @pytest.mark.parametrize("command", WORK_AFTER_OUT)
    def test_out_checked_before_work(self, command, tmp_path, capsys,
                                     monkeypatch):
        argv, module, work = WORK_AFTER_OUT[command]

        def reached(*args, **kwargs):
            raise AssertionError(f"{command} began {work} before --out")

        monkeypatch.setattr(module, work, reached)
        if command == "eval":
            cfg = UCastConfig(channels=4, lookback=8, horizon=2, d=8, ratio=2)
            save_checkpoint(tmp_path / "ckpt", Forecaster(cfg).params, cfg)
            argv = [*argv, "--checkpoint", str(tmp_path / "ckpt")]
        occupied, plain = tmp_path / "run", tmp_path / "plain"
        occupied.mkdir()
        (occupied / "config.json").write_text("{}")
        plain.write_text("")
        assert main([*argv, "--out", str(occupied)]) == EXIT_USAGE
        assert "already holds a run" in capsys.readouterr().err
        assert main([*argv, "--out", str(plain)]) == EXIT_MISSING_DATA
        assert capsys.readouterr().err == f"error: {plain}: File exists\n"


def write_series_csv(path, steps=120):
    """A time-major CSV with a header row and one empty cell."""
    rows = [["a", "b", "c", "d"]]
    for t in range(steps):
        rows.append([f"{np.sin(0.3 * t + c) + 0.01 * t:.6f}" for c in range(4)])
    rows[18][1] = ""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestCsvData:
    def test_train_and_eval_rerun_identical(self, tmp_path, capsys):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        runs = []
        for name in ("a", "b"):
            out, evaluated = tmp_path / name, tmp_path / f"eval_{name}"
            assert main(["train", "--data", str(data), *TINY_TRAIN,
                         "--out", str(out)]) == EXIT_OK
            # eval's config.json names its checkpoint, so both evals read a's
            assert main(["eval", "--checkpoint", str(tmp_path / "a" / "checkpoint"),
                         "--data", str(data), "--out", str(evaluated)]) == EXIT_OK
            runs.append((read_bytes_map(out), read_bytes_map(evaluated),
                         capsys.readouterr().out))
        assert runs[0] == runs[1]
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        evaluated = json.loads((tmp_path / "eval_a" / "report.json").read_text())
        assert evaluated["test_mse"] == report["test_mse"]
        assert json.loads((tmp_path / "a" / "config.json").read_text())[
            "data"] == str(data)

    def test_input_sha1_is_git_blob_hash(self, tmp_path, capsys):
        data = tmp_path / "series.csv"
        write_series_csv(data)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), *TINY_TRAIN,
                     "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        blob = data.read_bytes()
        stored = json.loads((out / "config.json").read_text())
        assert stored["input_sha1"] == hashlib.sha1(
            b"blob %d\0" % len(blob) + blob).hexdigest()

    def test_blob_sha1_spans_chunks(self):
        # larger than one read, and not a whole number of reads
        blob = np.random.default_rng(0).bytes(5 * 2**19 + 3)
        assert cli.blob_sha1(io.BytesIO(blob)) == hashlib.sha1(
            b"blob %d\0" % len(blob) + blob).hexdigest()

    @pytest.mark.parametrize("blob", [
        b"a\n1,2\n3,4\n",                                     # short header
        b"a,b\n1,\xff\n2,3\n",                                 # not UTF-8
        b"a,b\n1," + b"9" * (csv.field_size_limit() + 1) + b"\n",  # long field
    ])
    def test_malformed_csv_is_usage_error(self, tmp_path, capsys, blob):
        data = tmp_path / "bad.csv"
        data.write_bytes(blob)
        code = main(["train", "--data", str(data), *TINY_TRAIN])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {data}")

    def test_csv_rewritten_after_its_first_rows_is_missing_data(
            self, tmp_path, monkeypatch, capsys):
        # the plan counts a CSV's channels from its first rows; a series
        # that then loads at another width is refused, not trained
        data = tmp_path / "series.csv"
        write_series_csv(data)
        monkeypatch.setattr(cli, "csv_channels", lambda path: 5)
        code = main(["train", "--data", str(data), *TINY_TRAIN])
        assert code == EXIT_MISSING_DATA
        assert capsys.readouterr().err == (
            f"error: {data}: changed while it was read\n")

    def test_channel_without_finite_values_is_missing_data(self, tmp_path,
                                                          capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,nan\n2,\n")
        code = main(["train", "--data", str(data), *TINY_TRAIN])
        assert code == EXIT_MISSING_DATA
        assert capsys.readouterr().err == (
            f"error: {data}: channel 'b' has no finite values\n")


def config_values(name: str):
    """What a config file may hold for a setting: mostly values its reader
    and the run plan accept, else a JSON scalar, a short list or a number
    out of range."""
    good = {
        "variant": st.sampled_from(VARIANTS),
        "split": st.sampled_from(["0.7,0.1,0.2", "0.6,0,0.4"]),
        "snapshot_epochs": st.sampled_from(["", "0,final", " 1 "]),
        "steps": st.sampled_from([20, 400.0]),
        integral: st.sampled_from([1, 2, 4, 8, 8.0]),
        finite: st.floats(1e-3, 2.0) | st.integers(1, 3),
    }
    good = good[name if name in good else SETTINGS[name][1]]
    return st.one_of(*[good] * 8, JSON_SCALARS, st.integers(-2, 0),
                     st.lists(JSON_SCALARS, max_size=2))


# whole config files over every setting's key, a few keys each
CONFIG_FILES = st.lists(
    st.sampled_from(list(SETTINGS)), max_size=5, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries(
            {key: config_values(key) for key in keys}))


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lr": 0.005, "max_epochs": 1,
                                        "d": 8, "ratio": 2, "horizon": 2,
                                        "batch_size": 16}))
        out = tmp_path / "run"
        code = main(["train", "--data", "var:independent:4:120",
                     "--config", str(cfg_file), "--max-epochs", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        stored = json.loads((out / "config.json").read_text())
        assert stored["lr"] == 0.005            # from file
        assert stored["max_epochs"] == 2        # flag wins over file
        assert stored["patience"] == TABLE_DEFAULTS["patience"]  # default
        capsys.readouterr()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"learning_rate": 0.005}))
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--config", str(cfg_file)])
        assert code == EXIT_USAGE
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("ablate", "variant", "no_cov"), ("ablate", "snapshot_epochs", "0"),
        ("sweep", "snapshot_epochs", "0")])
    def test_config_key_only_where_read(self, command, key, value, tmp_path,
                                        capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        extra = ["--param", "alpha"] if command == "sweep" else []
        code = main([command, "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     *extra, "--config", str(cfg_file)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"unknown config keys for {command}: ['{key}']" in err

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["train", "ablate", "sweep"]),
           key=st.sampled_from([*SETTINGS, "learning_rate"]),
           value=JSON_SCALARS)
    def test_any_config_scalar_is_read_or_refused(self, config_file, command,
                                                  key, value):
        # the run stops once every setting has been read, before the model
        # config's own rules see them
        config_file.write_text(json.dumps({key: value}))
        argv = [command, "--data", "var:independent:4:120",
                "--config", str(config_file)]
        if command == "sweep":
            argv += ["--param", "alpha"]
        seen, err = {}, io.StringIO()
        resolve = cli._resolve

        def stop(args, defaults):
            seen.update(resolve(args, defaults))
            raise Resolved

        with mock.patch.object(cli, "_resolve", stop), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Resolved:
                code = None
        if key not in SETTINGS or command not in SETTINGS[key][2]:
            assert code == EXIT_USAGE
            assert "unknown config keys" in err.getvalue()
            return
        kind = {integral: "int", finite: "float", text: "str"}[SETTINGS[key][1]]
        expected = read_as(kind, value)
        if key == "lookback" and value is None:
            expected = 4 * seen["horizon"]
        if expected is REFUSED:
            assert code == EXIT_USAGE
            assert f"config value {key}" in err.getvalue()
        else:
            assert code is None, err.getvalue()
            assert seen[key] == expected and type(seen[key]) is type(expected)

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["train", "ablate", "sweep"]),
           loaded=CONFIG_FILES)
    def test_any_config_file_is_planned_or_refused(self, config_file,
                                                   command, loaded):
        # a whole file either exits 64 with one error line or passes every
        # check of the run plan, which then holds each value as its reader
        # reads it; the series is never built
        config_file.write_text(json.dumps(loaded))
        argv = [command, "--data", "var:anti_self:8", "--config",
                str(config_file)]
        if command == "sweep":
            argv += ["--param", "alpha"]
        plans, out, err = [], io.StringIO(), io.StringIO()
        plan_run = cli.plan_run

        def planned(args):
            plans.append(plan_run(args))
            return plans[-1]

        def unbuilt(*args):
            raise Resolved

        with mock.patch.object(cli, "plan_run", planned), \
                mock.patch.object(cli, "resolve_data", unbuilt), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Resolved:
                code = None
        if code is not None:
            assert code == EXIT_USAGE and out.getvalue() == ""
            assert_one_error_line(err.getvalue(), "")
            return
        assert set(loaded) <= {name for name, (_, _, commands)
                               in SETTINGS.items() if command in commands}
        settings = plans[0].settings
        for key, value in loaded.items():
            kind = {integral: "int", finite: "float",
                    text: "str"}[SETTINGS[key][1]]
            expected = read_as(kind, value)
            if key == "lookback" and value is None:
                expected = 4 * settings["horizon"]
            assert expected is not REFUSED, (key, value)
            assert settings[key] == expected
            assert type(settings[key]) is type(expected)

    def test_config_file_must_be_json(self, tmp_path, capsys):
        # not JSON, not UTF-8, an integer too long for Python to convert,
        # nesting beyond the decoder's recursion limit, not an object, then
        # values of the wrong type
        cfg_file = tmp_path / "cfg.json"
        for data in (b"lr: 0.005", b"\xff\xfe{}",
                     b'{"d": ' + b"9" * 5000 + b"}",
                     b"[" * 100_000 + b"]" * 100_000, b"null",
                     b'{"clip_norm": null}', b'{"lr": "fast"}',
                     b'{"heads": "two"}'):
            cfg_file.write_bytes(data)
            code = main(["train", "--data", "var:independent:4:120",
                         *TINY_TRAIN, "--config", str(cfg_file)])
            assert code == EXIT_USAGE, data[:20]
            capsys.readouterr()

    @pytest.mark.parametrize("key, value", [("d", 8.7), ("heads", True)])
    def test_integer_keys_refuse_non_integers(self, key, value, tmp_path,
                                              capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"d": 8, "ratio": 2, "horizon": 2,
                                        "max_epochs": 1, key: value}))
        code = main(["train", "--data", "var:independent:4:120",
                     "--config", str(cfg_file)])
        assert code == EXIT_USAGE
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"lr": true}', '{"alpha": "0.5"}', '{"clip_norm": NaN}',
        '{"lr": NaN}', '{"eps_cov": Infinity}', '{"alpha": -Infinity}'])
    def test_float_keys_refuse_non_finite_and_non_numbers(self, text,
                                                          tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        out = tmp_path / "run"
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_USAGE
        assert "must be a finite number" in capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "inf"), ("--lr", "nan"), ("--eps-cov", "inf"),
        ("--clip-norm", "nan")])
    def test_float_flags_refuse_non_finite(self, flag, value, capsys):
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     flag, value])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_integral_float_reads_as_integer(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"d": 8, "ratio": 2.0, "horizon": 2,
                                        "max_epochs": 1, "batch_size": 16}))
        out = tmp_path / "run"
        code = main(["train", "--data", "var:independent:4:120",
                     "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_OK
        stored = json.loads((out / "config.json").read_text())
        assert stored["ratio"] == 2 and isinstance(stored["ratio"], int)
        capsys.readouterr()

    def test_lookback_defaults_to_four_horizons(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--out", str(out)])
        assert code == EXIT_OK
        stored = json.loads((out / "config.json").read_text())
        assert stored["lookback"] == 4 * stored["horizon"] == 8
        capsys.readouterr()


class TestTrainArtifacts:
    def test_exit_and_files(self, train_run, capsys):
        code, out, _ = train_run
        assert code == EXIT_OK
        for name in ("config.json", "report.json", "train_log.jsonl",
                     "timing.json"):
            assert (out / name).exists(), name
        assert (out / "checkpoint" / "manifest.json").exists()
        capsys.readouterr()

    def test_report_and_log_agree(self, train_run):
        _, out, _ = train_run
        report = json.loads((out / "report.json").read_text())
        rows = [json.loads(line)
                for line in (out / "train_log.jsonl").read_text().splitlines()]
        assert len(rows) == report["epochs_run"]
        assert rows[-1]["epoch"] == report["epochs_run"]
        assert report["test_mse"] > 0.0

    def test_provenance_recorded(self, train_run):
        _, out, _ = train_run
        stored = json.loads((out / "config.json").read_text())
        assert stored["data"] == "var:independent:4:120"
        assert len(stored["input_sha1"]) == 40

    def test_rerun_refused_without_force(self, train_run, capsys):
        _, out, argv = train_run
        assert main(argv) == EXIT_USAGE
        assert "already holds a run" in capsys.readouterr().err

    def test_force_rerun_drops_the_earlier_checkpoint_and_snapshots(
            self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                "--out", str(out), "--force"]
        assert main([*argv, "--snapshot-epochs", "0,1,final"]) == EXIT_OK
        finished = read_bytes_map(out, skip=())
        # refused before any data is built, and once the windows are cut:
        # the earlier run keeps every byte
        assert main([*argv, "--heads", "3"]) == EXIT_USAGE
        assert main([*argv, "--lookback", "200"]) == EXIT_MISSING_DATA
        assert read_bytes_map(out, skip=()) == finished
        # a rerun that diverges leaves no checkpoint or snapshot that its
        # config.json does not describe
        assert main([*argv, "--lr", "1e9", "--clip-norm", "1e12"]) == (
            EXIT_DIVERGED)
        assert not (out / "checkpoint").exists()
        assert not (out / "snapshots").exists()
        capsys.readouterr()

    def test_force_rerun_failing_at_its_first_step_leaves_only_its_records(
            self, tmp_path, monkeypatch, capsys):
        # once its plan has passed, a --force rerun removes every file train
        # writes and nothing else, so a rerun that fails at its first step
        # leaves its own four records and none of the earlier run's
        out = tmp_path / "run"
        argv = ["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                "--out", str(out), "--force"]
        assert main([*argv, "--snapshot-epochs", "0,final"]) == EXIT_OK
        assert {path.name for path in out.iterdir()} == {
            "config.json", "report.json", "train_log.jsonl", "timing.json",
            "checkpoint", "snapshots"}
        (out / "notes.txt").write_text("not written by train\n")

        def failing(*args):
            raise NumericError("non-finite loss")

        monkeypatch.setattr(training, "batch_gradients", failing)
        assert main(argv) == EXIT_DIVERGED
        assert {path.name for path in out.iterdir()} == {
            "config.json", "report.json", "train_log.jsonl", "timing.json",
            "notes.txt"}
        assert json.loads((out / "config.json").read_text())[
            "snapshot_epochs"] == ""
        assert json.loads((out / "report.json").read_text()) == {
            "epochs_run": 1, "best_epoch": 0, "test_mse": None,
            "test_mae": None, "diverged": True,
            "divergence_note": "numeric failure at epoch 1: non-finite loss"}
        assert (out / "train_log.jsonl").read_text() == ""
        capsys.readouterr()

    def test_eval_reproduces_test_mse(self, train_run, tmp_path, capsys):
        _, out, _ = train_run
        report = json.loads((out / "report.json").read_text())
        code = main(["eval", "--checkpoint", str(out / "checkpoint"),
                     "--data", "var:independent:4:120",
                     "--out", str(tmp_path / "eval_run")])
        assert code == EXIT_OK
        evaluated = json.loads(
            (tmp_path / "eval_run" / "report.json").read_text())
        assert evaluated["test_mse"] == report["test_mse"]
        capsys.readouterr()

    def test_eval_windows_only_the_test_segment(self, train_run, tmp_path,
                                                monkeypatch, capsys):
        # one sliding_windows call, and the numbers of evaluating the test
        # windows of the full three-segment split
        _, out, _ = train_run
        data = "var:independent:4:120"
        params, ucfg = cli.load_checkpoint(out / "checkpoint")
        ds, _ = cli.resolve_data(data, TABLE_DEFAULTS["steps"], 0)
        cfg = {"split": TABLE_DEFAULTS["split"], "lookback": ucfg.lookback,
               "horizon": ucfg.horizon}
        mse, mae = training.evaluate(Forecaster(ucfg, params),
                                     cli.windows_from_dataset(ds, cfg)[2])
        windows, calls = cli.sliding_windows, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return windows(*args, **kwargs)

        monkeypatch.setattr(cli, "sliding_windows", counted)
        code = main(["eval", "--checkpoint", str(out / "checkpoint"),
                     "--data", data, "--out", str(tmp_path / "eval_run")])
        assert code == EXIT_OK
        assert calls == [cli.split_chronological(
            ds.values, cli.split_fractions(cfg["split"]),
            ucfg.lookback + ucfg.horizon)[2].shape]
        report = json.loads((tmp_path / "eval_run" / "report.json").read_text())
        assert report == {"test_mse": mse, "test_mae": mae}
        capsys.readouterr()

    def test_eval_records_its_settings(self, train_run, tmp_path, capsys):
        # two splits give two test sets, and each config.json names its own
        _, out, _ = train_run
        stored = {}
        for split in ("0.7,0.1,0.2", "0.5,0.2,0.3"):
            run = tmp_path / split
            assert main(["eval", "--checkpoint", str(out / "checkpoint"),
                         "--data", "var:independent:4:120", "--split", split,
                         "--out", str(run)]) == EXIT_OK
            stored[split] = (json.loads((run / "config.json").read_text()),
                             json.loads((run / "report.json").read_text()))
        config, report = stored["0.5,0.2,0.3"]
        assert config["split"] == "0.5,0.2,0.3"
        assert stored["0.7,0.1,0.2"][0]["split"] == "0.7,0.1,0.2"
        assert report["test_mse"] != stored["0.7,0.1,0.2"][1]["test_mse"]
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert (config["lookback"], config["horizon"]) == (
            manifest["config"]["lookback"], manifest["config"]["horizon"])
        assert (config["steps"], config["seed"]) == (120, 0)
        capsys.readouterr()

    def test_eval_checkpoint_missing_a_parameter(self, train_run, tmp_path,
                                                 capsys):
        _, out, _ = train_run
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["shapes"]["f_pred"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", "var:independent:4:120"])
        assert code == EXIT_USAGE
        assert "f_pred" in capsys.readouterr().err

    def test_eval_refuses_non_utf8_manifest(self, train_run, tmp_path,
                                            capsys):
        _, out, _ = train_run
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        (ckpt / "manifest.json").write_bytes(b'{"format": "\xff"}')
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", "var:independent:4:120"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {ckpt / 'manifest.json'}: malformed checkpoint manifest\n")

    @pytest.mark.parametrize("key, value", [
        ("heads", True), ("d", 8.7), ("seed", "x"), ("alpha", True)])
    def test_eval_refuses_mistyped_manifest_config(self, key, value,
                                                   train_run, tmp_path,
                                                   capsys):
        _, out, _ = train_run
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["config"][key] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", "var:independent:4:120"])
        assert code == EXIT_USAGE
        assert f"config value {key}" in capsys.readouterr().err

    def test_eval_refuses_manifest_layers_beyond_channels(self, train_run,
                                                          tmp_path, capsys):
        _, out, _ = train_run
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["config"]["layers"] = 10**9
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", "var:independent:4:120"])
        assert code == EXIT_USAGE
        assert "exceeds channels=4" in capsys.readouterr().err

    def test_eval_checkpoint_missing_a_parameter_file(self, train_run,
                                                      tmp_path, capsys):
        _, out, _ = train_run
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        (ckpt / "w_out.npy").unlink()
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", "var:independent:4:120"])
        assert code == EXIT_USAGE
        assert "w_out" in capsys.readouterr().err

    def test_eval_parameter_file_with_zip_magic(self, train_run, tmp_path,
                                                capsys):
        # zip magic but no archive: numpy alone raises zipfile.BadZipFile
        _, out, _ = train_run
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(out / "checkpoint", ckpt)
        (ckpt / "w_out.npy").write_bytes(b"PK\x03\x04 no zip")
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--data", "var:independent:4:120"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "w_out" in err and "Traceback" not in err

    def test_eval_channel_mismatch(self, train_run, capsys):
        _, out, _ = train_run
        code = main(["eval", "--checkpoint", str(out / "checkpoint"),
                     "--data", "var:independent:6:120"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_deterministic_rerun_with_force(self, train_run, tmp_path,
                                            capsys):
        _, out, argv = train_run
        before = read_bytes_map(out)
        dup = tmp_path / "dup"
        code = main([*argv[:-1], str(dup)])
        assert code == EXIT_OK
        assert read_bytes_map(dup) == before
        capsys.readouterr()


class TestSnapshots:
    def test_snapshot_epochs_written(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--snapshot-epochs", "0,final", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "snapshots" / "artifacts.json").read_text()
        assert text.endswith("}\n")
        index = json.loads(text)
        assert list(index) == ["entries"]
        epochs = [e["epoch"] for e in index["entries"]]
        assert epochs == [0, 2]
        for entry in index["entries"]:
            assert set(entry) == {"epoch", "files", "snapshots"}
            assert len(entry["snapshots"]) == 2          # one per stage
            for name in entry["files"]:
                assert (out / "snapshots" / name).exists()
        capsys.readouterr()

    def test_final_is_the_best_epoch(self, tmp_path, capsys):
        # this run's validation MSE is best at epoch 1 of 2, so the model
        # ends holding epoch 1's parameters: final exports epoch 1, and the
        # same bytes as a run that lists epoch 1 by number
        heads2 = ["train", "--data", "var:anti_self:12:600", "--d", "8",
                  "--ratio", "2", "--heads", "2", "--batch-size", "16",
                  "--max-epochs", "2"]
        runs = {}
        for epochs in ("0,final", "0,1", "0,1,final"):
            out = tmp_path / epochs.replace(",", "_")
            assert main([*heads2, "--snapshot-epochs", epochs,
                         "--out", str(out)]) == EXIT_OK
            runs[epochs] = read_bytes_map(out / "snapshots")
        report = json.loads((out / "report.json").read_text())
        assert (report["best_epoch"], report["epochs_run"]) == (1, 2)
        assert runs["0,final"] == runs["0,1"] == runs["0,1,final"]
        index = json.loads(runs["0,final"]["artifacts.json"])
        assert [e["epoch"] for e in index["entries"]] == [0, 1]
        capsys.readouterr()

    def test_final_not_exported_twice(self, tmp_path, capsys):
        # best = stopped = 2 here: final names the epoch the callback has
        # already exported, so the index lists it once
        out = tmp_path / "run"
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--snapshot-epochs", "0,2,final", "--out", str(out)])
        assert code == EXIT_OK
        index = json.loads((out / "snapshots" / "artifacts.json").read_text())
        assert [e["epoch"] for e in index["entries"]] == [0, 2]
        capsys.readouterr()


class TestDivergence:
    def test_absurd_lr_exits_with_divergence_code(self, capsys):
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--lr", "1e9", "--clip-norm", "1e12"])
        assert code == EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().out

    def test_numeric_failure_in_evaluation_exits_with_divergence_code(
            self, monkeypatch, capsys):
        def unstable(self, x):
            raise NumericError("non-finite activations after prediction")

        monkeypatch.setattr(Forecaster, "predict", unstable)
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN])
        assert code == EXIT_DIVERGED
        assert "validation" in capsys.readouterr().out

    @pytest.mark.parametrize("error", [NumericError, DefinitenessError])
    def test_numeric_failure_at_the_first_step_exits_with_divergence_code(
            self, error, tmp_path, monkeypatch, capsys):
        # the first step fails as a later one would: a diverged report, its
        # records written, no checkpoint, and the model as it was built
        def failing(*args):
            raise error("covariance is not positive definite")

        built = []

        class Kept(Forecaster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(training, "batch_gradients", failing)
        monkeypatch.setattr(cli, "Forecaster", Kept)
        out = tmp_path / "run"
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--out", str(out)])
        assert code == EXIT_DIVERGED
        captured = capsys.readouterr()
        assert captured.err == ""
        assert ("training diverged: numeric failure at epoch 1: covariance "
                "is not positive definite") in captured.out
        report = json.loads((out / "report.json").read_text())
        assert report["diverged"] and report["epochs_run"] == 1
        assert sorted(path.name for path in out.iterdir()) == [
            "config.json", "report.json", "timing.json", "train_log.jsonl"]
        model, = built
        fresh = Forecaster(model.config)
        assert all(np.array_equal(model.params[k], fresh.params[k])
                   for k in fresh.params)

    def test_singular_covariance_at_the_first_step_writes_diverged_records(
            self, tmp_path, capsys):
        # eps_cov 1e-300 leaves the 8 x 8 latent covariance of d=4 rows
        # singular, so the first Cholesky factorization fails: in the first
        # step, or in the epoch-0 export when epoch 0 is listed
        argv = ["train", "--data", "var:independent:16:600", "--d", "4",
                "--ratio", "2", "--batch-size", "16", "--max-epochs", "2"]
        singular = [*argv, "--eps-cov", "1e-300", "--alpha", "1"]
        records = ["config.json", "report.json", "timing.json",
                   "train_log.jsonl"]
        for extra, where, epochs_run in (
                ([], "at epoch 1", 1),
                (["--snapshot-epochs", "0,final"], "after epoch 0", 0)):
            out = tmp_path / where.replace(" ", "_")
            assert main([*singular, *extra, "--out", str(out)]) == (
                EXIT_DIVERGED)
            report = json.loads((out / "report.json").read_text())
            assert report["diverged"]
            assert report["divergence_note"].startswith(
                f"numeric failure {where}: cholesky: ")
            assert (report["epochs_run"], report["best_epoch"]) == (
                epochs_run, 0)
            assert sorted(path.name for path in out.iterdir()) == records
        # over a finished run, a --force rerun leaves the rerun's records
        out = tmp_path / "rerun"
        assert main([*argv, "--snapshot-epochs", "0,final",
                     "--out", str(out)]) == EXIT_OK
        assert main([*singular, "--force", "--out", str(out)]) == (
            EXIT_DIVERGED)
        assert sorted(path.name for path in out.iterdir()) == records
        assert json.loads((out / "config.json").read_text())["eps_cov"] == (
            1e-300)
        capsys.readouterr()

    def test_snapshot_failure_after_first_update_writes_report(
            self, tmp_path, monkeypatch, capsys):
        # a NumericError from the epoch callback, here the epoch-1 export,
        # ends the run as a divergence with its records written
        export = analysis.export_snapshots

        def failing(directory, trace, epoch):
            if epoch == 1:
                raise NumericError("non-finite spectrum")
            return export(directory, trace, epoch)

        monkeypatch.setattr(analysis, "export_snapshots", failing)
        out = tmp_path / "run"
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--snapshot-epochs", "0,1", "--out", str(out)])
        assert code == EXIT_DIVERGED
        report = json.loads((out / "report.json").read_text())
        assert report["diverged"] and report["epochs_run"] == 1
        assert report["divergence_note"] == (
            "numeric failure after epoch 1: non-finite spectrum")
        assert not (out / "checkpoint").exists()
        assert "training diverged" in capsys.readouterr().out


@st.composite
def spec_objects(draw):
    """A stable VAR spec object of 1 to 3 channels, then up to three edits:
    a key dropped or added, a value replaced by any JSON scalar or nested
    list, or one entry of A or noise_diag replaced by a JSON scalar."""
    c = draw(st.integers(1, 3))
    spec = {
        "structure": draw(st.sampled_from(["independent", "anti_self",
                                           "custom"])),
        "C": c,
        # every row sums to at most 0.9 in absolute value: radius < 1
        "A": draw(st.lists(st.lists(st.floats(-0.3, 0.3), min_size=c,
                                    max_size=c), min_size=c, max_size=c)),
        "noise_diag": draw(st.lists(st.floats(0.1, 2.0), min_size=c,
                                    max_size=c)),
        "seed": draw(st.integers(0, 3)),
    }
    values = st.one_of(
        JSON_SCALARS, st.integers(0, 4),
        st.lists(st.one_of(JSON_SCALARS, st.floats(-0.6, 0.6)), max_size=4),
        st.lists(st.lists(st.floats(-0.6, 0.6), max_size=4), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["structure", "C", "A", "noise_diag",
                                    "seed", "sed"]))
        edit = draw(st.sampled_from(["drop", "value", "entry"]))
        if edit == "drop":
            spec.pop(key, None)
        elif edit == "value" or not isinstance(spec.get(key), list) \
                or not spec[key]:
            spec[key] = draw(values)
        else:
            row = spec[key]
            i = draw(st.integers(0, len(row) - 1))
            if isinstance(row[i], list) and row[i]:
                row, i = row[i], draw(st.integers(0, len(row[i]) - 1))
            row[i] = draw(JSON_SCALARS)
    return spec


class TestRisk:
    def test_matches_library_closed_form(self, tmp_path, capsys):
        out = tmp_path / "risk_run"
        code = main(["risk", "--structure", "anti_self", "--channels", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        spec = make_var_spec("anti_self", 2, seed=0)
        want = bayes_risk_sequence(spec, target=0)
        rows = (out / "risks.csv").read_text().splitlines()[1:]
        got = [float(r.split(",")[1]) for r in rows]
        assert np.allclose(got, list(want.risks), rtol=0, atol=0)
        assert "two-channel closed form" in capsys.readouterr().out
        assert "mc" not in json.loads((out / "config.json").read_text())

    def test_monte_carlo_column(self, tmp_path, capsys):
        out = tmp_path / "risk_mc"
        code = main(["risk", "--structure", "independent", "--channels", "2",
                     "--mc", "2000", "--out", str(out)])
        assert code == EXIT_OK
        stored = json.loads((out / "config.json").read_text())
        assert all(np.isfinite(r["sampled"]) for r in stored["monte_carlo"])
        assert stored["mc"] == 2000
        assert "sampled" in capsys.readouterr().out

    def test_monte_carlo_draws_from_seed(self, tmp_path, capsys):
        spec = make_var_spec("anti_self", 3, seed=2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        sampled = {}
        for seed in (None, 3, 4):
            argv = ["risk", "--spec-file", str(spec_path), "--mc", "100",
                    "--out", str(tmp_path / f"risk_{seed}")]
            assert main(argv + ([] if seed is None
                                else ["--seed", str(seed)])) == EXIT_OK
            stored = json.loads(
                (tmp_path / f"risk_{seed}" / "config.json").read_text())
            sampled[seed] = [r["sampled"] for r in stored["monte_carlo"]]
            want = monte_carlo_risks(spec, n_samples=100, seed=seed or 0)
            assert sampled[seed] == [want[p] for p in (1, 2, 3)]
        assert sampled[3] != sampled[4]
        capsys.readouterr()
        # a spec file draws nothing without --mc; the seed is refused anyway
        for mc in (["--mc", "100"], []):
            out = tmp_path / f"refused{len(mc)}"
            code = main(["risk", "--spec-file", str(spec_path), *mc,
                         "--seed", "-1", "--out", str(out)])
            assert code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert_one_error_line(captured.err, "seed must be >= 0")
            assert not out.exists()

    @pytest.mark.parametrize("name", ["make_var_spec", "bayes_risk_sequence",
                                      "monte_carlo_risks"])
    def test_out_of_memory_is_usage_error(self, name, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")
        monkeypatch.setattr(cli, name, out_of_memory)
        code = main(["risk", "--structure", "anti_self", "--channels", "3",
                     "--mc", "100"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "do not fit in memory" in captured.err

    def test_negative_mc_refused(self, tmp_path, capsys):
        code = main(["risk", "--structure", "anti_self", "--channels", "4",
                     "--mc", "-5", "--out", str(tmp_path / "risk")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "--mc must be >= 0")
        assert not (tmp_path / "risk").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--channels", "4", "--target", "9"], "target 9 out of range for C=4"),
        (["--channels", "4", "--target", "-1"],
         "target -1 out of range for C=4"),
        (["--channels", "1"], "C must be >= 2, got 1")])
    def test_refused_spec_or_target_leaves_no_out(self, flags, message,
                                                  tmp_path, capsys):
        out = tmp_path / "risk"
        code = main(["risk", "--structure", "anti_self", *flags,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, message)
        assert not out.exists()

    def test_spec_file_round_trip(self, tmp_path, capsys):
        spec = make_var_spec("independent", 3, seed=4)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        assert main(["risk", "--spec-file", str(spec_path)]) == EXIT_OK
        capsys.readouterr()

    def test_needs_structure_or_file(self, capsys):
        assert main(["risk"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("text", [
        b'{"structure": "custom", "C": 2, "A": [[0.5',          # truncated
        b'{"structure": "custom", "C": 2, "noise_diag": [1, 1]}',  # no A
        b'[["custom", 2]]',                                      # not an object
        b'{"structure": "custom", "C": "two", "A": [[0.5, 0], [0, 0.5]],'
        b' "noise_diag": [1, 1]}',                               # C not a number
        b'{"structure": "custom", "C": 2, "A": [[0.5, 0], [0]],'
        b' "noise_diag": [1, 1]}',                               # ragged A
        b'{"structure": "custom", "C": 2, "A": [[NaN, 0], [0, 0.5]],'
        b' "noise_diag": [1, 1]}',                               # non-finite A
        b'\xff\xfe{}',                                           # not UTF-8
        b'{"structure": "bogus", "C": 2, "A": [[0.5, 0], [0, 0.5]],'
        b' "noise_diag": [1, 1]}',                               # unknown structure
        b'{"structure": "custom", "C": 2.7, "A": [[0.5, 0], [0, 0.5]],'
        b' "noise_diag": [1, 1]}',                               # C not integral
        b'{"structure": "custom", "C": 2, "A": [[0.5, 0], [0, 0.5]],'
        b' "noise_diag": [1, 1], "sed": 7}',                     # unknown key
        b'{"structure": "custom", "C": 2, "A": [["0.5", 0], [0, 0.5]],'
        b' "noise_diag": [1, 1]}',                               # string in A
        b'{"structure": "custom", "C": 2, "A": [[0.5, 0], [0, true]],'
        b' "noise_diag": [1, 1]}',                               # boolean in A
        b'{"structure": "custom", "C": 2, "A": [[0.5, 0], [0, 0.5]],'
        b' "noise_diag": ["1", 1]}',                             # string noise
        b'{"structure": "custom", "C": 2, "A": [[0.5, 0], [0, 0.5]],'
        b' "noise_diag": [1, true]}',                            # boolean noise
        pytest.param(b'{"structure": "custom", "C": 1, "A": [[1' + b'0' * 400
                     + b']], "noise_diag": [1]}', id="int-beyond-float"),
        pytest.param(b'{"structure": "custom", "C": 1, "noise_diag": [1],'
                     b' "A": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                     id="nested-beyond-recursion-limit"),
        b'"custom"',                                             # a string
    ])
    def test_malformed_spec_file_is_usage_error(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(text)
        assert main(["risk", "--spec-file", str(spec_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "malformed VAR spec")
        assert captured.out == ""

    @settings(max_examples=300, deadline=None)
    @given(spec=spec_objects(), mc=st.sampled_from([0, 50]))
    def test_any_spec_file_is_read_or_refused(self, tmp_path_factory, spec,
                                              mc):
        # keys, types and shapes in any mix: the run ends in an exit code,
        # never in an exception
        spec_path = tmp_path_factory.mktemp("spec") / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["risk", "--spec-file", str(spec_path),
                         "--mc", str(mc)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_MISSING_DATA,
                        EXIT_DIVERGED), err.getvalue()
        if code != EXIT_OK:
            assert out.getvalue() == ""
            assert_one_error_line(err.getvalue(), "")
            return
        # nothing was accepted that the spec's keys and types refuse
        assert set(spec) <= {"structure", "C", "A", "noise_diag", "seed"}
        assert all(type(x) in (int, float) for x in spec["noise_diag"])
        assert all(type(x) in (int, float) for row in spec["A"] for x in row)

    @staticmethod
    def assert_quiet_usage_error(spec, tmp_path, capsys):
        """`ucast risk` on the spec exits 64 naming the radius, with empty
        stdout and no warning."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["risk", "--spec-file", str(spec_path)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spectral radius < 1" in captured.err

    def test_signed_unstable_spec_is_usage_error(self, tmp_path, capsys):
        # its powers overflow before the radius is measured
        self.assert_quiet_usage_error(signed_unstable_spec(), tmp_path, capsys)

    @pytest.mark.parametrize("a", [np.eye(3), np.array([[0.0, -1.0],
                                                          [1.0, 0.0]])],
                             ids=["identity", "rotation"])
    def test_unit_radius_spec_is_usage_error(self, a, tmp_path, capsys):
        # powers that never shrink and never overflow
        spec = VarProcessSpec("custom", len(a), a, np.ones(len(a)))
        self.assert_quiet_usage_error(spec, tmp_path, capsys)

    def test_explosive_target_radius_is_usage_error(self, capsys):
        assert main(["risk", "--structure", "anti_self", "--channels", "4",
                     "--target-radius", "1.05"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spectral radius < 1, measured 1.0500" in captured.err

    def test_unresolvable_noise_floor_exits_64(self, tmp_path):
        # the doubling stops at S ~ 1.7e16, where float64 cannot resolve
        # R_C against the unit noise floor
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(rotation_spec().to_dict()))
        proc = subprocess.run([sys.executable, "-m", "ucast", "risk",
                               "--spec-file", str(spec_path)],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "noise floor" in lines[0]


class TestSynth:
    def test_custom_cell_artifacts_deterministic(self, tmp_path, capsys):
        argv = ["synth", "--structure", "independent", "--channels", "4",
                "--pooled", "2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out", str(out_a)]) == EXIT_OK
        assert main([*argv, "--out", str(out_b)]) == EXIT_OK
        assert read_bytes_map(out_a) == read_bytes_map(out_b)
        table = (out_a / "table.csv").read_text()
        assert table.count("\n") == 3      # header + ci + cd
        summary = json.loads((out_a / "summary.json").read_text())
        assert "ordering_violations" not in summary
        capsys.readouterr()

    def test_assert_paper_table_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["synth", "--structure", "independent", "--channels", "4",
                     "--pooled", "2", "--assert-paper",
                     "--out", str(out)]) == EXIT_OK
        with (out / "table.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["structure"], r["C"], r["model"]) for r in rows] == [
            ("independent", "4", "ci"), ("independent", "4", "cd")]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ordering_violations"] == []
        cell, = summary["cells"]
        mse = {r["model"]: float(r["test_mse"]) for r in rows}
        assert cell["test_mse"] == mse
        assert cell["cd_over_ci"] == mse["cd"] / mse["ci"]
        capsys.readouterr()

    def test_settings_and_custom_flags_exclusive(self, capsys):
        code = main(["synth", "--settings", "default",
                     "--structure", "independent", "--channels", "4"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_custom_needs_both_flags(self, capsys):
        assert main(["synth", "--channels", "4"]) == EXIT_USAGE
        capsys.readouterr()

    def test_diverged_baseline_exits_with_divergence_code(
            self, tmp_path, monkeypatch, capsys):
        def diverged(*args, **kwargs):
            return training.TrainReport(
                diverged=True,
                divergence_note="numeric failure at epoch 3: non-finite loss")

        monkeypatch.setattr(baselines, "train", diverged)
        out = tmp_path / "run"
        assert main(["synth", "--structure", "anti_self", "--channels", "4",
                     "--pooled", "1", "--out", str(out)]) == EXIT_DIVERGED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(
            captured.err, "anti_self C=4 ci: training diverged: numeric "
            "failure at epoch 3: non-finite loss")
        assert not out.exists()

    def test_cell_without_sequences_is_usage_error(self, capsys):
        assert main(["synth", "--structure", "anti_self", "--channels", "4",
                     "--pooled", "0"]) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr().err,
                              "pooled sequences must be >= 1")


class TestAblateAndSweep:
    def test_ablate_writes_all_variants(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        code = main(["ablate", "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "ablation.csv").read_text().splitlines()
        assert len(rows) == 6              # header + five variants
        assert rows[0] == "variant,test_mse,test_mae"
        capsys.readouterr()

    def test_sweep_alpha_values(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     "--param", "alpha", "--values", "0,0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("alpha,0.0,")
        capsys.readouterr()

    def test_diverged_sweep_leaves_no_run_directory(self, tmp_path,
                                                    monkeypatch, capsys):
        def diverged(*args, **kwargs):
            return SimpleNamespace(diverged=True,
                                   divergence_note="non-finite loss")

        monkeypatch.setattr(cli, "train", diverged)
        out = tmp_path / "sweep"
        code = main(["sweep", "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     "--param", "alpha", "--values", "0,0.5",
                     "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert "alpha=0.0: diverged (non-finite loss)" in (
            capsys.readouterr().out)
        assert not out.exists()

    def test_sweep_bad_values(self, capsys):
        code = main(["sweep", "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     "--param", "ratio", "--values", "2,x"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_sweep_empty_values(self, tmp_path, capsys):
        code = main(["sweep", "--data", "var:anti_self:8:300", *TINY_TRAIN,
                     "--param", "alpha", "--values", ",",
                     "--out", str(tmp_path / "sweep")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "--values lists no value")
        assert not (tmp_path / "sweep").exists()

    def test_sweep_empty_string_values(self, tmp_path, capsys):
        # an empty --values is a list with no value, not an absent one
        code = main(["sweep", "--data", "var:anti_self:8:600", *TINY_TRAIN,
                     "--param", "ratio", "--values", "",
                     "--out", str(tmp_path / "sweep")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "--values lists no value")
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("param, values", [
        ("alpha", "0,0.5,inf"), ("ratio", "2,0")])
    def test_sweep_checks_every_value_before_training(self, param, values,
                                                      capsys):
        code = main(["sweep", "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     "--param", param, "--values", values])
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestBench:
    def test_tiny_bench(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--channels", "8,16", "--d", "8",
                     "--repeats", "1", "--out", str(out)])
        assert code == EXIT_OK
        with (out / "bench.csv").open(newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["channels", "d", "ratio", "heads",
                                     "mechanism", "seconds", "score_entries",
                                     "blas_threads"]
        # one thread wherever numpy bundles an OpenBLAS whose count can be set
        pinned = "1" if analysis._openblas_threads() else ""
        assert [r["blas_threads"] for r in rows] == [pinned] * 4
        assert [(r["channels"], r["mechanism"]) for r in rows] == [
            ("8", "HLQN"), ("8", "FlatAttention"),
            ("16", "HLQN"), ("16", "FlatAttention")]
        assert [int(r["score_entries"]) for r in rows] == [8, 64, 16, 256]
        assert all(float(r["seconds"]) > 0 for r in rows)
        assert "analytic ratio" in capsys.readouterr().out

    def test_bad_channel_list(self, capsys):
        assert main(["bench", "--channels", "8,x"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("flags, message", [
        (["--d", "0"], "d must be >= 1"), (["--ratio", "0"], "ratio must be"),
        (["--heads", "0"], "heads must be >= 1"),
        (["--channels", "64", "--heads", "3", "--d", "8"],
         "d=8 must be divisible by heads=3")])
    def test_bad_shape_is_usage_error(self, flags, message, capsys):
        assert main(["bench", "--channels", "8", "--repeats", "1",
                     *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, message)

    def test_empty_channel_list(self, tmp_path, capsys):
        code = main(["bench", "--channels", ",", "--repeats", "1",
                     "--out", str(tmp_path / "bench")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "--channels lists no channel count")
        assert not (tmp_path / "bench").exists()

    def test_zero_repeats(self, capsys):
        assert main(["bench", "--channels", "8", "--d", "8",
                     "--repeats", "0"]) == EXIT_USAGE
        assert "repeats" in capsys.readouterr().err

    def test_out_of_memory_names_the_setting(self, monkeypatch, capsys):
        # numpy's refusal is raised by a stand-in, so nothing is allocated
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 47.7 GiB for an array with "
                              "shape (3200000000, 2) and data type float64")
        monkeypatch.setattr(Stream, "normal_matrix", out_of_memory)
        assert main(["bench", "--channels", "100000000"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "channels=100000000 at d=64")

    def test_pass_out_of_memory_names_the_setting(self, monkeypatch, capsys):
        # the flat pass's channels x channels scores, refused by a
        # stand-in inside the warm-up, after the inputs are built
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB for an array "
                              "with shape (200000, 200000) and data type "
                              "float64")
        monkeypatch.setattr(analysis, "_attention", out_of_memory)
        assert main(["bench", "--channels", "8", "--d", "8",
                     "--repeats", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "channels=8 at d=8")


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "ucast"],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert "usage" in proc.stderr.lower()

    def test_console_script_help(self):
        # The `ucast` launcher is written by an installer from
        # [project.scripts]; an uninstalled checkout (PYTHONPATH=src) has
        # none. So run the declared target the way that launcher does, and
        # also run the launcher itself whenever one is on PATH.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            scripts = tomllib.load(handle)["project"].get("scripts", {})
        assert "ucast" in scripts, "pyproject.toml declares no ucast script"
        module, attr = scripts["ucast"].split(":")
        launcher = (f"import sys; from {module} import {attr}; "
                    f"sys.exit({attr}())")
        commands = [[sys.executable, "-c", launcher, "--help"]]
        if shutil.which("ucast"):
            commands.append(["ucast", "--help"])
        for argv in commands:
            proc = subprocess.run(argv, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            for command in ("synth", "risk", "train", "eval", "ablate",
                            "bench", "sweep"):
                assert command in proc.stdout

    def test_config_field_defaults_are_the_table(self):
        # each published default is declared once, as the field default of
        # the config it configures, and the table reads it from there
        declared = {f.name: f.default for cls in (UCastConfig, TrainConfig)
                    for f in fields(cls)
                    if f.name in TABLE_DEFAULTS and f.default is not MISSING}
        assert sorted(declared) == sorted([
            "d", "layers", "ratio", "heads", "alpha", "eps_cov", "variant",
            "lr", "batch_size", "max_epochs", "patience", "clip_norm"])
        for name, default in declared.items():
            assert TABLE_DEFAULTS[name] == default, name
        assert TrainConfig().batch_size == 128

    def test_configs_carry_every_resolved_setting(self):
        # model_config and train_config take each field of their config
        # from the resolved settings, none at its default
        cfg = dict(TABLE_DEFAULTS, lookback=12, horizon=3, d=16, layers=1,
                   ratio=3, heads=2, alpha=0.5, eps_cov=1e-3,
                   variant="frozen_query", seed=7, lr=0.01, batch_size=9,
                   max_epochs=4, patience=2, clip_norm=1.5)
        ucfg, tcfg = cli.model_config(cfg, 6), cli.train_config(cfg)
        assert ucfg.channels == 6
        for config in (ucfg, tcfg):
            for f in fields(config):
                if f.name != "channels":
                    assert getattr(config, f.name) == cfg[f.name] != f.default
        assert cli.model_config(dict(cfg, variant="no_cov"), 6).alpha == 0.0

    def test_desk_defaults_shrink_table_defaults(self):
        assert DESK_DEFAULTS["d"] < TABLE_DEFAULTS["d"]
        assert DESK_DEFAULTS["ratio"] < TABLE_DEFAULTS["ratio"]
        assert set(DESK_DEFAULTS) == set(TABLE_DEFAULTS)
