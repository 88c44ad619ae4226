"""End-to-end command line behavior, exit codes, and artifact determinism."""
import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import JSON_SCALARS, REFUSED, read_as, signed_unstable_spec
from ucast.cli import (DESK_DEFAULTS, EXIT_ASSERT_FAILED, EXIT_DIVERGED,
                       EXIT_MISSING_DATA, EXIT_OK, EXIT_USAGE, SETTINGS,
                       TABLE_DEFAULTS, main)
from ucast import analysis, cli, training
from ucast.errors import (DefinitenessError, NumericError, finite, integral,
                          text)
from ucast.model import Forecaster
from ucast.varlab import (VarProcessSpec, bayes_risk_sequence,
                          make_var_spec)

TINY_TRAIN = ["--d", "8", "--ratio", "2", "--horizon", "2",
              "--max-epochs", "2", "--batch-size", "16", "--patience", "5"]


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

    def test_batch_out_of_memory_is_usage_error(self, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")
        monkeypatch.setattr(Forecaster, "build_loss", out_of_memory)
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "batch of 16 windows" in err and "--batch-size" in err

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

    @pytest.mark.parametrize("command, flag", [
        ("ablate", "--variant=no_cov"), ("ablate", "--snapshot-epochs=0"),
        ("sweep", "--snapshot-epochs=0")])
    def test_setting_flag_only_where_read(self, command, flag, capsys):
        extra = ["--param", "alpha"] if command == "sweep" else []
        code = main([command, "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     *extra, flag])
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


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

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN,
                     "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_MISSING_DATA
        capsys.readouterr()


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
        # the run stops where the series would be cut, once every setting
        # has been read
        config_file.write_text(json.dumps({key: value}))
        argv = [command, "--data", "var:independent:4:120",
                "--config", str(config_file)]
        if command == "sweep":
            argv += ["--param", "alpha"]
        seen, err = {}, io.StringIO()

        def stop(ds, cfg):
            seen.update(cfg)
            raise Resolved

        with mock.patch.object(cli, "windows_from_dataset", stop), \
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

    def test_config_file_must_be_json(self, tmp_path, capsys):
        # not JSON, not UTF-8, an integer too long for Python to convert,
        # not an object, then values of the wrong type
        cfg_file = tmp_path / "cfg.json"
        for data in (b"lr: 0.005", b"\xff\xfe{}",
                     b'{"d": ' + b"9" * 5000 + b"}", b"null",
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
            self, error, monkeypatch, capsys):
        # the first step re-raises instead of reporting a divergence, so the
        # exit code comes from main's mapping of the error
        def failing(*args):
            raise error("covariance is not positive definite")

        monkeypatch.setattr(training, "batch_gradients", failing)
        code = main(["train", "--data", "var:independent:4:120", *TINY_TRAIN])
        assert code == EXIT_DIVERGED
        assert "positive definite" in capsys.readouterr().err


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

    def test_monte_carlo_column(self, tmp_path, capsys):
        out = tmp_path / "risk_mc"
        code = main(["risk", "--structure", "independent", "--channels", "2",
                     "--mc", "2000", "--out", str(out)])
        assert code == EXIT_OK
        stored = json.loads((out / "config.json").read_text())
        assert all(np.isfinite(r["sampled"]) for r in stored["monte_carlo"])
        assert "sampled" in capsys.readouterr().out

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
    ])
    def test_malformed_spec_file_is_usage_error(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(text)
        assert main(["risk", "--spec-file", str(spec_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

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

    def test_sweep_bad_values(self, capsys):
        code = main(["sweep", "--data", "var:anti_self:4:100", *TINY_TRAIN,
                     "--param", "ratio", "--values", "2,x"])
        assert code == EXIT_USAGE
        capsys.readouterr()

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

    def test_zero_repeats(self, capsys):
        assert main(["bench", "--channels", "8", "--d", "8",
                     "--repeats", "0"]) == EXIT_USAGE
        assert "repeats" in capsys.readouterr().err


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

    def test_desk_defaults_shrink_table_defaults(self):
        assert DESK_DEFAULTS["d"] < TABLE_DEFAULTS["d"]
        assert DESK_DEFAULTS["ratio"] < TABLE_DEFAULTS["ratio"]
        assert set(DESK_DEFAULTS) == set(TABLE_DEFAULTS)
