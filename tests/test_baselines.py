"""Linear baselines, the windowing protocol, and table ordering checks."""
import json

import numpy as np
import pytest

from ucast.baselines import (BASELINE_MODES, SERIES_BURN_IN, SERIES_STEPS,
                             TRAIN_FRACTION, WINDOW_HORIZON, WINDOW_LOOKBACK,
                             CellResult, ExperimentResult, LinearBaseline,
                             _pool_windows, assert_paper_orderings,
                             experiment_train_config, experiment_windows,
                             fit_linear_baseline, run_ci_cd_experiment)
from ucast.cli import write_json
from ucast.data import WindowBatch
from ucast.errors import DataError, ParameterError, ShapeError
from ucast.rng import Stream
from ucast.training import TrainConfig


def small_windows(count, c=3, t=WINDOW_LOOKBACK, s=WINDOW_HORIZON, seed=0):
    stream = Stream(seed, (91,))
    return WindowBatch(inputs=stream.normal((count, c, t)),
                       targets=stream.normal((count, c, s)),
                       starts=np.arange(count))


class TestLinearBaseline:
    def test_ci_predict_formula(self):
        model = LinearBaseline("ci", channels=3, lookback=4, horizon=4, seed=1)
        x = Stream(2, (92,)).normal((3, 4))
        want = x @ model.params["w_time"] + model.params["b_time"]
        assert np.allclose(model.predict(x), want, atol=1e-14)
        assert set(model.params) == {"w_time", "b_time"}

    def test_cd_predict_formula(self):
        model = LinearBaseline("cd", channels=3, lookback=4, horizon=4, seed=1)
        x = Stream(2, (92,)).normal((3, 4))
        per = x @ model.params["w_time"] + model.params["b_time"]
        want = model.params["w_mix"] @ per + model.params["b_mix"]
        assert np.allclose(model.predict(x), want, atol=1e-14)
        assert set(model.params) == {"w_time", "b_time", "w_mix", "b_mix"}

    def test_cd_stack_at_synth_shape_matches_textbook_order(self):
        # the graph associates as (w_mix x) w_time + (w_mix (1 b_time) +
        # b_mix); at the synth table's widest checked cell it must agree
        # with w_mix (x w_time + b_time) + b_mix to rounding
        model = LinearBaseline("cd", channels=250, lookback=4, horizon=4,
                               seed=1)
        stream = Stream(3, (92,))
        for name, value in model.params.items():
            model.params[name] = value + stream.normal(value.shape) * 0.1
        x = stream.normal((32, 250, 4))
        p = model.params
        want = p["w_mix"] @ (x @ p["w_time"] + p["b_time"]) + p["b_mix"]
        got = model.predict(x)
        assert got.shape == (32, 250, 4)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_ci_stack_bits_are_the_flat_product_plus_bias(self):
        # ci runs a stack as one flattened (B C, T) product and a bias add;
        # its predictions keep those bits exactly
        model = LinearBaseline("ci", channels=250, lookback=4, horizon=4,
                               seed=1)
        stream = Stream(4, (92,))
        for name, value in model.params.items():
            model.params[name] = value + stream.normal(value.shape) * 0.1
        x = stream.normal((32, 250, 4))
        flat = (x.reshape(-1, 4) @ model.params["w_time"]).reshape(32, 250, 4)
        assert np.array_equal(model.predict(x), flat + model.params["b_time"])

    def test_mode_and_shape_validation(self):
        with pytest.raises(ParameterError):
            LinearBaseline("cm", channels=3, lookback=4, horizon=4)
        model = LinearBaseline("ci", channels=3, lookback=4, horizon=4)
        with pytest.raises(ShapeError):
            model.predict(np.zeros((4, 4)))

    def test_ci_shares_map_across_channels(self):
        # permuting input channels permutes ci output rows identically
        model = LinearBaseline("ci", channels=5, lookback=4, horizon=4, seed=3)
        x = Stream(4, (93,)).normal((5, 4))
        perm = np.array([3, 0, 4, 1, 2])
        assert np.allclose(model.predict(x[perm]), model.predict(x)[perm],
                           atol=1e-14)

    def test_ci_recovers_planted_map(self):
        # targets generated by a fixed lag map with no noise; the trained
        # ci baseline should drive the loss near zero and match the map
        stream = Stream(7, (94,))
        w_star = stream.normal((4, 4))
        inputs = stream.normal((64, 3, 4))
        targets = inputs @ w_star
        batch = WindowBatch(inputs=inputs, targets=targets,
                            starts=np.arange(64))
        cfg = TrainConfig(lr=0.05, batch_size=16, max_epochs=300,
                          patience=300, clip_norm=None, seed=0)
        model, report = fit_linear_baseline("ci", batch, None, batch,
                                            3, 4, 4, cfg)
        assert report.test_mse < 1e-4
        assert np.abs(model.params["w_time"] - w_star).max() < 0.05

    def test_cd_can_express_channel_mixture(self):
        # targets depend on a cross-channel average, invisible to ci
        stream = Stream(8, (95,))
        inputs = stream.normal((96, 4, 4))
        mixed = inputs.mean(axis=1, keepdims=True)
        targets = np.repeat(mixed, 4, axis=1)
        batch = WindowBatch(inputs=inputs, targets=targets,
                            starts=np.arange(96))
        cfg = TrainConfig(lr=0.05, batch_size=16, max_epochs=200,
                          patience=200, clip_norm=None, seed=0)
        _, rep_cd = fit_linear_baseline("cd", batch, None, batch, 4, 4, 4, cfg)
        _, rep_ci = fit_linear_baseline("ci", batch, None, batch, 4, 4, 4, cfg)
        assert rep_cd.test_mse < 0.1 * rep_ci.test_mse


class TestExperimentWindows:
    def test_counts_and_chronology(self):
        series = Stream(1, (96,)).normal((2, 90))
        train_w, test_w = experiment_windows(series)
        n_windows = 90 - WINDOW_LOOKBACK - WINDOW_HORIZON + 1
        n_train = int(np.floor(TRAIN_FRACTION * n_windows))
        assert n_windows == 83 and n_train == 66
        assert train_w.inputs.shape == (66, 2, WINDOW_LOOKBACK)
        assert test_w.inputs.shape == (17, 2, WINDOW_LOOKBACK)
        assert train_w.starts.max() < test_w.starts.min()
        assert list(test_w.starts) == list(range(66, 83))

    def test_stats_ignore_test_period(self):
        # corrupting only the test-period steps must not move any training
        # window, because normalization stats come from the train prefix
        series = Stream(1, (96,)).normal((2, 90))
        train_a, _ = experiment_windows(series)
        spiked = series.copy()
        train_cover = 66 - 1 + WINDOW_LOOKBACK + WINDOW_HORIZON
        spiked[:, train_cover:] += 1e6
        train_b, test_b = experiment_windows(spiked)
        assert np.array_equal(train_a.inputs, train_b.inputs)
        assert np.abs(test_b.inputs).max() > 1e3

    def test_short_series_rejected(self):
        too_short = np.zeros((2, WINDOW_LOOKBACK + WINDOW_HORIZON))
        with pytest.raises(ParameterError):
            experiment_windows(too_short)

    def test_non_finite_series_rejected(self):
        series = Stream(1, (96,)).normal((2, 90))
        series[1, 40] = np.nan
        with pytest.raises(DataError):
            experiment_windows(series)

    def test_minimal_series_splits_one_and_one(self):
        series = Stream(2, (96,)).normal((2, WINDOW_LOOKBACK
                                          + WINDOW_HORIZON + 1))
        train_w, test_w = experiment_windows(series)
        assert len(train_w.starts) == 1 and len(test_w.starts) == 1

    def test_pool_concatenates(self):
        a = small_windows(3, seed=0)
        b = small_windows(5, seed=1)
        pooled = _pool_windows([a, b])
        assert pooled.inputs.shape[0] == 8
        assert np.array_equal(pooled.inputs[:3], a.inputs)
        assert np.array_equal(pooled.targets[3:], b.targets)


def make_result(cells):
    result = ExperimentResult(seed=0)
    for structure, channels, ci, cd in cells:
        result.cells.append(CellResult(
            structure=structure, channels=channels,
            test_mse={"ci": ci, "cd": cd},
            test_mae={"ci": ci / 2, "cd": cd / 2}))
    return result


class TestOrderings:
    def test_clean_table_has_no_violations(self):
        result = make_result([
            ("independent", 100, 1.0, 1.3),
            ("anti_self", 100, 1.0, 0.7),
            ("anti_self", 250, 1.0, 0.6),
        ])
        assert assert_paper_orderings(result) == []

    def test_each_violation_detected(self):
        result = make_result([
            ("independent", 100, 1.3, 1.0),   # ci should win but loses
            ("anti_self", 100, 0.7, 1.0),     # cd should win but loses
            ("anti_self", 250, 1.0, 0.65),
        ])
        violations = assert_paper_orderings(result)
        assert len(violations) == 2
        assert any("independent" in v for v in violations)
        assert any("anti_self C=100" in v for v in violations)

    def test_ratio_growth_detected(self):
        result = make_result([
            ("anti_self", 100, 1.0, 0.5),
            ("anti_self", 250, 1.0, 0.8),
        ])
        violations = assert_paper_orderings(result)
        assert len(violations) == 1 and "ratio" in violations[0]

    def test_large_cell_never_checked(self):
        # the widest setting is informational; even an inverted ordering
        # there must not produce a violation
        result = make_result([
            ("independent", 100, 1.0, 1.3),
            ("anti_self", 100, 1.0, 0.7),
            ("anti_self", 250, 1.0, 0.6),
            ("anti_self", 2000, 1.0, 5.0),
        ])
        assert assert_paper_orderings(result) == []

    def test_missing_cells_are_skipped(self):
        assert assert_paper_orderings(make_result([])) == []

    def test_cell_lookup_and_ratio(self):
        result = make_result([("anti_self", 100, 2.0, 1.0)])
        cell = result.cell("anti_self", 100)
        assert cell.ratio_cd_over_ci == pytest.approx(0.5)
        with pytest.raises(KeyError):
            result.cell("independent", 100)


class TestArtifacts:
    def test_summary_without_violations_field(self, tmp_path):
        # summary.json is to_dict(); only cmd_synth --assert-paper adds
        # the ordering_violations field
        path = tmp_path / "s.json"
        result = make_result([("independent", 100, 1.0, 1.25)])
        write_json(path, result.to_dict())
        payload = json.loads(path.read_text())
        assert "ordering_violations" not in payload
        assert payload == result.to_dict()


class TestExperimentEndToEnd:
    def test_tiny_cell_runs_and_orders(self):
        # one miniature independent cell: ci must at least match cd there
        result = run_ci_cd_experiment(settings=(("independent", 8, 3),),
                                      seed=0)
        cell = result.cell("independent", 8)
        for mode in BASELINE_MODES:
            assert np.isfinite(cell.test_mse[mode])
        assert cell.test_mse["ci"] < cell.test_mse["cd"]

    @pytest.mark.parametrize("pooled", [0, -1])
    def test_cell_without_sequences_refused(self, pooled):
        with pytest.raises(ParameterError,
                           match="pooled sequences must be >= 1"):
            run_ci_cd_experiment(settings=(("anti_self", 4, pooled),))

    def test_seed_changes_numbers(self):
        a = run_ci_cd_experiment(settings=(("independent", 4, 2),), seed=0)
        b = run_ci_cd_experiment(settings=(("independent", 4, 2),), seed=1)
        assert a.cell("independent", 4).test_mse["ci"] != \
            b.cell("independent", 4).test_mse["ci"]

    def test_protocol_constants(self):
        assert SERIES_STEPS == 100 and SERIES_BURN_IN == 10
        cfg = experiment_train_config(3)
        assert (cfg.lr, cfg.batch_size, cfg.max_epochs, cfg.clip_norm,
                cfg.seed) == (0.01, 32, 100, 5.0, 3)
