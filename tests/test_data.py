"""Ingestion, windowing, splitting, and normalization contracts."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucast.data import (TimeSeriesDataset, WindowBatch, load_csv, save_csv,
                        sliding_windows, split_chronological, zscore_apply,
                        zscore_fit)
from ucast.errors import DataError, FormatError, ParameterError, ShapeError
from ucast.rng import Stream


def make_ds(c=3, n=50, seed=0):
    vals = Stream(seed, (c, n)).normal((c, n))
    return TimeSeriesDataset(values=vals, channel_names=[f"ch{i}" for i in range(c)])


class TestDataset:
    def test_channel_major_properties(self):
        ds = make_ds(4, 30)
        assert ds.n_channels == 4
        assert ds.n_steps == 30

    def test_name_count_checked(self):
        with pytest.raises(ShapeError):
            TimeSeriesDataset(values=np.zeros((2, 5)), channel_names=["only"])

    def test_nonfinite_rejected_after_ingestion(self):
        vals = np.zeros((2, 5))
        vals[1, 3] = np.nan
        with pytest.raises(DataError):
            TimeSeriesDataset(values=vals, channel_names=["a", "b"])


class TestLoadCsv:
    def test_header_autodetect_and_transpose(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,10\n2,20\n3,30\n")
        ds = load_csv(path)
        assert ds.channel_names == ["a", "b"]
        assert np.array_equal(ds.values, [[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])

    def test_headerless_gets_default_names(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,10\n2,20\n")
        ds = load_csv(path)
        assert ds.channel_names == ["ch0", "ch1"]

    @pytest.mark.parametrize("token", ["", "nan", "NA", "null", "None"])
    def test_missing_tokens_interpolated(self, tmp_path, token):
        path = tmp_path / "d.csv"
        path.write_text(f"1,0\n{token},0\n3,0\n")
        ds = load_csv(path)
        assert ds.repaired_cells == 1
        assert ds.values[0, 1] == pytest.approx(2.0)

    def test_boundary_fill_clamps(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("nan\n5\n6\nnan\n")
        ds = load_csv(path)
        assert ds.values[0, 0] == 5.0
        assert ds.values[0, 3] == 6.0
        assert ds.repaired_cells == 2

    def test_infinite_values_repaired_like_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1\n1e999\n3\n")
        ds = load_csv(path)
        assert ds.values[0, 1] == pytest.approx(2.0)
        assert ds.repaired_cells == 1

    def test_all_missing_channel_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,nan\n2,nan\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_text_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,poison\n")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")


def test_save_load_round_trip_bit_exact(tmp_path):
    ds = make_ds(3, 40, seed=5)
    path = tmp_path / "rt.csv"
    save_csv(path, ds)
    back = load_csv(path)
    assert back.channel_names == ds.channel_names
    assert np.array_equal(back.values, ds.values)


class TestSlidingWindows:
    def test_count_and_content(self):
        ds = make_ds(2, 20)
        batch = sliding_windows(ds, lookback=6, horizon=3)
        assert batch.count == 20 - 6 - 3 + 1
        for i, s in enumerate(batch.starts):
            assert np.array_equal(batch.inputs[i], ds.values[:, s:s + 6])
            assert np.array_equal(batch.targets[i], ds.values[:, s + 6:s + 9])

    def test_exact_fit_single_window(self):
        ds = make_ds(1, 9)
        assert sliding_windows(ds, 6, 3).count == 1

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            sliding_windows(make_ds(1, 8), 6, 3)

    def test_bad_lengths_rejected(self):
        ds = make_ds(1, 20)
        for kw in ({"lookback": 0, "horizon": 1}, {"lookback": 1, "horizon": 0}):
            with pytest.raises(DataError):
                sliding_windows(ds, **kw)

    @given(n=st.integers(10, 60), lookback=st.integers(1, 8),
           horizon=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_window_count_formula(self, n, lookback, horizon):
        if n < lookback + horizon:
            return
        batch = sliding_windows(make_ds(1, n), lookback, horizon)
        assert batch.count == n - lookback - horizon + 1
        last = batch.starts[-1]
        assert last + lookback + horizon <= n


class TestSplit:
    def test_boundaries_chronological(self):
        ds = make_ds(2, 100)
        train, val, test = split_chronological(ds, (0.7, 0.1, 0.2))
        assert train.n_steps == 70 and val.n_steps == 10 and test.n_steps == 20
        assert np.array_equal(train.values, ds.values[:, :70])
        assert np.array_equal(val.values, ds.values[:, 70:80])
        assert np.array_equal(test.values, ds.values[:, 80:])

    def test_zero_val_ratio(self):
        train, val, test = split_chronological(make_ds(1, 50), (0.8, 0.0, 0.2))
        assert val is None
        assert train.n_steps == 40 and test.n_steps == 10

    def test_ratio_validation(self):
        ds = make_ds(1, 50)
        with pytest.raises(ParameterError):
            split_chronological(ds, (0.5, 0.5, 0.5))
        with pytest.raises(ParameterError):
            split_chronological(ds, (-0.1, 0.6, 0.5))
        with pytest.raises(ParameterError):
            split_chronological(ds, (float("nan"), 0.5, 0.5))

    def test_min_rows_guard(self):
        with pytest.raises(DataError):
            split_chronological(make_ds(1, 100), (0.7, 0.1, 0.2), min_rows=11)

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            split_chronological(make_ds(1, 3), (0.1, 0.0, 0.9))


class TestZScore:
    def test_train_only_statistics(self):
        ds = make_ds(3, 60, seed=9)
        stats = zscore_fit(ds)
        normed = zscore_apply(ds, stats)
        assert np.allclose(normed.values.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(normed.values.std(axis=1), 1.0, atol=1e-12)

    def test_constant_channel_guarded(self):
        vals = np.vstack([np.full(20, 7.0), np.arange(20.0)])
        ds = TimeSeriesDataset(values=vals, channel_names=["k", "t"])
        normed = zscore_apply(ds, zscore_fit(ds))
        assert np.allclose(normed.values[0], 0.0)
        assert np.all(np.isfinite(normed.values))


def test_window_batch_count():
    b = WindowBatch(inputs=np.zeros((5, 2, 4)), targets=np.zeros((5, 2, 2)),
                    starts=np.arange(5))
    assert b.count == 5
