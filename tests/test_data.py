"""Ingestion, windowing, splitting, and normalization contracts."""
import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucast.data import (TimeSeriesDataset, WindowBatch, _interpolate_channel,
                        load_csv, sliding_windows, split_chronological,
                        zscore_apply, zscore_fit)
from ucast.errors import DataError, FormatError, ParameterError, ShapeError
from ucast.rng import Stream


def make_series(c=3, n=50, seed=0):
    return Stream(seed, (c, n)).normal((c, n))


def pad(token):
    return st.tuples(st.sampled_from(["", " ", "\t", "\xa0", "\u2003"]),
                     st.sampled_from(["", " ", "\t", "\x0b"])).map(
        lambda ends: ends[0] + token + ends[1])


# CSV cells: numbers as repr, in exponent form and with underscores, nan in
# any case, the missing tokens, infinities and unparseable text, each with
# whitespace on either side
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "2.5e3", "-0", "inf", "-Infinity"]),
    st.tuples(*map(st.sampled_from, ("nN", "aA", "nN"))).map("".join),
    st.sampled_from(["", "NA", "na", "null", "NULL", "None", "none"]),
    st.sampled_from(["x", "1..2", "1,5", "_1", "nan nan", "0x10"]),
).flatmap(pad)


def per_token_load(path):
    """load_csv's rules one token at a time: strip it, read a missing token
    as NaN and any other through float(); the first row is the header
    exactly when it does not convert."""
    def convert(tok):
        tok = tok.strip()
        if tok.lower() in {"", "nan", "na", "null", "none"}:
            return math.nan
        return float(tok)

    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    try:
        values = [[convert(tok) for tok in rows[0]]]
        names = [f"ch{j}" for j in range(len(rows[0]))]
    except ValueError:
        values, names = [], [tok.strip() for tok in rows[0]]
    # the rows are drawn of one width, so none is ragged
    for number, row in enumerate(rows[1:], start=2 if values else 1):
        try:
            values.append([convert(tok) for tok in row])
        except ValueError:
            raise FormatError(
                f"{path}: unparseable value in row {number}") from None
    if not values:
        raise FormatError(f"{path}: no data rows")
    array = np.array(values).T.copy()
    repaired = sum(_interpolate_channel(array[c], f"{path}: channel '{name}'")
                   for c, name in enumerate(names))
    return TimeSeriesDataset(array, names, repaired)


def load_outcome(loader, path):
    """What a loader made of the file: names, value bytes and repaired
    count, or the refusal's type and message."""
    try:
        ds = loader(path)
    except (FormatError, DataError) as exc:
        return type(exc), str(exc)
    return ds.channel_names, ds.values.tobytes(), ds.repaired_cells


class TestDataset:
    def test_channel_major_properties(self):
        ds = TimeSeriesDataset(values=make_series(4, 30),
                               channel_names=[f"ch{i}" for i in range(4)])
        assert ds.n_channels == 4
        assert ds.values.shape == (4, 30)

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

    def test_header_with_numeric_names(self, tmp_path):
        # a header whose leading names convert adds no values to the series
        path = tmp_path / "d.csv"
        path.write_text("2020,2021,total\n1,10,100\n2,20,200\n")
        ds = load_csv(path)
        assert ds.channel_names == ["2020", "2021", "total"]
        assert np.array_equal(ds.values, [[1.0, 2.0], [10.0, 20.0],
                                          [100.0, 200.0]])

    @pytest.mark.parametrize("text, names", [
        ("1.0,2.0\n3.0,4.0\n5.0,6.0\n", ["ch0", "ch1"]),
        ("a,b\n1,10\n2,20\n", ["a", "b"])], ids=["headerless", "header"])
    def test_byte_order_mark_is_not_data(self, tmp_path, text, names):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark, which
        # belongs to neither the first cell nor the first channel's name
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        ds = load_csv(marked)
        assert ds.channel_names == names
        assert np.array_equal(ds.values, load_csv(plain).values)

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

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3,x,5\n", "ragged row 2 has 3 fields, expected 2"),
        ("a,b\nx\n", "header has 2 fields, data rows have 1"),
    ])
    def test_width_checked_before_values(self, tmp_path, text, message):
        # a row that is both ragged and unparseable reads as ragged
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
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

    def test_directory_is_data_error(self, tmp_path):
        # the open raises for itself; cli.main turns any OSError into exit 66
        with pytest.raises(IsADirectoryError):
            load_csv(tmp_path)

    def test_header_shorter_than_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1,2\n3,4\n")
        with pytest.raises(FormatError, match="header has 1 fields"):
            load_csv(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(FormatError, match="d.csv"):
            load_csv(path)

    def test_field_beyond_csv_limit_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1," + "9" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(FormatError, match="d.csv"):
            load_csv(path)

    def test_wide_csv_peak_memory_is_a_small_multiple(self, tmp_path):
        # every row's floats go into one flat float64 buffer, and one
        # transposing copy makes the channel-major array, so the peak is
        # about twice the values at any width: 2.0x measured on the
        # 100-row x 1,000-channel file and 2.2x on the 20,000-row x
        # 1-channel one, where one small array per row peaked at 39.4x
        for channels, steps in ((1000, 100), (1, 20000)):
            values = make_series(channels, steps, seed=3)
            path = tmp_path / f"{channels}x{steps}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"c{j}" for j in range(channels)])
                writer.writerows([repr(float(x)) for x in row]
                                 for row in values.T)
            tracemalloc.start()
            try:
                ds = load_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(ds.values, values)
            assert peak < 3 * ds.values.nbytes, (channels,
                                                 peak / ds.values.nbytes)

    @given(blob=st.one_of(
        st.binary(max_size=200),
        st.text(st.sampled_from(list("0123456789.,-+eE naINf\"\r\n\t")),
                max_size=200).map(str.encode)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_load_or_refuse(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("blob") / "d.csv"
        path.write_bytes(blob)
        try:
            ds = load_csv(path)
        except (FormatError, DataError, ShapeError):
            return
        assert ds.values.ndim == 2 and ds.values.shape[1] >= 1
        assert len(ds.channel_names) == ds.n_channels
        assert np.all(np.isfinite(ds.values))

    @given(rows=st.integers(1, 6).flatmap(lambda width: st.lists(
        st.lists(CELLS, min_size=width, max_size=width), min_size=1,
        max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_rows_convert_as_token_by_token(self, tmp_path_factory, rows):
        # a row converts through float() up to a token that needs the
        # missing rules or is bad, and on from there through those rules;
        # either way it must read as the per-token rules do
        path = tmp_path_factory.mktemp("cells") / "d.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert load_outcome(load_csv, path) == load_outcome(
            per_token_load, path)


def test_save_load_round_trip_bit_exact(tmp_path):
    values = make_series(3, 40, seed=5)
    names = ["a", "b", "c"]
    path = tmp_path / "rt.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([repr(float(x)) for x in row] for row in values.T)
    back = load_csv(path)
    assert back.channel_names == names
    assert np.array_equal(back.values, values)


class TestSlidingWindows:
    def test_count_and_content(self):
        values = make_series(2, 20)
        batch = sliding_windows(values, lookback=6, horizon=3)
        assert batch.count == 20 - 6 - 3 + 1
        for i, s in enumerate(batch.starts):
            assert np.array_equal(batch.inputs[i], values[:, s:s + 6])
            assert np.array_equal(batch.targets[i], values[:, s + 6:s + 9])

    def test_exact_fit_single_window(self):
        assert sliding_windows(make_series(1, 9), 6, 3).count == 1

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            sliding_windows(make_series(1, 8), 6, 3)

    def test_bad_lengths_rejected(self):
        values = make_series(1, 20)
        for kw in ({"lookback": 0, "horizon": 1}, {"lookback": 1, "horizon": 0}):
            with pytest.raises(DataError):
                sliding_windows(values, **kw)

    @given(n=st.integers(10, 60), lookback=st.integers(1, 8),
           horizon=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_window_count_formula(self, n, lookback, horizon):
        if n < lookback + horizon:
            return
        batch = sliding_windows(make_series(1, n), lookback, horizon)
        assert batch.count == n - lookback - horizon + 1
        last = batch.starts[-1]
        assert last + lookback + horizon <= n


    @given(c=st.integers(1, 4), n=st.integers(2, 40),
           lookback=st.integers(1, 12), horizon=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_window_slicing(self, c, n, lookback, horizon):
        if n < lookback + horizon:
            return
        values = make_series(c, n)
        batch = sliding_windows(values, lookback, horizon)
        starts = range(n - lookback - horizon + 1)
        inputs = np.stack([values[:, s:s + lookback] for s in starts])
        targets = np.stack([values[:, s + lookback:s + lookback + horizon]
                            for s in starts])
        for got, want in ((batch.inputs, inputs), (batch.targets, targets)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.owndata
        assert list(batch.starts) == list(starts)


class TestSplit:
    def test_boundaries_chronological(self):
        values = make_series(2, 100)
        train, val, test = split_chronological(values, (0.7, 0.1, 0.2), 2)
        assert train.shape[1] == 70 and val.shape[1] == 10 and test.shape[1] == 20
        assert np.array_equal(train, values[:, :70])
        assert np.array_equal(val, values[:, 70:80])
        assert np.array_equal(test, values[:, 80:])
        # segments are views of the series, not copies
        assert all(np.shares_memory(seg, values) for seg in (train, val, test))

    def test_zero_val_ratio(self):
        train, val, test = split_chronological(make_series(1, 50),
                                               (0.8, 0.0, 0.2), 2)
        assert val is None
        assert train.shape[1] == 40 and test.shape[1] == 10

    def test_ratio_validation(self):
        values = make_series(1, 50)
        with pytest.raises(ParameterError):
            split_chronological(values, (0.5, 0.5, 0.5), 2)
        with pytest.raises(ParameterError):
            split_chronological(values, (-0.1, 0.6, 0.5), 2)
        with pytest.raises(ParameterError):
            split_chronological(values, (float("nan"), 0.5, 0.5), 2)

    def test_min_rows_guard(self):
        with pytest.raises(DataError):
            split_chronological(make_series(1, 100), (0.7, 0.1, 0.2),
                                min_rows=11)

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            split_chronological(make_series(1, 3), (0.1, 0.0, 0.9), 1)


class TestZScore:
    def test_train_only_statistics(self):
        values = make_series(3, 60, seed=9)
        normed = zscore_apply(values, *zscore_fit(values))
        assert np.allclose(normed.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(normed.std(axis=1), 1.0, atol=1e-12)

    def test_constant_channel_guarded(self):
        vals = np.vstack([np.full(20, 7.0), np.arange(20.0)])
        normed = zscore_apply(vals, *zscore_fit(vals))
        assert np.allclose(normed[0], 0.0)
        assert np.all(np.isfinite(normed))


def test_window_batch_count():
    b = WindowBatch(inputs=np.zeros((5, 2, 4)), targets=np.zeros((5, 2, 2)),
                    starts=np.arange(5))
    assert b.count == 5
