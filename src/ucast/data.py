"""Dataset ingestion and window construction.

On disk a series is time-major CSV (rows = time steps, columns = channels);
in memory it is channel-major (C x N), matching the model's input layout.
Ingestion repairs missing values once and guarantees a finite matrix from
then on, so splitting, standardizing and windowing take and return plain
arrays.  Splits are chronological, and windows never straddle a split
boundary because each segment is windowed independently.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError, ShapeError

_NAN_TOKENS = {"", "nan", "na", "null", "none"}


@dataclass
class TimeSeriesDataset:
    values: np.ndarray                      # channel-major, C x N
    channel_names: list[str]
    repaired_cells: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"dataset values must be 2-D, got {self.values.shape}")
        if len(self.channel_names) != self.values.shape[0]:
            raise ShapeError(
                f"{len(self.channel_names)} channel names for "
                f"{self.values.shape[0]} channels")
        if not np.all(np.isfinite(self.values)):
            raise DataError("dataset holds non-finite values after ingestion")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]


@dataclass
class WindowBatch:
    inputs: np.ndarray       # B x C x T
    targets: np.ndarray      # B x C x S
    starts: np.ndarray       # B source offsets into the segment

    @property
    def count(self) -> int:
        return self.inputs.shape[0]


def _interpolate_channel(col: np.ndarray, label: str) -> int:
    """Fill the non-finite cells of `col` in place; return how many."""
    bad = ~np.isfinite(col)
    if not bad.any():
        return 0
    if bad.all():
        raise DataError(f"{label} has no finite values")
    # linear interior interpolation; np.interp clamps to the edge values,
    # which is exactly the boundary fill the ingestion contract asks for
    col[bad] = np.interp(np.flatnonzero(bad), np.flatnonzero(~bad), col[~bad])
    return int(bad.sum())


def _read_csv(path: Path, rows: float = math.inf) -> tuple[list[str], array]:
    """The channel names of a time-major UTF-8 CSV and, in one flat float64
    buffer, the floats of its first `rows` data rows (all by default), read
    in one pass; a first row that does not convert is the header."""

    def to_float(tok: str) -> float:
        tok = tok.strip()
        if tok.lower() in _NAN_TOKENS:
            return math.nan
        return float(tok)

    buf = array("d")
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            reader = filter(None, csv.reader(fh))
            first = next(reader, None)
            if first is None:
                raise FormatError(f"{path}: empty dataset file")
            try:
                buf.extend(map(to_float, first))
                names = [f"ch{j}" for j in range(len(first))]
            except ValueError:
                del buf[:]          # the floats converted before the failure
                names = [tok.strip() for tok in first]
            # numbered as data rows: 1 is the first row after a header
            for number, tokens in enumerate(reader, start=2 if buf else 1):
                if number > rows:
                    break
                # width before values, so a ragged row reads as ragged
                if len(tokens) != len(names):
                    raise FormatError(
                        f"{path}: header has {len(names)} fields, data rows "
                        f"have {len(tokens)}" if number == 1 else
                        f"{path}: ragged row {number} has {len(tokens)} "
                        f"fields, expected {len(names)}")
                # float() strips the whitespace str.strip() does and reads
                # every spelling of nan; from a token it refuses (another
                # missing token, or a bad one) the row goes on through the
                # per-token rules, after the floats extend() kept
                start = len(buf)
                try:
                    buf.extend(map(float, tokens))
                except ValueError:
                    try:
                        buf.extend(map(to_float, tokens[len(buf) - start:]))
                    except ValueError as exc:
                        raise FormatError(
                            f"{path}: unparseable value in row {number}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: unreadable CSV: {exc}") from exc
    return names, buf


def csv_channels(path) -> int:
    """load_csv's channel count, from the header and two data rows alone."""
    return len(_read_csv(Path(path), rows=2)[0])


def load_csv(path) -> TimeSeriesDataset:
    """Read a time-major UTF-8 CSV.  NaNs are linearly interpolated
    (edge-filled at the boundaries) and counted in `repaired_cells`."""
    path = Path(path)
    names, buf = _read_csv(path)
    if not buf:
        raise FormatError(f"{path}: no data rows")

    # time-major in the buffer; one transposing copy makes it channel-major
    values = np.frombuffer(buf).reshape(-1, len(names)).T.copy()
    repaired = sum(_interpolate_channel(values[c], f"{path}: channel '{name}'")
                   for c, name in enumerate(names))
    return TimeSeriesDataset(values=values, channel_names=names,
                             repaired_cells=repaired)


def sliding_windows(values: np.ndarray, lookback: int,
                    horizon: int) -> WindowBatch:
    """Every (lookback -> horizon) window of a channel-major C x N series,
    one per start step, as two C-contiguous copies.

    Window count is N - lookback - horizon + 1.
    """
    if lookback < 1 or horizon < 1:
        raise DataError(
            f"lookback/horizon must be >= 1, got {lookback}/{horizon}")
    channels, n = values.shape
    span = lookback + horizon
    if n < span:
        raise DataError(
            f"segment of {n} steps is too short for lookback {lookback} + "
            f"horizon {horizon}")
    count = n - span + 1
    view = np.lib.stride_tricks.sliding_window_view(values, span, axis=1)
    view = view.transpose(1, 0, 2)                    # count x C x span
    # one assignment into each preallocated array; `.copy()` of the view
    # slices gave the same bytes but a 5% higher peak RSS in perfbench's
    # forecaster_desk loop
    inputs = np.empty((count, channels, lookback))
    targets = np.empty((count, channels, horizon))
    inputs[...] = view[:, :, :lookback]
    targets[...] = view[:, :, lookback:]
    return WindowBatch(inputs, targets, np.arange(count))


def check_split_ratios(ratios: tuple[float, float, float]) -> None:
    """Refuse ratios split_chronological refuses for every series length."""
    if len(ratios) != 3:
        raise ParameterError(f"need (train, val, test) ratios, got {ratios}")
    # stated as what must hold, so that a NaN ratio fails it
    if not (ratios[0] > 0 and ratios[1] >= 0 and ratios[2] > 0
            and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ParameterError(
            "ratios must be non-negative with nonzero train and test, and "
            f"sum to 1, got {ratios}")


def split_chronological(values: np.ndarray, ratios: tuple[float, float, float],
                        min_rows: int
                        ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Cut a channel-major series into train / val / test column views.

    Boundaries are floor(N * cumulative ratio); train and test need nonzero
    ratios, and a zero val ratio yields no val segment.  Windows built per
    segment can therefore never straddle a boundary.  min_rows (lookback +
    horizon of the intended windows) makes a too-short non-empty segment
    fail here instead of downstream.
    """
    check_split_ratios(ratios)
    n = values.shape[1]
    n1 = int(math.floor(n * ratios[0]))
    n2 = int(math.floor(n * (ratios[0] + ratios[1])))

    def segment(lo: int, hi: int, label: str) -> np.ndarray | None:
        if hi <= lo:
            return None
        if hi - lo < min_rows:
            raise DataError(
                f"{label} segment has {hi - lo} rows, too short to build a "
                f"{min_rows}-row window")
        return values[:, lo:hi]

    train = segment(0, n1, "train")
    val = segment(n1, n2, "val")
    test = segment(n2, n, "test")
    if train is None or test is None:
        raise DataError(f"split {ratios} left an empty train or test segment")
    if ratios[1] > 0 and val is None:
        raise DataError(f"split {ratios} left an empty val segment")
    return train, val, test


def zscore_fit(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and scale; call on the training segment only.

    Constant channels get scale 1e-8 and so standardize to zeros instead of
    dividing by zero.
    """
    return values.mean(axis=1), np.maximum(values.std(axis=1), 1e-8)


def zscore_apply(values: np.ndarray, mean: np.ndarray,
                 scale: np.ndarray) -> np.ndarray:
    return (values - mean[:, None]) / scale[:, None]
