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


def load_csv(path) -> TimeSeriesDataset:
    """Read a time-major UTF-8 CSV; a first row that does not parse as
    numbers is the header.  NaNs are linearly interpolated (edge-filled at
    the boundaries) and counted in `repaired_cells`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty dataset file")

    def to_float(tok: str) -> float:
        tok = tok.strip()
        if tok.lower() in _NAN_TOKENS:
            return math.nan
        return float(tok)

    def parses(tokens: list[str]) -> bool:
        try:
            for tok in tokens:
                to_float(tok)
        except ValueError:
            return False
        return True

    names: list[str] | None = None
    if not parses(rows[0]):
        names = [tok.strip() for tok in rows[0]]
        rows = rows[1:]
    if not rows:
        raise FormatError(f"{path}: no data rows")
    width = len(rows[0])
    if names is None:
        names = [f"ch{j}" for j in range(width)]
    elif len(names) != width:
        raise FormatError(
            f"{path}: header has {len(names)} fields, data rows have {width}")
    raw = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(
                f"{path}: ragged row {i + 1} has {len(row)} fields, expected {width}")
        try:
            raw[i] = [to_float(tok) for tok in row]
        except ValueError as exc:
            raise FormatError(f"{path}: unparseable value in row {i + 1}") from exc

    values = raw.T.copy()
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


def split_chronological(values: np.ndarray, ratios: tuple[float, float, float],
                        min_rows: int
                        ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Cut a channel-major series into train / val / test column views.

    Boundaries are floor(N * cumulative ratio); a zero ratio yields no val
    segment.  Windows built per segment can therefore never straddle a
    boundary.  min_rows (lookback + horizon of the intended windows) makes a
    too-short non-empty segment fail here instead of downstream.
    """
    if len(ratios) != 3:
        raise ParameterError(f"need (train, val, test) ratios, got {ratios}")
    # stated as what must hold, so that a NaN ratio fails it
    if not (all(r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ParameterError(
            f"ratios must be non-negative and sum to 1, got {ratios}")
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
