"""Dataset ingestion and window construction.

On disk a series is time-major CSV (rows = time steps, columns = channels);
in memory it is channel-major (C x N), matching the model's input layout.
Ingestion repairs missing values once and guarantees a finite matrix from
then on.  Splits are chronological, and windows never straddle a split
boundary because each segment is windowed independently.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError, ShapeError

_NAN_TOKENS = {"", "nan", "na", "null", "none"}


@dataclass
class TimeSeriesDataset:
    values: np.ndarray                      # channel-major, C x N
    channel_names: list[str]
    source: str = ""
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

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


@dataclass
class WindowBatch:
    inputs: np.ndarray       # B x C x T
    targets: np.ndarray      # B x C x S
    starts: np.ndarray       # B source offsets into the segment

    @property
    def count(self) -> int:
        return self.inputs.shape[0]


def _interpolate_channel(col: np.ndarray, name: str) -> tuple[np.ndarray, int]:
    bad = ~np.isfinite(col)
    if not bad.any():
        return col, 0
    if bad.all():
        raise DataError(f"channel '{name}' has no finite values")
    idx = np.arange(col.size)
    good = ~bad
    # linear interior interpolation; np.interp clamps to the edge values,
    # which is exactly the boundary fill the ingestion contract asks for
    col = col.copy()
    col[bad] = np.interp(idx[bad], idx[good], col[good])
    return col, int(bad.sum())


def load_csv(path) -> TimeSeriesDataset:
    """Read a time-major CSV; a first row that does not parse as numbers is
    the header.  NaNs are linearly interpolated (edge-filled at the
    boundaries) and counted in `repaired_cells`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    with path.open("r", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
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
    raw = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(
                f"{path}: ragged row {i + 1} has {len(row)} fields, expected {width}")
        try:
            raw[i] = [to_float(tok) for tok in row]
        except ValueError as exc:
            raise FormatError(f"{path}: unparseable value in row {i + 1}") from exc
    if names is None:
        names = [f"ch{j}" for j in range(width)]

    values = raw.T.copy()
    repaired = 0
    for c in range(values.shape[0]):
        values[c], n = _interpolate_channel(values[c], names[c])
        repaired += n
    return TimeSeriesDataset(values=values, channel_names=names,
                             source=str(path), repaired_cells=repaired)


def save_csv(path, ds: TimeSeriesDataset) -> None:
    """Write time-major CSV with a header row; round-trips bit-exactly."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.channel_names)
        for t in range(ds.n_steps):
            writer.writerow([repr(float(x)) for x in ds.values[:, t]])


def sliding_windows(ds: TimeSeriesDataset, lookback: int,
                    horizon: int) -> WindowBatch:
    """Every (lookback -> horizon) window of the series, one per start step.

    Window count is N - lookback - horizon + 1.
    """
    if lookback < 1 or horizon < 1:
        raise DataError(
            f"lookback/horizon must be >= 1, got {lookback}/{horizon}")
    n = ds.n_steps
    span = lookback + horizon
    if n < span:
        raise DataError(
            f"segment of {n} steps is too short for lookback {lookback} + "
            f"horizon {horizon}")
    count = n - span + 1
    starts = np.arange(count)
    inputs = np.empty((count, ds.n_channels, lookback), dtype=np.float64)
    targets = np.empty((count, ds.n_channels, horizon), dtype=np.float64)
    for i, s in enumerate(starts):
        inputs[i] = ds.values[:, s:s + lookback]
        targets[i] = ds.values[:, s + lookback:s + span]
    return WindowBatch(inputs=inputs, targets=targets, starts=starts)


def split_chronological(ds: TimeSeriesDataset,
                        ratios: tuple[float, float, float],
                        min_rows: int | None = None
                        ) -> tuple[TimeSeriesDataset, TimeSeriesDataset | None,
                                   TimeSeriesDataset]:
    """Cut the series into train / val / test segments by row index.

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
    n = ds.n_steps
    n1 = int(math.floor(n * ratios[0]))
    n2 = int(math.floor(n * (ratios[0] + ratios[1])))

    def segment(lo: int, hi: int, label: str) -> TimeSeriesDataset | None:
        if hi <= lo:
            return None
        seg = TimeSeriesDataset(values=ds.values[:, lo:hi].copy(),
                                channel_names=list(ds.channel_names),
                                source=ds.source)
        if min_rows is not None and seg.n_steps < min_rows:
            raise DataError(
                f"{label} segment has {seg.n_steps} rows, too short to build a "
                f"{min_rows}-row window")
        return seg

    train = segment(0, n1, "train")
    val = segment(n1, n2, "val")
    test = segment(n2, n, "test")
    if train is None or test is None:
        raise DataError(f"split {ratios} left an empty train or test segment")
    if ratios[1] > 0 and val is None:
        raise DataError(f"split {ratios} left an empty val segment")
    return train, val, test


@dataclass
class ZScoreStats:
    mean: np.ndarray
    std: np.ndarray
    guarded_std: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.std = np.asarray(self.std, dtype=np.float64).reshape(-1)
        # constant channels standardize to zeros instead of dividing by zero
        self.guarded_std = np.maximum(self.std, 1e-8)


def zscore_fit(ds: TimeSeriesDataset) -> ZScoreStats:
    """Per-channel statistics; call on the training segment only."""
    return ZScoreStats(mean=ds.values.mean(axis=1), std=ds.values.std(axis=1))


def zscore_apply(ds: TimeSeriesDataset, stats: ZScoreStats) -> TimeSeriesDataset:
    vals = (ds.values - stats.mean[:, None]) / stats.guarded_std[:, None]
    return TimeSeriesDataset(values=vals, channel_names=list(ds.channel_names),
                             source=ds.source)
