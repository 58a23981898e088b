"""From the time domain to the distance domain.

build_distance_axis turns a speed profile into a per-sample position along
the track; resample_to_space interpolates any synchronous record onto the
uniform 0.25 m distance grid, the recording-car step.
Stretches where the vehicle is practically standing still produce no usable
spatial information: moving marks them in the speed, so that a caller can
hand the mask to resample_to_space, which makes them NaN on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooShortError
from .layout import TRC_SPACING_M
from .timeseries import TimeSeries

STATIONARY_SPEED_MPS = 0.5
STATIONARY_MIN_DURATION_S = 1.0


@dataclass(frozen=True)
class DistanceAxis:
    """Position along the track for every time sample."""

    positions_m: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions_m, dtype=np.float64)
        if pos.ndim != 1 or pos.size == 0:
            raise ValueError("positions_m must be a non-empty 1-D array")
        if np.any(np.diff(pos) < 0):
            raise ValueError("positions_m must be non-decreasing")
        object.__setattr__(self, "positions_m", pos)

    def __len__(self) -> int:
        return self.positions_m.size


@dataclass(frozen=True)
class SpatialSeries:
    """Values on a uniform distance grid: value i sits at start_m + i*spacing.

    Displacement, ground-truth profile and chord alignment all use this
    type. NaN is the one mark of an invalid value: exactly the finite
    values are valid.
    """

    values: np.ndarray
    spacing_m: float
    start_m: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not self.spacing_m > 0:
            raise ValueError(f"spacing_m must be > 0, got {self.spacing_m}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.values)

    def positions(self) -> np.ndarray:
        return self.start_m + self.spacing_m * np.arange(self.values.size)


def build_distance_axis(speed) -> DistanceAxis:
    """Cumulative position from 0 m: x[n] = sum_{k<=n} v[k] * dt.

    Rejects negative speeds; zero speed holds the position constant.
    """
    v = np.asarray(speed.speeds_mps, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("speeds must be non-negative")
    return DistanceAxis(np.cumsum(v) / speed.sample_rate_hz)


def _bool_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) index ranges of consecutive True values."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(edges[::2], edges[1::2]))


def moving(speed) -> np.ndarray:
    """Mask of the speed samples outside standstill: False over every run
    below STATIONARY_SPEED_MPS that lasts longer than
    STATIONARY_MIN_DURATION_S."""
    ok = np.ones(len(speed.speeds_mps), dtype=bool)
    for s, e in _bool_runs(speed.speeds_mps < STATIONARY_SPEED_MPS):
        if e - s > STATIONARY_MIN_DURATION_S * speed.sample_rate_hz:
            ok[s:e] = False
    return ok


def resample_to_space(ts: TimeSeries, axis: DistanceAxis,
                      valid=None) -> SpatialSeries:
    """Linear interpolation of a time series onto the TRC_SPACING_M grid.

    The grid runs from ceil(min/spacing)*spacing to floor(max/spacing)*spacing,
    so sample count = floor(span/spacing) + 1 up to grid snapping. valid, a
    mask of the time samples (None: all valid), is interpolated as the
    values are: a grid point that leans on an invalid sample is NaN, unless
    it sits exactly on a valid one.
    """
    dx = TRC_SPACING_M
    if len(ts) != len(axis):
        raise ValueError("time series and distance axis must have equal length")
    ok = np.asarray(np.ones(len(ts)) if valid is None else valid, dtype=bool)
    if ok.shape != (len(ts),):
        raise ValueError(f"valid mask of shape {ok.shape} for a record of "
                         f"{len(ts)} samples")
    pos = axis.positions_m
    span = pos[-1] - pos[0]
    if span < dx:
        raise TooShortError(f"track span {span:.3f} m shorter than one grid "
                            f"step of {dx} m")
    start = np.ceil(pos[0] / dx - 1e-9) * dx
    stop = np.floor(pos[-1] / dx + 1e-9) * dx
    count = int(round((stop - start) / dx)) + 1
    grid = start + dx * np.arange(count)
    values = np.interp(grid, pos, ts.samples)
    values[np.interp(grid, pos, ok.astype(np.float64)) < 1.0] = np.nan
    return SpatialSeries(values, dx, float(start))
