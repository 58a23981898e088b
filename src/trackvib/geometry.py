"""Chord-based track geometry measures on the distance grid.

The mid-chord offset of a profile z over a chord of length d,

    VA_d(x) = z(x) - (z(x - d/2) + z(x + d/2)) / 2,

is what recording cars publish for vertical (VA) and horizontal (HA)
alignment. Its spatial transfer function 1 - cos(pi d nu) has zeros at even
multiples of 1/d and maxima of 2 at odd multiples, which drives the
integration cutoff choice (select_cutoff).

Profiles and alignments are both spatial.SpatialSeries on the TRC_SPACING_M
grid; an alignment keeps its profile's units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import TooShortError
from .layout import TRC_SPACING_M
from .spatial import SpatialSeries

MODE_MAX_ABS = "max_abs"      # the one summary: compare metadata names it
VALID_FRACTION_THRESHOLD = 0.5
REFERENCE_LOW_SPEED_MPS = 3.0


@dataclass(frozen=True)
class WindowedStats:
    """Per-window summary values over tumbling distance windows."""

    window_m: float
    starts_m: np.ndarray
    values: np.ndarray
    valid_fraction: np.ndarray

    def __len__(self) -> int:
        return self.values.size

    @property
    def ends_m(self) -> np.ndarray:
        return self.starts_m + self.window_m

    @property
    def usable(self) -> np.ndarray:
        """Windows with enough valid samples to trust (>= 50%)."""
        return (self.valid_fraction >= VALID_FRACTION_THRESHOLD) & np.isfinite(self.values)


def chord_alignment(z: SpatialSeries, chord_m: float) -> SpatialSeries:
    """Mid-chord offset of a spatial profile over a chord of chord_m metres.

    Raises ValueError unless chord_m is finite, > 0 and puts d/2 on the
    TRC_SPACING_M grid. The first and last half-chord of samples have no
    full chord support and are NaN, as is every offset whose centre or foot
    is NaN in z.
    """
    half = chord_m / (2.0 * TRC_SPACING_M)
    if not 0 < chord_m < np.inf \
            or abs(half - round(half)) > 1e-9 * max(1.0, half):
        raise ValueError(f"chord of {chord_m} m must be > 0 with d/2 on the "
                         f"{TRC_SPACING_M} m grid")
    h = int(round(half))
    n = len(z)
    if n < 2 * h + 1:
        raise TooShortError(f"series of {n} samples shorter than one chord "
                            f"({2 * h + 1} samples)")
    x = z.values
    out = np.full(n, np.nan)
    out[h:n - h] = x[h:n - h] - 0.5 * (x[:n - 2 * h] + x[2 * h:])
    return replace(z, values=out)


def transfer_function(chord_m: float, nu):
    """Amplitude response H(nu) = 1 - cos(pi d nu) of the mid-chord offset."""
    return 1.0 - np.cos(np.pi * chord_m * np.asarray(nu, dtype=float))


def select_cutoff(chord_d_m: float) -> float:
    """Integration high-pass cutoff for a chord: lowest temporal frequency of
    the chord's first amplification maximum at the reference survey speed,
    f = REFERENCE_LOW_SPEED_MPS / d.

    The published value for the 35 m chord is the rounded 0.1 Hz rather
    than 3/35 Hz, and is returned as-is.
    """
    if not chord_d_m > 0:
        raise ValueError(f"chord length must be > 0, got {chord_d_m}")
    if chord_d_m == 35.0:
        return 0.1
    return REFERENCE_LOW_SPEED_MPS / chord_d_m


@lru_cache(maxsize=16)
def _window_layout(n: int, window_m: float):
    """Tumbling windows of window_m over n points of the TRC_SPACING_M grid:
    each window's offset from the series start, its bounds into the grid
    (window k holds points [bounds[k], bounds[k + 1])) and its nominal
    count. Every series of one length shares the arrays, so they are
    read-only."""
    dx = TRC_SPACING_M
    rel = dx * np.arange(n)   # position relative to start_m, exact for k*dx
    idx = np.floor(rel / window_m + 1e-9).astype(int)
    k = np.arange(idx[-1] + 2)
    # idx is sorted, so its window boundaries are where k would insert
    bounds = np.searchsorted(idx, k)
    # nominal count: grid points the window would hold if the series
    # continued; truncated trailing windows are penalized by this
    nominal = np.diff(np.ceil(k * window_m / dx - 1e-9))
    offsets = window_m * k[:-1]
    for a in (offsets, bounds, nominal):
        a.flags.writeable = False
    return offsets, bounds, nominal


def windowed_max(series: SpatialSeries, window_m: float) -> WindowedStats:
    """Largest |value| per tumbling window of ``window_m``, aligned to start_m.

    Each window's value is taken over its valid samples only; windows with
    less than half their nominal samples valid (including windows truncated
    by the end of the series) are reported but fall below the usable
    threshold. Raises ValueError unless window_m is finite and at least
    the grid spacing TRC_SPACING_M.

    The window layout (offsets, grid bounds and nominal counts) depends on
    the length and window alone; ``_window_layout`` computes it once per
    length and shares it, read-only, among the series that have it.
    """
    if not TRC_SPACING_M <= window_m < np.inf:
        raise ValueError(f"window of {window_m} m must be finite and at least "
                         f"the grid spacing {TRC_SPACING_M} m")
    offsets, bounds, nominal = _window_layout(len(series), float(window_m))
    ok = series.valid
    n_good = np.diff(np.concatenate(([0], np.cumsum(ok)))[bounds])
    peak = np.maximum.reduceat(np.where(ok, np.abs(series.values), -np.inf),
                               bounds[:-1])
    values = np.where(n_good > 0, peak, np.nan)
    fractions = np.divide(n_good, nominal, out=np.zeros(offsets.size),
                          where=nominal > 0)
    return WindowedStats(float(window_m), series.start_m + offsets, values,
                         fractions)
