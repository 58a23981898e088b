"""Chord-based track geometry measures on the distance grid.

The mid-chord offset of a profile z over a chord of length d,

    VA_d(x) = z(x) - (z(x - d/2) + z(x + d/2)) / 2,

is what recording cars publish for vertical (VA) and horizontal (HA)
alignment. Its spatial transfer function 1 - cos(pi d nu) has zeros at even
multiples of 1/d and maxima of 2 at odd multiples, which drives both the
integration cutoff choice and the spectral sanity checks here.

Profiles and alignments are both spatial.SpatialSeries on the same grid; an
alignment keeps its profile's units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import signal as sps

from .errors import TooShortError
from .spatial import SpatialSeries, _bool_runs

MODE_MAX_ABS = "max_abs"      # the one summary: compare metadata names it
VALID_FRACTION_THRESHOLD = 0.5
PSD_SEGMENT_SAMPLES = 512          # 128 m of 0.25 m samples
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


@dataclass(frozen=True)
class SpatialPSD:
    """One-sided spatial power spectral density, units mm^2 * m."""

    nu_axis: np.ndarray          # cycles/m
    density: np.ndarray


def chord_alignment(z: SpatialSeries, chord_m: float) -> SpatialSeries:
    """Mid-chord offset of a spatial profile over a chord of chord_m metres.

    Raises ValueError unless chord_m is finite, > 0 and puts d/2 on z's
    grid. The first and last half-chord of samples have no full chord
    support and are NaN with valid=False.
    """
    half = chord_m / (2.0 * z.spacing_m)
    if not 0 < chord_m < np.inf \
            or abs(half - round(half)) > 1e-9 * max(1.0, half):
        raise ValueError(f"chord of {chord_m} m must be > 0 with d/2 on the "
                         f"{z.spacing_m} m grid")
    h = int(round(half))
    n = len(z)
    if n < 2 * h + 1:
        raise TooShortError(f"series of {n} samples shorter than one chord "
                            f"({2 * h + 1} samples)")
    x = z.values
    out = np.full(n, np.nan)
    out[h:n - h] = x[h:n - h] - 0.5 * (x[:n - 2 * h] + x[2 * h:])
    valid = np.zeros(n, dtype=bool)
    valid[h:n - h] = z.valid[h:n - h] & z.valid[:n - 2 * h] & z.valid[2 * h:]
    out[~valid] = np.nan
    return replace(z, values=out, valid=valid)


def transfer_function(chord_m: float, nu):
    """Amplitude response H(nu) = 1 - cos(pi d nu) of the mid-chord offset."""
    return 1.0 - np.cos(np.pi * chord_m * np.asarray(nu, dtype=float))


def select_cutoff(chord_d_m: float, v_ref_mps: float = REFERENCE_LOW_SPEED_MPS) -> float:
    """Integration high-pass cutoff for a chord: lowest temporal frequency of
    the chord's first amplification maximum, f = v_ref / d.

    The published value for the 35 m chord at the 3 m/s reference speed is
    the rounded 0.1 Hz rather than 3/35 Hz, and is returned as-is.
    """
    if not chord_d_m > 0:
        raise ValueError(f"chord length must be > 0, got {chord_d_m}")
    if not v_ref_mps > 0:
        raise ValueError(f"reference speed must be > 0, got {v_ref_mps}")
    if chord_d_m == 35.0 and v_ref_mps == 3.0:
        return 0.1
    return v_ref_mps / chord_d_m


def windowed_max(series: SpatialSeries, window_m: float) -> WindowedStats:
    """Largest |value| per tumbling window of ``window_m``, aligned to start_m.

    Each window's value is taken over its valid samples only; windows with
    less than half their nominal samples valid (including windows truncated
    by the end of the series) are reported but fall below the usable
    threshold. Raises ValueError unless window_m is finite and at least
    the grid spacing.
    """
    if not series.spacing_m <= window_m < np.inf:
        raise ValueError(f"window of {window_m} m must be finite and at least "
                         f"the grid spacing {series.spacing_m} m")
    dx = series.spacing_m
    n = len(series)
    rel = dx * np.arange(n)   # position relative to start_m, exact for k*dx
    idx = np.floor(rel / window_m + 1e-9).astype(int)
    n_windows = idx[-1] + 1
    k = np.arange(n_windows + 1)
    starts = series.start_m + window_m * k[:-1]
    # idx is sorted: window k holds grid points [bounds[k], bounds[k + 1])
    bounds = np.searchsorted(idx, k)
    ok = series.valid
    n_good = np.diff(np.concatenate(([0], np.cumsum(ok)))[bounds])
    peak = np.maximum.reduceat(np.where(ok, np.abs(series.values), -np.inf),
                               bounds[:-1])
    values = np.where(n_good > 0, peak, np.nan)
    # nominal count: grid points the window would hold if the series
    # continued; truncated trailing windows are penalized by this
    edges = np.ceil(k * window_m / dx - 1e-9)
    nominal = np.diff(edges)
    fractions = np.divide(n_good, nominal, out=np.zeros(n_windows),
                          where=nominal > 0)
    return WindowedStats(float(window_m), starts, values, fractions)


def psd_spatial(series: SpatialSeries) -> SpatialPSD:
    """Averaged-periodogram spatial PSD of a profile or alignment series.

    Hann-tapered segments of PSD_SEGMENT_SAMPLES (128 m at 0.25 m spacing)
    with 50% overlap, density scaling: the integral of the density over nu
    approximates the series variance. Works on the longest contiguous valid
    run; raises TooShortError when that run is shorter than one segment.
    """
    runs = _bool_runs(series.valid & np.isfinite(series.values))
    lo, hi = max(runs, key=lambda r: r[1] - r[0], default=(0, 0))
    if hi - lo < PSD_SEGMENT_SAMPLES:
        raise TooShortError(f"longest valid run of {hi - lo} samples shorter "
                            f"than one PSD segment ({PSD_SEGMENT_SAMPLES})")
    x = series.values[lo:hi]
    nu, density = sps.welch(x, fs=1.0 / series.spacing_m, window="hann",
                            nperseg=PSD_SEGMENT_SAMPLES,
                            noverlap=PSD_SEGMENT_SAMPLES // 2,
                            detrend="constant", scaling="density")
    return SpatialPSD(nu, density)
