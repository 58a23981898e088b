"""Speed over ground from two displacement signals a wheelbase apart.

The rear sensor sees the same track as the front one, delayed by
wheelbase / speed. The delay is found per evaluation window as the argmax of
the windowed cross correlation between the two displacement records, refined
to sub-sample resolution with a parabolic fit, converted to speed and cleaned
with a median filter.

The windows are correlated in batches: one real FFT of each window's back
segment and front window, zero-padded to a 5-smooth length that no product
wraps around, one inverse of their cross spectra, and the argmax, quality,
edge test and parabola for the whole batch at once. A batch holds as many
windows as keep its float64 working set near _BATCH_FLOATS, so memory does
not grow with the record beyond the per-sample outputs.

The 5-smooth length is timeseries.next_fast_len, and the median filter is
the package's own, so that no command loads scipy. The median of a window
of 2h + 1 speeds is exact, as scipy.ndimage.median_filter's is, and needs
no copy of the windows where the window has at most one reversal of
direction (flat steps take no side), which holds for all but a few
percent of the windows of an interpolated speed. Such a window rises then
falls, or falls then rises, so each of its h + 1 blocks of h + 1
consecutive samples has its extremes at its two ends. Its h + 1 largest
samples are one of those blocks when it rises first: the median is then
the largest block minimum, max over a of min(p[a], p[a + h]). When it
falls first the median is the smallest block maximum. Both are a running
maximum or minimum of width h + 1, one prefix and one suffix scan within
blocks of that width (van Herk; Gil and Werman). A window with two
reversals or more is copied and partitioned. The filter runs
_MEDIAN_BLOCK outputs at a time and copies at most _BATCH_FLOATS of
windows at once, so its working set does not grow with the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NoValidSpeedError
from .layout import DEFAULT_WHEELBASE_M, published
from .timeseries import TimeSeries, next_fast_len

DEFAULT_WINDOW_SAMPLES = 960          # 3.75 s at 256 Hz
QUALITY_THRESHOLD = 0.3               # normalized correlation peak
SPEED_BOUNDS = (1.0, 40.0)            # m/s kept as valid speed
MEDIAN_WINDOW_S = 1.0
# float64 working set of one batch of delay windows (1 MB): 16 windows at
# the default window and lag range, which fit a core's L2 cache; also the
# bound of the median filter's copied windows
_BATCH_FLOATS = 1 << 17
# outputs of the median filter computed at a time
_MEDIAN_BLOCK = 8192


def delay_bounds(wheelbase_m: float) -> tuple[float, float]:
    """The delays of a wheelbase at the fastest and the slowest speed of
    SPEED_BOUNDS: (0.0625, 2.5) s at 2.5 m."""
    return wheelbase_m / SPEED_BOUNDS[1], wheelbase_m / SPEED_BOUNDS[0]


DEFAULT_DELAY_BOUNDS_S = delay_bounds(DEFAULT_WHEELBASE_M)


@dataclass(frozen=True)
class DelayEstimate:
    """Per-sample delay between the front and back sensor.

    delays_s/peak_quality/valid all have one entry per input sample. Samples
    whose evaluation window had no usable correlation peak carry bridged
    delay values and valid=False (all-NaN if no window was usable at all).
    """

    delays_s: np.ndarray
    peak_quality: np.ndarray
    valid: np.ndarray
    sample_rate_hz: float


@dataclass(frozen=True)
class SpeedProfile:
    """Per-sample speed over ground; valid=False marks interpolated samples."""

    speeds_mps: np.ndarray
    sample_rate_hz: float
    valid: np.ndarray


def estimate_delay(front: TimeSeries, back: TimeSeries,
                   window_samples: int = DEFAULT_WINDOW_SAMPLES,
                   delay_bounds_s: tuple[float, float] = DEFAULT_DELAY_BOUNDS_S,
                   stride: int | None = None) -> DelayEstimate:
    """Windowed cross-correlation delay of back relative to front.

    Windows of ``window_samples`` are evaluated every ``stride`` samples
    (default window/4) and the per-window delays are linearly interpolated to
    every sample. A window is invalid when its normalized correlation peak is
    below QUALITY_THRESHOLD or sits on the edge of the searched lag range
    (the true delay then lies outside ``delay_bounds_s``, which must satisfy
    0 < min < max: back trails front). A sample is valid when the window
    centers on both sides of it are.

    Each window's correlation over the searched lags is
    irfft(rfft(back segment) conj(rfft(front window))) at
    next_fast_len(window + lag range), for a batch of windows at a time
    (see module docstring); the batch is bounded by _BATCH_FLOATS, not by
    the record.
    """
    if front.sample_rate_hz != back.sample_rate_hz:
        raise ValueError("front and back must share the sample rate")
    if len(front) != len(back):
        raise ValueError("front and back must have equal length")
    n = len(front)
    fs = front.sample_rate_hz
    if not 2 <= window_samples <= n:
        raise ValueError(f"window_samples {window_samples} not in [2, {n}]")
    t_min, t_max = delay_bounds_s
    if not 0 < t_min < t_max:
        raise ValueError(f"delay bounds {t_min:g} .. {t_max:g} s: need 0 < min < max")
    lag_lo = int(np.ceil(t_min * fs))
    lag_hi = int(np.floor(t_max * fs))
    if lag_lo > lag_hi:
        raise ValueError("delay bounds contain no integer sample lag")

    half = window_samples // 2
    if stride is None:
        stride = max(1, window_samples // 4)
    n_lo = half
    # inclusive: the last center whose back window at lag_hi fits the record
    n_hi = n - (window_samples - half) - lag_hi
    if n_hi < n_lo:
        need = window_samples + lag_hi
        raise ValueError(f"records of {n} samples too short for window + lag "
                         f"range (need at least {need})")
    centers = np.arange(n_lo, n_hi + 1, stride)

    span = lag_hi - lag_lo + 1                  # lags searched
    nfft = next_fast_len(window_samples + span - 1)
    # a window holds its back segment, its front window, two spectra of
    # nfft + 2 floats and its correlation: about 5 nfft floats
    batch = max(1, _BATCH_FLOATS // (5 * nfft))
    fronts = sliding_window_view(front.samples, window_samples)
    backs = sliding_window_view(back.samples, window_samples + span - 1)
    c_delay = np.zeros(centers.size)
    c_quality = np.zeros(centers.size)
    c_valid = np.zeros(centers.size, dtype=bool)
    for lo in range(0, centers.size, batch):
        start = centers[lo:lo + batch] - half
        fw = fronts[start]
        bs = backs[start + lag_lo]
        # corr[:, j] = sum_i bs[:, i + j] fw[:, i]: no product wraps, as
        # nfft >= bs's length
        corr = np.fft.irfft(np.fft.rfft(bs, nfft) * np.fft.rfft(fw, nfft).conj(),
                            nfft)[:, :span]
        rows = np.arange(start.size)
        j = np.argmax(corr, axis=1)
        c0 = corr[rows, j]
        bw = sliding_window_view(bs, window_samples, axis=1)[rows, j]
        denom = (np.sqrt(np.einsum("ij,ij->i", fw, fw))
                 * np.sqrt(np.einsum("ij,ij->i", bw, bw)))
        quality = np.divide(c0, denom, out=np.zeros(rows.size), where=denom > 0)
        np.clip(quality, 0.0, 1.0, out=quality)
        ok = (j > 0) & (j < span - 1) & (quality >= QUALITY_THRESHOLD)
        cm = corr[rows, np.maximum(j - 1, 0)]
        cp = corr[rows, np.minimum(j + 1, span - 1)]
        curv = cm - 2.0 * c0 + cp
        offset = np.divide(0.5 * (cm - cp), curv, out=np.zeros(rows.size),
                           where=curv != 0.0)
        c_delay[lo:lo + batch] = np.clip((lag_lo + j + offset) / fs, t_min, t_max)
        c_quality[lo:lo + batch] = quality
        c_valid[lo:lo + batch] = ok

    sample_idx = np.arange(n)
    quality_s = np.interp(sample_idx, centers, c_quality)
    if c_valid.any():
        good = centers[c_valid]
        delays_s = np.interp(sample_idx, good, c_delay[c_valid])
        # a sample is valid when every center it leans on is valid
        right = np.searchsorted(centers, sample_idx)
        left = np.clip(right - 1, 0, centers.size - 1)
        right = np.clip(right, 0, centers.size - 1)
        valid_s = c_valid[left] & c_valid[right]
    else:
        delays_s = np.full(n, np.nan)
        valid_s = np.zeros(n, dtype=bool)
    return DelayEstimate(delays_s, quality_s, valid_s, fs)


def estimate_speed(delays: DelayEstimate, wheelbase_m: float) -> SpeedProfile:
    """Convert delays to speed = wheelbase / delay, fill gaps, median filter.

    Samples with an invalid delay or a speed outside SPEED_BOUNDS are filled
    by linear interpolation from the nearest valid neighbors and left
    flagged (valid=False); the filled series then passes a median filter of
    MEDIAN_WINDOW_S and is rounded to the published resolution of a .trc
    (layout.published), the speed that speed.csv holds. Raises
    NoValidSpeedError when nothing is valid.
    """
    if not wheelbase_m > 0:
        raise ValueError(f"wheelbase_m must be > 0, got {wheelbase_m}")
    s_min, s_max = SPEED_BOUNDS
    d = delays.delays_s
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(d > 0, wheelbase_m / d, np.nan)
    valid = delays.valid & np.isfinite(raw) & (raw >= s_min) & (raw <= s_max)
    if not valid.any():
        raise NoValidSpeedError("no delay sample yielded a speed within bounds")
    idx = np.flatnonzero(valid)
    speeds = np.interp(np.arange(d.size), idx, raw[idx])
    k = int(round(MEDIAN_WINDOW_S * delays.sample_rate_hz))
    if k > 1:
        speeds = _median_filter(speeds, k | 1)
    return SpeedProfile(published(speeds), delays.sample_rate_hz, valid)


def _median_filter(values: np.ndarray, size: int) -> np.ndarray:
    """The median of each run of ``size`` (odd) values centred on a sample,
    the ends padded with size // 2 copies of the end values: for finite
    values, equal to scipy.ndimage.median_filter(values, size,
    mode="nearest") (see module docstring)."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"median filter size must be odd and >= 1, got {size}")
    h = size // 2
    padded = np.concatenate((np.repeat(values[:1], h), values,
                             np.repeat(values[-1:], h)))
    out = np.empty(values.size)
    for lo in range(0, values.size, _MEDIAN_BLOCK):
        seg = padded[lo:lo + _MEDIAN_BLOCK + 2 * h]
        out[lo:lo + _MEDIAN_BLOCK] = _window_medians(seg, h)
    return out


def _window_medians(seg: np.ndarray, h: int) -> np.ndarray:
    """The median of each run of 2h + 1 values of seg."""
    if h == 0:
        return seg
    m = seg.size - 2 * h
    # window i holds steps i .. i + 2h - 1, each -1, 0 or 1; a flat step
    # takes no side
    up, down = seg[1:] > seg[:-1], seg[1:] < seg[:-1]
    steps = up.view(np.int8) - down.view(np.int8)
    sided = steps != 0
    side = steps[sided]
    if not side.size:
        return seg[:m]
    # turned[q]: reversals of direction among sided steps 0 .. q
    turned = np.concatenate(([0], np.cumsum(side[1:] != side[:-1])))
    # before[j]: sided steps before step j
    before = np.concatenate(([0], np.cumsum(sided)))
    # a window's first and last sided step; both the same step, out of the
    # window, when it holds none and is flat
    first = np.minimum(before[:m], side.size - 1)
    last = np.maximum(before[2 * h:] - 1, first)
    ends = (seg[:-h], seg[h:])    # the two ends of each block of h + 1
    # at most one reversal: every block of h + 1 has its extremes at its
    # ends, and a window starting up peaks, one starting down dips
    out = np.where(side[first] > 0,
                   _running(np.maximum, np.minimum(*ends), h + 1),
                   _running(np.minimum, np.maximum(*ends), h + 1))
    wavy = np.flatnonzero(turned[last] - turned[first] > 1)
    windows = sliding_window_view(seg, 2 * h + 1)
    rows = max(1, _BATCH_FLOATS // (2 * h + 1))
    for lo in range(0, wavy.size, rows):
        some = wavy[lo:lo + rows]
        out[some] = np.partition(windows[some], h, axis=1)[:, h]
    return out


def _running(extreme, values: np.ndarray, width: int) -> np.ndarray:
    """extreme (np.maximum or np.minimum) of each run of ``width`` values,
    by a prefix and a suffix scan within blocks of ``width`` (van Herk
    1992, Gil & Werman 1993): run i is the suffix of its first block from
    i and the prefix of the next up to i + width - 1."""
    count = values.size - width + 1
    blocks = -(-values.size // width)
    padded = np.empty(blocks * width)
    padded[:values.size] = values
    padded[values.size:] = values[-1]    # beyond every run's reach
    rows = padded.reshape(blocks, width)
    prefix = extreme.accumulate(rows, axis=1).ravel()
    suffix = extreme.accumulate(rows[:, ::-1], axis=1)[:, ::-1].ravel()
    return extreme(suffix[:count], prefix[width - 1:width - 1 + count])

