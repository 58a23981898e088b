"""Cross-correlation speed estimation against constructed-shift oracles."""

import tracemalloc

import numpy as np
import pytest

from trackvib import speed
from trackvib.errors import NoValidSpeedError
from trackvib.speed import (DEFAULT_DELAY_BOUNDS_S, DEFAULT_WINDOW_SAMPLES,
                            QUALITY_THRESHOLD, DelayEstimate, estimate_delay,
                            estimate_speed)
from trackvib.timeseries import TimeSeries

FS = 256.0


def rough_signal(n, seed=0, knot_s=0.02):
    """Random track-like signal, rough enough for a sharp correlation peak."""
    rng = np.random.default_rng(seed)
    knots = max(4, int(n / (knot_s * FS)))
    coarse = rng.normal(size=knots)
    return np.interp(np.arange(n), np.linspace(0, n - 1, knots), coarse)


def shifted_pair(n, lag, seed=0):
    """front/back TimeSeries with back[i] = front[i - lag], exactly."""
    base = rough_signal(n + abs(lag), seed)
    if lag >= 0:
        front = base[lag:lag + n]
        back = base[:n]
    else:
        front = base[:n]
        back = base[-lag:-lag + n]
    return (TimeSeries(front, FS, kind="displacement"),
            TimeSeries(back, FS, kind="displacement"))


class TestEstimateDelay:
    def test_64_sample_shift(self):
        front, back = shifted_pair(7680, 64)
        est = estimate_delay(front, back)
        assert est.valid.any()
        d = est.delays_s[est.valid]
        # true delay 0.25 s, allow one sub-sample refinement step
        assert np.all(np.abs(d - 0.25) <= 1.0 / FS)
        assert np.all(est.peak_quality >= 0.0)
        assert np.all(est.peak_quality <= 1.0)

    def test_zero_shift_outside_bounds(self):
        front, back = shifted_pair(7680, 0)
        est = estimate_delay(front, back)
        assert not est.valid.any()
        assert np.all(np.isnan(est.delays_s))

    def test_bounds_do_not_matter_when_peak_interior(self):
        # equal upper bounds keep the evaluation-window layout identical,
        # so tightening the lower bound must change nothing at all
        front, back = shifted_pair(7680, 64)
        a = estimate_delay(front, back, delay_bounds_s=(0.0625, 2.5))
        b = estimate_delay(front, back, delay_bounds_s=(0.15, 2.5))
        both = a.valid & b.valid
        assert both.any()
        assert np.allclose(a.delays_s[both], b.delays_s[both], atol=1e-12)

    def test_all_zero_signal_flagged_not_raised(self):
        z = TimeSeries(np.zeros(7680), FS, kind="displacement")
        est = estimate_delay(z, z)
        assert not est.valid.any()

    def test_window_longer_than_signal(self):
        front, back = shifted_pair(1000, 64)
        with pytest.raises(ValueError):
            estimate_delay(front, back, window_samples=2000)

    def test_mismatched_inputs(self):
        front, _ = shifted_pair(7680, 64)
        short, _ = shifted_pair(5000, 64)
        with pytest.raises(ValueError):
            estimate_delay(front, short)
        # the back sensor trails the front one: only 0 < min < max searches
        for bounds in [(0.0, 2.5), (-2.5, -0.0625), (2.5, 0.0625)]:
            with pytest.raises(ValueError, match="0 < min < max"):
                estimate_delay(front, front, delay_bounds_s=bounds)


def estimate_delay_reference(front, back, window_samples=DEFAULT_WINDOW_SAMPLES,
                             delay_bounds_s=DEFAULT_DELAY_BOUNDS_S):
    """estimate_delay with one np.correlate per window: the argmax, the
    quality, the edge test and the parabola one window at a time."""
    n, fs = len(front), front.sample_rate_hz
    t_min, t_max = delay_bounds_s
    lag_lo, lag_hi = int(np.ceil(t_min * fs)), int(np.floor(t_max * fs))
    half, stride = window_samples // 2, max(1, window_samples // 4)
    centers = np.arange(half, n - (window_samples - half) - lag_hi + 1, stride)
    x, y = front.samples, back.samples
    c_delay = np.zeros(centers.size)
    c_quality = np.zeros(centers.size)
    c_valid = np.zeros(centers.size, dtype=bool)
    for i, c in enumerate(centers):
        fw = x[c - half:c - half + window_samples]
        bs = y[c - half + lag_lo:c - half + window_samples + lag_hi]
        corr = np.correlate(bs, fw, mode="valid")
        j = int(np.argmax(corr))
        lag = lag_lo + j
        bw = y[c - half + lag:c - half + lag + window_samples]
        denom = np.linalg.norm(fw) * np.linalg.norm(bw)
        quality = float(corr[j] / denom) if denom > 0 else 0.0
        c_quality[i] = min(max(quality, 0.0), 1.0)
        if j == 0 or j == corr.size - 1 or c_quality[i] < QUALITY_THRESHOLD:
            continue
        cm, c0, cp = corr[j - 1], corr[j], corr[j + 1]
        curv = cm - 2.0 * c0 + cp
        offset = 0.5 * (cm - cp) / curv if curv != 0.0 else 0.0
        c_delay[i] = float(np.clip((lag + offset) / fs, t_min, t_max))
        c_valid[i] = True
    idx = np.arange(n)
    quality_s = np.interp(idx, centers, c_quality)
    if not c_valid.any():
        return DelayEstimate(np.full(n, np.nan), quality_s, np.zeros(n, dtype=bool), fs)
    right = np.searchsorted(centers, idx)
    left = np.clip(right - 1, 0, centers.size - 1)
    right = np.clip(right, 0, centers.size - 1)
    return DelayEstimate(np.interp(idx, centers[c_valid], c_delay[c_valid]),
                         quality_s, c_valid[left] & c_valid[right], fs)


class TestBatchedCorrelation:
    """The batched FFT correlation against one np.correlate per window."""

    def assert_matches_loop(self, front, back, window_samples=DEFAULT_WINDOW_SAMPLES):
        est = estimate_delay(front, back, window_samples)
        ref = estimate_delay_reference(front, back, window_samples)
        assert np.array_equal(est.valid, ref.valid)
        assert np.allclose(est.delays_s, ref.delays_s, rtol=0, atol=1e-12,
                           equal_nan=True)
        assert np.max(np.abs(est.peak_quality - ref.peak_quality)) <= 1e-12
        return est

    def test_delayed_record_with_noise(self):
        # noise about as strong as the track: some windows fall below the
        # quality threshold
        front, back = shifted_pair(7680, 64, seed=3)
        rng = np.random.default_rng(4)
        est = self.assert_matches_loop(
            TimeSeries(front.samples + 1.2 * rng.normal(size=7680), FS),
            TimeSeries(back.samples + 1.2 * rng.normal(size=7680), FS))
        assert est.valid.any() and not est.valid.all()

    def test_flat_back_window_is_invalid(self):
        # the back record is 0 over more than a window and the lag range:
        # the windows that see only that stretch have quality 0
        front, back = shifted_pair(7680, 64, seed=5)
        y = back.samples.copy()
        y[2400:4800] = 0.0
        est = self.assert_matches_loop(front, TimeSeries(y, FS))
        flat = 3120                     # a window center: 480 + 11 x 240
        assert est.peak_quality[flat] == 0.0 and not est.valid[flat]
        assert est.valid.any()

    def test_peak_on_the_lag_edge_is_invalid(self):
        # no delay on a smooth record: the correlation is high but peaks
        # below the shortest searched lag
        x = TimeSeries(rough_signal(7680, seed=6, knot_s=0.5), FS)
        est = self.assert_matches_loop(x, x)
        assert not est.valid.any()
        assert np.all(est.peak_quality >= QUALITY_THRESHOLD)

    def test_windows_not_a_multiple_of_the_batch(self, monkeypatch):
        rows = []
        irfft = np.fft.irfft

        def irfft_spy(a, *args, **kwargs):
            rows.append(a.shape[0])
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", irfft_spy)
        # 5 windows a batch at nfft 1600, and 26 windows in the record
        monkeypatch.setattr(speed, "_BATCH_FLOATS", 40000)
        front, back = shifted_pair(7680, 64, seed=8)
        self.assert_matches_loop(front, back)
        assert rows == [5, 5, 5, 5, 5, 1]

    def test_odd_window_ends_where_its_back_window_fits(self):
        # the last center is the one whose back window at the longest lag
        # ends on the record's last sample: n = window + lag range
        front, back = shifted_pair(961 + 640, 64, seed=10)
        self.assert_matches_loop(front, back, window_samples=961)
        with pytest.raises(ValueError, match="too short"):
            estimate_delay(*shifted_pair(960 + 640, 64, seed=10), window_samples=961)

    @pytest.mark.parametrize("n, bound_mb", [(102_400, 4.94 + 3.0),
                                             (409_600, 19.72 + 3.0)])
    def test_memory_does_not_follow_the_batches(self, n, bound_mb):
        # the per-window loop peaked at 4.94 and 19.72 MB (tracemalloc, these
        # records): the per-sample outputs, not the windows. The batches may
        # add their bounded working set, not one that grows with the record
        front, back = shifted_pair(n, 64, seed=9)
        tracemalloc.start()
        try:
            estimate_delay(front, back)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


class TestEstimateSpeed:
    def constant_delay(self, delay_s, n=1000, valid=True):
        return DelayEstimate(
            delays_s=np.full(n, delay_s),
            peak_quality=np.full(n, 0.9),
            valid=np.full(n, valid), sample_rate_hz=FS)

    def test_quarter_second_gives_ten_mps(self):
        prof = estimate_speed(self.constant_delay(0.25), 2.5)
        assert np.allclose(prof.speeds_mps, 10.0)

    def test_unit_ratio(self):
        prof = estimate_speed(self.constant_delay(2.5), 2.5)
        assert np.allclose(prof.speeds_mps, 1.0)

    def test_all_invalid_raises(self):
        with pytest.raises(NoValidSpeedError):
            estimate_speed(self.constant_delay(0.25, valid=False), 2.5)

    def test_out_of_bounds_speed_raises_when_alone(self):
        # 2.5/0.05 = 50 m/s, above the 40 m/s ceiling
        with pytest.raises(NoValidSpeedError):
            estimate_speed(self.constant_delay(0.05), 2.5)

    def test_median_filter_kills_spike(self):
        n = 2000
        d = np.full(n, 0.25)
        d[1000] = 0.125  # one 20 m/s outlier in a 10 m/s run
        est = DelayEstimate(d, np.full(n, 0.9), np.ones(n, dtype=bool), FS)
        prof = estimate_speed(est, 2.5)
        assert prof.speeds_mps[1000] == pytest.approx(10.0)

    def test_invalid_gap_interpolated_and_flagged(self):
        n = 2000
        d = np.full(n, 0.25)
        valid = np.ones(n, dtype=bool)
        valid[800:1200] = False
        d[800:1200] = np.nan
        est = DelayEstimate(d, np.full(n, 0.9), valid, FS)
        prof = estimate_speed(est, 2.5)
        assert np.allclose(prof.speeds_mps, 10.0)
        assert not prof.valid[1000]
        assert prof.valid[100]

    def test_bad_wheelbase(self):
        with pytest.raises(ValueError):
            estimate_speed(self.constant_delay(0.25), 0.0)


class TestEndToEndSpeed:
    def test_recovered_speed_within_five_percent(self):
        # constructed 10 m/s run: back delayed 64 samples
        front, back = shifted_pair(int(60 * FS), 64, seed=7)
        est = estimate_delay(front, back)
        prof = estimate_speed(est, 2.5)
        v = prof.speeds_mps[prof.valid]
        assert v.size / len(prof.speeds_mps) > 0.5
        frac = np.mean(np.abs(v - 10.0) <= 0.5)
        assert frac >= 0.90
