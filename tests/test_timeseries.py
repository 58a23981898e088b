"""Signal-chain unit tests: containers, decimation, filtering, integration.

Expected values are closed-form sinusoid oracles evaluated here, never
copied from the implementation.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import next_fast_len

from trackvib import timeseries
from trackvib.errors import GapTooLargeError
from trackvib.timeseries import (EDGE_PAD_S, KIND_ACCELERATION,
                                 KIND_DISPLACEMENT, TimeSeries, decimate,
                                 double_integrate, merge_records)

FS = 2560.0


def sine(f0, duration_s, rate=FS, amp=1.0, phase=0.0):
    t = np.arange(int(round(duration_s * rate))) / rate
    return TimeSeries(amp * np.sin(2 * np.pi * f0 * t + phase), rate)


def mid(x, frac=3):
    n = len(x)
    return x[n // frac: (frac - 1) * n // frac]


def largest_prime_factor(m):
    p, largest = 2, 1
    while p * p <= m:
        while m % p == 0:
            m, largest = m // p, p
        p += 1
    return max(largest, m)


def edge_pad(n):
    return min(int(round(EDGE_PAD_S * FS)), n - 1)


def decimate_reference(ts, factor):
    """The exact-length decimation: a 2 s even reflection on each side and
    one FFT of length n + 2 pad, whatever its prime factors."""
    n = ts.samples.size
    pad = edge_pad(n)
    padded = np.pad(ts.samples, pad, mode="reflect")
    f = np.fft.rfftfreq(padded.size, 1.0 / FS)
    nyq_new = FS / (2.0 * factor)
    lo = 0.8 * nyq_new
    gain = np.where(f <= lo, 1.0, 0.0)
    band = (f > lo) & (f < nyq_new)
    gain[band] = 0.5 * (1.0 + np.cos(np.pi * (f[band] - lo) / (nyq_new - lo)))
    filtered = np.fft.irfft(np.fft.rfft(padded) * gain, n=padded.size)
    return filtered[pad:pad + (n // factor) * factor:factor]


def padded_length(n, factor):
    """The decimation length rule: factor x a 5-smooth length >= (n + 4 s)/factor."""
    return factor * next_fast_len(-(-(n + 2 * edge_pad(n)) // factor), real=True)


def full_length_decimation(ts, factor):
    """Decimation through the full-length inverse: reflect to the padded
    length, mask every bin, invert at the padded length and keep every
    factor-th sample from the first record sample on."""
    n = ts.samples.size
    pad = edge_pad(n)
    length = padded_length(n, factor)
    padded = np.pad(ts.samples, (pad, length - n - pad), mode="reflect")
    nyq_new = FS / (2.0 * factor)
    bins = np.fft.rfft(padded)
    bins *= 1.0 - timeseries._raised_cosine_step(
        np.fft.rfftfreq(length, 1.0 / FS), 0.8 * nyq_new, nyq_new)
    filtered = np.fft.irfft(bins, n=length)
    return filtered[pad:pad + (n // factor) * factor:factor]


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]), FS)
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((2, 2)), FS)
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]), FS)
        with pytest.raises(ValueError):
            TimeSeries(np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            TimeSeries(np.zeros(4), FS, kind="velocity")

    def test_timing(self):
        ts = TimeSeries(np.zeros(2560), FS, start_time_s=10.0)
        assert ts.end_time_s == pytest.approx(11.0)
        assert len(ts) == 2560

    def test_samples_coerced_to_float(self):
        ts = TimeSeries(np.arange(5), FS)
        assert ts.samples.dtype == np.float64


class TestDecimate:
    def test_sine_survives(self):
        # 5 Hz is far below the 128 Hz decimated Nyquist
        out = decimate(sine(5.0, 10.0), 10)
        assert out.sample_rate_hz == 256.0
        assert len(out) == 2560
        t = np.arange(2560) / 256.0
        oracle = np.sin(2 * np.pi * 5.0 * t)
        assert np.max(np.abs(mid(out.samples) - mid(oracle))) < 0.01

    def test_length_floor(self):
        ts = TimeSeries(np.random.default_rng(0).normal(size=2565), FS)
        assert len(decimate(ts, 10)) == 256

    def test_factor_one_is_identity(self):
        ts = sine(5.0, 1.0)
        assert decimate(ts, 1) is ts

    def test_band_limited_rms_preserved(self):
        # energy strictly below 0.8x the new Nyquist passes untouched
        rng = np.random.default_rng(3)
        t = np.arange(25600) / FS
        x = np.zeros_like(t)
        for f0 in rng.uniform(1.0, 0.7 * FS / 20, 12):
            x += np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
        out = decimate(TimeSeries(x, FS), 10)
        rms_in = np.sqrt(np.mean(mid(x) ** 2))
        rms_out = np.sqrt(np.mean(mid(out.samples) ** 2))
        assert rms_out == pytest.approx(rms_in, rel=0.01)

    def test_alias_band_removed(self):
        # content above the new Nyquist must not fold down
        out = decimate(sine(200.0, 10.0), 10)
        assert np.max(np.abs(mid(out.samples))) < 0.01

    def test_constant_record_kept_to_the_ends(self):
        # the even reflection gives the filter a flat context at both ends;
        # zero padding would pull the end samples toward 0 (error ~2.3)
        out = decimate(TimeSeries(np.full(25600, 5.0), FS), 10)
        assert np.max(np.abs(out.samples - 5.0)) < 1e-9

    def test_matches_exact_length_reference(self):
        # n + 2 pad = 40241 is prime, so the reference pays its full cost;
        # only what lies beyond the 2 s reflection differs. Tones over sensor
        # noise, like a bogie channel; on broadband noise alone the first
        # samples move by up to ~3e-7 of the peak
        n = 30001
        assert largest_prime_factor(n + 2 * edge_pad(n)) > 1000
        rng = np.random.default_rng(5)
        t = np.arange(n) / FS
        x = (np.sin(2 * np.pi * 3.7 * t) + 0.5 * np.sin(2 * np.pi * 41.0 * t + 1.0)
             + 0.2 * rng.normal(size=n))
        ref = decimate_reference(TimeSeries(x, FS), 10)
        out = decimate(TimeSeries(x, FS), 10).samples
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-7 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [11, 15, 19, 2565, 30001, 51203])
    def test_fft_length_is_5_smooth(self, monkeypatch, n):
        # 11, 15 and 19 are a little above the factor: the right extension
        # is longer than the n - 1 samples one reflection gives
        lengths = []
        apply_mask = timeseries._apply_mask

        def spy(padded, *args):
            lengths.append(padded.size)
            return apply_mask(padded, *args)

        monkeypatch.setattr(timeseries, "_apply_mask", spy)
        out = decimate(TimeSeries(np.random.default_rng(n).normal(size=n), FS), 10)
        assert len(out) == n // 10
        assert lengths and all(m >= n + 2 * edge_pad(n) for m in lengths)
        assert all(largest_prime_factor(m) <= 5 for m in lengths)

    @pytest.mark.parametrize("n", [11, 15, 19, 2565, 30001])
    @pytest.mark.parametrize("factor", [2, 10])
    def test_padded_record_is_the_rotated_reflection(self, monkeypatch, n,
                                                     factor):
        # the record, its right extension and its reversed left 2 s, bit for
        # bit the rotated np.pad reflection; below n = 2 s + 1 the right
        # extension is longer than n - 1 and reflects more than once
        seen = []
        apply_mask = timeseries._apply_mask

        def spy(padded, *args):
            seen.append(padded.copy())
            return apply_mask(padded, *args)

        monkeypatch.setattr(timeseries, "_apply_mask", spy)
        x = np.random.default_rng(n).normal(size=n)
        decimate(TimeSeries(x, FS), factor)
        pad, length = edge_pad(n), padded_length(n, factor)
        expected = np.roll(np.pad(x, (pad, length - n - pad), mode="reflect"),
                           -pad)
        assert [p.tobytes() for p in seen] == [expected.tobytes()]

    @pytest.mark.parametrize("n", [11, 15, 19, 30001])
    def test_constant_record_exact_at_fast_length(self, n):
        out = decimate(TimeSeries(np.full(n, 5.0), FS), 10)
        assert np.max(np.abs(out.samples - 5.0)) < 1e-9

    @pytest.mark.parametrize("n", [11, 19, 2565, 30001])
    @pytest.mark.parametrize("factor", [2, 3, 7, 10])
    def test_matches_full_length_inverse(self, factor, n):
        # the short inverse is exact, not an approximation: same padded
        # record, same mask, so only rounding separates the two
        rng = np.random.default_rng(factor * n)
        t = np.arange(n) / FS
        x = (np.sin(2 * np.pi * 3.7 * t) + 0.5 * np.sin(2 * np.pi * 41.0 * t + 1.0)
             + 0.2 * rng.normal(size=n))
        ts = TimeSeries(x, FS)
        ref = full_length_decimation(ts, factor)
        out = decimate(ts, factor).samples
        assert out.shape == ref.shape == (n // factor,)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("factor", [2, 10])
    def test_inverse_runs_at_padded_length_over_factor(self, monkeypatch, factor):
        forward, inverse = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def rfft_spy(a, *args, **kwargs):
            forward.append(np.size(a))
            return rfft(a, *args, **kwargs)

        def irfft_spy(a, n=None, *args, **kwargs):
            inverse.append(n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", rfft_spy)
        monkeypatch.setattr(np.fft, "irfft", irfft_spy)
        n = 30001
        decimate(TimeSeries(np.random.default_rng(1).normal(size=n), FS), factor)
        # the forward transform comes from the factor polyphase components
        assert forward == [padded_length(n, factor) // factor] * factor
        assert inverse == [padded_length(n, factor) // factor]

    def test_memory_of_a_mainline_record(self):
        # 1 024 001 samples pad to 1 034 240: the padded record (8.3 MB) and
        # one polyphase spectrum at a time. A full-length rfft of it peaks at
        # 18.0 MB (tracemalloc)
        ts = TimeSeries(np.random.default_rng(2).normal(size=1_024_001), FS)
        tracemalloc.start()
        try:
            decimate(ts, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    @pytest.mark.parametrize("size", [1000, 1001])
    def test_apply_mask_step_one_is_full_length_filter(self, size):
        x = np.random.default_rng(size).normal(size=size)

        def mask(f):
            return 1.0 / (1.0 + f)

        ref = np.fft.irfft(np.fft.rfft(x) * mask(np.fft.rfftfreq(size, 1.0 / FS)),
                           n=size)
        assert np.array_equal(timeseries._apply_mask(x, FS, mask), ref)
        assert np.array_equal(timeseries._apply_mask(x, FS, mask, 1), ref)

    def test_apply_mask_step_must_divide_length(self):
        with pytest.raises(ValueError, match="does not divide"):
            timeseries._apply_mask(np.zeros(1001), FS, np.ones_like, 10)

    def test_bad_factor(self):
        ts = sine(5.0, 1.0)
        with pytest.raises(ValueError):
            decimate(ts, 0)
        with pytest.raises(ValueError):
            decimate(ts, 2.5)

    def test_too_short(self):
        with pytest.raises(ValueError):
            decimate(TimeSeries(np.zeros(5), FS), 10)


class TestDoubleIntegrate:
    """The central conversion: acceleration DFT divided by (j 2 pi f)^2."""

    def test_sine_amplitude_oracle(self):
        # closed form: d^2/dt^2 [-sin(w t)/w^2] = sin(w t)
        ts = sine(5.0, 10.0, rate=256.0)
        out = double_integrate(ts, 0.3)
        expected = 1.0 / (2 * np.pi * 5.0) ** 2
        assert expected == pytest.approx(1.0132118e-3, rel=1e-6)
        amp = np.max(np.abs(mid(out.samples)))
        assert amp == pytest.approx(expected, rel=0.01)
        assert out.kind == KIND_DISPLACEMENT
        assert len(out) == len(ts)
        assert out.sample_rate_hz == ts.sample_rate_hz

    def test_sign_matches_antiderivative(self):
        # integrating sin twice gives -sin/w^2, not +sin/w^2
        t = np.arange(2560) / 256.0
        ts = TimeSeries(np.sin(2 * np.pi * 5.0 * t), 256.0)
        out = double_integrate(ts, 0.3)
        oracle = -np.sin(2 * np.pi * 5.0 * t) / (2 * np.pi * 5.0) ** 2
        assert np.max(np.abs(mid(out.samples) - mid(oracle))) < 0.01 * np.max(np.abs(oracle))

    def test_zero_in_zero_out(self):
        out = double_integrate(TimeSeries(np.zeros(1000), 256.0), 0.3)
        assert np.all(out.samples == 0.0)

    def test_constant_offset_vanishes(self):
        out = double_integrate(TimeSeries(np.full(2560, 5.0), 256.0), 0.3)
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_superposition_of_two_sines(self):
        t = np.arange(2560) / 256.0
        a = np.sin(2 * np.pi * 2.0 * t)
        b = 0.5 * np.sin(2 * np.pi * 11.0 * t + 0.7)
        out = double_integrate(TimeSeries(a + b, 256.0), 0.3)
        oracle = (-np.sin(2 * np.pi * 2.0 * t) / (2 * np.pi * 2.0) ** 2
                  - 0.5 * np.sin(2 * np.pi * 11.0 * t + 0.7) / (2 * np.pi * 11.0) ** 2)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(out.samples - oracle)) < 0.01 * scale

    def test_round_trip_band_limited(self):
        """Analytic second derivative in, original displacement back.

        Evaluated away from the record ends: the motion outside the record
        is unknowable, so the first/last seconds carry the reconstruction
        error of any finite-window method.
        """
        fs = 256.0
        n = int(60 * fs)
        t = np.arange(n) / fs
        for seed in (3, 4, 5):
            rng = np.random.default_rng(seed)
            disp = np.zeros(n)
            acc = np.zeros(n)
            for f0 in np.exp(rng.uniform(np.log(0.6), np.log(10.0), 12)):
                ph = rng.uniform(0, 2 * np.pi)
                disp += np.sin(2 * np.pi * f0 * t + ph)
                acc += -(2 * np.pi * f0) ** 2 * np.sin(2 * np.pi * f0 * t + ph)
            out = double_integrate(TimeSeries(acc, fs), 0.3)
            sl = slice(int(5 * fs), n - int(5 * fs))
            err = out.samples[sl] - disp[sl]
            assert np.sqrt(np.mean(err ** 2)) < 0.01 * np.sqrt(np.mean(disp[sl] ** 2))

    def test_linearity_exact_for_centered_bursts(self):
        # operator is exactly linear when the adaptive edge extension sees
        # identical (zero) context for a, b and their combination
        fs = 256.0
        n = int(40 * fs)
        t = np.arange(n) / fs

        def burst(seed):
            r = np.random.default_rng(seed)
            x = np.zeros(n)
            m = slice(int(12 * fs), n - int(12 * fs))
            w = np.hanning(m.stop - m.start)
            for _ in range(5):
                f0 = r.uniform(1.0, 40.0)
                x[m] += r.uniform(0.3, 1.0) * np.sin(2 * np.pi * f0 * t[m] + r.uniform(0, 7))
            x[m] *= w
            return x

        a, b = burst(10), burst(11)
        za = double_integrate(TimeSeries(2 * a + 3 * b, fs), 0.3).samples
        zb = (2 * double_integrate(TimeSeries(a, fs), 0.3).samples
              + 3 * double_integrate(TimeSeries(b, fs), 0.3).samples)
        assert np.max(np.abs(za - zb)) < 1e-9 * max(np.max(np.abs(za)), 1e-300)

    def test_kind_and_cutoff_guards(self):
        disp = TimeSeries(np.zeros(100), 256.0, kind=KIND_DISPLACEMENT)
        with pytest.raises(ValueError):
            double_integrate(disp, 0.3)
        acc = TimeSeries(np.zeros(100), 256.0, kind=KIND_ACCELERATION)
        with pytest.raises(ValueError):
            double_integrate(acc, 0.0)
        with pytest.raises(ValueError):
            double_integrate(acc, 200.0)


def predict_forward_reference(x, count, order, fit):
    """The Burg extension as its recurrence, one sample at a time:
    y[i] = -sum_j a[j] y[i-1-j] from the last order samples, less the
    mean of the fitted segment."""
    seg = x[-min(fit, x.size):]
    mu = seg.mean()
    a = timeseries._burg_coefficients(seg - mu, order)
    out = np.empty(count)
    buf = (x[-order:] - mu)[::-1].copy()   # buf[0] = newest
    for i in range(count):
        out[i] = -np.dot(a, buf)
        buf[1:] = buf[:-1]
        buf[0] = out[i]
    return out + mu


class TestPredictForward:
    """The banded solve of the extension against its recurrence."""

    def assert_matches_recurrence(self, x, count, order, fit):
        got = timeseries._predict_forward(x, count, order, fit)
        ref = predict_forward_reference(x, count, order, fit)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(x))
        return ref

    def test_order_one(self):
        # the shortest record double_integrate extends: n = 2, order 1
        self.assert_matches_recurrence(np.array([0.3, -0.7]), 1024, 1, 2048)

    def test_order_32_on_noisy_sine(self):
        rng = np.random.default_rng(5)
        t = np.arange(4096) / 256.0
        x = np.sin(2 * np.pi * 3.0 * t) + 0.1 * rng.normal(size=t.size)
        self.assert_matches_recurrence(x, 1024, 32, 2048)

    @pytest.mark.parametrize("count", [5, 32], ids=["fewer", "equal"])
    def test_count_up_to_order(self, count):
        # every prediction's row reaches into the history
        rng = np.random.default_rng(7)
        t = np.arange(4096) / 256.0
        x = np.sin(2 * np.pi * 3.0 * t) + 0.1 * rng.normal(size=t.size)
        self.assert_matches_recurrence(x, count, 32, 2048)

    def test_one_prediction_at_order_one(self):
        self.assert_matches_recurrence(np.array([0.3, -0.7, 0.2]), 1, 1, 2048)

    def test_constant_segment(self):
        # every Burg denominator is 0, so the prediction is the mean
        ref = self.assert_matches_recurrence(np.full(3000, 5.0), 1024, 32, 2048)
        assert np.all(ref == 5.0)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
    def test_clean_two_tone_record_stays_within_the_clamp(self, reverse):
        # 5 Hz and 5.5 Hz at 256 Hz, cancelling at the centre of a noise-free
        # 0.5 s record: order 32 past the Burg error floor fits rounding, its
        # extension grew to thousands of times the record's peak, and the
        # loop and the banded solve parted by hundreds of times it
        t = np.arange(128) / 256.0
        x = np.sin(2 * np.pi * 5.0 * t) + np.sin(2 * np.pi * 5.5 * t + 0.75 * np.pi)
        x = (x - x.mean())[::-1 if reverse else 1]
        ext = timeseries._predict_forward(x, 1024, 32, 2048)
        peak = np.max(np.abs(x))
        assert np.max(np.abs(ext)) <= 4.0 * peak
        ref = predict_forward_reference(x, 1024, 32, 2048)
        assert np.max(np.abs(ext - ref)) <= 1e-3 * peak

    def test_error_floor_leaves_noisy_records_alone(self, monkeypatch):
        rng = np.random.default_rng(5)
        t = np.arange(2048) / 256.0
        x = np.sin(2 * np.pi * 3.0 * t) + 1e-3 * rng.normal(size=t.size)
        a = timeseries._burg_coefficients(x, 32)
        monkeypatch.setattr(timeseries, "_BURG_ERROR_FLOOR", 0.0)
        assert np.array_equal(a, timeseries._burg_coefficients(x, 32))

    def test_predictor_the_clamp_catches(self, monkeypatch):
        # Burg keeps every reflection coefficient in [-1, 1]: a predictor
        # that grows past double_integrate's clamp of 4 max|x| has nearly
        # coincident poles, and any two summation orders part from the first
        # predicted sample on. So the predictor here is set by hand, a
        # double pole at z = 1 that continues the ramp, and the arithmetic
        # of an integer ramp through it is exact in either form.
        def double_pole(seg, order):
            return np.concatenate(([-2.0, 1.0], np.zeros(order - 2)))

        monkeypatch.setattr(timeseries, "_burg_coefficients", double_pole)
        x = np.arange(40) - 19.5        # a record less its mean
        ref = self.assert_matches_recurrence(x, 64, 32, 128)
        assert np.max(np.abs(ref)) > 4.0 * np.max(np.abs(x))
        assert np.array_equal(ref, 20.5 + np.arange(64))


class TestMergeRecords:
    def blocks(self, n_blocks=2, block_s=10.0, gap_samples=0):
        rng = np.random.default_rng(1)
        out = []
        t0 = 0.0
        for _ in range(n_blocks):
            n = int(round(block_s * FS))
            out.append(TimeSeries(rng.normal(size=n), FS, start_time_s=t0,
                                  channel_id="bogie-front-left-vertical"))
            t0 += block_s + gap_samples / FS
        return out

    def test_two_blocks_concatenate(self):
        parts = self.blocks(2)
        merged = merge_records(parts)
        assert len(merged) == 2 * 25600
        assert np.array_equal(merged.samples[:25600], parts[0].samples)
        assert np.array_equal(merged.samples[25600:], parts[1].samples)

    def test_one_sample_gap_bridged_with_midpoint(self):
        parts = self.blocks(2, gap_samples=1)
        merged = merge_records(parts)
        assert len(merged) == 2 * 25600 + 1
        a = parts[0].samples[-1]
        b = parts[1].samples[0]
        assert merged.samples[25600] == pytest.approx((a + b) / 2)

    def test_two_sample_gap_bridged_linearly(self):
        parts = self.blocks(2, gap_samples=2)
        merged = merge_records(parts)
        a = parts[0].samples[-1]
        b = parts[1].samples[0]
        assert merged.samples[25600] == pytest.approx(a + (b - a) / 3)
        assert merged.samples[25601] == pytest.approx(a + 2 * (b - a) / 3)

    def test_large_gap_rejected(self):
        parts = self.blocks(2, gap_samples=3)
        with pytest.raises(GapTooLargeError):
            merge_records(parts)

    def test_overlap_rejected(self):
        parts = self.blocks(2)
        shifted = TimeSeries(parts[1].samples, FS,
                             start_time_s=parts[1].start_time_s - 0.5,
                             channel_id=parts[1].channel_id)
        with pytest.raises(ValueError):
            merge_records([parts[0], shifted])

    def test_mismatched_metadata_rejected(self):
        a = TimeSeries(np.zeros(10), FS, channel_id="x")
        b_rate = TimeSeries(np.zeros(10), FS / 2, start_time_s=10.0 / FS, channel_id="x")
        with pytest.raises(ValueError):
            merge_records([a, b_rate])
        b_chan = TimeSeries(np.zeros(10), FS, start_time_s=10.0 / FS, channel_id="y")
        with pytest.raises(ValueError):
            merge_records([a, b_chan])

    @pytest.mark.parametrize("field, value", [
        ("sample_rate_hz", FS / 2), ("channel_id", "y"),
        ("kind", KIND_DISPLACEMENT)])
    def test_disagreeing_field_named(self, field, value):
        a = TimeSeries(np.zeros(10), FS, channel_id="x")
        b = replace(a, start_time_s=10.0 / FS, **{field: value})
        with pytest.raises(ValueError, match=f"^blocks disagree on {field}$"):
            merge_records([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_records([])
