"""Cross-correlation speed estimation against constructed-shift oracles."""

import numpy as np
import pytest

from trackvib.errors import NoValidSpeedError
from trackvib.speed import DelayEstimate, estimate_delay, estimate_speed

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
    from trackvib.timeseries import TimeSeries
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
        from trackvib.timeseries import TimeSeries
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
