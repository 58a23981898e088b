"""Chord alignment, its transfer function, windowed maxima.

The quadratic and sinusoid oracles are closed-form:
  - z(x) = x^2 gives VA_d = z(x) - (z(x-h) + z(x+h))/2 = -h^2 with h = d/2
  - z(x) = sin(2 pi nu x) gives VA_d amplitude (1 - cos(pi d nu)),
    exactly zero when d*nu is an even integer
"""

import numpy as np
import pytest

from trackvib.errors import TooShortError
from trackvib.geometry import (_window_layout, chord_alignment, select_cutoff,
                               transfer_function, windowed_max)
from trackvib.spatial import SpatialSeries

DX = 0.25


def profile(values, start=0.0, valid=None):
    """A series whose values are NaN where valid is False."""
    values = np.asarray(values, dtype=float)
    if valid is not None:
        values = np.where(valid, values, np.nan)
    return SpatialSeries(values, start)


def sine_profile(nu, length_m, amp=1.0):
    x = np.arange(0.0, length_m + DX / 2, DX)
    return profile(amp * np.sin(2 * np.pi * nu * x))


class TestChordSpec:
    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            chord_alignment(profile(np.ones(100)), 10.1)

    def test_non_positive_or_non_finite_rejected(self):
        for d in (0.0, -10.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                chord_alignment(profile(np.ones(100)), d)

    def test_odd_half_grid_ok(self):
        # d/2 = 3.5 m lands on the grid even though d/dx is odd
        va = chord_alignment(profile(np.ones(100)), 7.0)
        assert not va.valid[:14].any() and va.valid[14]


class TestChordAlignment:
    def test_quadratic_gives_minus_quarter_d_squared(self):
        x = np.arange(0.0, 200.0 + DX / 2, DX)
        z = profile(x ** 2)
        for d in (10.0, 35.0):
            va = chord_alignment(z, d)
            core = va.values[va.valid]
            assert np.allclose(core, -d * d / 4.0, rtol=0, atol=1e-9)

    def test_affine_profile_gives_zero(self):
        x = np.arange(0.0, 100.0 + DX / 2, DX)
        va = chord_alignment(profile(3.0 * x + 7.0), 10.0)
        assert np.allclose(va.values[va.valid], 0.0, atol=1e-9)

    def test_sine_at_even_multiples_vanishes(self):
        for d in (10.0, 35.0):
            for k in (1, 2, 3):
                nu = 2.0 * k / d
                va = chord_alignment(sine_profile(nu, 30 * d), d)
                assert np.max(np.abs(va.values[va.valid])) < 1e-9

    def test_sine_at_odd_multiple_doubles(self):
        d = 10.0
        nu = 1.0 / d
        va = chord_alignment(sine_profile(nu, 400.0), d)
        assert np.max(np.abs(va.values[va.valid])) == pytest.approx(2.0, rel=1e-3)

    def test_edges_are_nan_and_invalid(self):
        z = profile(np.ones(100))
        va = chord_alignment(z, 10.0)
        h = 20
        assert np.all(np.isnan(va.values[:h]))
        assert np.all(np.isnan(va.values[-h:]))
        assert not va.valid[:h].any()
        assert not va.valid[-h:].any()
        assert va.valid[h:-h].all()

    def test_invalid_source_samples_propagate(self):
        ok = np.ones(200, dtype=bool)
        ok[100] = False
        z = profile(np.ones(200), valid=ok)
        va = chord_alignment(z, 10.0)
        h = 20
        # center, left foot and right foot each touch index 100 once
        for i in (100, 100 - h, 100 + h):
            assert not va.valid[i]
        assert va.valid[101]

    def test_grid_metadata_carried(self):
        z = profile(np.ones(100), start=50.0)
        va = chord_alignment(z, 10.0)
        assert va.start_m == 50.0
        assert np.array_equal(va.positions(), z.positions())

    def test_too_short(self):
        with pytest.raises(TooShortError):
            chord_alignment(profile(np.ones(30)), 10.0)


class TestTransferFunction:
    def test_known_points(self):
        assert transfer_function(10.0, 0.0) == pytest.approx(0.0)
        assert transfer_function(10.0, 1.0 / 10.0) == pytest.approx(2.0)
        assert transfer_function(10.0, 2.0 / 10.0) == pytest.approx(0.0, abs=1e-12)
        assert transfer_function(10.0, 3.0 / 10.0) == pytest.approx(2.0)

    def test_matches_measured_gain(self):
        # empirical amplitude ratio of a long sine equals H(nu)
        d, nu = 10.0, 0.07
        va = chord_alignment(sine_profile(nu, 600.0), d)
        gain = np.max(np.abs(va.values[va.valid]))
        expected = transfer_function(d, nu)
        assert gain == pytest.approx(expected, rel=1e-3)


class TestSelectCutoff:
    def test_published_values(self):
        assert select_cutoff(10.0) == 0.3
        assert select_cutoff(35.0) == 0.1

    def test_rule_for_other_chords(self):
        assert select_cutoff(20.0) == pytest.approx(0.15)

    def test_guards(self):
        with pytest.raises(ValueError):
            select_cutoff(0.0)


class TestWindowedMax:
    def alignment(self, values, valid=None, start=0.0):
        return profile(values, start, valid)

    def test_equals_brute_force(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=4801)
        series = self.alignment(vals)
        stats = windowed_max(series, 100.0)
        pos = series.positions()
        for k in range(len(stats)):
            lo, hi = stats.starts_m[k], stats.starts_m[k] + 100.0
            sel = (pos >= lo - 1e-9) & (pos < hi - 1e-9)
            assert stats.values[k] == pytest.approx(np.max(np.abs(vals[sel])))

    def test_valid_mask_equals_loop(self):
        # loop reference: |max| over each window's valid samples, and the
        # valid count over the 400 grid points of a full window
        rng = np.random.default_rng(9)
        vals = rng.normal(size=1923)
        valid = rng.random(vals.size) > 0.3
        valid[400:800] = False   # window 1 has no valid sample
        stats = windowed_max(self.alignment(vals, valid=valid), 100.0)
        pos = DX * np.arange(vals.size)
        assert len(stats) == 5
        for k in range(len(stats)):
            good = valid & (pos >= 100.0 * k) & (pos < 100.0 * (k + 1))
            expected = np.max(np.abs(vals[good])) if good.any() else np.nan
            assert np.array_equal(stats.values[k], expected, equal_nan=True)
            assert stats.valid_fraction[k] == np.count_nonzero(good) / 400

    def test_low_valid_fraction_not_usable(self):
        valid = np.ones(801, dtype=bool)
        valid[:300] = False   # first window keeps indices 300..399 of 0..399
        series = self.alignment(np.ones(801), valid=valid)
        stats = windowed_max(series, 100.0)
        assert not stats.usable[0]
        assert stats.usable[1]
        assert stats.valid_fraction[0] == pytest.approx(100.0 / 400.0)

    def test_truncated_tail_window_penalized(self):
        # 120 m series: second window holds only 20 of its nominal 100 m
        series = self.alignment(np.ones(481))
        stats = windowed_max(series, 100.0)
        assert len(stats) == 2
        assert stats.valid_fraction[1] < 0.5
        assert not stats.usable[1]

    def test_window_smaller_than_spacing(self):
        with pytest.raises(ValueError):
            windowed_max(self.alignment(np.ones(100)), 0.1)

    @pytest.mark.parametrize("window", [np.inf, -np.inf, np.nan])
    def test_non_finite_window_refused(self, window):
        # an infinite window gave one window starting at nan; a nan window
        # failed deep in numpy with "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=f"window of {window} m"):
            windowed_max(self.alignment(np.ones(100)), window)

    def test_starts_aligned_to_series_start(self):
        series = self.alignment(np.ones(801), start=250.0)
        stats = windowed_max(series, 100.0)
        assert stats.starts_m[0] == 250.0
        assert stats.ends_m[0] == 350.0


    def test_one_grid_shares_one_read_only_layout(self):
        _window_layout.cache_clear()
        rng = np.random.default_rng(10)
        a = windowed_max(self.alignment(rng.normal(size=1923)), 100.0)
        b = windowed_max(self.alignment(rng.normal(size=1923), start=50.0),
                         100.0)
        info = _window_layout.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        layout = _window_layout(1923, 100.0)
        for array in layout:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7
        # the stats own their arrays: writing to them leaves the layout
        a.starts_m[:] = -1.0
        assert np.array_equal(b.starts_m, 50.0 + 100.0 * np.arange(5))
        assert layout[0][0] == 0.0

    def test_other_length_or_window_gets_its_own_layout(self):
        _window_layout.cache_clear()
        for n, window in ((1923, 100.0), (1924, 100.0), (1923, 20.0)):
            windowed_max(self.alignment(np.ones(n)), window)
        assert _window_layout.cache_info().misses == 3
        assert _window_layout.cache_info().maxsize is not None
        assert len(windowed_max(self.alignment(np.ones(1923)), 20.0)) == 25
        assert len(windowed_max(self.alignment(np.ones(1924)), 100.0)) == 5
