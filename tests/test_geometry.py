"""Chord alignment, its transfer function, windowed maxima, spatial PSD.

The quadratic and sinusoid oracles are closed-form:
  - z(x) = x^2 gives VA_d = z(x) - (z(x-h) + z(x+h))/2 = -h^2 with h = d/2
  - z(x) = sin(2 pi nu x) gives VA_d amplitude (1 - cos(pi d nu)),
    exactly zero when d*nu is an even integer
"""

import numpy as np
import pytest

from trackvib.errors import TooShortError
from trackvib.geometry import (chord_alignment, psd_spatial, select_cutoff,
                               transfer_function, windowed_max)
from trackvib.spatial import SpatialSeries

DX = 0.25


def profile(values, start=0.0, valid=None):
    return SpatialSeries(np.asarray(values, dtype=float), DX, start,
                         units="mm", valid=valid)


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
        assert va.spacing_m == DX
        assert va.units == "mm"

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
        assert select_cutoff(10.0, 3.0) == 0.3
        assert select_cutoff(35.0, 3.0) == 0.1

    def test_rule_for_other_chords(self):
        assert select_cutoff(20.0, 3.0) == pytest.approx(0.15)
        assert select_cutoff(10.0, 6.0) == pytest.approx(0.6)

    def test_guards(self):
        with pytest.raises(ValueError):
            select_cutoff(0.0, 3.0)
        with pytest.raises(ValueError):
            select_cutoff(10.0, 0.0)


class TestWindowedMax:
    def alignment(self, values, valid=None, start=0.0):
        return SpatialSeries(np.asarray(values, dtype=float), DX, start,
                             valid=valid)

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


class TestSpatialPSD:
    def test_peak_location_and_parseval(self):
        nu0 = 0.05
        z = sine_profile(nu0, 2000.0, amp=3.0)
        psd = psd_spatial(z)
        peak_nu = psd.nu_axis[np.argmax(psd.density)]
        assert peak_nu == pytest.approx(nu0, abs=0.01)
        power = np.trapezoid(psd.density, psd.nu_axis)
        assert power == pytest.approx(3.0 ** 2 / 2.0, rel=0.05)

    def test_chord_output_psd_ratio_four_at_first_peak(self):
        # at nu = 1/d the chord transfer amplitude is 2, so PSD ratio is 4
        d = 10.0
        nu0 = 1.0 / d
        z = sine_profile(nu0, 2000.0)
        va = chord_alignment(z, d)
        p_in = psd_spatial(z)
        p_out = psd_spatial(va)
        ki = np.argmin(np.abs(p_in.nu_axis - nu0))
        ko = np.argmin(np.abs(p_out.nu_axis - nu0))
        ratio = p_out.density[ko] / p_in.density[ki]
        assert 10.0 * np.log10(ratio) == pytest.approx(10.0 * np.log10(4.0), abs=1.0)

    def test_short_series_rejected(self):
        with pytest.raises(TooShortError):
            psd_spatial(profile(np.ones(100)))
