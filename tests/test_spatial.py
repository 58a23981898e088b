"""Distance-axis construction and resampling onto the 0.25 m grid."""

import numpy as np
import pytest

from trackvib.errors import TooShortError
from trackvib.spatial import (DistanceAxis, SpatialSeries, build_distance_axis,
                              moving, resample_to_space)
from trackvib.speed import SpeedProfile
from trackvib.timeseries import TimeSeries

FS = 256.0


def constant_speed(v, n, fs=FS):
    return SpeedProfile(np.full(n, float(v)), fs, np.ones(n, dtype=bool))


class TestBuildDistanceAxis:
    def test_constant_speed_arithmetic(self):
        n = 2560
        axis = build_distance_axis(constant_speed(10.0, n))
        # position after sample k is the running integral including sample k
        assert axis.positions_m[0] == pytest.approx(10.0 / FS)
        assert axis.positions_m[-1] == pytest.approx(10.0 * n / FS)
        steps = np.diff(axis.positions_m)
        assert np.allclose(steps, 10.0 / FS)

    def test_zero_speed_holds_position(self):
        v = np.concatenate([np.full(256, 10.0), np.zeros(256)])
        prof = SpeedProfile(v, FS, np.ones(512, dtype=bool))
        axis = build_distance_axis(prof)
        assert axis.positions_m[-1] == axis.positions_m[256]

    def test_negative_speed_rejected(self):
        prof = SpeedProfile(np.array([10.0, -1.0]), FS,
                            np.ones(2, dtype=bool))
        with pytest.raises(ValueError):
            build_distance_axis(prof)

    def test_decreasing_positions_rejected(self):
        with pytest.raises(ValueError):
            DistanceAxis(np.array([0.0, 1.0, 0.5]))


class TestResampleToSpace:
    def test_grid_count_and_values(self):
        # 10 m/s for 10 s covers ~100 m; a linear-in-position signal
        # resamples exactly because the interpolation is linear too
        n = 2560
        prof = constant_speed(10.0, n)
        axis = build_distance_axis(prof)
        ts = TimeSeries(axis.positions_m.copy(), FS, kind="displacement")
        out = resample_to_space(ts, axis)
        dist = axis.positions_m
        expected_first = np.ceil(dist[0] / 0.25) * 0.25
        expected_last = np.floor(dist[-1] / 0.25) * 0.25
        assert out.start_m == pytest.approx(expected_first)
        assert len(out) == int(round((expected_last - expected_first) / 0.25)) + 1
        assert np.allclose(out.values, out.positions())

    def test_spatial_sinusoid_preserved(self):
        # 20 m wavelength sampled every ~0.04 m, then gridded at 0.25 m
        n = 25600
        prof = constant_speed(10.0, n)
        axis = build_distance_axis(prof)
        z = np.sin(2 * np.pi * axis.positions_m / 20.0)
        out = resample_to_space(TimeSeries(z, FS, kind="displacement"), axis)
        oracle = np.sin(2 * np.pi * out.positions() / 20.0)
        assert np.max(np.abs(out.values - oracle)) < 1e-4

    def test_stationary_stretch_flagged(self):
        # (moving, standing, moving) samples: a 2 s halt in the middle, at
        # the first and at the last sample, and a halt one sample longer
        # than STATIONARY_MIN_DURATION_S
        for before, still, after in [(2560, 512, 2560), (0, 512, 2560),
                                     (2560, 512, 0), (2560, 257, 2560)]:
            v = np.concatenate([np.full(before, 10.0), np.zeros(still),
                                np.full(after, 10.0)])
            prof = SpeedProfile(v, FS, np.ones(v.size, dtype=bool))
            ok = moving(prof)
            assert np.flatnonzero(~ok).tolist() == list(range(before,
                                                              before + still))
            axis = build_distance_axis(prof)
            ts = TimeSeries(np.sin(np.arange(v.size) / 40.0), FS,
                            kind="displacement")
            out = resample_to_space(ts, axis, ok)
            # the grid point at the halt position is bracketed by stationary
            # samples; moving stretches stay valid
            halt_pos = axis.positions_m[before]
            halt_idx = int(round((halt_pos - out.start_m) / 0.25))
            halt_idx = min(max(halt_idx, 0), len(out) - 1)
            assert not out.valid[halt_idx]
            assert out.valid[10]
            assert out.valid[-10]
            # the grid adds no standstill rule of its own
            assert resample_to_space(ts, axis).valid.all()

    def test_brief_slowdown_not_flagged(self):
        # dips below the stationary threshold of 0.5 s and of exactly
        # STATIONARY_MIN_DURATION_S are too short to flag
        for dip in (128, 256):
            v = np.concatenate([np.full(2560, 10.0),
                                np.full(dip, 0.1),
                                np.full(2560, 10.0)])
            prof = SpeedProfile(v, FS, np.ones(v.size, dtype=bool))
            assert moving(prof).all()
            axis = build_distance_axis(prof)
            ts = TimeSeries(np.zeros(v.size), FS, kind="displacement")
            out = resample_to_space(ts, axis, moving(prof))
            assert out.valid.all()

    def test_valid_mask_interpolated_as_the_values(self):
        # at 10 m/s sample k sits at (k + 1) * 10/256 m: grid point 10.0 m
        # is sample 255 exactly, 10.25 m lies between samples 261 and 262
        n = 2560
        axis = build_distance_axis(constant_speed(10.0, n))
        ts = TimeSeries(np.arange(n, dtype=float), FS, kind="displacement")
        ok = np.ones(n, dtype=bool)
        ok[[254, 256, 262]] = False
        before = ok.copy()
        out = resample_to_space(ts, axis, ok)
        grid = out.positions()
        assert grid[~out.valid].tolist() == [10.25]
        assert np.isnan(out.values[grid == 10.25]).all()
        # on a valid sample between two invalid ones: the sample's value
        assert out.values[grid == 10.0].tolist() == [255.0]
        assert np.array_equal(ok, before)

    def test_span_shorter_than_grid_step(self):
        prof = constant_speed(0.01, 256)   # 1 cm covered in 1 s
        axis = build_distance_axis(prof)
        ts = TimeSeries(np.zeros(256), FS, kind="displacement")
        with pytest.raises(TooShortError):
            resample_to_space(ts, axis)

    def test_length_mismatch(self):
        axis = build_distance_axis(constant_speed(10.0, 256))
        ts = TimeSeries(np.zeros(100), FS, kind="displacement")
        with pytest.raises(ValueError):
            resample_to_space(ts, axis)
        # and a valid mask one sample short of the record
        ts = TimeSeries(np.zeros(256), FS, kind="displacement")
        with pytest.raises(ValueError):
            resample_to_space(ts, axis, np.ones(255, dtype=bool))


class TestSpatialSeries:
    def test_positions(self):
        s = SpatialSeries(np.zeros(5), 10.0)
        assert np.allclose(s.positions(), [10.0, 10.25, 10.5, 10.75, 11.0])

    def test_default_valid_mask(self):
        s = SpatialSeries(np.zeros(5), 0.0)
        assert s.valid.all() and s.valid.size == 5

    def test_nan_invalid_by_default(self):
        s = SpatialSeries(np.array([1.0, np.nan]), 0.0)
        assert s.valid.tolist() == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialSeries(np.zeros((2, 2)), 0.0)
