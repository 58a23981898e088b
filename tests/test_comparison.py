"""Window-value comparison metrics and integer-window co-registration."""

import numpy as np
import pytest

from trackvib.comparison import (MIN_COMMON_WINDOWS, _common_windows,
                                 coregister, correlate)
from trackvib.errors import (InsufficientDataError, NoOverlapError,
                             UndefinedCorrelationError)
from trackvib.geometry import WindowedStats


def stats(values, start=0.0, window=100.0, valid_fraction=None):
    values = np.asarray(values, dtype=float)
    n = values.size
    if valid_fraction is None:
        valid_fraction = np.ones(n)
    return WindowedStats(window, start + window * np.arange(n), values,
                         np.asarray(valid_fraction, dtype=float))


def matched_pairs_reference(est, ref):
    """Windows with identical start positions, both usable: a merge over
    the two start sequences, kept as the reference for the index rule."""
    tol = 1e-6 * max(1.0, est.window_m)
    i = j = 0
    ei, ri = [], []
    while i < len(est) and j < len(ref):
        d = est.starts_m[i] - ref.starts_m[j]
        if abs(d) <= tol:
            if est.usable[i] and ref.usable[j]:
                ei.append(i)
                ri.append(j)
            i += 1
            j += 1
        elif d < 0:
            i += 1
        else:
            j += 1
    return np.asarray(ei, dtype=int), np.asarray(ri, dtype=int)


class TestCommonWindows:
    def test_matches_reference_merge(self):
        # shifts, unusable windows, and disjoint, partial and full overlaps
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(400):
            window = float(rng.choice([20.0, 100.0]))
            n_est, n_ref = rng.integers(1, 30, size=2)
            origin = window * rng.integers(-5, 5) + float(rng.choice([0.0, 0.25]))
            est = stats(rng.uniform(1.0, 5.0, n_est), origin, window,
                        rng.choice([0.0, 0.4, 1.0], n_est, p=[0.1, 0.1, 0.8]))
            shift = window * int(rng.integers(-35, 35))
            ref = stats(rng.uniform(1.0, 5.0, n_ref), origin + shift, window,
                        rng.choice([0.0, 1.0], n_ref, p=[0.2, 0.8]))
            ei, ri = matched_pairs_reference(est, ref)
            if ei.size == 0:
                expected = NoOverlapError
            elif ei.size < MIN_COMMON_WINDOWS:
                expected = InsufficientDataError
            else:
                got = _common_windows(est, ref)
                assert np.array_equal(got[0], ei) and np.array_equal(got[1], ri)
                outcomes.add("pairs")
                continue
            with pytest.raises(expected):
                _common_windows(est, ref)
            outcomes.add(expected.__name__)
        assert outcomes == {"pairs", "NoOverlapError", "InsufficientDataError"}


class TestCorrelate:
    def test_self_comparison_is_perfect(self):
        rng = np.random.default_rng(2)
        s = stats(rng.uniform(1.0, 5.0, 20))
        rep = correlate(s, s)
        assert rep.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert rep.slope == pytest.approx(1.0, abs=1e-9)
        assert rep.intercept == pytest.approx(0.0, abs=1e-9)
        assert rep.n_windows == 20
        assert np.allclose(rep.residuals, 0.0, atol=1e-9)

    def test_affine_relation_recovered(self):
        rng = np.random.default_rng(3)
        ref_v = rng.uniform(1.0, 5.0, 30)
        est = stats(2.0 * ref_v + 3.0)
        rep = correlate(est, stats(ref_v))
        assert rep.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert rep.slope == pytest.approx(2.0, abs=1e-9)
        assert rep.intercept == pytest.approx(3.0, abs=1e-9)

    def test_pearson_affine_invariance(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=25)
        r = 0.5 * e + rng.normal(size=25)
        base = correlate(stats(e), stats(r)).pearson_r
        scaled = correlate(stats(7.0 * e - 11.0), stats(r)).pearson_r
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_unusable_windows_dropped(self):
        e = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        r = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        vf = np.array([1.0, 1.0, 1.0, 1.0, 0.2])  # last window untrusted
        rep = correlate(stats(e, valid_fraction=vf), stats(r))
        assert rep.n_windows == 4
        assert rep.pearson_r == pytest.approx(1.0, abs=1e-12)

    def test_too_few_windows(self):
        with pytest.raises(InsufficientDataError):
            correlate(stats([1.0, 2.0]), stats([1.0, 2.0]))

    def test_disjoint_sequences(self):
        with pytest.raises(NoOverlapError):
            correlate(stats(np.arange(5.0)), stats(np.arange(5.0), start=1000.0))

    def test_zero_variance_rejected(self):
        flat = stats(np.full(10, 2.0))
        wavy = stats(np.arange(10.0))
        with pytest.raises(UndefinedCorrelationError):
            correlate(flat, wavy)
        with pytest.raises(UndefinedCorrelationError):
            correlate(wavy, flat)

    def test_flat_up_to_rounding_rejected(self):
        # one ulp apart is no variance: the HA10 windows of a two-sine
        # lateral profile are equal up to rounding and gave slope 1.8e13
        ulp = stats(np.where(np.arange(10) % 2, np.nextafter(2.0, 3.0), 2.0))
        wavy = stats(np.arange(10.0))
        with pytest.raises(UndefinedCorrelationError):
            correlate(ulp, wavy)
        with pytest.raises(UndefinedCorrelationError):
            correlate(wavy, ulp)
        with pytest.raises(UndefinedCorrelationError):
            coregister(wavy, ulp, max_shift_m=300.0)

    def test_flatness_is_relative_to_magnitude(self):
        # spreads of 1e-12 of the values' magnitude are rounding, spreads of
        # 1e-6 are real, at any scale
        rng = np.random.default_rng(8)
        wavy = rng.uniform(1.0, 5.0, 10)
        for scale in (1e-3, 1.0, 1e4):
            with pytest.raises(UndefinedCorrelationError):
                correlate(stats(scale * (1.0 + 1e-12 * wavy)), stats(wavy))
            rep = correlate(stats(scale * (1.0 + 1e-6 * wavy)), stats(wavy))
            assert rep.pearson_r == pytest.approx(1.0, abs=1e-6)
            assert rep.slope == pytest.approx(1e-6 * scale, rel=1e-4)

    def test_mismatched_window_length(self):
        with pytest.raises(ValueError):
            correlate(stats(np.arange(5.0)), stats(np.arange(5.0), window=20.0))

    def test_off_grid_phase_rejected(self):
        a = stats(np.arange(5.0))
        b = stats(np.arange(5.0), start=50.0)  # half-window offset
        with pytest.raises(ValueError):
            correlate(a, b)

    def test_report_round_trips_to_dict(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(1.0, 5.0, 8)
        rep = correlate(stats(v), stats(v), metadata={"column": "VA10_left_mm"})
        d = rep.to_dict()
        assert d["n_windows"] == 8
        assert d["metadata"]["column"] == "VA10_left_mm"
        assert len(d["per_window"]) == 8
        assert isinstance(d["per_window"][0]["estimated"], float)


class TestCoregister:
    def test_identity_when_aligned(self):
        rng = np.random.default_rng(6)
        s = stats(rng.uniform(1.0, 5.0, 20))
        shifted, ref, applied = coregister(s, s, max_shift_m=300.0)
        assert applied == 0.0
        assert np.array_equal(shifted.starts_m, ref.starts_m)

    def test_known_offset_recovered(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(1.0, 5.0, 30)
        ref = stats(v)
        # estimate chainage lags the reference by two windows
        est = stats(v, start=-200.0)
        shifted, _, applied = coregister(est, ref, max_shift_m=500.0)
        assert applied == 200.0
        rep = correlate(shifted, ref)
        assert rep.pearson_r == pytest.approx(1.0, abs=1e-12)

    def test_zero_max_shift_means_plain_pairing(self):
        rng = np.random.default_rng(8)
        v = rng.uniform(1.0, 5.0, 10)
        shifted, _, applied = coregister(stats(v), stats(v), max_shift_m=0.0)
        assert applied == 0.0

    def test_insufficient_overlap(self):
        a = stats(np.arange(5.0))
        b = stats(np.arange(5.0), start=2000.0)
        with pytest.raises(NoOverlapError):
            coregister(a, b, max_shift_m=100.0)

    def test_zero_variance_reported_as_undefined(self):
        flat = stats(np.full(10, 1.0))
        with pytest.raises(UndefinedCorrelationError):
            coregister(flat, flat, max_shift_m=0.0)

    def test_negative_max_shift_rejected(self):
        s = stats(np.arange(5.0))
        with pytest.raises(ValueError):
            coregister(s, s, max_shift_m=-1.0)

    @pytest.mark.parametrize("max_shift", [np.inf, np.nan])
    def test_non_finite_max_shift_rejected(self, max_shift):
        s = stats(np.arange(5.0))
        with pytest.raises(ValueError, match=f"max_shift_m of {max_shift} m"):
            coregister(s, s, max_shift_m=max_shift)

    def test_ties_prefer_smaller_shift(self):
        # strictly periodic values: every shift scores r = 1, keep k = 0
        v = np.tile([1.0, 2.0, 3.0, 4.0], 6)
        s = stats(v)
        _, _, applied = coregister(s, s, max_shift_m=400.0)
        assert applied == 0.0
