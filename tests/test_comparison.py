"""Window-value comparison metrics and integer-window co-registration."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackvib.comparison import (MIN_COMMON_WINDOWS, _common_windows,
                                 _usable_pairs, coregister, correlate)
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

    def test_tie_between_opposite_shifts_goes_to_negative(self):
        # shifts -1 and +1 both score r = 1 and beat shift 0 (r = -1)
        est = stats(np.tile([1.0, 2.0], 10))
        ref = stats(np.tile([2.0, 1.0], 10))
        _, _, applied = coregister(est, ref, max_shift_m=100.0)
        assert applied == -100.0


def coregister_loop(est, ref, max_shift_m=0.0):
    """coregister as one _common_windows and np.corrcoef per shift, in
    (|k|, k) order: the reference for the array pass."""
    if not 0 <= max_shift_m < np.inf:
        raise ValueError(f"max_shift_m of {max_shift_m} m must be finite "
                         f"and >= 0")
    k_max = int(np.floor(max_shift_m / est.window_m + 1e-9))
    best, undefined, most = None, None, 0    # most: usable pairs at any shift
    for k in sorted(range(-k_max, k_max + 1), key=lambda k: (abs(k), k)):
        shifted = replace(est, starts_m=est.starts_m + k * est.window_m)
        most = max(most, _usable_pairs(shifted, ref)[0].size)
        try:
            ei, ri = _common_windows(shifted, ref)
        except UndefinedCorrelationError as exc:
            undefined = exc
            continue
        except (NoOverlapError, InsufficientDataError):
            continue
        score = float(np.corrcoef(shifted.values[ei], ref.values[ri])[0, 1])
        if best is None or score > best[0] + 1e-9:
            best = (score, k, shifted)
    if best is None:
        raise undefined or NoOverlapError(
            f"the tables share at most {most} usable windows of {est.window_m:g} "
            f"m at any shift within +/-{max_shift_m:g} m; compare needs "
            f"{MIN_COMMON_WINDOWS}, and a shorter --window gives more")
    _, k, shifted = best
    return shifted, ref, k * est.window_m


def outcome(fn, *args):
    try:
        shifted, _, applied = fn(*args)
    except Exception as exc:   # the type and message are what is compared
        return type(exc), str(exc)
    return applied, shifted.starts_m.tolist()


@st.composite
def window_values(draw, size):
    """Window values as windowed_max gives them, in the shapes that decide
    a shift: random, small integers (tied scores), periodic (tied scores),
    flat, flat up to rounding; some NaN or below the valid fraction."""
    kind = draw(st.sampled_from(["random"] * 3 + ["integers", "periodic",
                                                  "flat", "ulp"]))
    if kind == "random":
        v = draw(st.lists(st.floats(0.01, 50.0), min_size=size,
                          max_size=size))
    elif kind == "integers":
        v = draw(st.lists(st.integers(1, 3).map(float), min_size=size,
                          max_size=size))
    elif kind == "periodic":
        period = draw(st.lists(st.floats(0.5, 5.0), min_size=1, max_size=4))
        v = (period * size)[:size]
    else:
        level = draw(st.floats(1e-3, 1e4))
        v = [level] * size
        if kind == "ulp":
            v = [np.nextafter(x, np.inf) if i % 2 else x
                 for i, x in enumerate(v)]
    v = np.asarray(v, dtype=float)
    fraction = np.asarray(draw(st.lists(st.sampled_from([1.0] * 5 + [0.5, 0.49,
                                                                0.0]),
                                        min_size=size, max_size=size)))
    nan = draw(st.lists(st.sampled_from([False] * 7 + [True]), min_size=size,
                        max_size=size))
    v[np.asarray(nan, dtype=bool)] = np.nan
    return v, fraction


@st.composite
def coregister_args(draw):
    huge = draw(st.booleans())
    # at 1e9 m the loop tries every shift, so its window keeps that at 201
    window = 1e7 if huge else draw(st.sampled_from([20.0, 100.0]))
    max_shift = 1e9 if huge else (window * draw(st.integers(0, 50))
                                  + draw(st.sampled_from([0.0, 0.5 * window])))
    origin = window * draw(st.integers(-5, 5)) + draw(st.sampled_from(
        [0.0, 0.25, 0.125]))
    phase = draw(st.sampled_from([0.0] * 18 + [0.25, 0.5]))
    ref_window = draw(st.sampled_from([window] * 19 + [window / 2]))
    # sampled, not integers(0, 40), which would draw 0 in a third of cases
    lengths = st.sampled_from(range(41))
    est_v, est_f = draw(window_values(draw(lengths)))
    ref_v, ref_f = draw(window_values(draw(lengths)))
    offset = draw(st.integers(-45, 45))
    est = WindowedStats(window, origin + window * np.arange(est_v.size),
                        est_v, est_f)
    ref_start = origin + window * (offset + phase)
    ref = WindowedStats(ref_window,
                        ref_start + ref_window * np.arange(ref_v.size),
                        ref_v, ref_f)
    return est, ref, max_shift


class TestCoregisterAgainstLoop:
    @settings(deadline=None, max_examples=400)
    @given(args=coregister_args())
    def test_same_shift_or_same_refusal(self, args):
        assert outcome(coregister, *args) == outcome(coregister_loop, *args)

    def test_huge_shift_keeps_a_bounded_working_set(self):
        # about 1000 windows a side: one unbatched (shift x window) array
        # of the 2000 shifts that overlap would hold 16 MB
        rng = np.random.default_rng(21)
        v = rng.uniform(1.0, 5.0, 1100)
        est = stats(v[:1000] + rng.normal(0.0, 0.1, 1000), start=-700.0)
        ref = stats(v[60:1060])
        tracemalloc.start()
        try:
            huge = coregister(est, ref, max_shift_m=1e9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # est window i starts at ref window i - 7: shifts -992 to 1006
        # leave pairs, so 1006 windows span the overlap exactly
        exact = coregister(est, ref, max_shift_m=1006 * 100.0)
        assert huge[2] == exact[2]
        assert np.array_equal(huge[0].starts_m, exact[0].starts_m)
