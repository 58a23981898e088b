"""End-to-end processing chain on synthetic runs with known geometry."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackvib import pipeline
from trackvib.errors import (GapTooLargeError, MissingChannelError,
                             MixedLocationError, TooShortError,
                             UndefinedCorrelationError)
from trackvib.fileio import read_trc, write_trc
from trackvib.layout import (AXES, POSITIONS, SENSOR_SPECS, SIDES,
                             TRC_DECIMALS, channel_id, column_name,
                             parse_channel_id)
from trackvib.pipeline import (ProcessOptions, chord_ground_truth, compare_trc,
                               process_records)
from trackvib.synthesizer import (SimConfig, add_sensor_noise, simulate_run,
                                  synth_profile)

SINE_SPEC = {"type": "sines",
             "components": [{"nu": 0.05, "amplitude_mm": 5.0}]}
NOISE_SPEC = {"type": "noise", "band_cycles_per_m": (0.02, 0.5), "rms_mm": 3.0}


def simulate(spec, length_m=400.0, v=10.0, seed=0):
    profile = synth_profile(length_m, spec, seed=seed)
    t_end = length_m / v + 5.0
    sim = simulate_run(profile, SimConfig(speed_plan=((0.0, v), (t_end, v)),
                                          seed=seed))
    return profile, sim


def true_speed_at_256(sim, margin=64):
    """10 m/s as a (time_s, speed_mps) table past the end of the records."""
    n = len(next(iter(sim.channels.values()))) // 10 + margin
    return np.arange(n) / 256.0, np.full(n, 10.0)


def blocks_of(ts, block_s=10.0):
    """A record cut into block_s blocks, as simulate writes them."""
    fs = ts.sample_rate_hz
    n_block = int(round(block_s * fs))
    return [replace(ts, samples=ts.samples[k:k + n_block], start_time_s=k / fs)
            for k in range(0, len(ts), n_block)]


@pytest.fixture(scope="module")
def noise_run():
    return simulate(NOISE_SPEC, length_m=600.0, seed=4)


# the records the default jobs read: front vertical and lateral of each
# rail, and the back vertical of the first side for the speed
READ = ["bogie-back-left-vertical", "bogie-front-left-lateral",
        "bogie-front-left-vertical", "bogie-front-right-lateral",
        "bogie-front-right-vertical"]


class TestChannelNaming:
    def test_parse_round_trip(self):
        meta = parse_channel_id("bogie-front-left-vertical")
        assert meta == {"location": "bogie", "position": "front",
                        "side": "left", "axis": "vertical"}
        # and every id of the vocabulary, at one location
        for position, side, axis in product(POSITIONS, SIDES, AXES):
            meta = parse_channel_id(f"bogie-{position}-{side}-{axis}")
            assert meta == {"location": "bogie", "position": position,
                            "side": side, "axis": axis}

    def test_channel_id_round_trip(self):
        for parts in product(["bogie", "axlebox"], POSITIONS, SIDES, AXES):
            cid = channel_id(*parts)
            assert cid == "-".join(parts)
            assert tuple(parse_channel_id(cid).values()) == parts

    def test_every_simulated_id_parses(self, noise_run):
        _, sim = noise_run
        parts = {tuple(parse_channel_id(cid).values()) for cid in sim.channels}
        assert parts == set(product(["bogie"], POSITIONS, SIDES, AXES))

    def test_parse_rejects_malformed(self):
        for bad in ("bogie-front-left", "bogie-top-left-vertical",
                    "bogie-front-middle-vertical", "bogie-front-left-yaw"):
            with pytest.raises(MissingChannelError):
                parse_channel_id(bad)

    def test_column_names(self):
        assert column_name(10.0, "left", "vertical") == "VA10_left_mm"
        assert column_name(35.0, "right", "vertical") == "VA35_right_mm"
        assert column_name(7.5, "left", "lateral") == "HA7.5_left_mm"


class TestProcessRecords:
    def test_sine_geometry_recovered_with_true_speed(self):
        # chord transfer of the 0.05 c/m sine on a 10 m chord is
        # 1 - cos(pi * 0.5) = 1, so VA10 peaks at the 5 mm profile amplitude
        _, sim = simulate(SINE_SPEC)
        res = process_records(sim.channels,
                              speed_override=true_speed_at_256(sim))
        stats = res.maxima["VA10_left_mm"]
        # settle margins already strip the edge windows from the usable set
        core = stats.values[stats.usable]
        assert core.size >= 2
        assert np.all(np.abs(core - 5.0) < 0.25)

    def test_estimated_speed_close_to_truth(self):
        _, sim = simulate(NOISE_SPEC, seed=3)
        res = process_records(sim.channels)
        v = res.speed.speeds_mps[res.speed.valid]
        assert v.size > 0
        assert np.mean(np.abs(v - 10.0) < 0.5) > 0.9

    def test_block_lists_are_merged(self):
        _, sim = simulate(SINE_SPEC)
        blocks = {}
        for cid, ts in sim.channels.items():
            n = len(ts)
            fs = ts.sample_rate_hz
            cut = n // 2
            blocks[cid] = [
                replace(ts, samples=ts.samples[:cut]),
                replace(ts, samples=ts.samples[cut:], start_time_s=cut / fs),
            ]
        whole = process_records(sim.channels,
                                speed_override=true_speed_at_256(sim))
        split = process_records(blocks,
                                speed_override=true_speed_at_256(sim))
        a = whole.alignments["VA10_left_mm"].values
        b = split.alignments["VA10_left_mm"].values
        assert np.allclose(a, b, equal_nan=True)

    def test_missing_back_channel_needs_override(self):
        _, sim = simulate(SINE_SPEC)
        fronts = {cid: ts for cid, ts in sim.channels.items()
                  if "-front-" in cid}
        with pytest.raises(MissingChannelError):
            process_records(fronts)
        res = process_records(fronts, speed_override=true_speed_at_256(sim))
        assert "VA10_left_mm" in res.alignments

    def test_expected_columns_present(self):
        _, sim = simulate(SINE_SPEC)
        res = process_records(sim.channels,
                              speed_override=true_speed_at_256(sim))
        assert set(res.alignments) == {"VA10_left_mm", "VA10_right_mm",
                                       "VA35_left_mm", "VA35_right_mm",
                                       "HA10_left_mm", "HA10_right_mm"}
        assert set(res.maxima) == set(res.alignments)

    def test_cutoff_override_recorded(self):
        _, sim = simulate(SINE_SPEC)
        res = process_records(sim.channels, ProcessOptions(cutoff_hz=0.1),
                              speed_override=true_speed_at_256(sim))
        assert res.params["cutoff_hz"] == 0.1

    def test_zero_cutoff_refused(self):
        # 0 is a cutoff, not "unset": it reaches double_integrate in the
        # geometry jobs, which refuses it; the speed estimate keeps its own
        # cutoff, SPEED_CUTOFF_HZ
        _, sim = simulate(SINE_SPEC)
        opts = ProcessOptions(cutoff_hz=0.0)
        with pytest.raises(ValueError, match="cutoff 0.0 Hz"):
            process_records(sim.channels, opts)
        with pytest.raises(ValueError, match="cutoff 0.0 Hz"):
            process_records(sim.channels, opts,
                            speed_override=true_speed_at_256(sim))

    def test_short_speed_override_rejected(self):
        _, sim = simulate(SINE_SPEC)
        short = (np.arange(10) / 256.0, np.full(10, 10.0))
        with pytest.raises(TooShortError):
            process_records(sim.channels, speed_override=short)

    def test_crawl_is_nan_on_the_grid(self):
        # 200 m at 10 m/s, a 6 s crawl at 0.3 m/s over about 202.6-204.4 m,
        # then 10 m/s again: the standstill mask comes from the speed
        profile = synth_profile(600.0, NOISE_SPEC, seed=4)
        sim = simulate_run(profile, SimConfig(
            speed_plan=((0, 10), (20, 10), (20.5, 0.3), (26.5, 0.3), (27, 10),
                        (80, 10)), seed=4))
        v = sim.speeds_mps[::10]
        res = process_records(sim.channels,
                              speed_override=(np.arange(v.size) / 256.0, v))
        for column, series in res.alignments.items():
            x = series.positions()
            inside = (x > 202.6 + 0.3) & (x < 204.4 - 0.3)
            assert np.count_nonzero(inside) == 5
            assert np.isnan(series.values[inside]).all(), column
            if column.startswith(("VA10", "HA10")):
                far = ((x >= 60.0) & (x <= x[-1] - 60.0)
                       & ((x < 202.6 - 60.0) | (x > 204.4 + 60.0)))
                assert series.valid[far].all(), column

    def test_to_trc_writes_and_reads(self, tmp_path):
        _, sim = simulate(SINE_SPEC)
        res = process_records(sim.channels,
                              speed_override=true_speed_at_256(sim))
        trc = res.to_trc()
        assert "speed_mps" in trc.columns
        p = tmp_path / "est.trc"
        write_trc(p, trc)
        back = read_trc(p)
        assert np.array_equal(back.distance_m, trc.distance_m)
        assert np.allclose(back.columns["speed_mps"], 10.0, atol=1e-9)

    def test_cut_records_are_reported(self):
        _, sim = simulate(SINE_SPEC)
        assert process_records(sim.channels).cut_s == {}
        short = "bogie-front-right-lateral"
        channels = dict(sim.channels)
        channels[short] = replace(channels[short],
                                  samples=channels[short].samples[:-2560 * 3])
        res = process_records(channels)
        assert set(res.cut_s) == set(READ) - {short}
        assert all(s == 3.0 for s in res.cut_s.values()), res.cut_s

    def test_published_columns_are_the_computed_ones_rounded(self, noise_run,
                                                             monkeypatch):
        # the .trc columns and the windowed maxima lie within half of the
        # last published decimal of the values computed without rounding,
        # and are NaN where those are
        profile, sim = noise_run

        def published_values():
            res, truth = process_records(sim.channels), chord_ground_truth(profile, sim)
            tables = (res.to_trc(), truth)
            return ([list(t.columns) for t in tables], np.concatenate(
                [v for t in tables for v in t.columns.values()]
                + [s.values for s in res.maxima.values()]))

        names, got = published_values()
        monkeypatch.setattr(pipeline, "published", lambda values: values)
        raw_names, want = published_values()
        assert names == raw_names
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert not np.array_equal(got, want, equal_nan=True)
        assert np.nanmax(np.abs(got - want)) <= 5e-7


class TestSpeedStage:
    def test_settle_zone_does_not_move_the_speed(self):
        # 2 km at 25 m/s: windows in the integrator's first 1.5 / 0.3 Hz
        # = 5 s peak just above QUALITY_THRESHOLD at a wrong lag
        v = 25.0
        profile = synth_profile(2000.0, NOISE_SPEC, seed=4,
                                lateral_spec=dict(NOISE_SPEC, rms_mm=2.0))
        sim = simulate_run(profile, SimConfig(
            speed_plan=((0.0, v), (2000.0 / v + 5.0, v)), seed=4))
        sensor = SENSOR_SPECS["bogie_mems"]
        noisy = {cid: add_sensor_noise(ts, sensor, 4)[0]
                 for cid, ts in sim.channels.items()}
        res = process_records(noisy)
        n = len(res.axis)
        assert abs(res.axis.positions_m[-1] - v * (n - 1) / 256.0) <= 2.0
        out = compare_trc(res.to_trc(), chord_ground_truth(profile, sim),
                          max_shift_m=300.0)
        for column in ("VA10_left_mm", "VA10_right_mm"):
            assert out[column][0].pearson_r >= 0.95, column

    def test_settle_edges_on_the_grid(self):
        # at a constant 25 m/s sample k sits at 25 (k + 1) / 256 m; the
        # 10 m chord settles over 1.5 / 0.3 Hz = 5 s = 1280 samples at each
        # end, and the last settled sample sits on the 1250.0 m grid point
        v = 25.0
        profile = synth_profile(1375.0, NOISE_SPEC, seed=3)
        sim = simulate_run(profile, SimConfig(speed_plan=((0.0, v), (60.0, v)),
                                              seed=3))
        t = np.arange(60 * 256) / 256.0
        res = process_records(sim.channels,
                              ProcessOptions(chords_m=(10.0,),
                                             lateral_chords_m=()),
                              (t, np.full(t.size, v)))
        va = res.alignments["VA10_left_mm"]
        valid = va.positions()[va.valid]
        assert (valid[0], valid[-1]) == (130.25, 1245.0)

    @pytest.mark.parametrize("wheelbase_m, v", [(2.0, 35.0), (3.0, 1.1)])
    def test_delay_search_follows_the_wheelbase(self, wheelbase_m, v):
        # the search covers SPEED_BOUNDS at any wheelbase: 2 m at 35 m/s is
        # a delay below 0.0625 s, 3 m at 1.1 m/s one above 2.5 s
        length_m = min(1000.0, 120.0 * v)
        profile = synth_profile(length_m, NOISE_SPEC, seed=4)
        sim = simulate_run(profile, SimConfig(
            speed_plan=((0.0, v), (length_m / v + 5.0, v)),
            wheelbase_m=wheelbase_m, seed=4))
        res = process_records(sim.channels,
                              ProcessOptions(wheelbase_m=wheelbase_m))
        assert np.median(res.speed.speeds_mps) == pytest.approx(v, rel=0.01)


class TestRecordsRead:
    def test_mixed_locations_refused(self, noise_run):
        # the same run at two locations, the axlebox set scaled by 3: keyed
        # without its location, that set would silently replace the other
        _, sim = noise_run
        channels = dict(sim.channels)
        for cid, ts in sim.channels.items():
            axle = cid.replace("bogie", "axlebox")
            channels[axle] = replace(ts, samples=3.0 * ts.samples,
                                     channel_id=axle)
        assert len(channels) == 16
        with pytest.raises(MixedLocationError, match="axlebox, bogie"):
            process_records(channels)
        with pytest.raises(MixedLocationError, match="axlebox, bogie"):
            process_records(channels, speed_override=true_speed_at_256(sim))

    @pytest.mark.parametrize("fault", ["dropped block", "short channel"])
    def test_fault_in_an_unread_channel_changes_nothing(self, noise_run,
                                                        fault):
        # no job reads a back lateral record
        _, sim = noise_run
        channels = {cid: blocks_of(ts) for cid, ts in sim.channels.items()}
        full = process_records(channels)
        faulty = dict(channels)
        cid = "bogie-back-right-lateral"
        if fault == "dropped block":
            faulty[cid] = channels[cid][:2] + channels[cid][3:]
            with pytest.raises(GapTooLargeError, match="t=20.000000 s"):
                pipeline.merge_records(faulty[cid])
        else:
            faulty[cid] = channels[cid][:2]
        res = process_records(faulty)
        assert res.params == full.params
        assert res.speed.speeds_mps.tobytes() == full.speed.speeds_mps.tobytes()
        assert list(res.alignments) == list(full.alignments)
        for column, series in full.alignments.items():
            assert res.alignments[column].values.tobytes() \
                == series.values.tobytes(), column

    @pytest.mark.parametrize("override", [False, True])
    def test_only_read_records_are_merged_and_decimated(self, noise_run,
                                                        monkeypatch, override):
        _, sim = noise_run
        merged, decimated = [], []
        merge, decimate = pipeline.merge_records, pipeline.decimate

        def merge_spy(parts):
            merged.append(parts[0].channel_id)
            return merge(parts)

        def decimate_spy(ts, factor):
            decimated.append(ts.channel_id)
            return decimate(ts, factor)

        monkeypatch.setattr(pipeline, "merge_records", merge_spy)
        monkeypatch.setattr(pipeline, "decimate", decimate_spy)
        channels = {cid: blocks_of(ts) for cid, ts in sim.channels.items()}
        speed = true_speed_at_256(sim) if override else None
        res = process_records(channels, speed_override=speed)
        # an external speed needs no back record
        expected = [c for c in READ if not (override and "-back-" in c)]
        assert len(expected) == (4 if override else 5)
        assert sorted(merged) == sorted(decimated) == expected
        assert res.params["channels"] == expected


class TestChordGroundTruth:
    def test_matches_direct_chord_arithmetic(self):
        profile, sim = simulate(SINE_SPEC)
        trc = chord_ground_truth(profile, sim)
        x = trc.distance_m
        h = 5.0   # half of the 10 m chord
        oracle = (5.0 * np.sin(2 * np.pi * 0.05 * x)
                  - 0.5 * (5.0 * np.sin(2 * np.pi * 0.05 * (x - h))
                           + 5.0 * np.sin(2 * np.pi * 0.05 * (x + h))))
        got = trc.columns["VA10_left_mm"]
        core = slice(200, len(x) - 200)
        assert np.allclose(got[core], oracle[core], atol=1e-6)
        assert np.isnan(got[0])

    def test_speed_column_is_truth(self):
        profile, sim = simulate(SINE_SPEC)
        trc = chord_ground_truth(profile, sim)
        assert np.allclose(trc.columns["speed_mps"], 10.0, atol=1e-9)


class TestCompareTrc:
    def test_self_comparison_perfect(self, noise_run):
        profile, sim = noise_run
        ref = chord_ground_truth(profile, sim)
        out = compare_trc(ref, ref)
        assert "VA10_left_mm" in out
        for report, shift in out.values():
            assert report.pearson_r == pytest.approx(1.0, abs=1e-12)
            assert shift == 0.0

    def test_estimated_vs_truth_high_correlation(self, noise_run):
        profile, sim = noise_run
        res = process_records(sim.channels)
        out = compare_trc(res.to_trc(), chord_ground_truth(profile, sim),
                          max_shift_m=100.0)
        report, shift = out["VA10_left_mm"]
        assert report.pearson_r > 0.9
        assert abs(shift) <= 100.0

    def test_zero_variance_columns_skipped(self, noise_run):
        # vertical-only profile leaves HA columns identically zero
        profile, sim = noise_run
        out = compare_trc(chord_ground_truth(profile, sim),
                          chord_ground_truth(profile, sim))
        assert not any(c.startswith("HA") for c in out)

    def test_no_common_columns(self, noise_run):
        import copy
        profile, sim = noise_run
        ref = chord_ground_truth(profile, sim)
        a = copy.deepcopy(ref)
        b = copy.deepcopy(ref)
        a.columns = {"VA10_left_mm": a.columns["VA10_left_mm"]}
        b.columns = {"VA35_left_mm": b.columns["VA35_left_mm"]}
        with pytest.raises(MissingChannelError):
            compare_trc(a, b)

    def test_too_few_windows_skipped_with_reason(self, noise_run):
        # VA10_right_mm of the estimate keeps two usable windows, too few
        # at any shift; VA10_left_mm is compared
        import copy
        profile, sim = noise_run
        ref = chord_ground_truth(profile, sim)
        est = copy.deepcopy(ref)
        est.columns["VA10_right_mm"][800:] = np.nan
        skipped = {}
        out = compare_trc(est, ref, max_shift_m=100.0, skipped=skipped)
        assert "VA10_left_mm" in out and "VA10_right_mm" not in out
        assert skipped["VA10_right_mm"] == "too few comparable windows"
        assert skipped["HA10_left_mm"] == "windows have no variance"

    def test_all_flat_columns_raise(self):
        from trackvib.fileio import TrcData
        n = 1600   # 400 m of zeros: four usable but variance-free windows
        flat = TrcData(0.25 * np.arange(n), {"HA10_left_mm": np.zeros(n)})
        with pytest.raises(UndefinedCorrelationError):
            compare_trc(flat, flat)


class TestChainInvariance:
    """Properties of the whole chain under a transform of its input, on
    noise-free records: they need no ground truth."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16), v0=st.floats(8.0, 16.0),
           v1=st.floats(8.0, 16.0), c=st.floats(0.05, 20.0))
    def test_scaled_records_scale_the_geometry(self, seed, v0, v1, c):
        # records x c: the chain is linear up to the speed, and the delay
        # estimator is normalised, so the speed is unchanged and every
        # geometry column is c times the unscaled one. Bounds, from the
        # published resolution q: the speeds, unrounded, part by ~1e-13 m/s,
        # so a rounding may flip by one q; the geometry columns are both
        # rounded, so they may part by q/2 + c q/2, with 1e-9 mm left for
        # the chain's float rounding
        length_m = 300.0
        profile = synth_profile(length_m, NOISE_SPEC, seed=seed,
                                lateral_spec=NOISE_SPEC)
        t_end = length_m / min(v0, v1) + 5.0
        sim = simulate_run(profile, SimConfig(speed_plan=((0.0, v0), (t_end, v1)),
                                              seed=seed))
        scaled = {cid: replace(ts, samples=ts.samples * c)
                  for cid, ts in sim.channels.items()}
        base = process_records(sim.channels).to_trc()
        got = process_records(scaled).to_trc()

        np.testing.assert_array_equal(got.distance_m, base.distance_m)
        q = 10.0 ** -TRC_DECIMALS
        np.testing.assert_allclose(got.columns["speed_mps"],
                                   base.columns["speed_mps"], rtol=0, atol=q + 1e-12)
        for name in base.geometry_columns():
            # NaN where the unscaled column is NaN, and nowhere else
            np.testing.assert_allclose(got.columns[name], c * base.columns[name],
                                       rtol=0, atol=(1 + c) * q / 2 + 1e-9,
                                       err_msg=name)
