"""Command-line interface: subcommands, artifacts, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trackvib.cli import main

CONFIG = {
    "length_m": 600.0,
    "profile": {"type": "noise", "band_cycles_per_m": [0.02, 0.5],
                "rms_mm": 3.0},
    "speed_plan": [[0.0, 10.0], [70.0, 10.0]],
    "seed": 11,
    "geo_polyline": [[47.0, 8.0], [47.0059, 8.0]],   # ~656 m due north
}


def write_config(path, cfg=None):
    path.write_text(json.dumps(cfg or CONFIG))
    return path


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "config.json")
    out = root / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def proc_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("proc")
    assert main(["process", "--records", str(sim_dir),
                 "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_artifacts(self, sim_dir):
        recs = sorted(sim_dir.glob("*.rec"))
        names = {p.name.rsplit("_b", 1)[0] for p in recs}
        assert len(names) == 8
        per_channel = len(recs) // 8
        assert per_channel >= 3
        assert len(recs) == 8 * per_channel
        assert (sim_dir / "ground_truth.trc").exists()
        assert (sim_dir / "config_used.json").exists()
        assert (sim_dir / "polyline.json").exists()

    def test_block_lengths(self, sim_dir):
        from trackvib.fileio import read_record
        blocks = sorted(sim_dir.glob("bogie-front-left-vertical_b*.rec"))
        sizes = []
        for p in blocks:
            ts, header = read_record(p)
            sizes.append(len(ts))
            assert header["sample_rate_hz"] == 2560.0
        assert all(s == 25600 for s in sizes[:-1])   # 10 s blocks
        assert 0 < sizes[-1] <= 25600

    def test_deterministic_under_seed(self, sim_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "rerun"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        name = "bogie-front-left-vertical_b0001.rec"
        assert (out / name).read_bytes() == (sim_dir / name).read_bytes()
        assert ((out / "ground_truth.trc").read_text()
                == (sim_dir / "ground_truth.trc").read_text())

    def test_seed_flag_changes_output(self, sim_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json")
        out = tmp_path / "reseeded"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == 0
        name = "bogie-front-left-vertical_b0001.rec"
        assert (out / name).read_bytes() != (sim_dir / name).read_bytes()

    def test_missing_config_is_data_error(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_invalid_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"length_m": -5}))
        rc = main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("edit, named", [
        ({"impulse": [{"position_m": 300.0, "amplitude_g": 5.0,
                       "duration_ms": 5.0}]}, "'impulse'"),
        ({"sensor": {"name": "mine", "location": "bogie", "range_g": 16.0,
                     "noise_floor_ug_sqrthz": 300.0}}, "'sensor'"),
        ({"profile": {"type": "noise", "band_cycles_per_m": [0.02, 0.5]}},
         "'profile'"),
        ({"speed_plan": [[0.0, 10.0], [5.0, 10.0]]}, "speed plan"),
        ({"speed_plan": [[5.0, 10.0], [100.0, 12.0]]},
         "first knot is at t = 5.0 s"),
        ({"impulses": [{"position_m": 100.0, "amplitude_g": 5.0,
                        "duration_ms": 0}]}, "duration_ms"),
        ({"impulses": [{"position_m": 100.0, "amplitude_g": 5.0,
                        "duration_ms": -4}]}, "duration_ms")],
        ids=["misspelt-field", "inline-sensor", "noise-without-rms_mm",
             "plan-ends-early", "plan-starts-late", "zero-impulse-duration",
             "negative-impulse-duration"])
    def test_refused_config_writes_nothing(self, tmp_path, capsys, edit, named):
        cfg = write_config(tmp_path / "config.json", dict(CONFIG, **edit))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_lateral_disturbance_is_an_unknown_field(self, tmp_path, capsys):
        # an older config that names the field is refused, not simulated
        # without it
        cfg = write_config(tmp_path / "config.json", dict(
            CONFIG, lateral_disturbance={"rms_mps2": 0.05, "band_hz": [1.0, 20.0]}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unknown field 'lateral_disturbance'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_used_reproduces_the_run(self, tmp_path):
        # every config field, and a --seed override the echo must carry
        cfg = write_config(tmp_path / "config.json", {
            "length_m": 250.0,
            "profile": {"type": "noise", "band_cycles_per_m": [0.02, 0.5],
                        "rms_mm": 3.0},
            "lateral_profile": {"type": "sines", "components": [
                {"nu": 0.05, "amplitude_mm": 2.0, "phase": 0.3}]},
            "speed_plan": [[0.0, 6.0], [10.0, 12.0], [40.0, 12.0]],
            "impulses": [{"position_m": 120.0, "amplitude_g": 5.0,
                          "duration_ms": 5.0}],
            "sensor": "bogie_mems",
            "seed": 7,
            "geo_polyline": [[47.0, 8.0], [47.005, 8.0]],
        })
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["simulate", "--config", str(cfg), "--out", str(first),
                     "--seed", "3"]) == 0
        assert json.loads((first / "config_used.json").read_text())["seed"] == 3
        assert main(["simulate", "--config", str(first / "config_used.json"),
                     "--out", str(again)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        assert len([n for n in names if n.endswith(".rec")]) == 8 * 3
        for name in names:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name


    def test_blocks_equal_the_whole_run(self, tmp_path):
        # a ramp, a stop and a restart, 305 m in 40.5 s
        # (four 10 s blocks and a half), and an impulse at 79.99 m, which
        # the front wheel crosses 1 ms before t = 10 s
        cfg = dict(CONFIG, **{
            "length_m": 305.0,
            "speed_plan": [[0, 0], [4, 10], [12, 10], [16, 0], [20, 0],
                           [24, 10], [60, 10]],
            "impulses": [{"position_m": 79.99, "amplitude_g": 5.0,
                          "duration_ms": 4.0}],
            "sensor": "bogie_mems",
            "seed": 4})
        run = tmp_path / "run"
        assert main(["simulate", "--config",
                     str(write_config(tmp_path / "config.json", cfg)),
                     "--out", str(run)]) == 0

        from trackvib.fileio import read_record, write_trc
        from trackvib.layout import SENSOR_SPECS
        from trackvib.pipeline import chord_ground_truth
        from trackvib.synthesizer import (ImpulseEvent, SimConfig, add_impulses,
                                          add_sensor_noise, simulate_run,
                                          synth_profile)
        profile = synth_profile(cfg["length_m"], cfg["profile"], seed=4)
        sim = simulate_run(profile, SimConfig(cfg["speed_plan"], seed=4))
        events = [ImpulseEvent(**e) for e in cfg["impulses"]]
        n_block = 25600
        assert len(sim.speeds_mps) % n_block != 0
        straddles = 0
        for cid, ts in sim.channels.items():
            whole = ts
            if cid.endswith("-vertical"):
                whole = add_impulses(ts, events, sim.wheel_positions[cid])
                hit = np.flatnonzero(whole.samples != ts.samples)
                straddles += hit[0] < n_block <= hit[-1]
            whole, _ = add_sensor_noise(whole, SENSOR_SPECS["bogie_mems"], 4)
            peak = np.max(np.abs(whole.samples))
            paths = sorted(run.glob(f"{cid}_b*.rec"))
            assert len(paths) == -(-len(whole) // n_block)
            for b, path in enumerate(paths):
                block, _ = read_record(path)
                k0 = b * n_block
                part = whole.samples[k0:k0 + n_block]
                assert block.start_time_s == k0 / 2560.0
                assert len(block) == part.size
                assert np.max(np.abs(block.samples - part)) <= 1e-15 * peak, path.name
        assert straddles == 2       # the front wheel's two vertical channels

        truth = chord_ground_truth(profile, sim)
        truth.metadata["config"] = cfg
        write_trc(tmp_path / "truth.trc", truth)
        assert ((run / "ground_truth.trc").read_bytes()
                == (tmp_path / "truth.trc").read_bytes())

    def test_summary_names_clipped_channels(self, tmp_path, capsys):
        # 40 g against bogie_mems's 16 g range: the vertical channels clip
        cfg = dict(CONFIG, seed=5, sensor="bogie_mems", impulses=[
            {"position_m": 300.0, "amplitude_g": 40.0, "duration_ms": 4.0}])
        run = tmp_path / "run"
        assert main(["simulate", "--config",
                     str(write_config(tmp_path / "config.json", cfg)),
                     "--out", str(run)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "; clipped samples: " in line
        named = dict(part.rsplit(" ", 1)
                     for part in line.split("; clipped samples: ")[1].split(", "))

        from trackvib.fileio import read_record
        limit = 16.0 * 9.81
        counted = {}
        for path in run.glob("*.rec"):
            cid = path.name.rsplit("_b", 1)[0]
            samples = read_record(path)[0].samples
            counted[cid] = counted.get(cid, 0) + int(np.count_nonzero(
                np.abs(samples) >= limit))
        assert {cid: int(k) for cid, k in named.items()} == {
            cid: k for cid, k in counted.items() if k}
        assert sorted(named) == sorted(c for c in counted if c.endswith("-vertical"))

        # process names the clipped records it reads, with the same counts:
        # all but the back right vertical, which the speed pair leaves out
        assert main(["process", "--records", str(run),
                     "--out", str(tmp_path / "out")]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "; clipped samples: " in line
        read = dict(part.rsplit(" ", 1) for part in line.split(
            "; clipped samples: ")[1].split(";")[0].split(", "))
        assert read == {cid: k for cid, k in named.items()
                        if cid != "bogie-back-right-vertical"}


class TestProcess:
    def test_artifacts(self, proc_dir):
        assert sorted(p.name for p in proc_dir.iterdir()) == [
            "estimated.trc", "speed.csv", "windows.csv"]

    def test_records_read_are_named(self, proc_dir):
        from trackvib.fileio import read_table, read_trc
        read = ["bogie-back-left-vertical", "bogie-front-left-lateral",
                "bogie-front-left-vertical", "bogie-front-right-lateral",
                "bogie-front-right-vertical"]
        assert read_trc(proc_dir / "estimated.trc").metadata["channels"] == read
        comments, _, _ = read_table(proc_dir / "windows.csv", ("column",),
                                    dtype=str)
        assert comments["params"]["channels"] == read

    def test_params_hold_no_constants_of_removed_options(self, proc_dir):
        # --vref and the x0_m offset are gone; their constants stay out of
        # the published params
        from trackvib.fileio import read_trc
        params = read_trc(proc_dir / "estimated.trc").metadata
        assert not {"v_ref_mps", "x0_m"} & set(params)
        assert params["speed_source"] == "estimated"

    def test_estimated_trc_loads(self, proc_dir):
        from trackvib.fileio import read_trc
        trc = read_trc(proc_dir / "estimated.trc")
        assert "VA10_left_mm" in trc.columns
        assert "VA35_left_mm" in trc.columns
        assert "HA10_left_mm" in trc.columns
        assert "speed_mps" in trc.columns
        v = trc.columns["speed_mps"]
        assert np.nanmedian(v) == pytest.approx(10.0, rel=0.05)

    def test_speed_csv_parses(self, proc_dir):
        lines = (proc_dir / "speed.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith(("#", "time_s"))]
        t0, v0, ok0 = data[0].split(",")
        assert float(t0) == 0.0
        assert 1.0 <= float(v0) <= 40.0
        assert ok0 in ("0", "1")
        assert "np.float64" not in lines[2]

    def test_custom_chord_accepted(self, sim_dir, tmp_path):
        out = tmp_path / "chord7"
        assert main(["process", "--records", str(sim_dir), "--out", str(out),
                     "--chord", "7"]) == 0
        from trackvib.fileio import read_trc
        trc = read_trc(out / "estimated.trc")
        assert "VA7_left_mm" in trc.columns

    @pytest.mark.parametrize("flags", [["--chord", "35"], ["--cutoff", "0.2"]])
    def test_chord_options_do_not_move_speed(self, sim_dir, proc_dir,
                                             tmp_path, flags):
        # the speed pair integrates at one fixed cutoff, not the first chord's
        out = tmp_path / "other"
        assert main(["process", "--records", str(sim_dir), "--out", str(out),
                     *flags]) == 0
        assert ((out / "speed.csv").read_bytes()
                == (proc_dir / "speed.csv").read_bytes())

    def test_off_grid_chord_rejected(self, sim_dir, tmp_path):
        rc = main(["process", "--records", str(sim_dir),
                   "--out", str(tmp_path / "x"), "--chord", "7.1"])
        assert rc == 1

    def test_speed_file_override(self, sim_dir, tmp_path, capsys):
        speed = tmp_path / "speed.csv"
        speed.write_text("time_s,speed_mps\n0.0,10.0\n60.0,10.0\n")
        out = tmp_path / "ext-speed"
        assert main(["process", "--records", str(sim_dir), "--out", str(out),
                     "--speed-file", str(speed)]) == 0
        head = (out / "speed.csv").read_text().splitlines()[0]
        assert "external" in head
        # no back record is read without the speed estimator
        assert "processed 4 of 8 channels" in capsys.readouterr().out

    def test_own_speed_csv_is_a_speed_file(self, sim_dir, proc_dir, tmp_path):
        # speed.csv rows carry a third field, valid; its times are the
        # working-rate samples, so the same speed gives the same geometry
        from trackvib.fileio import read_trc
        out = tmp_path / "round-trip"
        assert main(["process", "--records", str(sim_dir), "--out", str(out),
                     "--speed-file", str(proc_dir / "speed.csv")]) == 0
        head = (out / "speed.csv").read_text().splitlines()[0]
        assert "external" in head
        again = read_trc(out / "estimated.trc")
        first = read_trc(proc_dir / "estimated.trc")
        assert again.distance_m.tobytes() == first.distance_m.tobytes()
        assert list(again.columns) == list(first.columns)
        for name, values in first.columns.items():
            assert again.columns[name].tobytes() == values.tobytes(), name
        assert first.metadata["speed_source"] == "estimated"
        fronts = [c for c in first.metadata["channels"] if "-back-" not in c]
        assert again.metadata == dict(first.metadata, speed_source="external",
                                      channels=fronts)

    def test_speed_file_must_cover_records(self, sim_dir, proc_dir, tmp_path,
                                           capsys):
        speed = tmp_path / "speed.csv"
        speed.write_text("time_s,speed_mps\n0,9\n20,9\n")
        out = tmp_path / "x"
        rc = main(["process", "--records", str(sim_dir), "--out", str(out),
                   "--speed-file", str(speed)])
        assert rc == 1
        assert not out.exists()
        t_end = float((proc_dir / "speed.csv").read_text()
                      .splitlines()[-1].split(",")[0])
        err = capsys.readouterr().err
        assert "0 .. 20 s" in err
        assert f"0 .. {t_end:g} s" in err

    def test_speed_file_times_must_increase(self, sim_dir, tmp_path, capsys):
        speed = tmp_path / "speed.csv"
        speed.write_text("time_s,speed_mps\n0.0,10.0\n60.0,10.0\n30.0,10.0\n")
        rc = main(["process", "--records", str(sim_dir),
                   "--out", str(tmp_path / "x"), "--speed-file", str(speed)])
        assert rc == 1
        assert f"{speed}:4" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, line", [
        ("0.0,10.0\n60.0,inf\n", 3),
        ("0.0,nan\n60.0,10.0\n", 2),
        ("0.0,10.0\n60.0,10.0\ninf,10.0\n", 4),
        ("0.0,10.0\n60.0,-1.0\n", 3)])
    def test_speed_file_values_must_be_finite(self, sim_dir, tmp_path, capsys,
                                              rows, line):
        speed = tmp_path / "speed.csv"
        speed.write_text("time_s,speed_mps\n" + rows)
        out = tmp_path / "x"
        rc = main(["process", "--records", str(sim_dir), "--out", str(out),
                   "--speed-file", str(speed)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{speed}:{line}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_speed_file_needs_header_row(self, sim_dir, tmp_path, capsys):
        speed = tmp_path / "speed.csv"
        speed.write_text("0.0,10.0\n60.0,10.0\n")
        rc = main(["process", "--records", str(sim_dir),
                   "--out", str(tmp_path / "x"), "--speed-file", str(speed)])
        assert rc == 1
        assert f"{speed}:1" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        b"5", pytest.param(b'{"channel_id": "bogie-front-left-vertical", '
                           b'"kind": "acceleration", "n_samples": 2, '
                           b'"sample_rate_hz": "fast", "start_time_s": 0.0, '
                           b'"units": "m/s^2"}', id="sample_rate_hz=fast")])
    def test_malformed_record_header_is_data_error(self, tmp_path, capsys,
                                                   header):
        records = tmp_path / "records"
        records.mkdir()
        bad = records / "bad.rec"
        bad.write_bytes(header + b"\n" + b"\x00" * 16)
        rc = main(["process", "--records", str(records),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    def test_unread_payloads_are_not_loaded(self, sim_dir, proc_dir, tmp_path,
                                            capsys):
        # no job reads a back lateral record: with every payload of one cut
        # short, the run is the intact one, byte for byte
        records = tmp_path / "records"
        shutil.copytree(sim_dir, records)
        cut = sorted(records.glob("bogie-back-right-lateral_b*.rec"))
        assert len(cut) >= 3
        for p in cut:
            data = p.read_bytes()
            p.write_bytes(data[:data.index(b"\n") + 17])
        out = tmp_path / "out"
        assert main(["process", "--records", str(records),
                     "--out", str(out)]) == 0
        assert "processed 5 of 8 channels" in capsys.readouterr().out
        names = sorted(p.name for p in proc_dir.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (proc_dir / name).read_bytes(), name
        # its headers are still checked
        header, _ = cut[1].read_bytes().split(b"\n", 1)
        cut[1].write_bytes(header.replace(b'"sample_rate_hz": 2560.0',
                                          b'"sample_rate_hz": "fast"') + b"\n")
        rc = main(["process", "--records", str(records),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cut[1]) in err and "'sample_rate_hz'" in err
        assert not (tmp_path / "x").exists()

    def test_cut_records_are_named(self, tmp_path, capsys):
        # a record that ends 10 s early cuts the others to its length: the
        # summary names each record cut and the seconds it lost
        cfg = write_config(tmp_path / "config.json", dict(
            CONFIG, length_m=400.0, sensor="bogie_mems", seed=2,
            speed_plan=[[0.0, 10.0], [45.0, 10.0]]))
        records = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(records)]) == 0
        assert main(["process", "--records", str(records),
                     "--out", str(tmp_path / "whole")]) == 0
        assert "shortest record" not in capsys.readouterr().out
        for b in ("b0003", "b0004"):
            (records / f"bogie-front-left-lateral_{b}.rec").unlink()
        assert main(["process", "--records", str(records),
                     "--out", str(tmp_path / "short")]) == 0
        summary = capsys.readouterr().out
        assert "on 1200 grid points" in summary
        lost = dict(item.rsplit(" ", 2)[:2] for item in summary.split(
            "; cut to the shortest record: ")[1].strip().split(", "))
        assert sorted(lost) == ["bogie-back-left-vertical",
                                "bogie-front-left-vertical",
                                "bogie-front-right-lateral",
                                "bogie-front-right-vertical"]
        assert all(10.0 <= float(s) <= 11.0 for s in lost.values()), lost

    def test_late_record_is_data_error(self, sim_dir, tmp_path, capsys):
        # without its first block the record starts 10 s after the others;
        # on their time axis its geometry would sit 100 m early
        records = tmp_path / "records"
        shutil.copytree(sim_dir, records)
        (records / "bogie-front-left-lateral_b0000.rec").unlink()
        out = tmp_path / "x"
        rc = main(["process", "--records", str(records), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bogie-front-left-lateral at 10 s" in err
        assert "bogie-front-left-vertical at 0 s" in err
        assert not out.exists()

    def test_infinite_window_is_data_error(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["process", "--records", str(sim_dir), "--out", str(out),
                   "--window", "inf"])
        assert rc == 1
        assert "window of inf m" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_cutoff_is_data_error(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["process", "--records", str(sim_dir), "--out", str(out),
                   "--cutoff", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cutoff 0.0 Hz" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_records_dir_is_data_error(self, tmp_path):
        rc = main(["process", "--records", str(tmp_path),
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_rate_off_the_working_rate_is_data_error(self, tmp_path, capsys):
        # 1000 Hz is no integer multiple of the 256 Hz working rate
        from trackvib.fileio import write_record
        from trackvib.layout import AXES, POSITIONS, SIDES, channel_id
        from trackvib.timeseries import TimeSeries
        records = tmp_path / "records"
        records.mkdir()
        samples = np.random.default_rng(3).normal(size=4000)
        for key in [(p, s, a) for p in POSITIONS for s in SIDES for a in AXES]:
            cid = channel_id("bogie", *key)
            write_record(records / f"{cid}_b0000.rec",
                         TimeSeries(samples, 1000.0, 0.0, cid, "acceleration"))
        out = tmp_path / "x"
        rc = main(["process", "--records", str(records), "--out", str(out)])
        assert rc == 1
        assert "rate 1000.0 Hz of 'bogie-" in capsys.readouterr().err
        assert not out.exists()

    def test_back_records_only_is_data_error(self, sim_dir, tmp_path, capsys):
        records = tmp_path / "records"
        records.mkdir()
        for path in sim_dir.glob("bogie-back-*.rec"):
            shutil.copy(path, records)
        out = tmp_path / "x"
        rc = main(["process", "--records", str(records), "--out", str(out)])
        assert rc == 1
        assert "no front vertical or lateral channel" in capsys.readouterr().err
        assert not out.exists()

    def test_one_row_speed_file_is_data_error(self, sim_dir, tmp_path, capsys):
        speed = tmp_path / "speed.csv"
        speed.write_text("time_s,speed_mps\n0.0,10.0\n")
        out = tmp_path / "x"
        rc = main(["process", "--records", str(sim_dir), "--out", str(out),
                   "--speed-file", str(speed)])
        assert rc == 1
        assert "need at least two time,speed rows" in capsys.readouterr().err
        assert not out.exists()


READ = "bogie-front-left-vertical"      # a record every default run reads


def rewrite_block(path, keep=slice(None), shift=0):
    """Rewrite a record block with its samples[keep], moved `shift` samples
    later in time."""
    from dataclasses import replace
    from trackvib.fileio import read_record, write_record
    ts, header = read_record(path)
    write_record(path, replace(ts, samples=ts.samples[keep],
                               start_time_s=ts.start_time_s
                               + shift / ts.sample_rate_hz),
                 sensor=header.get("sensor"), params=header.get("params"))


class TestRecordLoading:
    """`process` reads each record's blocks when the chain reaches that
    record, in header start-time order, and merges them by merge_records'
    rules."""

    @pytest.mark.parametrize("gap", [1, 2])
    def test_small_gap_is_bridged_as_merge_records_does(self, sim_dir,
                                                        tmp_path, gap):
        from trackvib.fileio import read_record, write_trc
        from trackvib.pipeline import process_records
        from trackvib.timeseries import merge_records
        records = shutil.copytree(sim_dir, tmp_path / "records")
        rewrite_block(records / f"{READ}_b0002.rec", slice(None, -gap))
        out = tmp_path / "out"
        assert main(["process", "--records", str(records),
                     "--out", str(out)]) == 0
        channels = {}
        for path in sorted(records.glob("*.rec")):
            ts, _ = read_record(path)
            channels.setdefault(ts.channel_id, []).append(ts)
        merged = {cid: merge_records(blocks) for cid, blocks in channels.items()}
        write_trc(tmp_path / "merged.trc", process_records(merged).to_trc())
        assert ((out / "estimated.trc").read_bytes()
                == (tmp_path / "merged.trc").read_bytes())

    def test_three_sample_gap_is_data_error(self, sim_dir, tmp_path, capsys):
        records = shutil.copytree(sim_dir, tmp_path / "records")
        rewrite_block(records / f"{READ}_b0002.rec", slice(None, -3))
        out = tmp_path / "out"
        assert main(["process", "--records", str(records),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "3-sample gap (max 2) at t=29.998828 s" in err
        assert READ in err
        assert not out.exists()

    def test_overlapping_blocks_are_data_error(self, sim_dir, tmp_path,
                                               capsys):
        records = shutil.copytree(sim_dir, tmp_path / "records")
        rewrite_block(records / f"{READ}_b0003.rec", shift=-1)
        out = tmp_path / "out"
        assert main(["process", "--records", str(records),
                     "--out", str(out)]) == 1
        assert "blocks overlap at t=29.999609 s" in capsys.readouterr().err
        assert not out.exists()

    def test_blocks_merge_in_start_order_not_name_order(self, sim_dir,
                                                        proc_dir, tmp_path):
        records = shutil.copytree(sim_dir, tmp_path / "records")
        first, last = (records / f"{READ}_b0000.rec",
                       max(records.glob(f"{READ}_b*.rec")))
        first.rename(tmp_path / "swap.rec")
        last.rename(first)
        (tmp_path / "swap.rec").rename(last)
        out = tmp_path / "out"
        assert main(["process", "--records", str(records),
                     "--out", str(out)]) == 0
        for name in ("estimated.trc", "windows.csv", "speed.csv"):
            assert (out / name).read_bytes() == (proc_dir / name).read_bytes()

    def test_short_payload_of_a_read_record_is_data_error(self, sim_dir,
                                                          tmp_path, capsys):
        records = shutil.copytree(sim_dir, tmp_path / "records")
        path = records / f"{READ}_b0001.rec"
        path.write_bytes(path.read_bytes()[:-8])
        out = tmp_path / "out"
        assert main(["process", "--records", str(records),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: header claims 25600 samples but payload holds 25599" \
            in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_sample_of_an_unread_record_leaves_the_run(
            self, sim_dir, proc_dir, tmp_path, capsys):
        # no job reads a back lateral record; a read record with the same
        # fault stops the run, naming its path
        records = shutil.copytree(sim_dir, tmp_path / "records")

        def corrupt(path):
            data = path.read_bytes()
            path.write_bytes(data[:-8] + np.array([np.nan], "<f8").tobytes())

        corrupt(records / "bogie-back-right-lateral_b0001.rec")
        out = tmp_path / "out"
        assert main(["process", "--records", str(records),
                     "--out", str(out)]) == 0
        for name in ("estimated.trc", "windows.csv", "speed.csv"):
            assert (out / name).read_bytes() == (proc_dir / name).read_bytes()
        capsys.readouterr()
        corrupt(records / f"{READ}_b0001.rec")
        assert main(["process", "--records", str(records),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"{records / f'{READ}_b0001.rec'}: samples must be finite" in err
        assert not (tmp_path / "x").exists()


class TestPublishedResolution:
    """The .trc columns are published to 6 decimals, and windows.csv holds
    the windowed maxima of the published columns."""

    def test_trc_columns_are_rounded_to_six_decimals(self, sim_dir, proc_dir):
        from trackvib.fileio import read_trc
        for path in (proc_dir / "estimated.trc", sim_dir / "ground_truth.trc"):
            trc = read_trc(path)
            assert trc.geometry_columns() and "speed_mps" in trc.columns
            for name, values in trc.columns.items():
                assert np.isfinite(values).any(), name
                assert np.round(values, 6).tobytes() == values.tobytes(), \
                    f"{path.name}: {name}"

    def test_windows_are_maxima_of_the_published_columns(self, proc_dir):
        from trackvib.fileio import read_trc, read_windows
        from trackvib.geometry import windowed_max
        from trackvib.layout import TRC_SPACING_M
        from trackvib.spatial import SpatialSeries
        trc = read_trc(proc_dir / "estimated.trc")
        for name in trc.geometry_columns():
            stats = read_windows(proc_dir / "windows.csv", name)
            again = windowed_max(SpatialSeries(
                trc.columns[name], TRC_SPACING_M, float(trc.distance_m[0])),
                stats.window_m)
            assert np.array_equal(again.starts_m, stats.starts_m), name
            assert np.array_equal(again.usable, stats.usable), name
            assert stats.usable.any(), name
            assert (again.values[stats.usable].tobytes()
                    == stats.values[stats.usable].tobytes()), name


class TestCompare:
    def test_self_comparison(self, sim_dir, tmp_path, capsys):
        truth = sim_dir / "ground_truth.trc"
        out = tmp_path / "cmp"
        assert main(["compare", "--estimated", str(truth),
                     "--reference", str(truth), "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["VA10_left_mm"]["pearson_r"] == pytest.approx(1.0)
        text = capsys.readouterr().out
        assert "VA10_left_mm: r=1.000" in text
        assert "skipped (windows have no variance)" in text   # flat HA columns

    def test_estimated_against_truth(self, sim_dir, proc_dir, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--estimated", str(proc_dir / "estimated.trc"),
                     "--reference", str(sim_dir / "ground_truth.trc"),
                     "--out", str(out), "--max-shift", "100"]) == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["VA10_left_mm"]["pearson_r"] > 0.85
        assert (out / "compare_VA10_left_mm.csv").exists()

    def test_nan_window_is_data_error(self, sim_dir, tmp_path, capsys):
        truth = str(sim_dir / "ground_truth.trc")
        out = tmp_path / "cmp"
        rc = main(["compare", "--estimated", truth, "--reference", truth,
                   "--out", str(out), "--window", "nan"])
        assert rc == 1
        assert "window of nan m" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shift", ["inf", "nan"])
    def test_non_finite_max_shift_is_data_error(self, sim_dir, tmp_path,
                                                capsys, shift):
        truth = str(sim_dir / "ground_truth.trc")
        out = tmp_path / "cmp"
        rc = main(["compare", "--estimated", truth, "--reference", truth,
                   "--out", str(out), "--max-shift", shift])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"max_shift_m of {shift} m" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_too_short_run_names_the_window(self, sim_dir, tmp_path, capsys):
        # 200 m of the truth hold two 100 m windows: the refusal says so,
        # and that a shorter --window gives the comparison enough
        from trackvib.fileio import TrcData, read_trc, write_trc
        truth = read_trc(sim_dir / "ground_truth.trc")
        keep = truth.distance_m <= 200.0
        short = tmp_path / "short.trc"
        write_trc(short, TrcData(truth.distance_m[keep], {
            c: v[keep] for c, v in truth.columns.items()}, truth.metadata))
        argv = ["compare", "--estimated", str(short), "--reference", str(short)]
        out = tmp_path / "cmp"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "at most 2 usable windows of 100 m" in err
        assert "needs 3" in err and "shorter --window" in err
        assert not out.exists()
        assert main([*argv, "--out", str(out), "--window", "20"]) == 0
        assert "VA10_left_mm: r=1.000" in capsys.readouterr().out

    def test_no_common_column_names_both_tables(self, tmp_path, capsys):
        # processed with --chord 7, a run has only VA7/HA7 columns, and its
        # simulated truth only the default chords
        cfg = write_config(tmp_path / "config.json", {
            **CONFIG, "length_m": 200.0, "speed_plan": [[0.0, 10.0],
                                                        [25.0, 10.0]]})
        run, proc = tmp_path / "run", tmp_path / "proc"
        assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["process", "--records", str(run), "--out", str(proc),
                     "--chord", "7"]) == 0
        capsys.readouterr()
        out = tmp_path / "cmp"
        assert main(["compare", "--estimated", str(proc / "estimated.trc"),
                     "--reference", str(run / "ground_truth.trc"),
                     "--window", "20", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "tables share no geometry column" in err
        assert ("estimated has VA7_left_mm, VA7_right_mm, HA7_left_mm, "
                "HA7_right_mm") in err
        assert ("reference has VA10_left_mm, VA10_right_mm, VA35_left_mm, "
                "VA35_right_mm, HA10_left_mm, HA10_right_mm") in err
        assert not out.exists()

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["compare", "--estimated", str(tmp_path / "a.trc"),
                   "--reference", str(tmp_path / "b.trc"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1


class TestExportGeojson:
    def test_export(self, sim_dir, proc_dir, tmp_path):
        out = tmp_path / "map.geojson"
        assert main(["export-geojson",
                     "--windows", str(proc_dir / "windows.csv"),
                     "--column", "VA10_left_mm",
                     "--polyline", str(sim_dir / "polyline.json"),
                     "--thresholds", "8,12",
                     "--out", str(out)]) == 0
        fc = json.loads(out.read_text())
        assert fc["type"] == "FeatureCollection"
        assert len(fc["features"]) >= 2
        f = fc["features"][0]
        lon, lat = f["geometry"]["coordinates"][0]
        assert lat == pytest.approx(47.0, abs=0.01)
        assert lon == pytest.approx(8.0, abs=0.01)
        # edge windows fall into the integrator settle margin; mid-run ones
        # must carry a real severity
        assert fc["features"][2]["properties"]["severity"] is not None

    def test_lone_trailing_grid_point(self, tmp_path):
        # 600 m at 10 m/s: the grid runs 0.25-600.25 m, so the last window
        # [600.25, 700.25) holds one point and is unusable; the ~656 m
        # polyline covers every grid point
        cfg = write_config(tmp_path / "config.json", dict(
            CONFIG, seed=5, sensor="bogie_mems", impulses=[
                {"position_m": 300.0, "amplitude_g": 5.0, "duration_ms": 4.0}]))
        run, proc = tmp_path / "run", tmp_path / "proc"
        assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["process", "--records", str(run), "--out", str(proc)]) == 0
        last = (proc / "windows.csv").read_text().splitlines()[-1]
        assert last.split(",")[1:] == ["600.25", "700.25", "nan", "0.0"]
        out = tmp_path / "map.geojson"
        assert main(["export-geojson", "--windows", str(proc / "windows.csv"),
                     "--column", "VA10_left_mm",
                     "--polyline", str(run / "polyline.json"),
                     "--out", str(out)]) == 0
        feature = json.loads(out.read_text())["features"][-1]
        assert feature["properties"]["window_end_m"] == 700.25
        assert feature["properties"]["value_mm"] is None
        assert feature["geometry"]["coordinates"][-1] == [8.0, 47.0059]
        # a polyline short of a usable window is still refused
        short = tmp_path / "short.json"
        short.write_text(json.dumps([[47.0, 8.0], [47.004, 8.0]]))   # ~445 m
        assert main(["export-geojson", "--windows", str(proc / "windows.csv"),
                     "--column", "VA10_left_mm", "--polyline", str(short),
                     "--out", str(tmp_path / "short.geojson")]) == 1

    @pytest.mark.parametrize("content", ["5", "[[47.0], [47.1]]"])
    def test_malformed_polyline_is_data_error(self, proc_dir, tmp_path, capsys,
                                              content):
        poly = tmp_path / "poly.json"
        poly.write_text(content)
        out = tmp_path / "map.geojson"
        rc = main(["export-geojson", "--windows", str(proc_dir / "windows.csv"),
                   "--column", "VA10_left_mm", "--polyline", str(poly),
                   "--out", str(out)])
        assert rc == 1
        assert str(poly) in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_threshold_is_data_error(self, sim_dir, proc_dir,
                                                tmp_path, capsys):
        out = tmp_path / "map.geojson"
        rc = main(["export-geojson", "--windows", str(proc_dir / "windows.csv"),
                   "--column", "VA10_left_mm",
                   "--polyline", str(sim_dir / "polyline.json"),
                   "--thresholds", "4,nan,inf", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "threshold nan" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_column_is_data_error(self, proc_dir, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps([[47.0, 8.0], [47.01, 8.0]]))
        rc = main(["export-geojson", "--windows", str(proc_dir / "windows.csv"),
                   "--column", "VA99_left_mm", "--polyline", str(poly),
                   "--out", str(tmp_path / "x.geojson")])
        assert rc == 1


class TestProgrammingErrors:
    def test_key_error_is_not_a_data_error(self, sim_dir, tmp_path,
                                           monkeypatch):
        # exit 1 is for TrackVibError, ValueError and OSError; anything
        # else is a bug and must show as one
        import trackvib.fileio

        def broken(path):
            raise KeyError("distance_m")

        monkeypatch.setattr(trackvib.fileio, "read_trc", broken)
        truth = str(sim_dir / "ground_truth.trc")
        with pytest.raises(KeyError):
            main(["compare", "--estimated", truth, "--reference", truth,
                  "--out", str(tmp_path / "cmp")])


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("profile", [
        {"type": "sines", "components": [{"nu": 0.05, "amplitude_mm": 5.0}]},
        CONFIG["profile"]], ids=["sines", "noise"])
    def test_negative_seed_writes_nothing(self, tmp_path, capsys, profile):
        # a config_used.json with seed -1 would not simulate again
        cfg = write_config(tmp_path / "config.json", dict(CONFIG, profile=profile))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(out),
                  "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("speed_file", [False, True],
                             ids=["estimated", "speed-file"])
    @pytest.mark.parametrize("wheelbase", ["0", "-2", "nan", "inf", "abc"])
    def test_bad_wheelbase_writes_nothing(self, sim_dir, proc_dir, tmp_path,
                                          capsys, wheelbase, speed_file):
        out = tmp_path / "x"
        argv = ["process", "--records", str(sim_dir), "--out", str(out),
                "--wheelbase", wheelbase]
        if speed_file:
            argv += ["--speed-file", str(proc_dir / "speed.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --wheelbase" in capsys.readouterr().err
        assert not out.exists()


# run in a fresh interpreter: which scipy modules are loaded after importing
# the CLI, after `simulate`, `compare`, `export-geojson` and `process` (on
# argv[2]'s run and argv[3]'s processed output); then whether psd_spatial
# still loads scipy.signal itself
FOOTPRINT_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
from trackvib.cli import main
from trackvib.geometry import psd_spatial
from trackvib.spatial import SpatialSeries

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

root, sim, proc = (Path(a) for a in sys.argv[1:4])
loaded = {"import": scipy_modules()}
(root / "config.json").write_text(json.dumps({
    "length_m": 400.0, "sensor": "bogie_mems",
    "profile": {"type": "noise", "band_cycles_per_m": [0.02, 0.5],
                "rms_mm": 3.0},
    "speed_plan": [[0.0, 10.0], [45.0, 10.0]], "seed": 2}))
assert main(["simulate", "--config", str(root / "config.json"),
             "--out", str(root / "run")]) == 0
loaded["simulate"] = scipy_modules()
assert main(["compare", "--estimated", str(proc / "estimated.trc"),
             "--reference", str(sim / "ground_truth.trc"),
             "--out", str(root / "cmp")]) == 0
loaded["compare"] = scipy_modules()
assert main(["export-geojson", "--windows", str(proc / "windows.csv"),
             "--column", "VA10_left_mm", "--polyline", str(sim / "polyline.json"),
             "--out", str(root / "map.geojson")]) == 0
loaded["export-geojson"] = scipy_modules()
assert main(["process", "--records", str(root / "run"),
             "--out", str(root / "proc")]) == 0
loaded["process"] = scipy_modules()
x = np.sin(2 * np.pi * 0.05 * 0.25 * np.arange(4000))
psd = psd_spatial(SpatialSeries(x, 0.25, 0.0))
print(json.dumps({"loaded": loaded,
                  "peak_nu": float(psd.nu_axis[np.argmax(psd.density)]),
                  "signal_after_psd": "scipy.signal" in sys.modules}))
"""

# run in a fresh interpreter in which scipy cannot be imported: every
# command, as CI's smoke step runs them, on a 200 m run made in argv[1]
NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
from pathlib import Path
from trackvib.cli import main

root = Path(sys.argv[1])
(root / "config.json").write_text(json.dumps({
    "length_m": 200.0, "sensor": "bogie_mems",
    "profile": {"type": "noise", "band_cycles_per_m": [0.02, 0.5],
                "rms_mm": 3.0},
    "speed_plan": [[0.0, 10.0], [25.0, 10.0]], "seed": 1,
    "geo_polyline": [[47.0, 8.0], [47.0019, 8.0]]}))
run, proc = root / "run", root / "proc"
for argv in (
        ["simulate", "--config", root / "config.json", "--out", run],
        ["process", "--records", run, "--out", proc],
        ["process", "--records", run, "--out", root / "proc-fixed",
         "--speed-file", proc / "speed.csv"],
        ["compare", "--estimated", proc / "estimated.trc", "--reference",
         run / "ground_truth.trc", "--window", "20", "--out", root / "cmp"],
        ["export-geojson", "--windows", proc / "windows.csv", "--column",
         "VA10_left_mm", "--polyline", run / "polyline.json", "--out",
         root / "map.geojson"]):
    assert main([str(a) for a in argv]) == 0, argv[0]
"""


# the peak RSS in MB of the interpreter that runs it, its own VmHWM: on
# Linux an exec'd child's ru_maxrss starts at the peak of the process that
# spawned it, here the test run's, and would hide the child's own
PEAK_MB = """
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(int(line.split()[1]) for line in fh
               if line.startswith("VmHWM:")) / 1024.0)
"""

# run in a fresh interpreter: `simulate` at 10 m/s for argv[2] seconds of
# record, then the process's peak RSS in MB
SIMULATE_PEAK_SCRIPT = """
import json, sys
from pathlib import Path
from trackvib.cli import main

root, seconds = Path(sys.argv[1]), float(sys.argv[2])
root.mkdir()
(root / "config.json").write_text(json.dumps({
    "length_m": 10.0 * seconds, "sensor": "bogie_mems",
    "profile": {"type": "noise", "band_cycles_per_m": [0.02, 0.5],
                "rms_mm": 3.0},
    "speed_plan": [[0.0, 10.0], [seconds + 5.0, 10.0]], "seed": 2}))
assert main(["simulate", "--config", str(root / "config.json"),
             "--out", str(root / "run")]) == 0
""" + PEAK_MB


# run in a fresh interpreter: `process` of the run in argv[1] into argv[2],
# then the process's peak RSS in MB
PROCESS_PEAK_SCRIPT = """
import sys
from trackvib.cli import main

assert main(["process", "--records", sys.argv[1], "--out", sys.argv[2]]) == 0
""" + PEAK_MB


class TestFootprint:
    @pytest.fixture(scope="class")
    def footprint(self, sim_dir, proc_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("footprint")
        done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(root),
                               str(sim_dir), str(proc_dir)], env=self.env(),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_process_path_leaves_scipy_signal_unloaded(self, footprint):
        # scipy.signal and what it pulls in are about 40 MB of a fresh
        # process; no command needs them
        loaded = {m.split(".")[1] for m in footprint["loaded"]["process"]
                  if "." in m}
        assert not {"signal", "stats", "optimize", "interpolate"} & loaded
        assert footprint["peak_nu"] == pytest.approx(0.05, abs=0.01)
        assert footprint["signal_after_psd"]

    def test_no_command_loads_scipy(self, footprint):
        # scipy.fft, scipy.linalg and scipy.ndimage loaded at package import
        # made every command start 0.4-0.5 s later and 33 MB larger (2-vCPU
        # Xeon). The last of them, ndimage for the speed's median filter,
        # still cost process 24 MB of RSS and 0.27 s (scipy 1.17)
        assert footprint["loaded"] == {
            "import": [], "simulate": [], "compare": [], "export-geojson": [],
            "process": []}

    def test_every_command_runs_without_scipy(self, tmp_path):
        # scipy is declared for the tests and psd_spatial only
        done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT,
                               str(tmp_path)], env=self.env(),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_simulate_memory_does_not_follow_the_run(self, tmp_path):
        # only the trajectory (24 B a sample) is held whole; simulating the
        # whole run before cutting it into blocks grew 0.33 MB per recorded
        # second between 100 s and 400 s
        def peak(seconds):
            done = subprocess.run(
                [sys.executable, "-c", SIMULATE_PEAK_SCRIPT,
                 str(tmp_path / f"s{seconds}"), str(seconds)],
                env=self.env(), capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            return float(done.stdout.splitlines()[-1])

        assert (peak(400) - peak(100)) / 300.0 <= 0.15

    def test_process_memory_holds_one_raw_record(self, tmp_path):
        # a record is read when the chain reaches it, its blocks are dropped
        # once merged and the merged record once decimated, and decimation
        # builds no padded copy of it; holding every block read until the
        # run ended, and the padded record, grew 0.157 MB per recorded
        # second between 100 s and 400 s, and holding a record's blocks
        # beside their merged copy through decimate 0.068 MB
        def peak(seconds):
            root = tmp_path / f"s{seconds}"
            for script, args in [(SIMULATE_PEAK_SCRIPT, [root, seconds]),
                                 (PROCESS_PEAK_SCRIPT,
                                  [root / "run", root / "out"])]:
                done = subprocess.run(
                    [sys.executable, "-c", script, *map(str, args)],
                    env=self.env(), capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr
            return float(done.stdout.splitlines()[-1])

        assert (peak(400) - peak(100)) / 300.0 <= 0.06

    @staticmethod
    def env():
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        return env
