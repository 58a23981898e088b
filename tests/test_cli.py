"""Command-line interface: subcommands, artifacts, exit codes."""

import json

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
         "first knot is at t = 5.0 s")],
        ids=["misspelt-field", "inline-sensor", "noise-without-rms_mm",
             "plan-ends-early", "plan-starts-late"])
    def test_refused_config_writes_nothing(self, tmp_path, capsys, edit, named):
        cfg = write_config(tmp_path / "config.json", dict(CONFIG, **edit))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
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
            "lateral_disturbance": {"rms_mps2": 0.05, "band_hz": [1.0, 20.0]},
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


class TestProcess:
    def test_artifacts(self, proc_dir):
        assert (proc_dir / "estimated.trc").exists()
        assert (proc_dir / "windows.csv").exists()
        assert (proc_dir / "speed.csv").exists()
        assert list(proc_dir.glob("displacement_*.csv"))

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

    def test_off_grid_chord_rejected(self, sim_dir, tmp_path):
        rc = main(["process", "--records", str(sim_dir),
                   "--out", str(tmp_path / "x"), "--chord", "7.1"])
        assert rc == 1

    def test_speed_file_override(self, sim_dir, tmp_path):
        speed = tmp_path / "speed.csv"
        speed.write_text("time_s,speed_mps\n0.0,10.0\n60.0,10.0\n")
        out = tmp_path / "ext-speed"
        assert main(["process", "--records", str(sim_dir), "--out", str(out),
                     "--speed-file", str(speed)]) == 0
        head = (out / "speed.csv").read_text().splitlines()[0]
        assert "external" in head

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
        assert again.metadata == dict(first.metadata, speed_source="external")

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

    def test_infinite_window_is_data_error(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["process", "--records", str(sim_dir), "--out", str(out),
                   "--window", "inf"])
        assert rc == 1
        assert "window of inf m" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_records_dir_is_data_error(self, tmp_path):
        rc = main(["process", "--records", str(tmp_path),
                   "--out", str(tmp_path / "x")])
        assert rc == 1


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
