"""Round-trip and validation tests for every file format."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackvib.comparison import ComparisonReport
from trackvib.errors import FormatError
from trackvib import fileio
from trackvib.fileio import (_BLOCK_ROWS, TrcData, _block, _check_trc,
                             _fixed_point, export_geojson,
                             load_config, read_polyline, read_record,
                             read_record_header,
                             read_speed, read_table, read_trc, read_windows,
                             write_geojson,
                             write_polyline, write_record, write_report_csv,
                             write_speed, write_table, write_trc,
                             write_windows)
from trackvib.geometry import WindowedStats
from trackvib.layout import AXES, SIDES, TRC_SPACING_M, column_name
from trackvib.speed import SpeedProfile
from trackvib.timeseries import TimeSeries

EARTH_RADIUS_M = 6371000.0


def haversine_m(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in meters, scalar math: an independent
    reference for the package's vectorized polyline arc lengths."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


RECORD_HEADER = {"channel_id": "bogie-front-left-vertical",
                 "kind": "acceleration", "n_samples": 2,
                 "sample_rate_hz": 2560.0, "start_time_s": 0.0,
                 "units": "m/s^2"}


class TestRecordFormat:
    def make(self, n=2560, seed=0):
        rng = np.random.default_rng(seed)
        return TimeSeries(rng.normal(size=n), 2560.0, start_time_s=30.0,
                          channel_id="bogie-front-left-vertical",
                          kind="acceleration")

    def test_round_trip_bit_exact(self, tmp_path):
        ts = self.make()
        p = tmp_path / "block.rec"
        write_record(p, ts, sensor={"name": "bogie_mems"}, params={"seed": 3})
        back, header = read_record(p)
        assert np.array_equal(back.samples, ts.samples)
        assert back.sample_rate_hz == ts.sample_rate_hz
        assert back.start_time_s == 30.0
        assert back.channel_id == ts.channel_id
        assert back.kind == "acceleration"
        assert header["sensor"]["name"] == "bogie_mems"
        assert header["params"]["seed"] == 3
        assert header["units"] == "m/s^2"

    def test_write_is_deterministic(self, tmp_path):
        ts = self.make()
        a, b = tmp_path / "a.rec", tmp_path / "b.rec"
        write_record(a, ts)
        write_record(b, ts)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "cut.rec"
        write_record(p, self.make())
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            read_record(p)

    def test_garbage_header_rejected(self, tmp_path):
        p = tmp_path / "bad.rec"
        p.write_bytes(b"not json\n" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_record(p)

    def test_missing_newline_rejected(self, tmp_path):
        p = tmp_path / "nohdr.rec"
        p.write_bytes(b"\x00" * 64)
        with pytest.raises(FormatError):
            read_record(p)

    @pytest.mark.parametrize("line", [
        "5", "[1, 2]", '"header"', "null",
        *(pytest.param(json.dumps({**RECORD_HEADER, key: value}),
                       id=f"{key}={value!r}") for key, value in [
            ("sample_rate_hz", "fast"), ("sample_rate_hz", 0.0),
            ("sample_rate_hz", -2560.0), ("sample_rate_hz", True),
            ("sample_rate_hz", float("inf")),
            ("kind", ["acceleration"]), ("kind", "velocity"),
            ("n_samples", -2), ("n_samples", 2.0), ("n_samples", "2"),
            ("start_time_s", float("nan")), ("start_time_s", float("-inf")),
            ("start_time_s", "0"), ("channel_id", 5), ("units", ["m/s^2"]),
        ]),
    ])
    def test_malformed_header_values_rejected(self, tmp_path, line):
        p = tmp_path / "bad.rec"
        p.write_bytes(line.encode() + b"\n" + b"\x00" * 16)
        with pytest.raises(FormatError, match=re.escape(str(p))):
            read_record(p)

    @pytest.mark.parametrize("samples", [[], [0.0, float("nan")]])
    def test_samples_that_make_no_series_rejected(self, tmp_path, samples):
        p = tmp_path / "bad.rec"
        header = {**RECORD_HEADER, "n_samples": len(samples)}
        p.write_bytes(json.dumps(header).encode() + b"\n"
                      + np.asarray(samples, dtype="<f8").tobytes())
        with pytest.raises(FormatError, match=re.escape(str(p))):
            read_record(p)

    @pytest.mark.parametrize("line", [
        "not json", "5", json.dumps({**RECORD_HEADER, "sample_rate_hz": "fast"}),
        json.dumps({**RECORD_HEADER, "units": "m"})])
    def test_header_reader_refuses_what_read_record_refuses(self, tmp_path,
                                                            line):
        p = tmp_path / "bad.rec"
        p.write_bytes(line.encode() + b"\n" + b"\x00" * 16)
        with pytest.raises(FormatError) as whole:
            read_record(p)
        with pytest.raises(FormatError) as header_only:
            read_record_header(p)
        assert str(header_only.value) == str(whole.value)

    def test_header_reader_skips_the_payload(self, tmp_path):
        p = tmp_path / "cut.rec"
        write_record(p, self.make(), params={"seed": 3})
        p.write_bytes(p.read_bytes()[:-8])
        header = read_record_header(p)
        assert header["n_samples"] == 2560
        assert header["params"] == {"seed": 3}

    def test_header_without_units_rejected(self, tmp_path):
        p = tmp_path / "bad.rec"
        header = {k: v for k, v in RECORD_HEADER.items() if k != "units"}
        p.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 16)
        with pytest.raises(FormatError, match="header missing 'units'"):
            read_record(p)

    def test_units_kind_mismatch_rejected(self, tmp_path):
        p = tmp_path / "units.rec"
        header = {"channel_id": "c", "kind": "acceleration", "n_samples": 0,
                  "sample_rate_hz": 2560.0, "start_time_s": 0.0, "units": "m"}
        p.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(FormatError):
            read_record(p)


class TestTableLayout:
    """Exact text of every table the package writes, for tiny inputs."""

    def test_trc(self, tmp_path):
        trc = TrcData(np.array([0.0, 0.25, 0.5]), {
            "speed_mps": np.array([10.0, 10.5, np.nan]),
            "VA10_left_mm": np.array([0.1, -0.0, 1e-300]),
        }, {"source": "synthesizer", "config": {"seed": 5, "a": [1, 2]}})
        p = tmp_path / "run.trc"
        write_trc(p, trc)
        assert p.read_text() == (
            '# config: {"a": [1, 2], "seed": 5}\n'
            '# source: "synthesizer"\n'
            "distance_m,speed_mps,VA10_left_mm\n"
            "0.0,10.0,0.1\n"
            "0.25,10.5,-0.0\n"
            "0.5,nan,1e-300\n")

    def test_windows(self, tmp_path):
        p = tmp_path / "windows.csv"
        write_windows(p, {
            "VA10_left_mm": WindowedStats(100.0, np.array([0.0, 100.0]),
                                          np.array([1.5, np.nan]),
                                          np.array([1.0, 0.25])),
            "HA10_right_mm": WindowedStats(100.0, np.array([0.0]),
                                           np.array([0.125]), np.array([0.5])),
        }, params={"window_m": 100.0})
        assert p.read_text() == (
            '# params: {"window_m": 100.0}\n'
            "column,window_start_m,window_end_m,value_mm,valid_fraction\n"
            "VA10_left_mm,0.0,100.0,1.5,1.0\n"
            "VA10_left_mm,100.0,200.0,nan,0.25\n"
            "HA10_right_mm,0.0,100.0,0.125,0.5\n")

    def test_speed(self, tmp_path):
        p = tmp_path / "speed.csv"
        write_speed(p, SpeedProfile(np.array([10.0, 10.25]), 256.0,
                                    np.array([True, False])), "estimated")
        assert p.read_text() == ('# params: "estimated"\n'
                                 "time_s,speed_mps,valid\n"
                                 "0.0,10.0,1\n"
                                 "0.00390625,10.25,0\n")
        times, speeds = read_speed(p)
        assert times.tolist() == [0.0, 0.00390625]
        assert speeds.tolist() == [10.0, 10.25]

    @pytest.mark.parametrize("rows, line", [
        ("0.0,10.0\n1.0,inf\n", 3),
        ("0.0,nan\n1.0,10.0\n", 2),
        ("0.0,10.0\n1.0,10.0\ninf,10.0\n", 4),
        ("nan,10.0\n1.0,10.0\n", 2),
        ("0.0,10.0\n1.0,-0.5\n", 3)])
    def test_speed_values_must_be_finite(self, tmp_path, rows, line):
        p = tmp_path / "speed.csv"
        p.write_text("time_s,speed_mps\n" + rows)
        with pytest.raises(FormatError, match=f"speed.csv:{line}: "):
            read_speed(p)

    def test_standstill_is_a_speed(self, tmp_path):
        p = tmp_path / "speed.csv"
        p.write_text("time_s,speed_mps\n0.0,0.0\n1.0,10.0\n")
        assert read_speed(p)[1].tolist() == [0.0, 10.0]

    def test_no_rows(self, tmp_path):
        # the header row ends the file: no blank line for an empty body
        p = tmp_path / "empty.csv"
        write_table(p, {"a": np.array([]), "ok": np.array([], dtype=bool)},
                    {"n": 0})
        assert p.read_text() == "# n: 0\na,ok\n"

    def test_compare(self, tmp_path):
        p = tmp_path / "compare_VA10_left_mm.csv"
        write_report_csv(p, ComparisonReport(
            0.5, 2.0, -1.0, 2, np.array([0.0, 100.0]), np.array([1.0, 3.0]),
            np.array([1.0, 2.0]), np.array([0.0, 0.0]),
            {"window_m": 100.0, "column": "VA10_left_mm",
             "applied_shift_m": 0.0, "mode": "max_abs"}))
        assert p.read_text() == ("# pearson_r: 0.5\n"
                                 "# slope: 2.0\n"
                                 "# intercept: -1.0\n"
                                 "# n_windows: 2\n"
                                 "# applied_shift_m: 0.0\n"
                                 '# column: "VA10_left_mm"\n'
                                 '# mode: "max_abs"\n'
                                 "# window_m: 100.0\n"
                                 "window_start_m,estimated,reference,residual\n"
                                 "0.0,1.0,1.0,0.0\n"
                                 "100.0,3.0,2.0,0.0\n")

    def test_reader_keeps_text_comments(self, tmp_path):
        p = tmp_path / "old.csv"
        p.write_text("# units: mm\n# n: 3\ndistance_m,value\n0.0,1.0\n")
        comments, columns, first_line = read_table(p, ("distance_m",))
        assert comments == {"units": "mm", "n": 3}
        assert list(columns) == ["distance_m", "value"]
        assert first_line == 4

    def test_blank_line_between_rows_rejected(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("time_s,speed_mps\n0.0,10.0\n\n1.0,10.0\n\n")
        with pytest.raises(FormatError, match="gap.csv:3"):
            read_speed(p)

    @pytest.mark.parametrize("rows, line", [
        (b"\n0.0,10.0\n1.0,10.0\n", 2),
        (b"0.0,10.0\r\n\r\n1.0,10.0\r\n", 3)])
    def test_blank_first_row_and_crlf_blank_line(self, tmp_path, rows, line):
        p = tmp_path / "gap.csv"
        p.write_bytes(b"time_s,speed_mps\n" + rows)
        with pytest.raises(FormatError, match=f"gap.csv:{line}: blank line"):
            read_speed(p)

    def test_trailing_blank_and_space_lines_are_not_rows(self, tmp_path):
        p = tmp_path / "tail.csv"
        p.write_text("time_s,speed_mps\n0.0,10.0\n1.0,10.0 \n\n  \n\t\n")
        assert read_speed(p)[1].tolist() == [10.0, 10.0]

    def test_rows_one_cell_wider_than_the_header_rejected(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("time_s,speed_mps\n0.0,10.0,1\n1.0,10.0,1\n")
        with pytest.raises(FormatError, match="header names 2 columns, rows "
                                              "hold 3"):
            read_table(p, ("time_s",))

    def test_unequal_columns_refused_before_the_file_exists(self, tmp_path):
        p = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match="a 3, b 2"):
            write_table(p, {"a": np.zeros(3), "b": np.zeros(2)}, {"n": 1})
        assert not p.exists()


class TestTableBlocks:
    """Rows are written _BLOCK_ROWS at a time; the seams between blocks
    must not show in the file."""

    B = _BLOCK_ROWS

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_file_is_the_one_shot_repr_join(self, tmp_path, n):
        clock = np.arange(n) / 256.0
        # dyadic in every block but the second, which falls back to repr
        mixed = clock.copy()
        odd = mixed[self.B:self.B + 5]
        odd[:] = [-0.0, np.nan, np.inf, 2.0 ** 24, 0.1][:odd.size]
        p = tmp_path / "blocks.csv"
        write_table(p, {"time_s": clock, "mixed": mixed}, {"n": n})
        rows = "".join(f"{c!r},{m!r}\n"
                       for c, m in zip(clock.tolist(), mixed.tolist()))
        assert p.read_text() == f"# n: {n}\ntime_s,mixed\n" + rows
        if n == 0:
            return
        _, columns, _ = read_table(p, ("time_s", "mixed"))
        for name, v in (("time_s", clock), ("mixed", mixed)):
            assert np.array_equal(columns[name].view(np.int64),
                                  v.view(np.int64))

    def test_write_holds_one_block_of_text(self, tmp_path):
        # a mainline-10km .trc: 40 001 rows of 8 float columns
        rng = np.random.default_rng(4)
        n, ncol = 40_001, 8
        columns = {"distance_m": TRC_SPACING_M * np.arange(n)}
        columns.update((f"c{k}", rng.normal(size=n)) for k in range(ncol - 1))
        tracemalloc.start()
        try:
            write_table(tmp_path / "big.trc", columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 110 B a cell of a block with numpy 2.4, these columns being
        # repr's: the float copies and int32 digit groups of the
        # fixed-point test, the 20-byte fields, one column's repr strs at a
        # time, and the block's byte matrix and text
        assert peak <= self.B * ncol * 128


def cells(v) -> list[str]:
    """The cell texts write_table writes for the float column v."""
    return _block([np.asarray(v, dtype=float)], 0, len(v)).decode().splitlines()


def no_repr(monkeypatch):
    """Make any repr call in fileio fail the test."""
    def fail(value):
        raise AssertionError(f"repr({value!r}) called")
    monkeypatch.setattr(fileio, "repr", fail, raising=False)


class TestDyadicCells:
    """Whole multiples of 1/256 (the 256 Hz clock, the 0.25 m grid, the
    window bounds) are fixed-point cells below 10**7; their text must be
    repr's, byte for byte."""

    def test_every_multiple_below_4096(self, monkeypatch):
        v = np.arange(2 ** 20) / 256.0
        expected = list(map(repr, v.tolist()))
        no_repr(monkeypatch)
        assert cells(v) == expected

    def test_random_multiples_below_2_24(self):
        # about 40 % of them are >= 10**7, so most blocks fall back to repr
        v = np.random.default_rng(7).integers(0, 2 ** 32, 100_000) / 256.0
        assert cells(v) == list(map(repr, v.tolist()))

    @pytest.mark.parametrize("odd", [-0.0, -0.25, np.nan, np.inf, 2.0 ** 24,
                                     0.1])
    def test_other_columns_fall_back_to_repr(self, odd):
        # of these six, only inf and 2**24 are not fixed-point
        v = np.append(np.arange(600) / 256.0, odd)
        assert _fixed_point(v[None])[1][0] == (odd not in (np.inf, 2.0 ** 24))
        assert cells(v) == list(map(repr, v.tolist()))

    def test_round_trip_bit_exact(self, tmp_path):
        clock = np.random.default_rng(8).integers(0, 2 ** 32, 100_000) / 256.0
        mixed = clock.copy()
        mixed[:6] = [-0.0, -0.25, np.nan, np.inf, 2.0 ** 24, 0.1]
        p = tmp_path / "clock.csv"
        write_table(p, {"time_s": clock, "mixed": mixed})
        _, columns, _ = read_table(p, ("time_s", "mixed"))
        for name, v in (("time_s", clock), ("mixed", mixed)):
            assert np.array_equal(columns[name].view(np.int64),
                                  v.view(np.int64))


def decimal(digits: int, places: int) -> st.SearchStrategy:
    """The double nearest a decimal of up to `digits` digits in all, with
    `places` of them after the point, and any sign."""
    return st.integers(-10 ** digits + 1, 10 ** digits - 1).map(
        lambda k: k / 10 ** places)


# k / 10**d, d <= 8 and |v| < 10**7; below 1e-4; and the special values
FIXED_POINT = st.one_of(
    st.integers(0, 8).flatmap(lambda d: decimal(7 + d, d)),
    st.integers(5, 8).flatmap(lambda d: decimal(d - 4, d)),
    st.sampled_from([0.0, -0.0, np.nan, 9999999.99999999, -1e-8, 1e-4]))


class TestFixedPointCells:
    """A float column whose block holds only k / 10**8 below 10**7 and NaN
    is written from the digits of k; any other block through repr."""

    @settings(deadline=None)
    @given(st.lists(FIXED_POINT, min_size=1, max_size=40))
    def test_cell_is_repr(self, values):
        v = np.array(values)
        assert _fixed_point(v[None])[1][0]
        assert cells(v) == list(map(repr, values))

    @pytest.mark.parametrize("odd", [np.inf, -np.inf, 1e7, -1e7, -12345678.5,
                                     0.1 + 1e-12, 1 / 3, 2.5e-9, 1e300])
    def test_other_blocks_go_through_repr(self, odd):
        v = np.append(np.round(np.linspace(-5, 5, 300), 6), odd)
        assert not _fixed_point(v[None])[1][0]
        assert cells(v) == list(map(repr, v.tolist()))

    def test_each_block_and_column_takes_its_own_path(self, tmp_path,
                                                      monkeypatch):
        n = 2 * _BLOCK_ROWS
        grid = TRC_SPACING_M * np.arange(n)
        thirds = np.round(grid / 3, 6)
        thirds[n - 1] = 1 / 3       # the second block falls back to repr
        cut = np.full(n, 7.5)
        cut[0] = np.nan
        flags = np.arange(n) % 3 == 0
        calls = []
        monkeypatch.setattr(fileio, "repr", lambda v: calls.append(v) or repr(v),
                            raising=False)
        p = tmp_path / "paths.csv"
        write_table(p, {"d": grid, "t": thirds, "c": cut, "ok": flags})
        assert calls == thirds[_BLOCK_ROWS:].tolist()
        rows = [f"{a!r},{b!r},{c!r},{int(f)}" for a, b, c, f in zip(
            grid.tolist(), thirds.tolist(), cut.tolist(), flags.tolist())]
        assert p.read_text() == "d,t,c,ok\n" + "\n".join(rows) + "\n"


class TestTrcFormat:
    def make(self, n=100):
        rng = np.random.default_rng(1)
        d = TRC_SPACING_M * np.arange(n)
        return TrcData(d, {
            "VA10_left_mm": rng.normal(size=n),
            "VA10_right_mm": rng.normal(size=n),
            "HA10_left_mm": rng.normal(size=n),
            "speed_mps": np.full(n, 10.0),
        }, {"source": "synthesizer", "config": {"seed": 5}})

    def test_round_trip_bit_exact(self, tmp_path):
        trc = self.make()
        trc.columns["VA10_left_mm"][3] = np.nan   # invalid sample survives
        p = tmp_path / "run.trc"
        write_trc(p, trc)
        back = read_trc(p)
        assert np.array_equal(back.distance_m, trc.distance_m)
        for name, col in trc.columns.items():
            assert np.array_equal(back.columns[name], col, equal_nan=True), name
        assert back.metadata["source"] == "synthesizer"
        assert back.metadata["config"] == {"seed": 5}

    def test_no_numpy_reprs_leak_into_file(self, tmp_path):
        p = tmp_path / "run.trc"
        write_trc(p, self.make())
        text = p.read_text()
        assert "np.float64" not in text
        assert "float64(" not in text

    def test_geometry_columns_listed(self):
        trc = self.make()
        assert set(trc.geometry_columns()) == {"VA10_left_mm", "VA10_right_mm",
                                               "HA10_left_mm"}

    def test_fractional_chord_column_accepted(self, tmp_path):
        n = 10
        trc = TrcData(TRC_SPACING_M * np.arange(n),
                      {"VA7.5_left_mm": np.zeros(n)})
        p = tmp_path / "frac.trc"
        write_trc(p, trc)
        assert read_trc(p).geometry_columns() == ["VA7.5_left_mm"]

    def test_bad_stride_rejected(self, tmp_path):
        trc = self.make()
        trc.distance_m = trc.distance_m * 2.0   # 0.5 m steps
        with pytest.raises(FormatError):
            write_trc(tmp_path / "bad.trc", trc)

    @pytest.mark.parametrize("chord", [0.5, 7.5, 10.0, 35.0, 200.0])
    def test_column_name_is_a_geometry_column(self, chord):
        # what column_name writes, _check_trc accepts and lists
        names = [column_name(chord, side, axis) for axis in AXES for side in SIDES]
        trc = TrcData(TRC_SPACING_M * np.arange(4),
                      {name: np.zeros(4) for name in names})
        _check_trc(trc, "table")
        assert trc.geometry_columns() == names

    @pytest.mark.parametrize("name, canonical", [
        ("VA10.0_left_mm", "VA10_left_mm"), ("VA010_left_mm", "VA10_left_mm"),
        ("HA7.50_right_mm", "HA7.5_right_mm")])
    def test_non_canonical_column_rejected(self, tmp_path, name, canonical):
        # compare matches columns by name, so VA10.0_left_mm could never
        # meet the VA10_left_mm of an estimate
        p = tmp_path / "ref.trc"
        write_table(p, {"distance_m": TRC_SPACING_M * np.arange(4),
                        name: np.zeros(4)})
        with pytest.raises(FormatError, match=re.escape(
                f"column {name!r} must be spelled {canonical!r}")):
            read_trc(p)

    def test_unknown_column_rejected(self, tmp_path):
        n = 10
        trc = TrcData(TRC_SPACING_M * np.arange(n), {"twist_mm": np.zeros(n)})
        with pytest.raises(FormatError):
            write_trc(tmp_path / "bad.trc", trc)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.trc"
        p.write_text("distance_m,VA10_left_mm\n0.0,1.0\n0.25\n")
        with pytest.raises(FormatError):
            read_trc(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.trc"
        p.write_text("")
        with pytest.raises(FormatError):
            read_trc(p)


class TestWindowsCsv:
    def make_stats(self, values, start=0.0):
        values = np.asarray(values, dtype=float)
        n = values.size
        return WindowedStats(100.0, start + 100.0 * np.arange(n), values,
                             np.ones(n))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "windows.csv"
        a = self.make_stats([1.5, 2.5, 3.5])
        b = self.make_stats([0.5, 0.25, 0.125], start=300.0)
        write_windows(p, {"VA10_left_mm": a, "VA35_left_mm": b},
                      params={"window_m": 100.0})
        ra = read_windows(p, "VA10_left_mm")
        rb = read_windows(p, "VA35_left_mm")
        assert np.array_equal(ra.starts_m, a.starts_m)
        assert np.array_equal(ra.values, a.values)
        assert np.array_equal(rb.starts_m, b.starts_m)
        assert rb.window_m == 100.0
        assert "np.float64" not in p.read_text()

    def test_missing_column(self, tmp_path):
        p = tmp_path / "windows.csv"
        write_windows(p, {"VA10_left_mm": self.make_stats([1.0, 2.0])})
        with pytest.raises(FormatError):
            read_windows(p, "HA10_left_mm")

    def test_unequal_window_lengths_rejected(self, tmp_path):
        p = tmp_path / "windows.csv"
        p.write_text(",".join(fileio._WINDOWS_HEADER) + "\n"
                     "VA10_left_mm,0.0,100.0,1.5,1.0\n"
                     "VA10_left_mm,100.0,150.0,2.5,1.0\n")
        with pytest.raises(FormatError, match="window lengths differ for "
                                              "'VA10_left_mm'"):
            read_windows(p, "VA10_left_mm")

    def test_non_windows_file_rejected(self, tmp_path):
        p = tmp_path / "other.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError):
            read_windows(p, "a")

    @pytest.mark.parametrize("row, match", [
        ("VA10_left_mm,100.0,200.0,abc,1.0", "abc"),
        ("VA10_left_mm,100.0,200.0,2.5", "columns"),
        ("VA10_left_mm,100.0,200.0,2.5,1.0,7", "columns")])
    def test_malformed_row_rejected(self, tmp_path, row, match):
        p = tmp_path / "windows.csv"
        p.write_text(",".join(fileio._WINDOWS_HEADER) + "\n"
                     "VA10_left_mm,0.0,100.0,1.5,1.0\n" + row + "\n")
        with pytest.raises(FormatError, match=match):
            read_windows(p, "VA10_left_mm")


class TestLoadConfig:
    def good(self):
        return {
            "length_m": 500.0,
            "profile": {"type": "noise", "band_cycles_per_m": [0.02, 0.5],
                        "rms_mm": 3.0},
            "speed_plan": [[0.0, 10.0], [60.0, 10.0]],
        }

    def write(self, tmp_path, cfg):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_good_config_loads(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.good()))
        assert cfg["length_m"] == 500.0

    def test_missing_field(self, tmp_path):
        cfg = self.good()
        del cfg["speed_plan"]
        with pytest.raises(FormatError):
            load_config(self.write(tmp_path, cfg))

    def test_bad_plan_knot(self, tmp_path):
        cfg = self.good()
        cfg["speed_plan"] = [[0.0, 10.0], [60.0]]
        with pytest.raises(FormatError):
            load_config(self.write(tmp_path, cfg))

    def test_negative_speed(self, tmp_path):
        cfg = self.good()
        cfg["speed_plan"] = [[0.0, -1.0], [60.0, 10.0]]
        with pytest.raises(FormatError):
            load_config(self.write(tmp_path, cfg))

    def test_unknown_sensor(self, tmp_path):
        cfg = self.good()
        cfg["sensor"] = "laser_doppler"
        with pytest.raises(FormatError):
            load_config(self.write(tmp_path, cfg))

    def test_known_sensor_ok(self, tmp_path):
        cfg = self.good()
        cfg["sensor"] = "bogie_mems"
        assert load_config(self.write(tmp_path, cfg))["sensor"] == "bogie_mems"

    def test_bad_profile_type(self, tmp_path):
        cfg = self.good()
        cfg["profile"] = {"type": "fractal"}
        with pytest.raises(FormatError):
            load_config(self.write(tmp_path, cfg))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            load_config(p)

    def test_incomplete_impulse(self, tmp_path):
        cfg = self.good()
        cfg["impulses"] = [{"position_m": 100.0}]
        with pytest.raises(FormatError):
            load_config(self.write(tmp_path, cfg))

    def test_every_field_accepted(self, tmp_path):
        cfg = dict(self.good(), seed=7, sensor="axlebox_iepe",
                   lateral_profile={"type": "sines", "components": [
                       {"nu": 0.05, "amplitude_mm": 2.0},
                       {"nu": 0.1, "amplitude_mm": 1.0, "phase": 0.3}]},
                   impulses=[{"position_m": 100, "amplitude_g": 5.0,
                              "duration_ms": 4.0}],
                   geo_polyline=[[47.0, 8.0], [47.01, 8.0]])
        assert load_config(self.write(tmp_path, cfg)) == cfg

    @pytest.mark.parametrize("field, value", [
        ("sample_rate_hz", 2560.0), ("wheelbase_m", 2.5),
        ("lr_correlation", 0.7), ("add_noise", False), ("block_seconds", 10.0),
        ("impulse", []),
        # no longer a field, whatever its shape
        ("lateral_disturbance", {"rms_mps2": 0.05}),
        ("lateral_disturbance", {"rms_mps2": 0.05, "band_hz": [1.0]})])
    def test_unknown_field_named(self, tmp_path, field, value):
        cfg = dict(self.good(), **{field: value})
        with pytest.raises(FormatError, match=f"unknown field '{field}'"):
            load_config(self.write(tmp_path, cfg))

    @pytest.mark.parametrize("field, value", [
        ("profile", {"type": "noise", "band_cycles_per_m": [0.02, 0.5]}),
        ("profile", {"type": "noise", "band_cycles_per_m": 0.5, "rms_mm": 3}),
        ("profile", {"type": "sines", "components": [{"nu": 0.05}]}),
        ("profile", {"type": "sines", "components": [
            {"nu": 0.05, "amplitude": 1.0}]}),
        ("lateral_profile", {"type": "noise", "band": [0.02, 0.5],
                             "rms_mm": 3.0}),
        ("speed_plan", [[0.0, 10.0], [60.0, "10"]]),
        ("impulses", [{"position_m": 100.0, "amplitude_g": "5",
                       "duration_ms": 4.0}]),
        ("impulses", {"position_m": 100.0}),
        ("sensor", {"name": "mine", "range_g": 16.0,
                    "noise_floor_ug_sqrthz": 300.0}),
        ("seed", 7.5), ("seed", "7"), ("seed", True), ("length_m", True),
        ("length_m", float("inf")),
        ("speed_plan", [[0.0, 10.0], [float("nan"), 10.0]]),
        ("geo_polyline", [[47.0, 8.0]]),
        ("geo_polyline", [[47.0], [47.1]])])
    def test_malformed_field_named(self, tmp_path, field, value):
        cfg = dict(self.good(), **{field: value})
        with pytest.raises(FormatError, match=f"field '{field}'"):
            load_config(self.write(tmp_path, cfg))

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(FormatError, match="top level"):
            load_config(self.write(tmp_path, [self.good()]))


class TestPolyline:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "polyline.json"
        points = [(47.0, 8.0), (47.001, 8.002), (47.003, 8.0025)]
        write_polyline(p, points)
        assert json.loads(p.read_text()) == [list(q) for q in points]
        assert read_polyline(p) == points

    @pytest.mark.parametrize("wrap", [lambda g: g, lambda g: {
        "type": "Feature", "geometry": g, "properties": {}}])
    def test_geojson_is_lon_lat(self, tmp_path, wrap):
        p = tmp_path / "line.geojson"
        geometry = {"type": "LineString",
                    "coordinates": [[8.0, 47.0], [8.002, 47.001]]}
        p.write_text(json.dumps(wrap(geometry)))
        assert read_polyline(p) == [(47.0, 8.0), (47.001, 8.002)]

    @pytest.mark.parametrize("content", [
        "5", "[[47.0], [47.1]]", "[[47.0, 8.0]]", '[[47.0, "8.0"], [47.1, 8.0]]',
        '{"type": "Point", "coordinates": [8.0, 47.0]}', '{"geometry": 5}',
        "[[47.0, 8.0],"])
    def test_malformed_file_names_path(self, tmp_path, content):
        p = tmp_path / "line.json"
        p.write_text(content)
        with pytest.raises(FormatError, match=re.escape(str(p))):
            read_polyline(p)


class TestGeoJson:
    def straight_polyline(self, length_m=650.0):
        # due-north line: 1 degree latitude is ~111.2 km
        dlat = length_m / (np.pi * 6371000.0 / 180.0)
        return [(47.0, 8.0), (47.0 + dlat, 8.0)]

    def make_stats(self):
        return WindowedStats(100.0, 100.0 * np.arange(6),
                             np.array([1.0, 5.0, 9.0, 13.0, 2.0, np.nan]),
                             np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.1]))

    def test_feature_collection_shape(self):
        fc = export_geojson(self.make_stats(), self.straight_polyline(),
                            thresholds=(8.0, 12.0), column="VA10_left_mm")
        assert fc["type"] == "FeatureCollection"
        assert len(fc["features"]) == 6
        f = fc["features"][0]
        assert f["geometry"]["type"] == "LineString"
        assert f["properties"]["column"] == "VA10_left_mm"

    def test_coordinates_are_lon_lat(self):
        fc = export_geojson(self.make_stats(), self.straight_polyline(),
                            thresholds=())
        lon, lat = fc["features"][0]["geometry"]["coordinates"][0]
        assert lon == pytest.approx(8.0, abs=1e-9)
        assert lat == pytest.approx(47.0, abs=1e-6)

    def test_arc_lengths_match_windows(self):
        fc = export_geojson(self.make_stats(), self.straight_polyline(),
                            thresholds=())
        for k, f in enumerate(fc["features"][:5]):
            coords = f["geometry"]["coordinates"]
            (lon0, lat0), (lon1, lat1) = coords[0], coords[-1]
            d = haversine_m(lat0, lon0, lat1, lon1)
            assert d == pytest.approx(100.0, rel=1e-3)

    def test_severity_counts_thresholds(self):
        fc = export_geojson(self.make_stats(), self.straight_polyline(),
                            thresholds=(8.0, 12.0))
        sev = [f["properties"]["severity"] for f in fc["features"]]
        assert sev == [0, 0, 1, 2, 0, None]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, bad):
        # a nan threshold is never reached and sorts to no defined place, so
        # every severity above it would silently come out too low
        with pytest.raises(ValueError, match=f"threshold {bad!r}"):
            export_geojson(self.make_stats(), self.straight_polyline(),
                           thresholds=(4.0, bad, 12.0))

    def test_unusable_window_value_null(self):
        fc = export_geojson(self.make_stats(), self.straight_polyline(),
                            thresholds=(8.0,))
        assert fc["features"][5]["properties"]["value_mm"] is None

    def test_short_polyline_rejected(self):
        with pytest.raises(ValueError):
            export_geojson(self.make_stats(), self.straight_polyline(400.0),
                           thresholds=())

    def test_unusable_window_drawn_to_polyline_end(self):
        # window 5, [500, 600), is unusable: the polyline need only reach
        # its start, and it is drawn up to the polyline's 560 m end
        fc = export_geojson(self.make_stats(), self.straight_polyline(560.0),
                            thresholds=())
        last = fc["features"][5]
        assert last["properties"]["window_end_m"] == 600.0
        (lon0, lat0), (lon1, lat1) = (last["geometry"]["coordinates"][0],
                                      last["geometry"]["coordinates"][-1])
        assert haversine_m(lat0, lon0, lat1, lon1) == pytest.approx(60.0, rel=1e-3)
        assert [lon1, lat1] == [8.0, self.straight_polyline(560.0)[1][0]]

    def test_polyline_short_of_a_usable_end_or_any_start_rejected(self):
        usable_last = WindowedStats(100.0, 100.0 * np.arange(6),
                                    np.array([1.0, 5.0, 9.0, 13.0, 2.0, 3.0]),
                                    np.ones(6))
        with pytest.raises(ValueError, match="windows reach 600.0 m"):
            export_geojson(usable_last, self.straight_polyline(560.0), thresholds=())
        # [100, 200) and [200, 300) unusable: 150 m is past the first's
        # start but short of the second's
        trailing = WindowedStats(100.0, 100.0 * np.arange(3),
                                 np.array([1.0, np.nan, np.nan]),
                                 np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="windows reach 200.0 m"):
            export_geojson(trailing, self.straight_polyline(150.0), thresholds=())
        assert len(export_geojson(trailing, self.straight_polyline(200.0),
                                  thresholds=())["features"]) == 3

    def test_single_vertex_polyline_rejected(self):
        with pytest.raises(ValueError):
            export_geojson(self.make_stats(), [(47.0, 8.0)], thresholds=())

    def test_written_file_is_valid_json(self, tmp_path):
        fc = export_geojson(self.make_stats(), self.straight_polyline(),
                            thresholds=(8.0,))
        p = tmp_path / "map.geojson"
        write_geojson(p, fc)
        parsed = json.loads(p.read_text())
        assert parsed["type"] == "FeatureCollection"

    def test_haversine_known_distance(self):
        # one degree of latitude along a meridian
        d = haversine_m(47.0, 8.0, 48.0, 8.0)
        assert d == pytest.approx(np.pi * 6371000.0 / 180.0, rel=1e-9)
