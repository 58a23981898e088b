"""The benchmark's tracer still finds and counts every layer it names,
the benchmark's configs are still simulate configs, and the benchmark's
tiled inputs still equal a direct simulation.

bench/tracing.py wraps the package's public functions by name and reads
some of their parameters. A rename or a removed parameter breaks
`bench/run.py --trace 1`; this test breaks first. It runs the four
subcommands once under the tracer and requires a call of every traced
layer. bench/workloads.py writes the config that sets up stop-go-400m; a
schema change that refuses it fails here before it fails the benchmark.
bench/check_inputs.py compares the records tiled from one simulated
period with a direct simulation of two; a synthesizer change that moves
either by more than the benchmark's seam tolerance fails here.
"""

import json
import sys
from pathlib import Path

import pytest

import trackvib
import trackvib.cli  # noqa: F401  (the tracer wraps it as trackvib.cli)
from trackvib.fileio import load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFIG = {
    "length_m": 600.0,
    "profile": {"type": "noise", "band_cycles_per_m": [0.02, 0.5],
                "rms_mm": 3.0},
    "speed_plan": [[0.0, 10.0], [70.0, 10.0]],
    "seed": 5,
    "sensor": "bogie_mems",
    "impulses": [{"position_m": 300.0, "amplitude_g": 5.0,
                  "duration_ms": 5.0}],
    # ~800 m due north, past the end of the last 100 m window
    "geo_polyline": [[47.0, 8.0], [47.0072, 8.0]],
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # bench/ stays clean
    import tracing
    return tracing


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # bench/ stays clean
    import workloads
    return workloads


@pytest.fixture
def check_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))   # undo also drops the paths it adds
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # bench/ stays clean
    import check_inputs
    return check_inputs


@pytest.mark.parametrize("name", ["urban-2km", "mainline-10km"])
def test_tiled_inputs_match_direct_simulation(check_inputs, name):
    workload = check_inputs.wl.WORKLOADS[name]
    assert check_inputs.check(workload, 1) == []


def test_bench_configs_load(workloads, tmp_path):
    for name, cfg in [("stop-go", workloads.stop_go_config(1)),
                      ("trace", CONFIG)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert load_config(path) == cfg


def test_every_traced_layer_is_called(tracing, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    run, proc, cmp_dir = tmp_path / "run", tmp_path / "proc", tmp_path / "cmp"
    main = trackvib.cli.main
    tracer = tracing.Tracer()
    with tracer.installed(trackvib):
        codes = [
            main(["simulate", "--config", str(cfg), "--out", str(run)]),
            main(["process", "--records", str(run), "--out", str(proc)]),
            main(["compare", "--estimated", str(proc / "estimated.trc"),
                  "--reference", str(run / "ground_truth.trc"),
                  "--out", str(cmp_dir), "--max-shift", "100"]),
            main(["export-geojson", "--windows", str(proc / "windows.csv"),
                  "--column", "VA10_left_mm",
                  "--polyline", str(run / "polyline.json"),
                  "--out", str(tmp_path / "map.geojson")]),
        ]
    assert codes == [0, 0, 0, 0]
    silent = [f"{module}.{func}" for module, func, _, _ in tracing.TRACED
              if tracer.counts[f"{module}.{func}.calls"] == 0]
    assert silent == []
