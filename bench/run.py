#!/usr/bin/env python3
"""Benchmark of the records -> geometry job, run through the trackvib CLI.

    python3 bench/run.py --workload urban-2km --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. One process runs one workload. It writes the workload's inputs
several times (set-up; on stop-go-400m that is `trackvib simulate`), then
repeats the job `process`, then REPORT_REPEATS times `compare` and
`export-geojson`, each called in-process through `trackvib.cli.main`, until
--seconds have passed and at least MIN_ITERATIONS times. It checks the outputs and prints the end-to-end
metrics of BENCHMARK.json as medians. With --trace 1 it instead sets up
once and runs the job three times, the middle run with spans on the
package's public functions, and prints the per-layer metrics. The last
stdout line is the JSON result. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUPS = 3                     # set-ups per timed run; setup_s is their median
MIN_ITERATIONS = 3
REPORT_REPEATS = 3             # compare + export per process in timed runs
MAX_SHIFT_M = "300"
MAP_COLUMN = "VA10_left_mm"
THRESHOLDS_MM = "4,8"
CRITERION1_R = 0.90            # acceptance criterion 1: VA10 r floor, urban-2km
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every end-to-end figure the summary prints; BENCHMARK.json gates a subset
SUMMARY_UNITS = {"setup_s": "s", "simulate_s": "s", "process_s": "s",
                 "report_s": "s", "peak_rss_mb": "MB", "va10_r_min": "1",
                 "va35_r_min": "1", "ha10_r_min": "1", "chainage_err_m": "m",
                 "failed_frac": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _import_package():
    """Import trackvib from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "trackvib" / "__init__.py").is_file():
        raise BenchError(f"no trackvib package under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import trackvib
    import trackvib.cli  # noqa: F401  (traced as an attribute of trackvib)
    if Path(trackvib.__file__).resolve().parent != (src / "trackvib").resolve():
        raise BenchError(f"imported trackvib from {trackvib.__file__}, not {src}")
    return trackvib


def environment(allowed: list, blas_cap: str) -> dict:
    import numpy
    import scipy
    model = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {"nproc": len(allowed), "pinned_cpu": allowed[0], "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_cap}


class Job:
    """The job's subcommands on one workload's inputs, with outcome counts."""

    def __init__(self, package, records: Path, out: Path):
        self.tv = package
        self.records = records
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def _call(self, argv: list) -> float | None:
        """Seconds one subcommand took, or None if it did not exit 0."""
        self.attempted += 1
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = self.tv.cli.main([str(a) for a in argv])
            except SystemExit as exc:      # argparse usage errors
                code = exc.code
        dt = time.perf_counter() - t0
        if code != 0:
            self._fail(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            return None
        return dt

    def run(self, report_repeats: int = 1) -> dict | None:
        """Run the job once: {"process": s, "report": [s, ...]}, or None."""
        p = self.out / "processed"
        process = ["process", "--records", self.records, "--out", p]
        report = [
            ["compare", "--estimated", p / "estimated.trc",
             "--reference", self.records / "ground_truth.trc",
             "--out", self.out / "compare", "--max-shift", MAX_SHIFT_M],
            ["export-geojson", "--windows", p / "windows.csv",
             "--column", MAP_COLUMN, "--polyline", self.records / "polyline.json",
             "--thresholds", THRESHOLDS_MM, "--out", self.out / "map.geojson"],
        ]
        times = {"process": self._call(process), "report": []}
        if times["process"] is None:
            self._skip(report)
            return None
        for _ in range(report_repeats):
            total = 0.0
            for k, argv in enumerate(report):
                dt = self._call(argv)
                if dt is None:
                    self._skip(report[k + 1:])
                    return None
                total += dt
            times["report"].append(total)
        return times

    def _skip(self, steps: list) -> None:
        for argv in steps:
            self.attempted += 1
            self._fail(f"{argv[0]} not run")

    def _check(self, what: str, ok_fn) -> None:
        self.attempted += 1
        try:
            ok = ok_fn()
        except Exception as exc:      # a broken output is a failed check
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self._fail(what)

    def check_outputs(self, true_chainage) -> dict:
        """Output checks (counted) and the accuracy figures they yield."""
        import numpy as np
        from trackvib.comparison import MIN_COMMON_WINDOWS
        fileio = self.tv.fileio
        p = self.out / "processed"
        found: dict = {}

        def trc(name, path):
            found[name] = fileio.read_trc(path)
            return True

        self._check("estimated.trc re-reads", lambda: trc("est", p / "estimated.trc"))
        self._check("ground_truth.trc re-reads",
                    lambda: trc("ref", self.records / "ground_truth.trc"))

        def compare_names_va():
            # a VA column may be missing only if compare could not have
            # compared it: fewer usable windows than it requires
            with open(self.out / "compare" / "compare.json", encoding="utf-8") as fh:
                found["compare"] = json.load(fh)
            va = [c for c in found["est"].geometry_columns() if c.startswith("VA")]
            comparable = [c for c in va if np.count_nonzero(
                fileio.read_windows(p / "windows.csv", c).usable)
                >= MIN_COMMON_WINDOWS]
            missing = [c for c in comparable if c not in found["compare"]]
            if missing:
                raise BenchError(f"compare.json lacks {missing}")
            return len(va) > 0

        self._check("compare.json names every VA column", compare_names_va)

        def one_feature_per_window():
            with open(self.out / "map.geojson", encoding="utf-8") as fh:
                features = json.load(fh)["features"]
            windows = len(fileio.read_windows(p / "windows.csv", MAP_COLUMN))
            if len(features) != windows:
                raise BenchError(f"{len(features)} features for {windows} windows")
            return True

        self._check("one GeoJSON feature per window", one_feature_per_window)

        def chainage():
            # the estimated distance axis is the cumulative sum of speed.csv
            # (spatial.build_distance_axis); compare its end with the truth
            data = np.loadtxt(p / "speed.csv", delimiter=",", skiprows=2, ndmin=2)
            fs = 1.0 / (data[1, 0] - data[0, 0])
            est_end = float(np.cumsum(data[:, 1])[-1] / fs)
            found["chainage_err_m"] = abs(est_end - true_chainage(data[-1, 0]))
            return True

        self._check("speed.csv gives a chainage", chainage)

        def r_min(prefix):
            cmp = found.get("compare", {})
            rs = [cmp[c]["pearson_r"] for c in (f"{prefix}_left_mm", f"{prefix}_right_mm")
                  if c in cmp]
            return min(rs) if rs else None

        return {"va10_r_min": r_min("VA10"), "va35_r_min": r_min("VA35"),
                "ha10_r_min": r_min("HA10"),
                "chainage_err_m": found.get("chainage_err_m")}


def timed_run(tv, wl, workload, seed: int, seconds: float, work: Path) -> tuple:
    records, out = work / "inputs", work / "outputs"
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl.set_up(workload, seed, records)
        setups.append(time.perf_counter() - t0)
    job = Job(tv, records, out)
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        times = job.run(REPORT_REPEATS)
        if times is None:
            break
        runs.append(times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    acc = job.check_outputs(lambda t: wl.true_chainage(workload, t))

    def median(samples):
        return statistics.median(samples) if samples else None

    setup_s = statistics.median(setups)
    metrics = {
        "setup_s": setup_s,
        # on stop-go-400m the set-up is `trackvib simulate`
        "simulate_s": setup_s if workload.speed_mps is None else None,
        "process_s": median([r["process"] for r in runs]),
        "report_s": median([t for r in runs for t in r["report"]]),
        "peak_rss_mb": peak_mb,
        **acc,
        "failed_frac": job.failed / job.attempted,
    }
    detail = {"setup_runs_s": setups, "job_runs_s": runs, "failures": job.failures}
    return job, metrics, detail


def traced_run(tv, wl, workload, seed: int, work: Path) -> tuple:
    from tracing import TRACED, Tracer
    records, out = work / "inputs", work / "outputs"
    tracer = Tracer()
    with tracer.installed(tv), tracer.span("bench.setup"):
        wl.set_up(workload, seed, records)
    job = Job(tv, records, out)
    before = job.run()
    with tracer.installed(tv), tracer.span("bench.job"):
        traced = job.run()
    after = job.run()
    acc = job.check_outputs(lambda t: wl.true_chainage(workload, t))
    if None in (before, traced, after):
        raise BenchError("; ".join(job.failures))

    self_s = tracer.self_times()
    c = tracer.counts
    layers = {}
    for module, func, _, _ in TRACED:
        name = f"{module}.{func}"
        layers[f"{name}.self_s"] = self_s.get(name, 0.0)
        layers[f"{name}.calls"] = c[f"{name}.calls"]
    parts = ("valid", "invalid", "usable", "samples")   # only feed the ratios
    layers.update({k: v for k, v in c.items() if k.rpartition(".")[2] not in parts})
    for name, part, whole, qty in (
            ("speed.estimate_delay", "valid", "samples", "valid_frac"),
            ("speed.estimate_speed", "valid", "samples", "valid_frac"),
            ("spatial.resample_to_space", "invalid", "grid_points", "invalid_frac"),
            ("geometry.windowed_max", "usable", "windows", "usable_frac")):
        total = c[f"{name}.{whole}"]
        layers[f"{name}.{qty}"] = c[f"{name}.{part}"] / total if total else 0.0
    # untraced runs on either side of the traced one, so warm-up cancels
    layers["trace.overhead_s"] = (traced["process"]
                                  - (before["process"] + after["process"]) / 2)
    detail = {"setup_traced_s": tracer.total("bench.setup"),
              "untraced_s": [before, after], "traced_s": traced, "accuracy": acc,
              "failures": job.failures, "spans": tracer.dump()}
    return job, layers, detail


def unit_of(name: str) -> str:
    qty = name.rsplit(".", 1)[-1]
    if qty.endswith("_s"):
        return "s"
    if qty.endswith("_frac"):
        return "1"
    return "B" if qty == "bytes" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU, so every step runs on the same core: unpinned, the two CPUs
    # of a 2-vCPU Xeon VM timed the same compare at 0.07 and 0.13 s. BLAS is
    # capped at the CPUs the process may use, before numpy loads.
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    blas_cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = blas_cap
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        tv = _import_package()
        import workloads as wl
        if args.workload not in wl.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of "
                             f"{sorted(wl.WORKLOADS)}")
        workload = wl.WORKLOADS[args.workload]
        work = WORK / f"{workload.name}-seed{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            if args.trace:
                job, metrics, detail = traced_run(tv, wl, workload, args.seed, work)
                wanted = spec["per_layer"]
            else:
                job, metrics, detail = timed_run(tv, wl, workload, args.seed,
                                                 args.seconds, work)
                wanted = spec["end_to_end"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
        if missing:
            raise BenchError(f"no value for {missing}; failures: {job.failures}")
    except (BenchError, OSError, ValueError, KeyError, ImportError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    env = environment(allowed, blas_cap)
    WORK.mkdir(exist_ok=True)
    record = WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "environment": env,
                   "metrics": metrics, **detail}, fh, indent=1)
        fh.write("\n")

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in env.items()))
    units = {k: unit_of(k) for k in metrics} if args.trace else SUMMARY_UNITS
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"#   {name:<45} {shown:>12} {unit}")
    for failure in job.failures:
        print(f"# FAILED: {failure}")
    # reported, not counted as a failure: it does not hold for every seed
    r = metrics.get("va10_r_min")
    if workload.name == "urban-2km" and r is not None and r < CRITERION1_R:
        print(f"# FINDING: va10_r_min below acceptance criterion 1's floor "
              f"{CRITERION1_R}")
    result = {"correct": job.failed == 0, "attempted": job.attempted,
              "failed": job.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
