"""Spans around the package's public functions, installed from outside.

A Tracer replaces each traced function, under every name its callers look
it up by, with a wrapper that records a span (name, start, end, parent) and
adds the layer's work counts. Spans stay in memory until the run ends. A
layer's self time is its span durations minus the time its child spans
cover; spans nest strictly, so that is the duration minus the children's.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Counters: (bound arguments, result) -> {quantity: amount}. Quantities that
# a function does not return are computed from its inputs, as the package
# computes them.

def _samples_in(a, r):
    return {"samples_in": len(a["ts"])}


def _delay_windows(a, r):
    fs = a["front"].sample_rate_hz
    n = len(a["front"])
    w = a["window_samples"]
    stride = a["stride"] or max(1, w // 4)
    lag_lo = int(np.ceil(a["delay_bounds_s"][0] * fs))
    lag_hi = int(np.floor(a["delay_bounds_s"][1] * fs))
    lo = w // 2 + max(-lag_lo, 0)
    hi = n - w // 2 - max(lag_hi, 0)
    return {"windows": len(range(lo, hi + 1, stride)),
            "valid": int(np.count_nonzero(r.valid)), "samples": r.valid.size}


def _speed_valid(a, r):
    return {"valid": int(np.count_nonzero(r.valid)), "samples": r.valid.size}


def _grid(a, r):
    return {"grid_points": len(r), "invalid": int(np.count_nonzero(~r.valid))}


def _windows(a, r):
    return {"windows": len(r), "usable": int(np.count_nonzero(r.usable))}


def _shifts(a, r):
    k = int(np.floor(a["max_shift_m"] / a["est"].window_m + 1e-9))
    return {"shifts_tried": 2 * k + 1}


def _trig_evals(a, r):
    accel = bool(np.any(np.diff(r.speeds_mps) != 0.0))
    total = 0
    for cid, ts in r.channels.items():
        _, _, side, axis = cid.split("-")
        total += len(ts) * a["profile"].components[f"{axis}-{side}"].shape[0]
    return {"trig_evals": total * (2 if accel else 1)}


# (defining module, function, modules that look it up by name, counter)
TRACED = [
    ("timeseries", "decimate", ("pipeline",), _samples_in),
    ("timeseries", "double_integrate", ("pipeline",), _samples_in),
    ("timeseries", "merge_records", ("pipeline",),
     lambda a, r: {"blocks_in": len(a["parts"])}),
    ("speed", "estimate_delay", ("pipeline",), _delay_windows),
    ("speed", "estimate_speed", ("pipeline",), _speed_valid),
    ("spatial", "build_distance_axis", ("pipeline",), None),
    ("spatial", "resample_to_space", ("pipeline",), _grid),
    ("geometry", "chord_alignment", ("pipeline",), None),
    ("geometry", "windowed_max", ("pipeline",), _windows),
    ("comparison", "coregister", ("comparison",), _shifts),
    ("comparison", "correlate", ("comparison",), None),
    ("pipeline", "process_records", ("pipeline",), None),
    ("pipeline", "chord_ground_truth", ("pipeline", "cli"), None),
    ("pipeline", "compare_trc", ("pipeline",), None),
    ("fileio", "read_record", ("fileio",),
     lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("fileio", "write_record", ("fileio",),
     lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("fileio", "write_trc", ("fileio",),
     lambda a, r: {"rows": len(a["trc"].distance_m)}),
    ("fileio", "read_trc", ("fileio",), lambda a, r: {"rows": len(r.distance_m)}),
    ("fileio", "write_windows", ("fileio",), None),
    ("fileio", "read_windows", ("fileio",), None),
    ("fileio", "write_report_json", ("fileio",), None),
    ("fileio", "write_report_csv", ("fileio",), None),
    ("fileio", "export_geojson", ("fileio",),
     lambda a, r: {"features": len(r["features"])}),
    ("fileio", "write_geojson", ("fileio",), None),
    ("fileio", "load_config", ("fileio",), None),
    ("synthesizer", "simulate_run", ("synthesizer", "cli"), _trig_evals),
    ("synthesizer", "synth_profile", ("synthesizer", "cli"), None),
    ("synthesizer", "add_sensor_noise", ("synthesizer", "cli"), None),
    ("synthesizer", "add_impulses", ("synthesizer", "cli"), None),
    ("cli", "cmd_simulate", ("cli",), None),
    ("cli", "cmd_process", ("cli",), None),
    ("cli", "cmd_compare", ("cli",), None),
    ("cli", "cmd_export_geojson", ("cli",), None),
]


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                for key, value in counter(_bound(fn, args, kwargs), result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every TRACED function of `package` for the duration."""
        saved = []
        try:
            for module, func, sites, counter in TRACED:
                original = getattr(getattr(package, module), func)
                wrapper = self.wrap(f"{module}.{func}", original, counter)
                for site in sites:
                    mod = getattr(package, site)
                    saved.append((mod, func, getattr(mod, func)))
                    setattr(mod, func, wrapper)
            yield self
        finally:
            for mod, func, original in reversed(saved):
                setattr(mod, func, original)

    def self_times(self) -> dict:
        """Layer name -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def total(self, name: str) -> float:
        """Summed wall time of every span called `name`."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
