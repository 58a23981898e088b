"""Track geometry estimation from on-board vibration measurements.

The package turns axle box or bogie acceleration records into chord
aligned track geometry: band limited double integration to displacement,
cross-correlation speed between front and back sensors, resampling onto
a fixed distance grid, chord alignment, and windowed severity summaries.
A synthesizer produces matching test runs with known ground truth.
"""

from .comparison import ComparisonReport, coregister, correlate
from .errors import (FormatError, GapTooLargeError, InsufficientDataError,
                     MissingChannelError, MixedLocationError, NoOverlapError,
                     NoValidSpeedError, PlanTooShortError, TooShortError,
                     TrackVibError, UndefinedCorrelationError)
from .fileio import (TrcData, export_geojson, load_config, read_record,
                     read_trc, read_windows, write_geojson, write_record,
                     write_report_csv, write_report_json, write_trc,
                     write_windows)
from .geometry import (WindowedStats, chord_alignment, select_cutoff,
                       transfer_function, windowed_max)
from .layout import SENSOR_SPECS, SensorSpec, column_name, parse_channel_id
from .pipeline import (ProcessOptions, ProcessResult, chord_ground_truth,
                       compare_trc, process_records)
from .spatial import (DistanceAxis, SpatialSeries, build_distance_axis,
                      moving, resample_to_space)
from .speed import DelayEstimate, SpeedProfile, estimate_delay, estimate_speed
from .synthesizer import (ImpulseEvent, SimConfig, SimResult, TrackProfile,
                          add_impulses, add_sensor_noise, simulate_run,
                          synth_profile)
from .timeseries import TimeSeries, decimate, double_integrate, merge_records

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport", "DelayEstimate",
    "DistanceAxis", "FormatError", "GapTooLargeError", "ImpulseEvent",
    "InsufficientDataError", "MissingChannelError", "MixedLocationError",
    "NoOverlapError", "NoValidSpeedError",
    "PlanTooShortError", "ProcessOptions", "ProcessResult", "SENSOR_SPECS",
    "SensorSpec", "SimConfig", "SimResult", "SpatialSeries",
    "SpeedProfile", "TimeSeries", "TooShortError",
    "TrackProfile", "TrackVibError", "TrcData", "UndefinedCorrelationError",
    "WindowedStats", "add_impulses", "add_sensor_noise",
    "build_distance_axis", "chord_alignment", "chord_ground_truth",
    "column_name", "compare_trc", "coregister", "correlate", "decimate",
    "double_integrate", "estimate_delay", "estimate_speed", "export_geojson",
    "load_config", "merge_records", "moving", "parse_channel_id",
    "process_records", "read_record",
    "read_trc", "read_windows", "resample_to_space", "select_cutoff",
    "simulate_run", "synth_profile", "transfer_function",
    "windowed_max", "write_geojson", "write_record", "write_report_csv",
    "write_report_json", "write_trc", "write_windows",
]
