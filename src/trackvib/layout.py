"""The layout of a run: the rules its records and tables follow.

The processing chain reads records and tables by these rules and the
simulator writes them by the same rules, so each is defined here once, at
the bottom of the package: this module imports no other of its modules
but errors.

Record: one channel of one sensor, named by channel_id
location-position-side-axis, whose last three parts come from POSITIONS,
SIDES and AXES. A .rec header may name its sensor, one of SENSOR_SPECS;
its range_g bounds the samples, in units of G.

Table: in a .trc table the first column is distance_m on the
TRC_SPACING_M grid; the others are SPEED_COLUMN and geometry columns
named by column_name, such as VA10_left_mm or HA7.5_right_mm. A geometry
column spelled otherwise (VA10.0_left_mm) is refused, so that tables match
column by column. The speed and geometry columns are published: rounded
to TRC_DECIMALS decimals by published, where they are made.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import MissingChannelError

G = 9.81
DEFAULT_WHEELBASE_M = 2.5

SIDES = ("left", "right")
POSITIONS = ("front", "back")
AXES = ("vertical", "lateral")


def channel_id(location: str, position: str, side: str, axis: str) -> str:
    """The id location-position-side-axis of a record."""
    return "-".join((location, position, side, axis))


def parse_channel_id(cid: str) -> dict:
    """The parts of a channel id location-position-side-axis, whose last
    three come from POSITIONS, SIDES and AXES."""
    parts = cid.split("-")
    if len(parts) != 4 or parts[1] not in POSITIONS or parts[2] not in SIDES \
            or parts[3] not in AXES:
        raise MissingChannelError(f"channel id {cid!r} does not follow "
                                  f"location-position-side-axis")
    return dict(zip(("location", "position", "side", "axis"), parts))


# The recording-car grid step: every distance grid and .trc table uses it.
TRC_SPACING_M = 0.25
TRC_DECIMALS = 6    # published resolution of a .trc: 1e-6 mm, 1e-6 m/s


def published(values) -> np.ndarray:
    """values rounded to the published resolution of a .trc column, as
    the speed and the geometry are made; NaN stays NaN."""
    return np.round(values, TRC_DECIMALS)


SPEED_COLUMN = "speed_mps"          # of a .trc table and of speed.csv
COLUMN_PREFIXES = ("VA", "HA")      # of a geometry column, per axis in AXES
GEOMETRY_COLUMN = re.compile(
    rf"^({'|'.join(COLUMN_PREFIXES)})(\d+(?:\.\d+)?)_({'|'.join(SIDES)})_mm$")


def column_name(chord_d_m: float, side: str, axis: str) -> str:
    """The .trc geometry column of a chord on one rail and axis, such as
    VA10_left_mm; a .trc with any other spelling of it is refused."""
    return f"{COLUMN_PREFIXES[AXES.index(axis)]}{chord_d_m:g}_{side}_mm"


@dataclass(frozen=True)
class SensorSpec:
    """Accelerometer model: clipping range and white noise floor."""

    name: str
    location: str            # carbody | bogie | axlebox
    range_g: float
    noise_floor_ug_sqrthz: float

    def noise_sigma(self, sample_rate_hz: float) -> float:
        """Std dev in m/s^2 of the noise floor sampled at the given rate."""
        return self.noise_floor_ug_sqrthz * 1e-6 * G * np.sqrt(sample_rate_hz / 2.0)


SENSOR_SPECS = {
    "carbody_mems": SensorSpec("carbody_mems", "carbody", 3.0, 150.0),
    "bogie_mems": SensorSpec("bogie_mems", "bogie", 16.0, 300.0),
    "axlebox_mems": SensorSpec("axlebox_mems", "axlebox", 200.0, 2700.0),
    "carbody_iepe": SensorSpec("carbody_iepe", "carbody", 50.0, 3.0),
    "bogie_iepe": SensorSpec("bogie_iepe", "bogie", 50.0, 3.0),
    "axlebox_iepe": SensorSpec("axlebox_iepe", "axlebox", 500.0, 16.0),
}
