"""Sensor inclination estimation from the spine segment, the tilt correction and its inverse.

The inclination estimate reads the base-of-spine -> middle-of-spine segment of
each frame. Sign convention: positive tilt means higher joints read *smaller*
depth than lower ones (sensor pitched down toward the subject), which is the
orientation the Y/Z correction below compensates. A vertically aligned spine
yields zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    MixedSignAnglesError,
    NoUsableFramesError,
    TiltOutOfRangeError,
    ZeroAngleError,
)
from .numerics import arithmetic_mean, geometric_mean
from .skeleton import CaptureSequence, JointIndex

#: Minimum spine height difference for a usable inclination estimate.
MIN_SPINE_RISE_M = 1e-6
#: Gait means all below this magnitude are treated as an untilted sensor.
NEAR_ZERO_TILT_RAD = 1e-4
#: Gait means of both signs, each within this many standard errors of its
#: per-frame estimates from zero, are treated as an untilted sensor too. On
#: level 90-frame gaits with 5 mm noise, |mean| / standard error had an RMS of
#: 1.00 and a maximum of 2.97 over 300 seeds, so the standard error is the
#: noise scale of the mean, and a level gait passes 5 of them about once in
#: 1.7 million gaits.
NEAR_ZERO_STANDARD_ERRORS = 5.0


class TiltModel(Enum):
    """How distort_tilt simulates a sensor tilted by angle a at height h.

    SHEAR_INVERSE is tilt_correct_xyz's exact inverse, y_raw = y - z*sin(a) - h
    then z_raw = z - y_raw*sin(a), so correcting with the injected parameters
    recovers ground truth to rounding error. ROTATION is the physically honest
    rigid rotation of (y, z) by -a about the sensor, less h in y. The
    shear-style correction leaves a residual on it that is first order in a:
    with the injected parameters it moves Y by about 2*z*sin(a) and Z by about
    -h*sin(a), which at a = 7 degrees, h = 0.75 m and z = 3 m is 0.72 m in Y and
    -0.07 m in Z. That is the point of the model: it separates "implemented
    faithfully" from "physically exact".
    """

    SHEAR_INVERSE = "shear"
    ROTATION = "rotation"


@dataclass(frozen=True)
class TiltParams:
    """Sensor inclination (radians, in (-pi/2, pi/2)) and sensor height above ground (meters, >= 0)."""

    tilt_rad: float
    sensor_height_m: float

    def __post_init__(self):
        if not abs(self.tilt_rad) < math.pi / 2:
            raise TiltOutOfRangeError(f"tilt must satisfy |tilt| < pi/2, got {self.tilt_rad}")
        if not (math.isfinite(self.sensor_height_m) and self.sensor_height_m >= 0.0):
            raise ValueError(f"sensor height must be finite and >= 0, got {self.sensor_height_m}")


class GaitInclination(NamedTuple):
    """Per-frame inclination estimates of one gait and their arithmetic mean."""

    per_frame_rad: tuple[float, ...]
    mean_rad: float


def gait_inclination(seq: CaptureSequence) -> GaitInclination:
    """Per-frame inclinations of a gait plus their mean.

    A frame is usable when its spine rises, y_mid - y_base > MIN_SPINE_RISE_M,
    and neither its rise nor its drop overflows: a spine that collapses or
    inverts in Y is a tracking glitch. Each value is atan2(z_base - z_mid,
    y_mid - y_base) of a usable frame, so it lies in (-pi/2, pi/2) up to rounding
    (a drop some 1e16 times the rise reads +-pi/2); the mean is over usable frames.
    """
    base = seq.xyz[:, JointIndex.SPINE_BASE]
    mid = seq.xyz[:, JointIndex.SPINE_MID]
    with np.errstate(over="ignore"):
        rise = mid[:, 1] - base[:, 1]
        drop = base[:, 2] - mid[:, 2]
    usable = np.isfinite(rise) & np.isfinite(drop) & (rise > MIN_SPINE_RISE_M)
    if not usable.any():
        raise NoUsableFramesError("no frame has a usable spine segment")
    # math.atan2 rather than np.arctan2, which differs from it in the last bit
    # on some inputs: each estimate stays bit-identical to a per-frame math.atan2
    per_frame = tuple(map(math.atan2, drop[usable].tolist(), rise[usable].tolist()))
    return GaitInclination(per_frame, arithmetic_mean(per_frame))


def aggregate_inclination(gait_means: Sequence[float]) -> float:
    """Combine per-gait mean inclinations into one angle via the geometric mean.

    The geometric mean is taken over magnitudes with the common sign
    reattached. Mixed signs across gaits indicate an inconsistent setup and
    are an error, as is an exactly-zero gait mean.
    """
    if len(gait_means) == 0:
        raise EmptyInputError("no gait means to aggregate")
    for m in gait_means:
        if m == 0.0:
            raise ZeroAngleError("gait mean inclination of exactly 0 cannot be aggregated")
    signs = {math.copysign(1.0, m) for m in gait_means}
    if len(signs) > 1:
        raise MixedSignAnglesError(f"gait means disagree in sign: {list(gait_means)}")
    return math.copysign(geometric_mean([abs(m) for m in gait_means]), gait_means[0])


def _near_zero(gait: GaitInclination) -> bool:
    """Whether a gait's mean inclination cannot be told from zero.

    That is below NEAR_ZERO_TILT_RAD, or within NEAR_ZERO_STANDARD_ERRORS
    standard errors of the gait's per-frame estimates.
    """
    n = len(gait.per_frame_rad)
    standard_error = float(np.std(gait.per_frame_rad, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return abs(gait.mean_rad) < max(NEAR_ZERO_TILT_RAD, NEAR_ZERO_STANDARD_ERRORS * standard_error)


def estimate_tilt(estimates: Sequence[GaitInclination]) -> float:
    """The sensor tilt from per-gait inclinations: ``aggregate_inclination`` of
    their means, or 0 for a level sensor.

    When every gait mean is below NEAR_ZERO_TILT_RAD the sensor is treated as
    untilted and aggregation is skipped (its geometric mean is meaningless at
    the noise floor). So it is when the means disagree in sign but none can be
    told from zero (see ``_near_zero``): tracking noise alone scatters a level
    sensor's means about 0. Means of one sign are always aggregated, however
    small; means of both signs of which one can be told from zero raise
    MixedSignAnglesError.
    """
    means = [e.mean_rad for e in estimates]
    if means and all(abs(m) < NEAR_ZERO_TILT_RAD for m in means):
        return 0.0
    try:
        return aggregate_inclination(means)
    except MixedSignAnglesError:
        if not all(map(_near_zero, estimates)):
            raise
        return 0.0


def tilt_correct_xyz(xyz: np.ndarray, params: TiltParams) -> np.ndarray:
    """Correct every ``(x, y, z)`` of ``xyz`` for tilt a and sensor height h, in a fresh array:
    z_c = y*sin(a) + z, then y_c = z_c*sin(a) + y + h, a shear that distort_tilt inverts."""
    s = math.sin(params.tilt_rad)
    out = xyz.copy()
    with np.errstate(over="ignore"):  # an overflow leaves an inf, which validating the result reports
        out[..., 2] = xyz[..., 1] * s + xyz[..., 2]
        out[..., 1] = out[..., 2] * s + xyz[..., 1] + params.sensor_height_m
    return out


def tilt_correct_sequence(seq: CaptureSequence, params: TiltParams) -> CaptureSequence:
    """tilt_correct_xyz applied to every joint of every frame; metadata preserved."""
    return seq.with_xyz(tilt_correct_xyz(seq.xyz, params))


def distort_tilt(
    seq: CaptureSequence, params: TiltParams, model: TiltModel = TiltModel.SHEAR_INVERSE
) -> CaptureSequence:
    """Simulate a sensor tilted by ``params`` under ``model``, a TiltModel or its value."""
    a, h = params.tilt_rad, params.sensor_height_m
    s, c = math.sin(a), math.cos(a)
    x, y, z = seq.xyz[..., 0], seq.xyz[..., 1], seq.xyz[..., 2]
    with np.errstate(over="ignore"):  # an overflow leaves an inf, which with_xyz reports
        if TiltModel(model) is TiltModel.SHEAR_INVERSE:
            y_raw = y - z * s - h
            z_raw = z - y_raw * s
        else:
            y_raw = y * c + z * s - h
            z_raw = z * c - y * s
    return seq.with_xyz(np.stack((x, y_raw, z_raw), axis=-1))
