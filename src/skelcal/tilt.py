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
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSpineError,
    EmptyInputError,
    MixedSignAnglesError,
    NoUsableFramesError,
    ZeroAngleError,
)
from .numerics import arithmetic_mean, geometric_mean
from .skeleton import CaptureSequence, JointIndex, Point3

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

    SHEAR_INVERSE is tilt_correct_point's exact inverse, y_raw = y - z*sin(a) - h
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
    """Sensor inclination (radians) and sensor height above ground (meters)."""

    tilt_rad: float
    sensor_height_m: float

    def __post_init__(self):
        if not (math.isfinite(self.tilt_rad) and abs(self.tilt_rad) < math.pi / 2):
            raise ValueError(f"tilt must satisfy |tilt| < pi/2, got {self.tilt_rad}")
        if not (math.isfinite(self.sensor_height_m) and self.sensor_height_m >= 0.0):
            raise ValueError(f"sensor height must be finite and >= 0, got {self.sensor_height_m}")


@dataclass(frozen=True)
class GaitInclination:
    """Per-frame inclination estimates of one gait and their arithmetic mean."""

    per_frame_rad: tuple[float, ...]
    mean_rad: float


def frame_inclination(joints: Sequence[Sequence[float]]) -> float:
    """Inclination of one frame's (25, 3) ``joints`` from its spine segment, in radians.

    Computed as atan2(z_base - z_mid, y_mid - y_base): the depth loss per unit
    height gain along the spine. Zero when the spine is vertically aligned in
    Z; positive when the upper spine joint reads closer to the sensor.
    """
    base, mid = joints[JointIndex.SPINE_BASE], joints[JointIndex.SPINE_MID]
    rise = mid[1] - base[1]
    if abs(rise) <= MIN_SPINE_RISE_M:
        raise DegenerateSpineError(f"spine height difference {rise} too small")
    return math.atan2(base[2] - mid[2], rise)


def gait_inclination(seq: CaptureSequence) -> GaitInclination:
    """Per-frame inclinations of a gait plus their mean.

    Frames with a degenerate spine (tracking glitch collapsing the two spine
    joints in Y) are skipped; the mean is over usable frames only. Each value
    equals frame_inclination of its frame.
    """
    base = seq.xyz[:, JointIndex.SPINE_BASE]
    mid = seq.xyz[:, JointIndex.SPINE_MID]
    rise = mid[:, 1] - base[:, 1]
    usable = ~(np.abs(rise) <= MIN_SPINE_RISE_M)  # a NaN rise is usable, as in frame_inclination
    if not usable.any():
        raise NoUsableFramesError(f"no frame of '{seq.label}' has a usable spine segment")
    # math.atan2 rather than np.arctan2, which differs from it in the last bit
    # on some inputs: the estimate stays bit-identical to the scalar oracle
    per_frame = tuple(
        map(math.atan2, (base[usable, 2] - mid[usable, 2]).tolist(), rise[usable].tolist())
    )
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


def tilt_correct_point(p: Sequence[float], params: TiltParams) -> Point3:
    """Correct one ``(x, y, z)`` point for sensor tilt and reference it to the ground plane.

    Z is corrected first from the raw Y; the corrected Z is then fed back into
    the Y correction together with the sensor height. X is untouched. Note the
    Y step intentionally uses the already-corrected Z, so the map is a shear,
    not a rigid rotation; it is exactly invertible (see distort_tilt).
    """
    x, y, z = p
    s = math.sin(params.tilt_rad)
    z_c = y * s + z
    y_c = z_c * s + y + params.sensor_height_m
    return Point3(x, y_c, z_c)


def tilt_correct_xyz(xyz: np.ndarray, params: TiltParams) -> np.ndarray:
    """tilt_correct_point applied to every ``(x, y, z)`` of ``xyz``, in a fresh array."""
    s = math.sin(params.tilt_rad)
    y, z = xyz[..., 1], xyz[..., 2]
    out = xyz.copy()
    y_c, z_c = out[..., 1], out[..., 2]
    # the float operations of tilt_correct_point, in its order, written into out's columns
    np.multiply(y, s, out=z_c)
    z_c += z
    np.multiply(z_c, s, out=y_c)
    y_c += y
    y_c += params.sensor_height_m
    return out


def tilt_correct_sequence(seq: CaptureSequence, params: TiltParams) -> CaptureSequence:
    """tilt_correct_point applied to every joint of every frame; metadata preserved."""
    return seq.with_xyz(tilt_correct_xyz(seq.xyz, params))


def distort_tilt(
    seq: CaptureSequence, params: TiltParams, model: TiltModel = TiltModel.SHEAR_INVERSE
) -> CaptureSequence:
    """Simulate a sensor tilted by ``params`` under ``model``, a TiltModel or its value."""
    a, h = params.tilt_rad, params.sensor_height_m
    s, c = math.sin(a), math.cos(a)
    x, y, z = seq.xyz[..., 0], seq.xyz[..., 1], seq.xyz[..., 2]
    if TiltModel(model) is TiltModel.SHEAR_INVERSE:
        y_raw = y - z * s - h
        z_raw = z - y_raw * s
    else:
        y_raw = y * c + z * s - h
        z_raw = z * c - y * s
    return seq.with_xyz(np.stack((x, y_raw, z_raw), axis=-1))
