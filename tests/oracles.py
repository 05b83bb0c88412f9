"""Scalar references for the array stages: one frame, point or joint at a time, in plain Python floats.

No skelcal command calls these. The tests compare the package's whole-array
transforms against them, bit for bit where the array code promises it.
``max_y_diff`` is the one-number Y drift that the end-to-end tests bound, and
``beta_error_deg`` the one-number β error of a profile against the true polynomial.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from skelcal.diagnostics import y_diff_to_last
from skelcal.errors import BetaOutOfRangeError, CalibrationError, WrongDirectionError
from skelcal.numerics import Polynomial, polyeval
from skelcal.perspective import DEFAULT_BETA_JOINTS, MAX_ABS_BETA_RAD, MIN_DEPTH_TRAVEL_M, BetaModel
from skelcal.pipeline import CalibrationProfile
from skelcal.skeleton import SKELETON_EDGES, CaptureSequence, GaitDirection, JointIndex, Point3, SkeletonEdge
from skelcal.tilt import MIN_SPINE_RISE_M, TiltParams


class DegenerateSpineError(CalibrationError):
    pass


class InsufficientDepthTravelError(CalibrationError):
    pass


def frame_inclination(joints: Sequence[Sequence[float]]) -> float:
    """Inclination of one frame's (25, 3) ``joints`` from its spine segment, in radians.

    Computed as atan2(z_base - z_mid, y_mid - y_base): the depth loss per unit
    height gain along the spine. Zero when the spine is vertically aligned in
    Z; positive when the upper spine joint reads closer to the sensor. A spine
    that does not rise by more than MIN_SPINE_RISE_M, or a rise or drop beyond
    float64's range, is degenerate.
    """
    base, mid = joints[JointIndex.SPINE_BASE], joints[JointIndex.SPINE_MID]
    rise, drop = mid[1] - base[1], base[2] - mid[2]
    if not (rise > MIN_SPINE_RISE_M and math.isfinite(rise) and math.isfinite(drop)):
        raise DegenerateSpineError(f"spine rise {rise} and drop {drop} give no inclination")
    return math.atan2(drop, rise)


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


def joint_perspective_degree(seq: CaptureSequence, j: JointIndex | int) -> float:
    """Perspective angle of joint ``j`` from the first and last frame, radians.

    atan of (Y picked up per meter of depth lost) between the two end frames:
    positive when the far reading is too low. Only meaningful on a
    tilt-corrected walk toward the sensor with enough depth travel.
    """
    if seq.direction is not GaitDirection.VERTICAL:
        raise WrongDirectionError(
            f"perspective estimation needs a vertical gait, got {seq.direction.value}"
        )
    idx = JointIndex(j)
    (_, y_first, z_first), (_, y_last, z_last) = seq.xyz[[0, -1], idx].tolist()
    depth_travel = z_first - z_last
    if abs(depth_travel) <= MIN_DEPTH_TRAVEL_M:
        raise InsufficientDepthTravelError(
            f"joint {idx}: |depth travel| {abs(depth_travel):.4f} m <= {MIN_DEPTH_TRAVEL_M} m"
        )
    return math.atan((y_last - y_first) / depth_travel)


def perspective_correct_point(p: Sequence[float], model: BetaModel) -> Point3:
    """Correct one ``(x, y, z)`` point's Y: y + z * tan(angle at the incoming y). X, Z unchanged."""
    x, y, z = p
    beta = polyeval(model.poly, y)
    if abs(beta) >= MAX_ABS_BETA_RAD:
        raise BetaOutOfRangeError(f"angle {beta} rad too close to pi/2 at y={y}")
    return Point3(x, y + z * math.tan(beta), z)


def bone_lengths(joints: Sequence[Sequence[float]]) -> list[tuple[SkeletonEdge, float]]:
    """Euclidean length of each of the 24 skeleton edges in one frame's (25, 3) ``joints``."""
    return [(edge, math.dist(joints[edge.parent], joints[edge.child])) for edge in SKELETON_EDGES]


def max_y_diff(seq: CaptureSequence, joints: Sequence[JointIndex | int] = DEFAULT_BETA_JOINTS) -> float:
    """Largest |y - y_last| over the given joints and all frames."""
    return max(float(np.abs(series.per_frame_diff).max()) for series in y_diff_to_last(seq, joints))


def beta_error_deg(profile: CalibrationProfile, beta_true: Polynomial) -> float:
    """The largest |β_fit - β_true| of ``profile`` over y in [0.05, 1.7] m, in degrees."""
    y = np.linspace(0.05, 1.7, 166)
    fit = np.polynomial.polynomial.polyval(y, profile.beta.poly.coefficients)
    return math.degrees(np.abs(fit - np.polynomial.polynomial.polyval(y, beta_true.coefficients)).max())
