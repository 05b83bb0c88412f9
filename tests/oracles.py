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
from skelcal.perspective import (
    DEFAULT_BETA_JOINTS,
    HUBER_K,
    HUBER_PASSES,
    MAD_PER_SD,
    MAX_ABS_BETA_RAD,
    BetaModel,
    BetaPoint,
)
from skelcal.pipeline import CalibrationProfile
from skelcal.skeleton import SKELETON_EDGES, CaptureSequence, GaitDirection, JointIndex, Point3, SkeletonEdge
from skelcal.tilt import MIN_SPINE_RISE_M, TiltParams


#: Minimum first-to-last depth travel for joint_perspective_degree's estimate.
MIN_DEPTH_TRAVEL_M = 0.05


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


def dense_beta_points(slices: Sequence[np.ndarray], joints: Sequence[JointIndex], degree: int) -> list[BetaPoint]:
    """beta_points by a dense design: one indicator column per (gait, joint) beside the columns -z*y**d.

    The same passes as beta_points: a solve with unit weights, then HUBER_PASSES with Huber weights at the
    median over gaits of each gait's median |residual|, over MAD_PER_SD. Each solve is np.linalg.lstsq on
    the rows scaled by the square root of their weights.
    """
    y = np.concatenate([s[..., 1].ravel() for s in slices])
    z = np.concatenate([s[..., 2].ravel() for s in slices])
    gait = np.concatenate([np.full(s[..., 1].size, g) for g, s in enumerate(slices)])
    group = np.concatenate([g * len(joints) + np.tile(np.arange(len(joints)), len(s)) for g, s in enumerate(slices)])
    design = np.hstack([
        np.equal.outer(group, np.arange(len(slices) * len(joints))).astype(float),
        -z[:, None] * y[:, None] ** np.arange(degree + 1),
    ])
    w = np.ones_like(y)
    for _ in range(HUBER_PASSES + 1):
        root = np.sqrt(w)
        solution = np.linalg.lstsq(design * root[:, None], y * root, rcond=None)[0]
        r = y - design @ solution
        scale = np.median([np.median(np.abs(r[gait == g])) for g in range(len(slices))]) / MAD_PER_SD
        with np.errstate(divide="ignore"):
            w = np.minimum(1.0, HUBER_K * scale / np.abs(r)) if scale > 0 else np.ones_like(y)
    heights = solution[: -degree - 1].reshape(len(slices), len(joints)).mean(axis=0)
    betas = np.arctan(np.polynomial.polynomial.polyval(heights, solution[-degree - 1 :]))
    points = [BetaPoint(j, h, b) for j, h, b in zip(joints, heights.tolist(), betas.tolist())]
    return sorted(points, key=lambda p: (-p.height_y_m, int(p.joint)))


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
