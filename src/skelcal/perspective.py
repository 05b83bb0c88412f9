"""Height-dependent perspective estimation, the Y-coordinate correction and its inverse.

As a subject approaches the sensor, each joint's apparent Y drifts by an
amount proportional to depth; the drift angle depends on the joint's height.
The angle is estimated per joint from the first and last frame of a
tilt-corrected walk toward the sensor, averaged across calibration gaits,
and fitted as a polynomial in height. Correction adds z * tan(angle) back to
each Y, with the angle read from the polynomial at the point's incoming Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BetaOutOfRangeError,
    FixedPointDivergenceError,
    NoUsableGaitsError,
    WrongDirectionError,
)
from .numerics import Polynomial, arithmetic_mean, polyeval, polyfit_least_squares
from .skeleton import CaptureSequence, GaitDirection, JointIndex

#: Minimum first-to-last depth travel for a usable estimate.
MIN_DEPTH_TRAVEL_M = 0.05
#: Largest |angle| a correction accepts: tan grows without bound toward pi/2.
MAX_ABS_BETA_RAD = math.pi / 2 - 1e-6
#: Iteration cap and convergence step of distort_perspective's fixed-point solve.
FIXED_POINT_ITERATIONS = 50
FIXED_POINT_TOLERANCE = 1e-10

#: Default joint subset for estimation: torso chain, head, knees, ankles —
#: stable landmarks spanning the body's height top to bottom.
DEFAULT_BETA_JOINTS: tuple[JointIndex, ...] = (
    JointIndex.HEAD,
    JointIndex.NECK,
    JointIndex.SPINE_SHOULDER,
    JointIndex.SPINE_MID,
    JointIndex.SPINE_BASE,
    JointIndex.KNEE_LEFT,
    JointIndex.KNEE_RIGHT,
    JointIndex.ANKLE_LEFT,
    JointIndex.ANKLE_RIGHT,
)


@dataclass(frozen=True)
class BetaPoint:
    """Mean perspective angle of one joint at its representative height."""

    joint: JointIndex
    height_y_m: float
    beta_rad: float

    def __post_init__(self):
        object.__setattr__(self, "joint", JointIndex(self.joint))  # a ValueError outside 0-24
        if not math.isfinite(self.height_y_m):
            raise ValueError(f"height must be finite: {self.height_y_m}")
        if not (math.isfinite(self.beta_rad) and abs(self.beta_rad) < math.pi / 2):
            raise ValueError(f"perspective angle out of range: {self.beta_rad}")


@dataclass(frozen=True)
class BetaModel:
    """Fitted polynomial mapping height (m) to perspective angle (rad)."""

    poly: Polynomial
    fit_degree: int
    source_points: tuple[BetaPoint, ...]

    def __post_init__(self):
        if not isinstance(self.source_points, tuple):
            object.__setattr__(self, "source_points", tuple(self.source_points))
        if self.fit_degree != self.poly.degree:
            raise ValueError(
                f"fit_degree {self.fit_degree} != polynomial degree {self.poly.degree}"
            )
        if len(self.source_points) <= self.fit_degree:
            raise ValueError("need more source points than the fit degree")


def mean_perspective_degrees(
    seqs: Sequence[CaptureSequence],
    joints: Sequence[JointIndex | int] = DEFAULT_BETA_JOINTS,
) -> list[BetaPoint]:
    """Per-joint mean perspective angles across the vertical calibration gaits:
    ``beta_points`` of the vertical gaits' ``xyz[:, joints]``."""
    joints = [JointIndex(j) for j in joints]
    return beta_points([s.xyz[:, joints] for s in seqs if s.direction is GaitDirection.VERTICAL], joints)


def beta_points(slices: Sequence[np.ndarray], joints: Sequence[JointIndex]) -> list[BetaPoint]:
    """Per-joint mean perspective angles from tilt-corrected vertical gaits' slices ``xyz[:, joints]``.

    A joint's angle in one gait is atan((y_last - y_first) / (z_first - z_last))
    over the slice's end frames: the Y it picks up per metre of depth it loses,
    positive when the far reading is too low. It is averaged over the gaits
    where |z_first - z_last| > MIN_DEPTH_TRAVEL_M; its height is its mean Y
    over all frames of all slices. Points come back ordered top to bottom by
    height. No slice at all raises WrongDirectionError: no gait is vertical.
    """
    if not slices:
        raise WrongDirectionError("no vertical gait among the calibration sequences")
    ends = [s[[0, -1]].tolist() for s in slices]
    points = []
    for k, idx in enumerate(joints):
        betas = []
        for first, last in ends:
            (_, y_first, z_first), (_, y_last, z_last) = first[k], last[k]
            depth_travel = z_first - z_last
            if abs(depth_travel) > MIN_DEPTH_TRAVEL_M:
                betas.append(math.atan((y_last - y_first) / depth_travel))
        if not betas:
            raise NoUsableGaitsError(idx)
        heights = np.concatenate([s[:, k, 1] for s in slices])
        points.append(BetaPoint(idx, arithmetic_mean(heights), arithmetic_mean(betas)))
    points.sort(key=lambda p: (-p.height_y_m, int(p.joint)))
    return points


def fit_beta_model(points: Sequence[BetaPoint], degree: int) -> BetaModel:
    """Fit the height -> perspective angle polynomial over the given points."""
    fit = polyfit_least_squares([p.height_y_m for p in points], [p.beta_rad for p in points], degree)
    return BetaModel(fit, degree, tuple(points))


def _check_angles(beta: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
    """Raise BetaOutOfRangeError at the first angle that no correction accepts."""
    # the extremes skip NaN and build no array the size of beta
    highest = np.fmax.reduce(beta, None, initial=-np.inf)
    lowest = np.fmin.reduce(beta, None, initial=np.inf)
    if highest >= MAX_ABS_BETA_RAD or lowest <= -MAX_ABS_BETA_RAD:
        k = np.flatnonzero(np.abs(beta) >= MAX_ABS_BETA_RAD)[0]
        raise BetaOutOfRangeError(
            f"angle {beta.flat[k]} rad too close to pi/2 at y={y.flat[k]}, z={z.flat[k]}"
        )


def perspective_correct_xyz(xyz: np.ndarray, model: BetaModel) -> np.ndarray:
    """y += z * tan(the model's angle at y) for every ``(x, y, z)`` of ``xyz``, in place; returns ``xyz``.

    Raises before ``xyz`` is written if any angle is out of range.
    """
    y, z = xyz[..., 1], xyz[..., 2]
    beta = polyeval(model.poly, y)
    _check_angles(beta, y, z)
    # y + z * tan(beta), with tan(beta) and its product with z computed in place
    shift = np.tan(beta, out=beta)
    shift *= z
    y += shift
    return xyz


def perspective_correct_sequence(seq: CaptureSequence, model: BetaModel) -> CaptureSequence:
    """perspective_correct_xyz applied to a copy of every joint of every frame."""
    return seq.with_xyz(perspective_correct_xyz(seq.xyz.copy(), model))


# math.tan per element: np.tan may differ in the last bit, and generated captures are pinned by SHA-256
_tan = np.vectorize(math.tan, otypes=[float])


def distort_perspective(seq: CaptureSequence, beta_poly: Polynomial) -> CaptureSequence:
    """Simulate height-dependent perspective drift of Y.

    Solves y_raw = y_true - z*tan(beta(y_raw)) per point by fixed-point
    iteration, sampling the angle at the *raw* height so the perspective
    correction with the same polynomial inverts this exactly. A point keeps
    the first iterate within FIXED_POINT_TOLERANCE of the one before it, and
    an angle that no correction accepts raises BetaOutOfRangeError.
    """
    x, y, z = seq.xyz[..., 0], seq.xyz[..., 1], seq.xyz[..., 2]
    y_raw = y
    pending = np.ones(y.shape, dtype=bool)
    # a runaway iterate may overflow, silently as it does in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(FIXED_POINT_ITERATIONS):
            y_next = y - z * _tan(polyeval(beta_poly, y_raw))
            converged = np.abs(y_next - y_raw) < FIXED_POINT_TOLERANCE
            y_raw = np.where(pending, y_next, y_raw)
            pending &= ~converged
            if not pending.any():
                break
        else:
            k = np.flatnonzero(pending)[0]
            raise FixedPointDivergenceError(
                f"no convergence after {FIXED_POINT_ITERATIONS} iterations at y={y.flat[k]}, z={z.flat[k]}"
            )
        beta = polyeval(beta_poly, y_raw)
    _check_angles(beta, y, z)
    return seq.with_xyz(np.stack((x, y_raw, z), axis=-1))
