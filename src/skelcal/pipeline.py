"""Two-stage calibration over a set of vertical gaits, and profile application.

Stage order is fixed: the inclination angle is estimated and applied first,
then perspective angles are estimated from the tilt-corrected gaits. Applying
a profile repeats that order on any capture. Everything is deterministic:
identical inputs yield an identical profile and identical corrected output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyInputError, tagged
from .perspective import (
    BetaModel,
    DEFAULT_BETA_JOINTS,
    beta_points,
    fit_beta_model,
    perspective_correct_xyz,
)
from .skeleton import CaptureSequence, GaitDirection, JointIndex, check_finite
from .tilt import TiltParams, estimate_tilt, gait_inclination, tilt_correct_xyz


@dataclass(frozen=True)
class PipelineConfig:
    beta_degree: int = 2
    beta_joints: tuple[JointIndex, ...] = DEFAULT_BETA_JOINTS

    def __post_init__(self):
        if not 1 <= self.beta_degree <= 6:
            raise ValueError(f"beta_degree must be in [1, 6], got {self.beta_degree}")
        joints = tuple(JointIndex(j) for j in self.beta_joints)
        for i, j in enumerate(joints):
            if j in joints[:i]:
                raise ValueError(f"joint {int(j)} is listed twice in beta_joints")
        object.__setattr__(self, "beta_joints", joints)


@dataclass(frozen=True)
class CalibrationProfile:
    """Everything needed to correct a capture: tilt parameters and the fitted
    height -> perspective-angle model, plus provenance."""

    tilt: TiltParams
    beta: BetaModel
    gait_count: int
    created_label: str = ""

    def __post_init__(self):
        if self.gait_count < 1:
            raise ValueError("profile must come from at least one gait")


def calibrate(
    vertical_gaits: Iterable[CaptureSequence],
    sensor_height_m: float,
    config: PipelineConfig = PipelineConfig(),
    created_label: str = "",
) -> CalibrationProfile:
    """Run both calibration stages over the vertical calibration gaits.

    Estimates the sensor tilt from the per-gait inclinations (see
    ``estimate_tilt``), tilt-corrects the gaits with it and the measured
    sensor height, estimates per-joint perspective angles from the corrected
    gaits, and fits the height polynomial. An error raised in a stage names
    it: "tilt-estimation", "tilt-correction" or "perspective-estimation".

    ``vertical_gaits`` may be any iterable; it is read once, keeping of each gait its
    inclinations and, if it is vertical, the slice ``xyz[:, config.beta_joints]``, which alone
    is corrected and checked by ``validate_sequence``'s rule. A negative or non-finite
    ``sensor_height_m`` is a ValueError, raised by ``TiltParams`` before the first gait is read.
    """
    TiltParams(0.0, sensor_height_m)  # rejects a negative or non-finite height before estimation
    joints = list(config.beta_joints)
    inclinations, kept = [], []
    for gait in vertical_gaits:  # read outside the stage tags: a file's own error names no stage
        with tagged(stage="tilt-estimation"):
            inclinations.append(gait_inclination(gait))
        if gait.direction is GaitDirection.VERTICAL:
            kept.append((gait.frame_index, gait.xyz[:, joints]))
        del gait  # not held while the next one is read
    if not inclinations:
        raise EmptyInputError("no calibration gaits given")
    with tagged(stage="tilt-estimation"):
        tilt = TiltParams(estimate_tilt(inclinations), sensor_height_m)
    # an overflow is reported as a NonFiniteCoordinateError, not as a warning
    with tagged(stage="tilt-correction"), np.errstate(over="ignore", invalid="ignore"):
        for i, (frame_index, xyz) in enumerate(kept):
            kept[i] = frame_index, tilt_correct_xyz(xyz, tilt)  # the raw slice is dropped
            check_finite(kept[i][1], frame_index, joints)
    with tagged(stage="perspective-estimation"):
        beta = fit_beta_model(beta_points([xyz for _, xyz in kept], joints), config.beta_degree)
    return CalibrationProfile(tilt, beta, len(inclinations), created_label)


def apply_profile(seq: CaptureSequence, profile: CalibrationProfile) -> CaptureSequence:
    """Correct a capture with a profile: tilt first, then perspective.

    Not idempotent: the tilt stage re-adds the sensor height each time, so a
    profile must be applied exactly once to a raw capture. Both stages write
    into one fresh array; the result is bit-identical to
    ``perspective_correct_sequence(tilt_correct_sequence(seq, tilt), beta)``.
    Like any ``CaptureSequence``, the result is validated as it is built, so
    a correction that overflows raises ``NonFiniteCoordinateError``, tagged
    with the stage "correction", and no numpy warning.
    """
    with tagged(stage="correction"), np.errstate(over="ignore", invalid="ignore"):
        return seq.with_xyz(perspective_correct_xyz(tilt_correct_xyz(seq.xyz, profile.tilt), profile.beta))
