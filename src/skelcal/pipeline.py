"""Two-stage calibration over a set of vertical gaits, and profile application.

Stage order is fixed: the inclination angle is estimated and applied first,
then perspective angles are estimated from the tilt-corrected gaits. Applying
a profile repeats that order on any capture. Everything is deterministic:
identical inputs yield an identical profile and identical corrected output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, tagged
from .perspective import (
    BetaModel,
    DEFAULT_BETA_JOINTS,
    fit_beta_model,
    mean_perspective_degrees,
    perspective_correct_xyz,
)
from .skeleton import CaptureSequence, JointIndex
from .tilt import TiltParams, estimate_tilt, gait_inclination, tilt_correct_sequence, tilt_correct_xyz


@dataclass(frozen=True)
class PipelineConfig:
    beta_degree: int = 2
    beta_joints: tuple[JointIndex, ...] = DEFAULT_BETA_JOINTS

    def __post_init__(self):
        if not 1 <= self.beta_degree <= 6:
            raise ValueError(f"beta_degree must be in [1, 6], got {self.beta_degree}")
        object.__setattr__(self, "beta_joints", tuple(JointIndex(j) for j in self.beta_joints))


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
    vertical_gaits: Sequence[CaptureSequence],
    sensor_height_m: float,
    config: PipelineConfig = PipelineConfig(),
    created_label: str = "",
) -> CalibrationProfile:
    """Run both calibration stages over the vertical calibration gaits.

    Estimates the sensor tilt from the per-gait inclinations (see
    ``estimate_tilt``), tilt-corrects every gait with it and the measured
    sensor height, estimates per-joint perspective angles from the corrected
    gaits, and fits the height polynomial. An error raised in a stage names
    it: "tilt-estimation", "tilt-correction" or "perspective-estimation".

    The gaits need no check of their own, since every ``CaptureSequence`` is
    valid. A negative or non-finite ``sensor_height_m`` is a ValueError,
    raised by ``TiltParams`` before any estimation runs.
    """
    if len(vertical_gaits) == 0:
        raise EmptyInputError("no calibration gaits given")
    TiltParams(0.0, sensor_height_m)  # rejects a negative or non-finite height before estimation

    with tagged(stage="tilt-estimation"):
        tilt = TiltParams(estimate_tilt([gait_inclination(g) for g in vertical_gaits]), sensor_height_m)
    # an overflow is reported as the NonFiniteCoordinateError of the corrected gait, not as a warning
    with tagged(stage="tilt-correction"), np.errstate(over="ignore", invalid="ignore"):
        corrected = [tilt_correct_sequence(g, tilt) for g in vertical_gaits]
    with tagged(stage="perspective-estimation"):
        beta = fit_beta_model(mean_perspective_degrees(corrected, config.beta_joints), config.beta_degree)
    return CalibrationProfile(tilt, beta, len(vertical_gaits), created_label)


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
