"""Two-stage calibration over a set of vertical gaits, and profile application.

Stage order is fixed: the inclination angle is estimated and applied first,
then perspective angles are estimated from the tilt-corrected gaits. Applying
a profile repeats that order on any capture. Everything is deterministic:
identical inputs yield an identical profile and identical corrected output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CalibrationError, EmptyInputError, MixedSignAnglesError
from .perspective import (
    BetaModel,
    DEFAULT_BETA_JOINTS,
    fit_beta_model,
    mean_perspective_degrees,
    perspective_correct_xyz,
)
from .skeleton import CaptureSequence, JointIndex
from .tilt import (
    GaitInclination,
    TiltParams,
    aggregate_inclination,
    gait_inclination,
    tilt_correct_sequence,
    tilt_correct_xyz,
)

#: Gait means all below this magnitude are treated as an untilted sensor.
NEAR_ZERO_TILT_RAD = 1e-4
#: Gait means of both signs, each within this many standard errors of its
#: per-frame estimates from zero, are treated as an untilted sensor too. On
#: level 90-frame gaits with 5 mm noise, |mean| / standard error had an RMS of
#: 1.00 and a maximum of 2.97 over 300 seeds, so the standard error is the
#: noise scale of the mean, and a level gait passes 5 of them about once in
#: 1.7 million gaits.
NEAR_ZERO_STANDARD_ERRORS = 5.0


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


def _near_zero(gait: GaitInclination) -> bool:
    """Whether a gait's mean inclination cannot be told from zero.

    That is below NEAR_ZERO_TILT_RAD, or within NEAR_ZERO_STANDARD_ERRORS
    standard errors of the gait's per-frame estimates.
    """
    n = len(gait.per_frame_rad)
    standard_error = float(np.std(gait.per_frame_rad, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return abs(gait.mean_rad) < max(NEAR_ZERO_TILT_RAD, NEAR_ZERO_STANDARD_ERRORS * standard_error)


def _staged(exc: CalibrationError, stage: str) -> CalibrationError:
    exc.stage = stage
    return exc


def calibrate(
    vertical_gaits: Sequence[CaptureSequence],
    sensor_height_m: float,
    config: PipelineConfig = PipelineConfig(),
    created_label: str = "",
) -> CalibrationProfile:
    """Run both calibration stages over the vertical calibration gaits.

    Estimates the per-gait inclination means, aggregates them, tilt-corrects
    every gait with the aggregate and the measured sensor height, estimates
    per-joint perspective angles from the corrected gaits, and fits the
    height polynomial. When every gait mean is below the near-zero threshold
    the sensor is treated as untilted and the aggregation step is skipped
    (its geometric mean is meaningless at the noise floor). So it is when the
    means disagree in sign but none can be told from zero (see
    ``_near_zero``): tracking noise alone scatters a level sensor's means
    about 0. Means of one sign are always aggregated, however small.

    The gaits need no check of their own, since every ``CaptureSequence`` is
    valid. A negative or non-finite ``sensor_height_m`` is a ValueError,
    raised by ``TiltParams`` before any estimation runs.
    """
    if len(vertical_gaits) == 0:
        raise EmptyInputError("no calibration gaits given")
    TiltParams(0.0, sensor_height_m)  # rejects a negative or non-finite height before estimation

    try:
        estimates = [gait_inclination(g) for g in vertical_gaits]
        means = [e.mean_rad for e in estimates]
        if all(abs(m) < NEAR_ZERO_TILT_RAD for m in means):
            tilt_rad = 0.0
        else:
            try:
                tilt_rad = aggregate_inclination(means)
            except MixedSignAnglesError:
                if not all(map(_near_zero, estimates)):
                    raise
                tilt_rad = 0.0
    except CalibrationError as exc:
        raise _staged(exc, "tilt-estimation")

    tilt = TiltParams(tilt_rad, sensor_height_m)
    corrected = [tilt_correct_sequence(g, tilt) for g in vertical_gaits]

    try:
        points = mean_perspective_degrees(corrected, config.beta_joints)
        beta = fit_beta_model(points, config.beta_degree)
    except CalibrationError as exc:
        raise _staged(exc, "perspective-estimation")

    return CalibrationProfile(tilt, beta, len(vertical_gaits), created_label)


def apply_profile(seq: CaptureSequence, profile: CalibrationProfile) -> CaptureSequence:
    """Correct a capture with a profile: tilt first, then perspective.

    Not idempotent: the tilt stage re-adds the sensor height each time, so a
    profile must be applied exactly once to a raw capture. Both stages write
    into one fresh array; the result is bit-identical to
    ``perspective_correct_sequence(tilt_correct_sequence(seq, tilt), beta)``.
    Like any ``CaptureSequence``, the result is validated as it is built, so
    a correction that overflows raises ``NonFiniteCoordinateError``.
    """
    return seq.with_xyz(perspective_correct_xyz(tilt_correct_xyz(seq.xyz, profile.tilt), profile.beta))
