"""Synthetic ground-truth captures and the raw captures distorted from them.

Every calibration stage gets an oracle from here: a rigid body template walks
a straight path while limbs swing as pendulums about their sockets (bone
lengths stay exact), and apply_distortion composes the tilt and perspective
distortions, each defined beside the correction it inverts, with sensor noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScenarioError
from .numerics import Polynomial
from .perspective import distort_perspective
from .skeleton import JOINT_COUNT, SKELETON_EDGES, CaptureSequence, GaitDirection, JointIndex, Point3
from .tilt import TiltModel, TiltParams, distort_tilt

_J = JointIndex

#: Frame rate of generated captures, Hz: it sets how many gait cycles a walk holds.
FRAME_RATE_HZ = 30.0
#: Stride length of every generated walk, meters: it sets the leg swing amplitude.
STRIDE_LENGTH_M = 0.3
#: Step frequency of every generated walk, Hz.
STEP_FREQUENCY_HZ = 3.3

#: Standing-adult joint offsets relative to the base of the spine, meters.
_DEFAULT_OFFSETS: dict[JointIndex, tuple[float, float, float]] = {
    _J.SPINE_BASE: (0.0, 0.0, 0.0),
    _J.SPINE_MID: (0.0, 0.25, 0.0),
    _J.NECK: (0.0, 0.55, 0.0),
    _J.HEAD: (0.0, 0.72, 0.0),
    _J.SHOULDER_LEFT: (-0.18, 0.42, 0.0),
    _J.ELBOW_LEFT: (-0.21, 0.14, 0.0),
    _J.WRIST_LEFT: (-0.23, -0.11, 0.0),
    _J.HAND_LEFT: (-0.24, -0.19, 0.0),
    _J.SHOULDER_RIGHT: (0.18, 0.42, 0.0),
    _J.ELBOW_RIGHT: (0.21, 0.14, 0.0),
    _J.WRIST_RIGHT: (0.23, -0.11, 0.0),
    _J.HAND_RIGHT: (0.24, -0.19, 0.0),
    _J.HIP_LEFT: (-0.09, -0.06, 0.0),
    _J.KNEE_LEFT: (-0.10, -0.50, 0.0),
    _J.ANKLE_LEFT: (-0.10, -0.87, 0.0),
    _J.FOOT_LEFT: (-0.10, -0.95, 0.0),
    _J.HIP_RIGHT: (0.09, -0.06, 0.0),
    _J.KNEE_RIGHT: (0.10, -0.50, 0.0),
    _J.ANKLE_RIGHT: (0.10, -0.87, 0.0),
    _J.FOOT_RIGHT: (0.10, -0.95, 0.0),
    _J.SPINE_SHOULDER: (0.0, 0.45, 0.0),
    _J.HAND_TIP_LEFT: (-0.245, -0.26, 0.0),
    _J.THUMB_LEFT: (-0.20, -0.22, 0.0),
    _J.HAND_TIP_RIGHT: (0.245, -0.26, 0.0),
    _J.THUMB_RIGHT: (0.20, -0.22, 0.0),
}

# limb chains animated as rigid pendulums: pivot -> joints rotated about it
_LEG_CHAINS = (
    (_J.HIP_LEFT, (_J.KNEE_LEFT, _J.ANKLE_LEFT, _J.FOOT_LEFT)),
    (_J.HIP_RIGHT, (_J.KNEE_RIGHT, _J.ANKLE_RIGHT, _J.FOOT_RIGHT)),
)
_ARM_CHAINS = (
    (_J.SHOULDER_LEFT, (_J.ELBOW_LEFT, _J.WRIST_LEFT, _J.HAND_LEFT, _J.HAND_TIP_LEFT, _J.THUMB_LEFT)),
    (_J.SHOULDER_RIGHT, (_J.ELBOW_RIGHT, _J.WRIST_RIGHT, _J.HAND_RIGHT, _J.HAND_TIP_RIGHT, _J.THUMB_RIGHT)),
)


@dataclass(frozen=True)
class BodyTemplate:
    """Rigid rest pose: 25 offsets from the base of the spine."""

    joint_offsets: tuple[Point3, ...]

    def __post_init__(self):
        if len(self.joint_offsets) != JOINT_COUNT:
            raise ValueError(f"expected {JOINT_COUNT} joint offsets")
        off = self.joint_offsets
        heights = [
            off[_J.HEAD].y, off[_J.NECK].y, off[_J.SPINE_SHOULDER].y,
            off[_J.SPINE_MID].y, off[_J.SPINE_BASE].y,
        ]
        if not all(a > b for a, b in zip(heights, heights[1:])):
            raise ValueError("head/neck/spine offsets must decrease in height")
        for edge in SKELETON_EDGES:
            if math.dist(off[edge.parent], off[edge.child]) <= 0.0:
                raise ValueError(f"zero-length bone {edge.parent.name}->{edge.child.name}")

    @property
    def pelvis_height_m(self) -> float:
        """Base-of-spine height placing the lowest joint on the ground."""
        return -min(p.y for p in self.joint_offsets)


def default_template() -> BodyTemplate:
    return BodyTemplate(tuple(Point3(*_DEFAULT_OFFSETS[_J(i)]) for i in range(JOINT_COUNT)))


def _check_noise_std(std_m: float) -> None:
    if not (math.isfinite(std_m) and std_m >= 0):
        raise ValueError(f"noise std must be finite and >= 0, got {std_m}")


@dataclass(frozen=True)
class DistortionSpec:
    """Parameterized raw-capture distortion: tilt model, perspective polynomial, noise."""

    tilt_model: TiltModel = TiltModel.SHEAR_INVERSE
    tilt_rad: float = 0.0
    sensor_height_m: float = 0.0
    beta_poly: Polynomial = Polynomial((0.0,))
    noise_std_m: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tilt_model", TiltModel(self.tilt_model))  # a name such as "shear" too
        TiltParams(self.tilt_rad, self.sensor_height_m)  # a correction must be able to undo the tilt
        if not abs(self.tilt_rad) < 0.5:
            raise ValueError(f"|tilt| must be < 0.5 rad, got {self.tilt_rad}")
        _check_noise_std(self.noise_std_m)


# math's sin and cos per element: numpy's own may differ from them in the
# last bit, and generated captures are pinned byte for byte by their SHA-256
_sin, _cos = (np.vectorize(f, otypes=[float]) for f in (math.sin, math.cos))


def generate_truth_capture(
    template: BodyTemplate,
    direction: GaitDirection,
    frames: int,
    z_start: float,
    z_end: float,
) -> CaptureSequence:
    """Ground-truth capture of the template walking a straight line.

    Vertical gaits walk toward the sensor from z_start down to z_end; a
    horizontal gait crosses the view at the midpoint depth, covering the same
    path length along X. Equal z_start and z_end means standing still: all
    frames identical. Limbs swing through a whole number of gait cycles so the
    first and last frames share the same pose, and the lowest foot touches
    y = 0 at stance.
    """
    if frames < 2:
        raise InvalidScenarioError(f"need at least 2 frames, got {frames}")
    if not (math.isfinite(z_start) and z_start >= z_end):
        raise InvalidScenarioError(f"z_start {z_start} must be finite and >= z_end {z_end}")
    if not z_end >= 0.8:
        raise InvalidScenarioError(f"z_end {z_end} must stay >= 0.8 m from the sensor")

    path_length = z_start - z_end
    pelvis_y = template.pelvis_height_m
    duration_s = (frames - 1) / FRAME_RATE_HZ
    if path_length > 0:
        cycles = max(1, round(duration_s * STEP_FREQUENCY_HZ / 2))
        off = template.joint_offsets
        leg_len = abs(off[_J.ANKLE_LEFT].y - off[_J.HIP_LEFT].y)
        leg_amp = math.asin(min(1.0, STRIDE_LENGTH_M / 2 / leg_len))
    else:
        cycles, leg_amp = 0, 0.0
    arm_amp = leg_amp / 2

    t = np.arange(frames) / (frames - 1)
    base = np.tile([0.0, pelvis_y, (z_start + z_end) / 2], (frames, 1))
    if direction is GaitDirection.VERTICAL:
        base[:, 2] = z_start + (z_end - z_start) * t
    else:
        base[:, 0] = -path_length / 2 + path_length * t
    swing = _sin(2 * math.pi * cycles * t)
    # limbs swing in the walking plane: y/z toward the sensor, y/x across it
    across = 2 if direction is GaitDirection.VERTICAL else 0
    posed = np.tile(template.joint_offsets, (frames, 1, 1))
    limbs = ((_LEG_CHAINS, leg_amp, (1.0, -1.0)), (_ARM_CHAINS, arm_amp, (-1.0, 1.0)))
    for chains, amp, signs in limbs:
        for (pivot_j, chain), sign in zip(chains, signs):
            theta = sign * amp * swing
            c, s = _cos(theta), _sin(theta)
            pivot = posed[:, pivot_j]
            for j in chain:
                dy = posed[:, j, 1] - pivot[:, 1]
                da = posed[:, j, across] - pivot[:, across]
                posed[:, j, 1] = pivot[:, 1] + dy * c - da * s
                posed[:, j, across] = pivot[:, across] + dy * s + da * c
    return CaptureSequence(base[:, None] + posed, np.arange(frames), direction)


def add_noise(seq: CaptureSequence, std_m: float, seed: int) -> CaptureSequence:
    """Independent zero-mean Gaussian perturbation of every coordinate."""
    _check_noise_std(std_m)
    if std_m == 0:
        return seq
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # an overflow leaves an inf, which with_xyz reports
        return seq.with_xyz(seq.xyz + rng.normal(0.0, std_m, size=seq.xyz.shape))


def apply_distortion(seq: CaptureSequence, spec: DistortionSpec) -> CaptureSequence:
    """Full raw-capture simulation: perspective, then tilt, then sensor noise.

    The order mirrors (in reverse) how the calibration pipeline undoes the
    effects: tilt correction first, perspective correction second.
    """
    out = distort_perspective(seq, spec.beta_poly)
    out = distort_tilt(out, TiltParams(spec.tilt_rad, spec.sensor_height_m), spec.tilt_model)
    return add_noise(out, spec.noise_std_m, spec.seed)
