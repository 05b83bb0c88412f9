"""Core data model: joints, frames, capture sequences, and the skeleton tree.

All types are immutable values; sequences can be shared freely between
threads. Coordinates are meters in the sensor frame: Y up, Z pointing away
from the sensor into the scene, X lateral.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

from .errors import EmptySequenceError, NonFiniteCoordinateError, NonMonotonicFrameIndexError

JOINT_COUNT = 25


class JointIndex(IntEnum):
    """The 25 tracked skeleton joints, indexed 0-24."""

    SPINE_BASE = 0
    SPINE_MID = 1
    NECK = 2
    HEAD = 3
    SHOULDER_LEFT = 4
    ELBOW_LEFT = 5
    WRIST_LEFT = 6
    HAND_LEFT = 7
    SHOULDER_RIGHT = 8
    ELBOW_RIGHT = 9
    WRIST_RIGHT = 10
    HAND_RIGHT = 11
    HIP_LEFT = 12
    KNEE_LEFT = 13
    ANKLE_LEFT = 14
    FOOT_LEFT = 15
    HIP_RIGHT = 16
    KNEE_RIGHT = 17
    ANKLE_RIGHT = 18
    FOOT_RIGHT = 19
    SPINE_SHOULDER = 20
    HAND_TIP_LEFT = 21
    THUMB_LEFT = 22
    HAND_TIP_RIGHT = 23
    THUMB_RIGHT = 24


class GaitDirection(Enum):
    """Walking path relative to the sensor: toward it (Z) or across it (X)."""

    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class Point3(NamedTuple):
    """One joint position in meters; unpacks as ``x, y, z`` like any ``xyz`` row."""

    x: float
    y: float
    z: float


class SkeletonFrame(NamedTuple):
    frame_index: int
    joints: tuple[Point3, ...]


@dataclass(frozen=True, init=False, eq=False)
class CaptureSequence:
    """Ordered frames of one recorded gait plus its direction and label.

    Joint positions are one read-only float64 array ``xyz`` of shape
    (frames, 25, 3), next to a read-only int64 ``frame_index`` array. The
    constructor copies both of what it is given, so a caller's later writes
    never reach the sequence. Code that has just made its arrays hands them
    over without a copy: ``adopt`` takes both, and ``with_xyz`` a stage's
    fresh ``xyz`` beside the sequence's own frame indices.

    Every sequence is valid: the constructor, ``adopt``, ``with_xyz`` and
    slicing all run ``validate_sequence``, so a capture with no frames, a
    non-finite coordinate or a frame index that does not increase raises its
    ``CalibrationError`` instead of being built.
    """

    xyz: np.ndarray
    frame_index: np.ndarray
    direction: GaitDirection
    label: str = ""

    def __init__(
        self, xyz: np.ndarray, frame_index: np.ndarray, direction: GaitDirection, label: str = ""
    ):
        xyz = np.array(xyz, dtype=np.float64)
        self._adopt(xyz, _int64_indices(frame_index, copy=True), direction, label)

    @classmethod
    def adopt(
        cls, xyz: np.ndarray, frame_index: np.ndarray, direction: GaitDirection, label: str = ""
    ) -> CaptureSequence:
        """A sequence over a float64 ``xyz`` and an int64 ``frame_index`` without copying them.

        Both are marked read-only, so pass fresh arrays that nothing else writes to.
        """
        seq = object.__new__(cls)
        seq._adopt(np.asarray(xyz, np.float64), _int64_indices(frame_index, copy=False), direction, label)
        return seq

    def _adopt(self, xyz: np.ndarray, frame_index: np.ndarray, direction: GaitDirection, label: str):
        if xyz.shape[1:] != (JOINT_COUNT, 3) or frame_index.shape != xyz.shape[:1]:
            raise ValueError(
                f"expected xyz of shape (frames, {JOINT_COUNT}, 3) and one frame index per "
                f"frame, got {xyz.shape} and {frame_index.shape}"
            )
        self.__dict__.update(xyz=xyz, frame_index=frame_index, direction=direction, label=label)
        validate_sequence(self)
        xyz.flags.writeable = False
        frame_index.flags.writeable = False

    def with_xyz(self, xyz: np.ndarray) -> CaptureSequence:
        """The same frame indices and metadata with new joint positions.

        Adopts a float64 ``xyz`` as ``adopt`` does, so pass a fresh array
        that nothing else writes to.
        """
        return CaptureSequence.adopt(xyz, self.frame_index, self.direction, self.label)

    @property
    def frames(self) -> Sequence[SkeletonFrame]:
        """Per-frame ``Point3`` view of ``xyz``: its length is free, and each frame is
        built when read. Slow to iterate on long captures: kept for the benchmark harness."""
        return _FrameView(self)

    def __len__(self) -> int:
        return len(self.xyz)

    def __getitem__(self, frames: slice) -> CaptureSequence:
        """The frames that ``frames`` selects, adopted over read-only views of this
        sequence's arrays; a slice that selects none raises EmptySequenceError."""
        if not isinstance(frames, slice):
            raise TypeError(f"a capture is sliced by frames, not indexed by {type(frames).__name__}")
        return CaptureSequence.adopt(self.xyz[frames], self.frame_index[frames], self.direction, self.label)

    def __eq__(self, other):
        if not isinstance(other, CaptureSequence):
            return NotImplemented
        return (
            (self.direction, self.label) == (other.direction, other.label)
            and np.array_equal(self.frame_index, other.frame_index)
            and np.array_equal(self.xyz, other.xyz)
        )


class _FrameView(Sequence):
    """The ``SkeletonFrame``s of one capture, each built from its arrays when indexed."""

    def __init__(self, seq: CaptureSequence):
        self._seq = seq

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, k: int) -> SkeletonFrame:
        k = operator.index(k)  # one frame, not a slice; past the end, numpy's IndexError ends iteration
        joints = tuple(Point3(*p) for p in self._seq.xyz[k].tolist())
        return SkeletonFrame(int(self._seq.frame_index[k]), joints)


def _int64_indices(frame_index: np.ndarray, copy: bool) -> np.ndarray:
    """``frame_index`` as an int64 array, a copy if ``copy``. An index that int64 does not
    hold exactly, such as 0.5, NaN or 2**63, raises a ValueError that names the first."""
    given = np.asarray(frame_index)
    if given.dtype != np.int64:  # as read_capture's arrays and every slice are: they skip this pass
        for value in np.asarray(frame_index, object).ravel().tolist():  # compared exactly, as Python numbers
            if not (-(2**63) <= value < 2**63 and value == int(value)):
                raise ValueError(f"frame index {value!r} is not an integer that int64 holds")
    return given.astype(np.int64, copy=copy)


class SkeletonEdge(NamedTuple):
    parent: JointIndex
    child: JointIndex


def _edges() -> tuple[SkeletonEdge, ...]:
    J = JointIndex
    pairs = [
        # spine chain
        (J.SPINE_BASE, J.SPINE_MID),
        (J.SPINE_MID, J.SPINE_SHOULDER),
        (J.SPINE_SHOULDER, J.NECK),
        (J.NECK, J.HEAD),
        # left arm
        (J.SPINE_SHOULDER, J.SHOULDER_LEFT),
        (J.SHOULDER_LEFT, J.ELBOW_LEFT),
        (J.ELBOW_LEFT, J.WRIST_LEFT),
        (J.WRIST_LEFT, J.HAND_LEFT),
        (J.HAND_LEFT, J.HAND_TIP_LEFT),
        (J.HAND_LEFT, J.THUMB_LEFT),
        # right arm
        (J.SPINE_SHOULDER, J.SHOULDER_RIGHT),
        (J.SHOULDER_RIGHT, J.ELBOW_RIGHT),
        (J.ELBOW_RIGHT, J.WRIST_RIGHT),
        (J.WRIST_RIGHT, J.HAND_RIGHT),
        (J.HAND_RIGHT, J.HAND_TIP_RIGHT),
        (J.HAND_RIGHT, J.THUMB_RIGHT),
        # left leg
        (J.SPINE_BASE, J.HIP_LEFT),
        (J.HIP_LEFT, J.KNEE_LEFT),
        (J.KNEE_LEFT, J.ANKLE_LEFT),
        (J.ANKLE_LEFT, J.FOOT_LEFT),
        # right leg
        (J.SPINE_BASE, J.HIP_RIGHT),
        (J.HIP_RIGHT, J.KNEE_RIGHT),
        (J.KNEE_RIGHT, J.ANKLE_RIGHT),
        (J.ANKLE_RIGHT, J.FOOT_RIGHT),
    ]
    return tuple(SkeletonEdge(p, c) for p, c in pairs)


#: The fixed 24-edge tree connecting the 25 joints.
SKELETON_EDGES: tuple[SkeletonEdge, ...] = _edges()


def _first_true(mask: np.ndarray) -> int:
    """Position of the first True in ``mask``, or ``len(mask)`` when none is."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else len(mask)


def check_finite(
    xyz: np.ndarray, frame_index: np.ndarray, joints: Sequence[int] = range(JOINT_COUNT)
) -> None:
    """Raise NonFiniteCoordinateError at the first frame of ``xyz`` with a non-finite value,
    naming its lowest such joint and then field; ``xyz[:, k]`` holds joint ``joints[k]``."""
    finite = np.isfinite(xyz)
    bad = _first_true(~finite.all(axis=(1, 2)))
    if bad < len(xyz):
        joint, axis = min((int(joints[k]), axis) for k, axis in np.argwhere(~finite[bad]).tolist())
        raise NonFiniteCoordinateError(int(frame_index[bad]), joint, "xyz"[axis])


def validate_sequence(raw: CaptureSequence) -> CaptureSequence:
    """Return ``raw`` unchanged iff every invariant holds; ``CaptureSequence`` runs it on itself.

    Checks, in order: non-empty, finite coordinates, strictly increasing frame
    indices (25 joints per frame holds by construction). The first violation
    in frame order is reported with its frame index, joint, and field; within
    one frame a non-finite coordinate is reported before its index. Idempotent.
    """
    frames = len(raw)
    if frames == 0:
        raise EmptySequenceError("capture has no frames")
    # compared, not subtracted: a difference of two int64 indices can wrap around
    unordered = _first_true(raw.frame_index[1:] <= raw.frame_index[:-1]) + 1
    check_finite(raw.xyz[: unordered + 1], raw.frame_index)
    if unordered < frames:
        check_increasing(*raw.frame_index[unordered - 1 : unordered + 1].tolist())
    return raw


def check_increasing(previous: int, current: int) -> None:
    """Raise NonMonotonicFrameIndexError unless frame index ``current`` is above ``previous``:
    the ordering rule of a capture's consecutive frames."""
    if not current > previous:
        raise NonMonotonicFrameIndexError(f"frame index {current} does not increase after {previous}")

