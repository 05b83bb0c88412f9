"""Consistency diagnostics: per-joint Y drift against the last frame, and
bone-length stability across frames.

A well-calibrated capture of a walking subject keeps each joint's Y nearly
constant (residual wobble is gait, not distortion) and every bone length
constant, since bone lengths belong to the person, not the viewing geometry.

Each statistic is a per-part step, which keeps the small array it reads of
some frames, and a final step over those arrays joined in frame order, so a
capture can be measured one part at a time with the bits of the whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MeasureOverflowError, TooFewFramesError
from .perspective import DEFAULT_BETA_JOINTS
from .skeleton import SKELETON_EDGES, CaptureSequence, JointIndex, SkeletonEdge


@dataclass(frozen=True, eq=False)
class DiffSeries:
    """Per-frame difference of one joint's Y against the last frame's Y.

    ``per_frame_diff`` is a read-only float64 array, one value per frame.
    """

    joint: JointIndex
    per_frame_diff: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.per_frame_diff).max())

    def __eq__(self, other):
        if not isinstance(other, DiffSeries):
            return NotImplemented
        return self.joint == other.joint and np.array_equal(self.per_frame_diff, other.per_frame_diff)


@dataclass(frozen=True)
class EdgeStability:
    edge: SkeletonEdge
    mean_length_m: float
    std_length_m: float
    max_abs_dev_m: float


@dataclass(frozen=True)
class StabilityReport:
    per_edge: tuple[EdgeStability, ...]

    @property
    def max_std_m(self) -> float:
        return max(e.std_length_m for e in self.per_edge)


def diff_to_last(
    heights: np.ndarray, frame_index: np.ndarray, joints: Sequence[JointIndex | int]
) -> list[DiffSeries]:
    """The final step of ``y_diff_to_last``, from ``xyz[:, joints, 1]`` of every frame, whose
    indices are ``frame_index``. The series are the columns of ``heights``, which it overwrites."""
    idx = [JointIndex(j) for j in joints]
    with np.errstate(over="ignore"):
        heights -= heights[-1]
    bad = np.argwhere(~np.isfinite(heights))
    if bad.size:
        frame, k = bad[0].tolist()
        raise MeasureOverflowError(
            f"y - y_last of joint {int(idx[k])} overflows at frame {int(frame_index[frame])}"
        )
    heights.flags.writeable = False
    return [DiffSeries(j, d) for j, d in zip(idx, heights.T)]


def y_diff_to_last(
    seq: CaptureSequence, joints: Sequence[JointIndex | int] = DEFAULT_BETA_JOINTS
) -> list[DiffSeries]:
    """For each joint, the series y(frame k) - y(last frame); last entry is 0.

    The series are the columns of one (frames, joints) array. A difference
    beyond float64's range raises MeasureOverflowError at its first frame.
    """
    return diff_to_last(seq.xyz[:, [JointIndex(j) for j in joints], 1], seq.frame_index, joints)


_PARENTS = [int(e.parent) for e in SKELETON_EDGES]
_CHILDREN = [int(e.child) for e in SKELETON_EDGES]


def edge_lengths(part: CaptureSequence) -> np.ndarray:
    """The per-part step of ``bone_length_stability``: the (edges, frames) array of each
    ``SKELETON_EDGES`` bone's length in each frame. A length beyond float64's range is inf."""
    # (edges, frames) arrays: each edge's lengths are contiguous, so numpy sums them pairwise
    lengths = np.zeros((len(SKELETON_EDGES), len(part)))
    with np.errstate(over="ignore", invalid="ignore"):
        for coordinate in part.xyz.T:
            step = coordinate[_PARENTS] - coordinate[_CHILDREN]
            step *= step
            lengths += step
        np.sqrt(lengths, out=lengths)
    return lengths


def length_stability(lengths: np.ndarray, frame_index: np.ndarray) -> StabilityReport:
    """The final step of ``bone_length_stability``, from the ``edge_lengths`` of every frame,
    whose indices are ``frame_index``, as one C-ordered array, which it overwrites."""
    frames = lengths.shape[1]
    if frames < 2:
        raise TooFewFramesError("bone-length stability needs at least 2 frames")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = lengths.mean(axis=1)
        # numpy's std, from the deviations that also give the largest one
        dev = np.subtract(lengths, mean[:, None], out=lengths)
        max_dev = np.abs(dev).max(axis=1)
        dev *= dev
        std = np.sqrt(dev.sum(axis=1) / frames)
    bad = np.flatnonzero(~np.isfinite(std))
    if bad.size:
        edge = SKELETON_EDGES[bad[0]]
        frame = int(frame_index[np.argmax(dev[bad[0]])])  # a NaN, where there is one, comes first
        raise MeasureOverflowError(
            f"length of bone {int(edge.parent)}-{int(edge.child)} overflows at frame {frame}"
        )
    return StabilityReport(
        tuple(
            EdgeStability(edge, m, s, d)
            for edge, m, s, d in zip(SKELETON_EDGES, mean.tolist(), std.tolist(), max_dev.tolist())
        )
    )


def bone_length_stability(seq: CaptureSequence) -> StabilityReport:
    """Per-edge mean, standard deviation, and max deviation of bone lengths.

    A statistic beyond float64's range raises MeasureOverflowError naming the
    edge and the frame that deviates most (or first overflows) on it.
    """
    return length_stability(edge_lengths(seq), seq.frame_index)
