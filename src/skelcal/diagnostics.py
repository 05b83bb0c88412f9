"""Consistency diagnostics: per-joint Y drift against the last frame, and
bone-length stability across frames.

A well-calibrated capture of a walking subject keeps each joint's Y nearly
constant (residual wobble is gait, not distortion) and every bone length
constant, since bone lengths belong to the person, not the viewing geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .perspective import DEFAULT_BETA_JOINTS
from .skeleton import (
    CaptureSequence,
    JointIndex,
    SKELETON_EDGES,
    SkeletonEdge,
    SkeletonFrame,
)


@dataclass(frozen=True)
class DiffSeries:
    """Per-frame difference of one joint's Y against the last frame's Y."""

    joint: JointIndex
    per_frame_diff: tuple[float, ...]

    @property
    def max_abs(self) -> float:
        return max(abs(d) for d in self.per_frame_diff)


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


def y_diff_to_last(
    seq: CaptureSequence, joints: Sequence[JointIndex | int] = DEFAULT_BETA_JOINTS
) -> list[DiffSeries]:
    """For each joint, the series y(frame k) - y(last frame); last entry is 0."""
    idx = [int(j) for j in joints]
    y = seq.xyz[:, idx, 1]
    return [DiffSeries(JointIndex(j), tuple(d)) for j, d in zip(idx, (y - y[-1]).T.tolist())]


def max_y_diff(seq: CaptureSequence, joints: Sequence[JointIndex | int] = DEFAULT_BETA_JOINTS) -> float:
    """Largest |y - y_last| over the given joints and all frames."""
    return max(series.max_abs for series in y_diff_to_last(seq, joints))


def bone_lengths(frame: SkeletonFrame) -> list[tuple[SkeletonEdge, float]]:
    """Euclidean length of each of the 24 skeleton edges in one frame."""
    out = []
    for edge in SKELETON_EDGES:
        a = frame.joints[edge.parent]
        b = frame.joints[edge.child]
        out.append((edge, math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))))
    return out


def bone_length_stability(seq: CaptureSequence) -> StabilityReport:
    """Per-edge mean, standard deviation, and max deviation of bone lengths."""
    if len(seq) < 2:
        raise ValueError("bone-length stability needs at least 2 frames")
    parents = [int(e.parent) for e in SKELETON_EDGES]
    children = [int(e.child) for e in SKELETON_EDGES]
    lengths = np.linalg.norm(seq.xyz[:, parents] - seq.xyz[:, children], axis=2)
    mean = lengths.mean(axis=0)
    std = lengths.std(axis=0)
    max_dev = np.abs(lengths - mean).max(axis=0)
    return StabilityReport(
        tuple(
            EdgeStability(edge, m, s, d)
            for edge, m, s, d in zip(SKELETON_EDGES, mean.tolist(), std.tolist(), max_dev.tolist())
        )
    )
