import math

import numpy as np
import pytest

from skelcal import (
    CaptureSequence,
    GaitDirection,
    JOINT_COUNT,
    JointIndex,
    Point3,
    SKELETON_EDGES,
    SkeletonFrame,
    joint_track,
    validate_sequence,
)
from skelcal.errors import (
    EmptySequenceError,
    NonFiniteCoordinateError,
    NonMonotonicFrameIndexError,
    WrongJointCountError,
)


def make_frame(index, override=None):
    joints = [Point3(0.1 * j, 1.0, 2.5) for j in range(JOINT_COUNT)]
    if override:
        for j, p in override.items():
            joints[j] = p
    return SkeletonFrame(index, tuple(joints))


def make_seq(n_frames, direction=GaitDirection.VERTICAL):
    return CaptureSequence(tuple(make_frame(k) for k in range(n_frames)), direction)


class TestJointIndex:
    def test_exactly_25_joints(self):
        assert len(JointIndex) == JOINT_COUNT
        assert sorted(int(j) for j in JointIndex) == list(range(25))

    def test_name_index_bijection(self):
        assert JointIndex.SPINE_BASE == 0
        assert JointIndex.THUMB_RIGHT == 24
        assert JointIndex["HEAD"] is JointIndex(3)
        names = {j.name for j in JointIndex}
        assert len(names) == 25


class TestTopology:
    def test_24_edges(self):
        assert len(SKELETON_EDGES) == 24

    def test_edges_form_spanning_tree(self):
        # every joint except the root appears exactly once as a child
        children = [e.child for e in SKELETON_EDGES]
        assert len(set(children)) == 24
        assert JointIndex.SPINE_BASE not in children
        # connected: walk from the root
        adjacency = {}
        for e in SKELETON_EDGES:
            adjacency.setdefault(e.parent, []).append(e.child)
        seen, stack = set(), [JointIndex.SPINE_BASE]
        while stack:
            j = stack.pop()
            seen.add(j)
            stack.extend(adjacency.get(j, []))
        assert seen == set(JointIndex)


class TestValidateSequence:
    def test_valid_two_frame_sequence_accepted_unchanged(self):
        seq = make_seq(2)
        assert validate_sequence(seq) is seq

    def test_idempotent(self):
        seq = validate_sequence(make_seq(3))
        assert validate_sequence(seq) is seq

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            validate_sequence(CaptureSequence((), GaitDirection.VERTICAL))

    def test_nan_reported_with_frame_joint_field(self):
        frames = [make_frame(k) for k in range(5)]
        frames[3] = make_frame(3, {14: Point3(0.0, math.nan, 2.5)})
        with pytest.raises(NonFiniteCoordinateError) as err:
            validate_sequence(CaptureSequence(tuple(frames), GaitDirection.VERTICAL))
        assert err.value.frame_index == 3
        assert err.value.joint == 14
        assert err.value.field == "y"

    def test_infinity_rejected(self):
        seq = CaptureSequence(
            (make_frame(0, {0: Point3(math.inf, 1.0, 2.0)}),), GaitDirection.VERTICAL
        )
        with pytest.raises(NonFiniteCoordinateError):
            validate_sequence(seq)

    def test_repeated_frame_index_rejected(self):
        seq = CaptureSequence((make_frame(0), make_frame(0)), GaitDirection.VERTICAL)
        with pytest.raises(NonMonotonicFrameIndexError):
            validate_sequence(seq)

    def test_wrong_joint_count_rejected(self):
        short = SkeletonFrame(0, tuple(Point3(0, 1, 2) for _ in range(24)))
        with pytest.raises(WrongJointCountError) as err:
            validate_sequence(CaptureSequence((short,), GaitDirection.VERTICAL))
        assert err.value.count == 24


class TestJointTrack:
    def test_one_point_per_frame_in_order(self):
        seq = make_seq(3)
        track = joint_track(seq, JointIndex.HEAD)
        assert len(track) == 3
        assert track == [f.joints[3] for f in seq.frames]

    def test_single_frame(self):
        assert len(joint_track(make_seq(1), JointIndex.THUMB_RIGHT)) == 1

    def test_projection_matches_frames_exhaustively(self):
        seq = make_seq(4)
        for j in JointIndex:
            track = joint_track(seq, j)
            for k, frame in enumerate(seq.frames):
                assert track[k] == frame.joints[j]


class TestValidationOrder:
    @pytest.mark.parametrize(
        "nan_at,error",
        [
            (3, NonMonotonicFrameIndexError),  # index 1 after 2 comes first
            (2, NonFiniteCoordinateError),  # same frame: finiteness is checked first
            (1, NonFiniteCoordinateError),
        ],
    )
    def test_first_violation_in_frame_order_is_reported(self, nan_at, error):
        frames = [make_frame(k) for k in (0, 2, 1, 3)]
        frames[nan_at] = make_frame(frames[nan_at].frame_index, {5: Point3(0.0, 1.0, math.nan)})
        with pytest.raises(error):
            validate_sequence(CaptureSequence(tuple(frames), GaitDirection.VERTICAL))


class TestCaptureSequenceValue:
    def test_arrays_and_fields_are_read_only(self):
        seq = make_seq(2)
        with pytest.raises(ValueError):
            seq.xyz[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            seq.frame_index[0] = 7
        with pytest.raises(AttributeError):
            seq.label = "changed"

    def test_equality_compares_values(self):
        seq = make_seq(3)
        assert seq == make_seq(3)
        assert seq == CaptureSequence(seq.frames, seq.direction, seq.nominal_fps, seq.label)
        assert seq != make_seq(2)
        assert seq != make_seq(3, GaitDirection.HORIZONTAL)
        moved = [make_frame(0), make_frame(1, {4: Point3(0.4, 1.0, 2.6)}), make_frame(2)]
        assert seq != CaptureSequence(tuple(moved), GaitDirection.VERTICAL)

    def test_from_arrays_copies_its_inputs(self):
        xyz = np.zeros((2, JOINT_COUNT, 3))
        index = np.array([0, 1])
        seq = CaptureSequence.from_arrays(xyz, index, GaitDirection.VERTICAL)
        xyz[0, 0, 0] = 1.0
        index[0] = 5
        assert seq.xyz[0, 0, 0] == 0.0
        assert seq.frame_index.tolist() == [0, 1]

    def test_malformed_arrays_rejected(self):
        with pytest.raises(ValueError):
            CaptureSequence.from_arrays(np.zeros((2, JOINT_COUNT)), [0, 1], GaitDirection.VERTICAL)
        with pytest.raises(ValueError):
            CaptureSequence.from_arrays(np.zeros((2, JOINT_COUNT, 3)), [0], GaitDirection.VERTICAL)

    def test_frame_without_25_joints_rejected_at_construction(self):
        short = SkeletonFrame(1, tuple(Point3(0, 1, 2) for _ in range(24)))
        with pytest.raises(WrongJointCountError) as err:
            CaptureSequence((make_frame(0), short), GaitDirection.VERTICAL)
        assert (err.value.frame_index, err.value.count) == (1, 24)
