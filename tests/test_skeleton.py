import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skelcal
from skelcal import skeleton
from skelcal import (
    BetaModel,
    BetaPoint,
    CaptureSequence,
    GaitDirection,
    JOINT_COUNT,
    JointIndex,
    Point3,
    Polynomial,
    SKELETON_EDGES,
    TiltParams,
    perspective_correct_sequence,
    tilt_correct_sequence,
    validate_sequence,
)
from skelcal.errors import (
    CalibrationError,
    EmptySequenceError,
    NonFiniteCoordinateError,
    NonMonotonicFrameIndexError,
)


#: Names defined only in tests/oracles.py, never in the package.
TEST_ONLY = (
    "frame_inclination",
    "tilt_correct_point",
    "perspective_correct_point",
    "bone_lengths",
    "max_y_diff",
    "beta_error_deg",
    "joint_perspective_degree",
    "DegenerateSpineError",
    "InsufficientDepthTravelError",
)


def make_xyz(n_frames):
    """(n_frames, 25, 3) joints, joint j of every frame at (0.1 * j, 1.0, 2.5)."""
    return np.tile([(0.1 * j, 1.0, 2.5) for j in range(JOINT_COUNT)], (n_frames, 1, 1))


def make_seq(n_frames, direction=GaitDirection.VERTICAL):
    return CaptureSequence(make_xyz(n_frames), range(n_frames), direction)


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
            validate_sequence(CaptureSequence(make_xyz(0), [], GaitDirection.VERTICAL))

    def test_nan_reported_with_frame_joint_field(self):
        xyz = make_xyz(5)
        xyz[3, 14] = (0.0, math.nan, 2.5)
        with pytest.raises(NonFiniteCoordinateError) as err:
            validate_sequence(CaptureSequence(xyz, range(5), GaitDirection.VERTICAL))
        assert err.value.frame_index == 3
        assert err.value.joint == 14
        assert err.value.field == "y"

    def test_infinity_rejected(self):
        xyz = make_xyz(1)
        xyz[0, 0] = (math.inf, 1.0, 2.0)
        with pytest.raises(NonFiniteCoordinateError):
            CaptureSequence(xyz, [0], GaitDirection.VERTICAL)

    def test_repeated_frame_index_rejected(self):
        with pytest.raises(NonMonotonicFrameIndexError):
            CaptureSequence(make_xyz(2), [0, 0], GaitDirection.VERTICAL)

    def test_indices_whose_difference_overflows_accepted(self):
        seq = CaptureSequence(make_xyz(3), [-2, -1, 2**63 - 1], GaitDirection.VERTICAL)
        assert validate_sequence(seq) is seq
        with pytest.raises(NonMonotonicFrameIndexError):
            validate_sequence(CaptureSequence(make_xyz(2), [2**63 - 1, -1], GaitDirection.VERTICAL))


class _Arrays:
    """What ``validate_sequence`` reads of a capture, over arrays that no ``CaptureSequence`` holds."""

    def __init__(self, xyz, frame_index):
        self.xyz, self.frame_index = xyz, frame_index

    def __len__(self):
        return len(self.xyz)


@st.composite
def capture_arrays(draw):
    """Coordinates and frame indices with at most one value that is not finite
    and at most one pair of indices that does not increase, some of no frames."""
    frames = draw(st.integers(0, 4))
    xyz = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(frames, JOINT_COUNT, 3))
    index = sorted(draw(st.sets(st.integers(-(2**63), 2**63 - 1), min_size=frames, max_size=frames)))
    if frames and draw(st.booleans()):
        at = (draw(st.integers(0, frames - 1)), draw(st.integers(0, JOINT_COUNT - 1)), draw(st.integers(0, 2)))
        xyz[at] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if frames > 1 and draw(st.booleans()):
        k = draw(st.integers(1, frames - 1))
        index[k] = max(index[k - 1] - draw(st.integers(0, 2)), -(2**63))
    return xyz, np.array(index, np.int64)


def _outcome(build):
    """None if ``build()`` returns, else the type, attributes and message of the CalibrationError it raises."""
    try:
        build()
    except CalibrationError as exc:
        return type(exc), *(getattr(exc, name, None) for name in ("frame_index", "joint", "field")), str(exc)
    return None


class TestValidByConstruction:
    """A capture that ``validate_sequence`` rejects cannot be built, and raises what it raises."""

    @settings(max_examples=300, deadline=None)
    @given(capture_arrays())
    def test_every_way_in_validates(self, arrays):
        xyz, index = arrays
        expected = _outcome(lambda: validate_sequence(_Arrays(xyz, index)))
        assert _outcome(lambda: CaptureSequence(xyz, index, GaitDirection.VERTICAL)) == expected
        assert _outcome(lambda: CaptureSequence.adopt(xyz.copy(), index.copy(), GaitDirection.VERTICAL)) == expected
        if len(index) and _outcome(lambda: validate_sequence(_Arrays(np.zeros_like(xyz), index))) is None:
            base = CaptureSequence(np.zeros_like(xyz), index, GaitDirection.VERTICAL)
            assert _outcome(lambda: base.with_xyz(xyz.copy())) == expected

    def test_rejected_arrays_stay_writable(self):
        xyz, index = make_xyz(2), np.array([0, 0])
        with pytest.raises(NonMonotonicFrameIndexError):
            CaptureSequence.adopt(xyz, index, GaitDirection.VERTICAL)
        assert xyz.flags.writeable and index.flags.writeable

    @pytest.mark.parametrize(
        "name, owners",
        [
            # every other module relies on the type: no stage checks a capture again
            ("validate_sequence", "skeleton.py"),
            # one non-finite rule, for whole captures and for calibrate's joint slices
            ("NonFiniteCoordinateError", "errors.py skeleton.py"),
            # one ordering rule, for a capture's frames and for the parts a capture is written in
            ("NonMonotonicFrameIndexError", "errors.py skeleton.py"),
            # the level-sensor rule and the aggregate it guards
            ("NEAR_ZERO_TILT_RAD", "tilt.py"),
            ("NEAR_ZERO_STANDARD_ERRORS", "tilt.py"),
            ("_near_zero", "tilt.py"),
            ("aggregate_inclination", "tilt.py"),
            # only errors.tagged sets where an error happened
            ("stage", "errors.py"),
            # file access stays in fileio, through Python's own file objects
            ("open", "fileio.py"),
            ("unlink", "fileio.py"),
            ("read_text", ""),
            ("fdopen", ""),
            # the stage order, tilt then perspective, is composed only in pipeline
            ("tilt_correct_xyz", "pipeline.py tilt.py"),
            ("perspective_correct_xyz", "perspective.py pipeline.py"),
            # the scalar references live in tests/oracles.py; no module of the package names them
            *((name, "") for name in TEST_ONLY),
        ],
    )
    def test_only_the_owner_names(self, name, owners):
        """One module owns each rule (``owners`` lists the modules, space-separated): no other module names it."""
        package = Path(skelcal.__file__).parent
        users = {
            path.name
            for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        }
        assert users == set(owners.split())

    def test_oracles_are_not_exported(self):
        # the AST walk above does not read the string keys of skelcal._EXPORTS
        assert not set(TEST_ONLY) & set(skelcal.__all__)


class TestJointTrack:
    def test_one_point_per_frame_in_order(self):
        seq = make_seq(3)
        track = seq.xyz[:, JointIndex.HEAD]
        assert len(track) == 3
        assert track.tolist() == [[0.1 * 3, 1.0, 2.5]] * 3

    def test_single_frame(self):
        assert len(make_seq(1).xyz[:, JointIndex.THUMB_RIGHT]) == 1

    def test_projection_matches_frames_exhaustively(self):
        # the per-frame view the benchmark harness reads: frames[k].joints[j] and frame_index
        xyz = np.random.default_rng(4).normal(size=(4, JOINT_COUNT, 3))
        seq = CaptureSequence(xyz, [3, 5, 8, 13], GaitDirection.VERTICAL)
        frames = seq.frames
        assert len(frames) == len(seq)
        assert [f.frame_index for f in frames] == seq.frame_index.tolist() == [3, 5, 8, 13]
        for k, frame in enumerate(frames):
            assert type(frame.frame_index) is int
            assert len(frame.joints) == JOINT_COUNT
            for j in JointIndex:
                p = frame.joints[j]
                assert isinstance(p, Point3)
                assert (p.x, p.y, p.z) == tuple(seq.xyz[k, j].tolist()) == tuple(xyz[k, j])


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
        xyz = make_xyz(4)
        xyz[nan_at, 5] = (0.0, 1.0, math.nan)
        with pytest.raises(error):
            validate_sequence(CaptureSequence(xyz, [0, 2, 1, 3], GaitDirection.VERTICAL))


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
        assert seq == CaptureSequence(seq.xyz, seq.frame_index, seq.direction, seq.label)
        assert seq != make_seq(2)
        assert seq != make_seq(3, GaitDirection.HORIZONTAL)
        moved = make_xyz(3)
        moved[1, 4] = (0.4, 1.0, 2.6)
        assert seq != CaptureSequence(moved, range(3), GaitDirection.VERTICAL)

    @pytest.mark.parametrize("other", [0, object()], ids=["zero", "object"])
    def test_unequal_to_another_type(self, other):
        seq = make_seq(2)
        assert not seq == other
        assert seq != other

    def test_constructor_copies_its_inputs(self):
        xyz = np.zeros((2, JOINT_COUNT, 3))
        index = np.array([0, 1])
        seq = CaptureSequence(xyz, index, GaitDirection.VERTICAL)
        xyz[0, 0, 0] = 1.0
        index[0] = 5
        assert seq.xyz[0, 0, 0] == 0.0
        assert seq.frame_index.tolist() == [0, 1]
        assert not np.shares_memory(seq.xyz, xyz)

    def test_adopt_takes_its_arguments(self):
        xyz, index = make_xyz(2), np.array([4, 9])
        seq = CaptureSequence.adopt(xyz, index, GaitDirection.HORIZONTAL, "walk")
        assert seq.xyz is xyz and seq.frame_index is index
        assert not (xyz.flags.writeable or index.flags.writeable)
        assert seq == CaptureSequence(xyz, index, GaitDirection.HORIZONTAL, "walk")
        with pytest.raises(ValueError):
            CaptureSequence.adopt(make_xyz(2), np.array([4]), GaitDirection.VERTICAL)

    def test_with_xyz_adopts_its_argument(self):
        seq = make_seq(2)
        xyz = make_xyz(2) + 1.0
        moved = seq.with_xyz(xyz)
        assert moved.xyz is xyz
        assert not xyz.flags.writeable
        assert moved.frame_index is seq.frame_index
        assert (moved.direction, moved.label) == (seq.direction, seq.label)
        with pytest.raises(ValueError):
            seq.with_xyz(np.zeros((3, JOINT_COUNT, 3)))

    def test_corrections_write_fresh_read_only_arrays(self):
        seq = make_seq(3)
        model = BetaModel(Polynomial((0.05,)), 0, (BetaPoint(JointIndex.HEAD, 1.0, 0.05),))
        for out in (
            tilt_correct_sequence(seq, TiltParams(0.1, 0.75)),
            perspective_correct_sequence(seq, model),
        ):
            assert not out.xyz.flags.writeable
            assert not np.shares_memory(out.xyz, seq.xyz)

    def test_slice_adopts_read_only_views(self):
        seq = CaptureSequence(make_xyz(6) + np.arange(6)[:, None, None], np.arange(6) * 3, GaitDirection.HORIZONTAL, "walk")
        part = seq[2:5]
        assert part == CaptureSequence(seq.xyz[2:5], [6, 9, 12], GaitDirection.HORIZONTAL, "walk")
        assert np.shares_memory(part.xyz, seq.xyz) and np.shares_memory(part.frame_index, seq.frame_index)
        assert not (part.xyz.flags.writeable or part.frame_index.flags.writeable)
        assert seq[::2] == CaptureSequence(seq.xyz[::2], [0, 6, 12], GaitDirection.HORIZONTAL, "walk")
        assert seq[4:100] == seq[-2:]
        assert seq[:] == seq

    @pytest.mark.parametrize("frames", [slice(5, 5), slice(7, None), slice(3, 1)])
    def test_empty_slice_rejected(self, frames):
        with pytest.raises(EmptySequenceError, match="^capture has no frames$"):
            make_seq(6)[frames]

    def test_reversed_slice_rejected(self):
        with pytest.raises(NonMonotonicFrameIndexError, match="^frame index 4 does not increase after 5$"):
            make_seq(6)[::-1]

    def test_every_slice_is_validated_once(self):
        seq = make_seq(600)
        with mock.patch.object(skeleton, "validate_sequence", wraps=validate_sequence) as spy:
            parts = [seq[start : start + 256] for start in range(0, 600, 256)]
            assert [len(p) for p in parts + [seq[::3], seq[-1:], seq[2:3:1], seq[:]]] == [256, 256, 88, 200, 1, 1, 600]
            assert spy.call_count == 7
            seq[3:2:-1]  # a reversed slice of one frame
            with pytest.raises(EmptySequenceError):
                seq[7:7]
            assert spy.call_count == 9

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(-1, 3),
        st.builds(
            slice,
            st.none() | st.integers(-10, 10),
            st.none() | st.integers(-10, 10),
            st.none() | st.integers(-4, 4).filter(bool),
        ),
    )
    def test_a_slice_is_the_sequence_of_the_sliced_arrays(self, frames, first, frames_slice):
        xyz = make_xyz(frames) + np.arange(frames)[:, None, None]
        seq = CaptureSequence(xyz, np.arange(frames) * 3 + first, GaitDirection.HORIZONTAL, "walk")
        try:
            expected = CaptureSequence(xyz[frames_slice], seq.frame_index[frames_slice], seq.direction, seq.label)
        except CalibrationError as exc:
            with pytest.raises(type(exc)) as got:
                seq[frames_slice]
            assert str(got.value) == str(exc)
        else:
            assert seq[frames_slice] == expected

    @pytest.mark.parametrize("key", [0, -1, (slice(None), 3), np.arange(2)])
    def test_only_frame_slices(self, key):
        with pytest.raises(TypeError, match="sliced by frames"):
            make_seq(3)[key]

    def test_malformed_arrays_rejected(self):
        with pytest.raises(ValueError):
            CaptureSequence(np.zeros((2, JOINT_COUNT)), [0, 1], GaitDirection.VERTICAL)
        with pytest.raises(ValueError):  # a frame of 24 joints
            CaptureSequence(np.zeros((2, JOINT_COUNT - 1, 3)), [0, 1], GaitDirection.VERTICAL)
        with pytest.raises(ValueError):
            CaptureSequence(np.zeros((2, JOINT_COUNT, 3)), [0], GaitDirection.VERTICAL)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [CaptureSequence, CaptureSequence.adopt], ids=["constructor", "adopt"])
    @pytest.mark.parametrize(
        "index, named",
        [
            ([0.5, 1.5], "0.5"),  # a cast to int64 truncates both, to [0, 1]
            (np.array([0, 2**63], np.uint64), "9223372036854775808"),  # a cast wraps it to -2**63
            ([0, 2**63], "9223372036854775808"),  # a cast raises a bare OverflowError
            ([0, math.nan], "nan"),  # a cast warns and stores -2**63
        ],
    )
    def test_indices_int64_cannot_hold_are_rejected(self, build, index, named):
        with pytest.raises(ValueError, match=f"^frame index {named} is not an integer that int64 holds$"):
            build(make_xyz(2), index, GaitDirection.VERTICAL)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [CaptureSequence, CaptureSequence.adopt], ids=["constructor", "adopt"])
    @pytest.mark.parametrize(
        "index", [[-(2.0**63), 2.0**62], np.array([1, 2**63 - 1], np.uint64), [True, 2**63 - 1], np.array([3, 5], np.int32)]
    )
    def test_indices_int64_holds_keep_their_values(self, build, index):
        seq = build(make_xyz(2), index, GaitDirection.VERTICAL)
        assert seq.frame_index.dtype == np.int64
        assert seq.frame_index.tolist() == [int(v) for v in index]


@pytest.mark.parametrize(
    "name", ["Point3", "SkeletonFrame", "SkeletonEdge", "GaitInclination", "EdgeStability", "StabilityReport"]
)
def test_plain_records_are_named_tuples(name):
    cls = getattr(skelcal, name)
    record = cls(*range(len(cls._fields)))
    assert isinstance(record, tuple) and record == tuple(range(len(cls._fields)))
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={i}" for i, f in enumerate(cls._fields)) + ")"
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 7)
