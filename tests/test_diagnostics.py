import math

import numpy as np
import pytest

from skelcal import (
    CaptureSequence,
    DistortionSpec,
    GaitDirection,
    JOINT_COUNT,
    JointIndex,
    Polynomial,
    SKELETON_EDGES,
    add_noise,
    apply_distortion,
    apply_profile,
    bone_length_stability,
    calibrate,
    tilt_correct_sequence,
    y_diff_to_last,
)
from skelcal.errors import CalibrationError, EmptySequenceError, MeasureOverflowError, TooFewFramesError
from skelcal.perspective import distort_perspective
from oracles import bone_lengths, max_y_diff


def flat_seq(ys):
    """Frame k has every joint at (0, ys[k], 2)."""
    xyz = np.zeros((len(ys), JOINT_COUNT, 3))
    xyz[..., 1] = np.asarray(ys)[:, None]
    xyz[..., 2] = 2.0
    return CaptureSequence(xyz, range(len(ys)), GaitDirection.VERTICAL)


class TestYDiffToLast:
    def test_constant_y_gives_all_zeros(self):
        series = y_diff_to_last(flat_seq([1.2, 1.2, 1.2]), [JointIndex.HEAD])
        assert series[0].per_frame_diff.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("other", [0, object()], ids=["zero", "object"])
    def test_series_unequal_to_another_type(self, other):
        series = y_diff_to_last(flat_seq([1.0, 1.3]), [JointIndex.HEAD])[0]
        assert not series == other
        assert series != other

    def test_last_entry_always_zero(self):
        series = y_diff_to_last(flat_seq([1.0, 1.3, 0.9, 1.1]))
        for s in series:
            assert s.per_frame_diff[-1] == 0.0

    def test_values_are_differences_to_last(self):
        series = y_diff_to_last(flat_seq([1.0, 1.3, 1.1]), [JointIndex.SPINE_BASE])
        assert series[0].per_frame_diff == pytest.approx((-0.1, 0.2, 0.0), abs=1e-15)

    def test_translation_invariant_in_y(self):
        ys = [1.0, 1.25, 0.95, 1.1]
        base = y_diff_to_last(flat_seq(ys))
        shifted = y_diff_to_last(flat_seq([y + 0.7 for y in ys]))
        for a, b in zip(base, shifted):
            assert a.per_frame_diff == pytest.approx(b.per_frame_diff, abs=1e-12)

    def test_matches_per_value_differences_exactly(self, truth_walk):
        seq = add_noise(truth_walk, 0.005, seed=3)
        joints = [JointIndex.FOOT_RIGHT, JointIndex.HEAD, JointIndex.KNEE_LEFT]
        for series in y_diff_to_last(seq, joints):
            j = int(series.joint)
            expected = [seq.xyz[k, j, 1] - seq.xyz[-1, j, 1] for k in range(len(seq))]
            assert series.per_frame_diff.tolist() == expected
            assert np.abs(series.per_frame_diff).max() == max(abs(d) for d in expected)

    def test_series_are_read_only_arrays_compared_by_value(self):
        seq = flat_seq([1.0, 1.3, 0.9])
        all_series = y_diff_to_last(seq)
        for series in all_series:
            assert series.per_frame_diff.dtype == np.float64
            with pytest.raises(ValueError):
                series.per_frame_diff[0] = 5.0
        assert all_series == y_diff_to_last(seq)
        assert all_series != y_diff_to_last(flat_seq([1.0, 1.2, 0.9]))

    def test_empty_sequence_raises_typed_error(self):
        with pytest.raises(EmptySequenceError):  # no capture of no frames reaches the diagnostics
            CaptureSequence(np.zeros((0, JOINT_COUNT, 3)), [], GaitDirection.VERTICAL)

    @pytest.mark.parametrize("joint", [25, -1])
    def test_joint_out_of_range_rejected(self, joint):
        seq = flat_seq([1.0, 1.3, 0.9])
        with pytest.raises(ValueError, match=f"^{joint} is not a valid JointIndex"):
            y_diff_to_last(seq, [JointIndex.HEAD, joint])
        with pytest.raises(ValueError, match=f"^{joint} is not a valid JointIndex"):
            max_y_diff(seq, [joint])

    def test_correction_reduces_max_diff(self, truth_walk):
        spec = DistortionSpec(
            tilt_rad=math.radians(7),
            sensor_height_m=0.75,
            beta_poly=Polynomial((math.radians(3), -0.02)),
        )
        raw = apply_distortion(truth_walk, spec)
        profile = calibrate([apply_distortion(truth_walk, spec) for _ in range(5)], 0.75)
        assert max_y_diff(apply_profile(raw, profile)) < max_y_diff(raw)


class TestBoneLengths:
    def test_simple_distance(self):
        joints = np.zeros((JOINT_COUNT, 3))
        joints[JointIndex.SPINE_MID] = (0.0, 0.3, 0.0)
        lengths = dict(bone_lengths(joints))
        spine_edge = next(
            e for e in SKELETON_EDGES
            if e.parent == JointIndex.SPINE_BASE and e.child == JointIndex.SPINE_MID
        )
        assert lengths[spine_edge] == pytest.approx(0.3, abs=1e-15)

    def test_all_24_edges_reported(self, truth_walk):
        result = bone_lengths(truth_walk.xyz[0])
        assert len(result) == 24
        assert {r[0] for r in result} == set(SKELETON_EDGES)

    def test_rigid_frame_matches_template(self, template, truth_walk):
        offsets = template.joint_offsets
        expected = {
            e: math.dist(offsets[e.parent], offsets[e.child]) for e in SKELETON_EDGES
        }
        for edge, length in bone_lengths(truth_walk.xyz[0]):
            assert length == pytest.approx(expected[edge], abs=1e-12)

    def test_invariant_under_rigid_transform(self, truth_walk):
        frame = truth_walk.xyz[10]
        angle = 0.3
        c, s = math.cos(angle), math.sin(angle)
        moved = [(x * c - z * s + 0.5, y + 1.0, x * s + z * c - 0.2) for x, y, z in frame.tolist()]
        before = [l for _, l in bone_lengths(frame)]
        after = [l for _, l in bone_lengths(moved)]
        assert after == pytest.approx(before, abs=1e-12)


def extreme_seq(frame_ys):
    """Frames of finite coordinates whose differences overflow: frame k has every joint's y from ``frame_ys[k]``."""
    xyz = np.ones((len(frame_ys), JOINT_COUNT, 3))
    xyz[..., 1] = frame_ys
    return CaptureSequence(xyz, [10 * k + 3 for k in range(len(frame_ys))], GaitDirection.VERTICAL)


class TestOverflow:
    """A measure beyond float64's range is a typed error naming where, never a numpy warning or an inf."""

    def test_y_drift_names_the_joint_and_frame(self):
        seq = extreme_seq([[1.0] * JOINT_COUNT, [1.7e308] * JOINT_COUNT, [-1.7e308] * JOINT_COUNT])
        with pytest.raises(MeasureOverflowError, match="^y - y_last of joint 2 overflows at frame 13$"):
            y_diff_to_last(seq, [JointIndex.NECK, JointIndex.HEAD])

    def test_bone_length_names_the_edge_and_frame(self):
        alternating = [1.7e308 if j % 2 else -1.7e308 for j in range(JOINT_COUNT)]
        seq = extreme_seq([[1.0] * JOINT_COUNT, alternating])
        with pytest.raises(MeasureOverflowError, match="^length of bone 0-1 overflows at frame 13$"):
            bone_length_stability(seq)

    def test_bone_length_spread_beyond_range(self):
        """A representable length whose squared deviation is not: the edge and the deviating frame."""
        ys = np.ones((3, JOINT_COUNT))
        ys[1, JointIndex.HEAD] = 1e200
        with pytest.raises(MeasureOverflowError, match="^length of bone 2-3 overflows at frame 13$"):
            bone_length_stability(extreme_seq(ys))


class TestBoneLengthStability:
    def test_rigid_capture_has_zero_std(self, truth_walk):
        report = bone_length_stability(truth_walk)
        assert max(e.std_length_m for e in report.per_edge) <= 1e-12

    def test_matches_per_frame_bone_lengths(self, truth_walk):
        seq = add_noise(truth_walk, 0.005, seed=11)
        per_frame = [[length for _, length in bone_lengths(joints)] for joints in seq.xyz.tolist()]
        report = bone_length_stability(seq)
        assert [e.edge for e in report.per_edge] == list(SKELETON_EDGES)
        for e, lengths in zip(report.per_edge, zip(*per_frame)):
            mean = math.fsum(lengths) / len(lengths)
            std = math.sqrt(math.fsum((l - mean) ** 2 for l in lengths) / len(lengths))
            assert e.mean_length_m == pytest.approx(mean, abs=1e-12)
            assert e.std_length_m == pytest.approx(std, abs=1e-12)
            assert e.max_abs_dev_m == pytest.approx(max(abs(l - mean) for l in lengths), abs=1e-12)

    def test_single_frame_rejected(self, truth_walk):
        one = CaptureSequence(truth_walk.xyz[:1], truth_walk.frame_index[:1], truth_walk.direction)
        with pytest.raises(TooFewFramesError) as err:
            bone_length_stability(one)
        assert isinstance(err.value, CalibrationError) and isinstance(err.value, ValueError)

    def test_mean_lengths_positive(self, truth_walk):
        report = bone_length_stability(truth_walk)
        assert all(e.mean_length_m > 0 for e in report.per_edge)

    def test_calibration_restores_stability(self, template, truth_walk):
        poly = Polynomial((0.035, -0.02))
        raw = distort_perspective(truth_walk, poly)
        profile = calibrate([distort_perspective(truth_walk, poly) for _ in range(5)], 0.0)
        before = bone_length_stability(raw)
        after = bone_length_stability(apply_profile(raw, profile))
        offsets = template.joint_offsets
        for eb, ea in zip(before.per_edge, after.per_edge):
            dy = abs(offsets[eb.edge.parent].y - offsets[eb.edge.child].y)
            if dy > 0.05:
                assert ea.std_length_m <= eb.std_length_m


class TestImprovementOrdering:
    def test_raw_tilt_full_monotone(self, truth_walk):
        spec = DistortionSpec(
            tilt_rad=math.radians(7),
            sensor_height_m=0.75,
            beta_poly=Polynomial((math.radians(3), -0.02)),
        )
        raw = apply_distortion(truth_walk, spec)
        profile = calibrate([apply_distortion(truth_walk, spec) for _ in range(5)], 0.75)
        raw_m = max_y_diff(raw)
        tilt_m = max_y_diff(tilt_correct_sequence(raw, profile.tilt))
        full_m = max_y_diff(apply_profile(raw, profile))
        assert raw_m >= tilt_m >= full_m
