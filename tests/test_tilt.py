import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from skelcal import (
    CaptureSequence,
    GaitDirection,
    GaitInclination,
    JOINT_COUNT,
    Point3,
    TiltModel,
    TiltParams,
    aggregate_inclination,
    estimate_tilt,
    gait_inclination,
    tilt_correct_sequence,
)
from skelcal.synthetic import add_noise, generate_truth_capture
from skelcal.tilt import distort_tilt
from skelcal.errors import (
    EmptyInputError,
    MixedSignAnglesError,
    NoUsableFramesError,
    TiltOutOfRangeError,
    ZeroAngleError,
)
from oracles import DegenerateSpineError, frame_inclination, tilt_correct_point


def spine_frame(base, mid):
    """One frame's (25, 3) joints with the two spine joints set; everything else neutral."""
    joints = np.tile((0.0, 1.0, 2.5), (JOINT_COUNT, 1))
    joints[0], joints[1] = base, mid
    return joints


def frame_with_tilt(tilt_rad, z0=2.5):
    # estimator reads atan2(z_base - z_mid, y_mid - y_base)
    rise = 0.3
    return spine_frame((0.0, 0.9, z0), (0.0, 1.2, z0 - rise * math.tan(tilt_rad)))


def vertical_gait(frames):
    return CaptureSequence(frames, range(len(frames)), GaitDirection.VERTICAL)


class TestFrameInclination:
    def test_vertical_spine_gives_zero(self):
        frame = spine_frame((0, 0.90, 2.50), (0, 1.20, 2.50))
        assert frame_inclination(frame) == 0.0

    def test_known_spine_geometry(self):
        # upper spine joint 3 cm deeper over a 30 cm rise
        frame = spine_frame((0, 0.90, 2.50), (0, 1.20, 2.53))
        assert frame_inclination(frame) == pytest.approx(-0.0996686524911614, abs=1e-12)

    def test_degenerate_spine_rejected(self):
        frame = spine_frame((0, 1.00, 2.0), (0.1, 1.00, 2.1))
        with pytest.raises(DegenerateSpineError):
            frame_inclination(frame)

    def test_recovers_injected_angle_from_round_trip(self):
        for deg in (1, 3, 7, 10):
            tilt = math.radians(deg)
            assert frame_inclination(frame_with_tilt(tilt)) == pytest.approx(tilt, abs=1e-12)


class TestGaitInclination:
    def test_constant_tilt_sequence(self):
        frames = [frame_with_tilt(0.1) for _ in range(5)]
        result = gait_inclination(vertical_gait(frames))
        assert result.mean_rad == pytest.approx(0.1, abs=1e-12)
        assert len(result.per_frame_rad) == 5

    def test_mean_of_mixed_frames(self):
        frames = [frame_with_tilt(a) for a in (0.08, 0.10, 0.12)]
        result = gait_inclination(vertical_gait(frames))
        assert result.mean_rad == pytest.approx(0.10, abs=1e-12)

    def test_degenerate_frames_skipped(self):
        frames = [
            frame_with_tilt(0.1),
            spine_frame((0, 1.0, 2.0), (0, 1.0, 2.1)),
            frame_with_tilt(0.1),
        ]
        result = gait_inclination(vertical_gait(frames))
        assert len(result.per_frame_rad) == 2

    def test_inverted_frames_skipped(self):
        """A spine whose middle reads below its base is a glitch, not an inclination past pi/2."""
        frames = [frame_with_tilt(0.1), spine_frame((0, 1.2, 2.5), (0, 0.9, 2.47)), frame_with_tilt(0.1)]
        result = gait_inclination(vertical_gait(frames))
        assert len(result.per_frame_rad) == 2
        assert result.mean_rad == pytest.approx(0.1, abs=1e-12)

    def test_only_inverted_frames_rejected(self):
        with pytest.raises(NoUsableFramesError):
            gait_inclination(vertical_gait([spine_frame((0, 1.2, 2.5), (0, 0.9, 2.5))] * 3))

    def test_all_degenerate_rejected(self):
        frames = [spine_frame((0, 1.0, 2.0), (0, 1.0, 2.1)) for _ in range(3)]
        with pytest.raises(NoUsableFramesError):
            gait_inclination(vertical_gait(frames))


class TestAggregateInclination:
    def test_singleton(self):
        assert aggregate_inclination([0.1]) == pytest.approx(0.1, abs=1e-12)

    def test_geometric_mean_of_two(self):
        assert aggregate_inclination([0.02, 0.08]) == pytest.approx(0.04, abs=1e-12)

    def test_negative_pair_keeps_sign(self):
        assert aggregate_inclination([-0.02, -0.08]) == pytest.approx(-0.04, abs=1e-12)

    def test_mixed_signs_rejected(self):
        with pytest.raises(MixedSignAnglesError):
            aggregate_inclination([0.02, -0.08])

    def test_zero_rejected(self):
        with pytest.raises(ZeroAngleError):
            aggregate_inclination([0.0, 0.1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate_inclination([])

    @given(st.floats(min_value=1e-4, max_value=0.4), st.integers(min_value=1, max_value=10))
    def test_n_copies_of_same_angle(self, angle, n):
        assert aggregate_inclination([angle] * n) == pytest.approx(angle, abs=1e-12)


def gait(*per_frame_rad):
    """A GaitInclination of these per-frame estimates; two frames (0, 2m) have mean m and standard error |m|."""
    return GaitInclination(per_frame_rad, sum(per_frame_rad) / len(per_frame_rad))


class TestEstimateTilt:
    """One case per branch of the level-sensor rule, on hand-built gait inclinations."""

    @pytest.mark.parametrize(
        "gaits, expected",
        [
            # mixed signs, every mean below 1e-4: level
            ([gait(5e-5), gait(-5e-5)], 0.0),
            # one sign, each mean above 1e-4 and within 5 standard errors: aggregated all the same
            ([gait(0.0, -0.004), gait(0.0, -0.016)], pytest.approx(-0.004, rel=1e-12)),
            # mixed signs, each mean within 5 standard errors: level
            ([gait(0.0, 0.004), gait(0.0, -0.004)], 0.0),
            # mixed signs, and 0.002 rad in every frame lies beyond any multiple of its zero standard error
            ([gait(0.002, 0.002), gait(0.0, -0.004)], MixedSignAnglesError),
            ([gait(0.0), gait(0.1)], ZeroAngleError),
            # a single frame has no standard error, so only the 1e-4 bound counts
            ([gait(-5e-4), gait(5e-5)], MixedSignAnglesError),
            ([], EmptyInputError),
        ],
    )
    def test_branches(self, gaits, expected):
        if isinstance(expected, type):
            with pytest.raises(expected):
                estimate_tilt(gaits)
        else:
            assert estimate_tilt(gaits) == expected


class TestTiltCorrectPoint:
    def test_identity_with_zero_params(self):
        p = (0.3, 1.2, 3.4)
        assert tilt_correct_point(p, TiltParams(0.0, 0.0)) == p

    def test_pure_height_offset(self):
        corrected = tilt_correct_point((0.2, 1.0, 2.0), TiltParams(0.0, 0.75))
        assert corrected == Point3(0.2, 1.75, 2.0)

    def test_worked_example(self):
        corrected = tilt_correct_point(np.array([0.2, 1.0, 2.0]), TiltParams(0.1, 0.5))
        assert corrected.x == 0.2
        assert corrected.z == pytest.approx(2.099833416646828, abs=1e-12)
        assert corrected.y == pytest.approx(1.7096335443730355, abs=1e-12)

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-0.5, max_value=2.5),
        st.floats(min_value=0.8, max_value=5.0),
        st.floats(min_value=-0.49, max_value=0.49),
        st.floats(min_value=0, max_value=2),
    )
    def test_x_never_changes(self, x, y, z, tilt, h):
        assert tilt_correct_point((x, y, z), TiltParams(tilt, h)).x == x

    @given(
        st.floats(min_value=-0.5, max_value=2.5),
        st.floats(min_value=0.8, max_value=5.0),
        st.floats(min_value=-0.49, max_value=0.49),
        st.floats(min_value=0, max_value=2),
    )
    def test_shear_distort_then_correct_is_identity(self, y, z, tilt, h):
        params = TiltParams(tilt, h)
        truth = vertical_gait(np.tile((0.0, y, z), (1, JOINT_COUNT, 1)))
        back = tilt_correct_sequence(distort_tilt(truth, params), params)
        _, got_y, got_z = back.xyz[0, 0]
        assert got_y == pytest.approx(y, abs=1e-9)
        assert got_z == pytest.approx(z, abs=1e-9)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TiltParams(math.pi / 2, 0.0)
        with pytest.raises(ValueError):
            TiltParams(0.0, -0.1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_params_take_a_tilt_just_inside_pi_over_2(self, sign):
        assert TiltParams(sign * math.nextafter(math.pi / 2, 0.0), 0.0).tilt_rad == sign * math.nextafter(math.pi / 2, 0.0)
        for tilt in (sign * math.pi / 2, sign * math.inf, math.nan):
            with pytest.raises(TiltOutOfRangeError, match=r"^tilt must satisfy \|tilt\| < pi/2, got "):
                TiltParams(tilt, 0.0)


class TestTiltCorrectSequence:
    def test_zero_params_preserve_sequence(self, truth_walk):
        out = tilt_correct_sequence(truth_walk, TiltParams(0.0, 0.0))
        assert np.array_equal(out.frame_index, truth_walk.frame_index)
        assert np.array_equal(out.xyz, truth_walk.xyz)
        assert out.direction is truth_walk.direction

    def test_single_frame_structure_preserved(self):
        seq = CaptureSequence([frame_with_tilt(0.05)], [7], GaitDirection.HORIZONTAL, "one")
        out = tilt_correct_sequence(seq, TiltParams(0.1, 0.4))
        assert out.xyz.shape == (1, JOINT_COUNT, 3)
        assert out.frame_index.tolist() == [7]
        assert out.direction is GaitDirection.HORIZONTAL
        assert out.label == "one"

    def test_recovers_truth_from_shear_distortion(self, truth_walk):
        params = TiltParams(math.radians(7), 0.75)
        raw = distort_tilt(truth_walk, params)
        back = tilt_correct_sequence(raw, params)
        assert np.abs(back.xyz - truth_walk.xyz).max() <= 1e-9


class TestRotationModelRecovery:
    def test_inclination_recovered_within_quarter_degree(self, truth_walk):
        for deg in (1, 2, 5, 7, 10):
            tilt = math.radians(deg)
            raw = distort_tilt(truth_walk, TiltParams(tilt, 0.75), TiltModel.ROTATION)
            estimate = gait_inclination(raw).mean_rad
            assert abs(estimate - tilt) <= math.radians(0.25)

    def test_upright_truth_frames_estimate_zero(self, truth_walk):
        for joints in truth_walk.xyz[::10]:
            assert abs(frame_inclination(joints)) <= 1e-12


#: 1-6 frames of 25 joints with every coordinate in the sensor's working range.
capture_xyz = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.just(JOINT_COUNT), st.just(3)),
    elements=st.floats(min_value=-0.5, max_value=5.0),
)


class TestArrayKernelsMatchScalarOracle:
    @given(capture_xyz, st.floats(min_value=-0.49, max_value=0.49), st.floats(min_value=0, max_value=2))
    def test_tilt_correct_sequence_equals_point(self, xyz, tilt, h):
        params = TiltParams(tilt, h)
        out = tilt_correct_sequence(vertical_gait(xyz), params)
        for k, joints in enumerate(xyz.tolist()):
            assert list(map(tuple, out.xyz[k].tolist())) == [tilt_correct_point(p, params) for p in joints]

    @given(capture_xyz)
    @example(  # a usable frame, then frames whose spine rise and whose spine drop overflow
        np.array([spine_frame((0, 0.9, 2.5), (0, 1.2, 2.4)), spine_frame((0, -1.7e308, 2.5), (0, 1.7e308, 2.5)),
                  spine_frame((0, 0.9, 1.7e308), (0, 1.2, -1.7e308))])
    )
    def test_gait_inclination_equals_frame_inclination(self, xyz):
        seq = vertical_gait(xyz)
        expected = []
        for joints in xyz.tolist():
            try:
                expected.append(frame_inclination(joints))
            except DegenerateSpineError:
                continue
        if not expected:
            with pytest.raises(NoUsableFramesError):
                gait_inclination(seq)
        else:
            assert gait_inclination(seq).per_frame_rad == tuple(expected)

    def test_gait_inclination_equals_frame_inclination_on_noisy_walk(self, template):
        # numpy's arctan2 differs from math.atan2 in the last bit on a few percent of
        # such frames; 600 of them make any such drift show
        walk = generate_truth_capture(template, GaitDirection.VERTICAL, 600, 4.5, 1.5)
        tilted = distort_tilt(walk, TiltParams(0.3, 0.0), TiltModel.ROTATION)
        raw = add_noise(tilted, 0.005, 1)
        expected = tuple(frame_inclination(joints) for joints in raw.xyz)
        assert gait_inclination(raw).per_frame_rad == expected
