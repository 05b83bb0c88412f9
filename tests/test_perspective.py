import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from skelcal import (
    BetaModel,
    BetaPoint,
    CaptureSequence,
    GaitDirection,
    JOINT_COUNT,
    JointIndex,
    Polynomial,
    arithmetic_mean,
    beta_points,
    fit_beta_model,
    mean_perspective_degrees,
    perspective_correct_sequence,
    polyeval,
)
from skelcal.errors import (
    BetaOutOfRangeError,
    InsufficientPointsError,
    NoUsableGaitsError,
    WrongDirectionError,
)
from skelcal.perspective import _check_angles, distort_perspective
from oracles import InsufficientDepthTravelError, joint_perspective_degree, perspective_correct_point


def two_frame_seq(first, last, direction=GaitDirection.VERTICAL):
    """Two frames with every joint at ``first``, then at ``last``."""
    return CaptureSequence(np.repeat([[first], [last]], JOINT_COUNT, axis=1), [0, 1], direction)


def zero_model():
    points = (BetaPoint(JointIndex.HEAD, 1.6, 0.0),)
    return BetaModel(Polynomial((0.0,)), 0, points)


def model_from(poly):
    points = tuple(
        BetaPoint(JointIndex(j), 1.6 - 0.2 * j, 0.01) for j in range(poly.degree + 1)
    )
    return BetaModel(poly, poly.degree, points)


class TestJointPerspectiveDegree:
    def test_no_y_drift_gives_zero(self):
        seq = two_frame_seq((0, 1.5, 4.0), (0, 1.5, 1.5))
        assert joint_perspective_degree(seq, JointIndex.HEAD) == 0.0

    def test_known_drift(self):
        # joint reads 8 cm low at 4.0 m, correct at 1.5 m
        seq = two_frame_seq((0, 1.62, 4.0), (0, 1.70, 1.5))
        beta = joint_perspective_degree(seq, JointIndex.HEAD)
        assert beta == pytest.approx(0.031989084039315045, abs=1e-12)

    def test_no_depth_travel_rejected(self):
        seq = two_frame_seq((0, 1.6, 2.0), (0, 1.7, 2.0))
        with pytest.raises(InsufficientDepthTravelError):
            joint_perspective_degree(seq, JointIndex.HEAD)

    def test_horizontal_gait_rejected(self):
        seq = two_frame_seq(
            (0, 1.6, 4.0), (0, 1.7, 1.5), direction=GaitDirection.HORIZONTAL
        )
        with pytest.raises(WrongDirectionError):
            joint_perspective_degree(seq, JointIndex.HEAD)

    def test_sign_follows_drift_per_depth_ratio(self):
        # estimate and (y_last - y_first)/(z_first - z_last) share sign by construction
        for y_last in (1.55, 1.65):
            seq = two_frame_seq((0, 1.6, 4.0), (0, y_last, 1.5))
            beta = joint_perspective_degree(seq, JointIndex.HEAD)
            ratio = (y_last - 1.6) / 2.5
            assert beta * ratio >= 0.0


class TestMeanPerspectiveDegrees:
    def test_single_gait_mean_is_that_gait(self):
        seq = two_frame_seq((0, 1.62, 4.0), (0, 1.70, 1.5))
        points = mean_perspective_degrees([seq], [JointIndex.HEAD])
        assert len(points) == 1
        assert points[0].beta_rad == pytest.approx(
            joint_perspective_degree(seq, JointIndex.HEAD), abs=1e-15
        )

    def test_mean_of_two_gaits(self):
        def gait(beta):
            drift = 2.5 * math.tan(beta)
            return two_frame_seq((0, 1.6 - drift, 4.0), (0, 1.6, 1.5))

        points = mean_perspective_degrees([gait(0.02), gait(0.04)], [JointIndex.HEAD])
        assert points[0].beta_rad == pytest.approx(0.03, abs=1e-9)

    def test_points_ordered_top_to_bottom(self, truth_walk):
        raw = distort_perspective(truth_walk, Polynomial((0.02, -0.01)))
        points = mean_perspective_degrees([raw])
        heights = [p.height_y_m for p in points]
        assert heights == sorted(heights, reverse=True)

    def test_recovers_injected_profile(self, truth_walk):
        poly = Polynomial((0.02, -0.01))
        gaits = [distort_perspective(truth_walk, poly) for _ in range(10)]
        points = mean_perspective_degrees(gaits)
        for p in points:
            assert p.beta_rad == pytest.approx(polyeval(poly, p.height_y_m), abs=2e-3)

    def test_joint_without_depth_travel_rejected(self):
        seq = two_frame_seq((0, 1.6, 2.0), (0, 1.7, 1.99))
        with pytest.raises(NoUsableGaitsError) as err:
            mean_perspective_degrees([seq], [JointIndex.HEAD])
        assert err.value.joint == int(JointIndex.HEAD)

    def test_no_vertical_gait_rejected(self):
        seq = two_frame_seq(
            (0, 1.6, 4.0), (0, 1.7, 1.5), direction=GaitDirection.HORIZONTAL
        )
        with pytest.raises(WrongDirectionError):
            mean_perspective_degrees([seq], [JointIndex.HEAD])

    @pytest.mark.parametrize("joint", [25, -1])
    def test_joint_out_of_range_rejected(self, joint):
        seq = two_frame_seq((0, 1.62, 4.0), (0, 1.70, 1.5))
        with pytest.raises(ValueError, match=f"^{joint} is not a valid JointIndex"):
            mean_perspective_degrees([seq], [JointIndex.HEAD, joint])
        with pytest.raises(ValueError, match=f"^{joint} is not a valid JointIndex"):
            joint_perspective_degree(seq, joint)


class TestBetaPoints:
    """beta_points, over joint slices, against the scalar oracle joint_perspective_degree."""

    @given(
        st.lists(arrays(np.float64, st.tuples(st.integers(2, 4), st.just(JOINT_COUNT), st.just(3)),
                        elements=st.floats(-5.0, 5.0)), min_size=1, max_size=4),
        st.lists(st.sampled_from(JointIndex), min_size=1, max_size=6),
    )
    def test_matches_the_scalar_oracle(self, xyzs, joints):
        seqs = [CaptureSequence(xyz, range(len(xyz)), GaitDirection.VERTICAL) for xyz in xyzs]
        expected = []
        for j in joints:
            betas = []
            for seq in seqs:
                try:
                    betas.append(joint_perspective_degree(seq, j))
                except InsufficientDepthTravelError:
                    pass
            if not betas:
                with pytest.raises(NoUsableGaitsError) as err:
                    beta_points([s.xyz[:, joints] for s in seqs], joints)
                assert err.value.joint == j
                return
            heights = np.concatenate([s.xyz[:, j, 1] for s in seqs]).tolist()
            expected.append(BetaPoint(j, arithmetic_mean(heights), arithmetic_mean(betas)))
        expected.sort(key=lambda p: (-p.height_y_m, int(p.joint)))
        assert beta_points([s.xyz[:, joints] for s in seqs], joints) == expected

    def test_equals_mean_perspective_degrees_on_the_vertical_gaits(self, truth_walk):
        raw = distort_perspective(truth_walk, Polynomial((0.02, -0.01)))
        across = CaptureSequence(raw.xyz, raw.frame_index, GaitDirection.HORIZONTAL)
        joints = [JointIndex.HEAD, JointIndex.ANKLE_LEFT, JointIndex.HEAD]
        assert mean_perspective_degrees([raw, across, raw], joints) == beta_points([raw.xyz[:, joints]] * 2, joints)

    def test_no_slices_is_no_vertical_gait(self):
        with pytest.raises(WrongDirectionError):
            beta_points([], [JointIndex.HEAD])


class TestFitBetaModel:
    def test_exact_line(self):
        points = [
            BetaPoint(JointIndex(j), y, 0.01 - 0.005 * y)
            for j, y in enumerate((1.7, 1.4, 1.0, 0.5))
        ]
        model = fit_beta_model(points, 1)
        assert model.poly.coefficients[0] == pytest.approx(0.01, abs=1e-9)
        assert model.poly.coefficients[1] == pytest.approx(-0.005, abs=1e-9)

    def test_too_few_points(self):
        points = [BetaPoint(JointIndex.HEAD, 1.7, 0.01), BetaPoint(JointIndex.NECK, 1.5, 0.02)]
        with pytest.raises(InsufficientPointsError):
            fit_beta_model(points, 2)

    def test_noisy_quadratic_beats_generating_polynomial(self):
        import numpy as np

        rng = np.random.default_rng(3)
        truth = Polynomial((0.005, -0.01, 0.002))
        heights = [1.7, 1.5, 1.4, 1.2, 0.95, 0.45, 0.08]
        betas = [polyeval(truth, h) + rng.normal(0, 1e-3) for h in heights]
        points = [BetaPoint(JointIndex(j), h, b) for j, (h, b) in enumerate(zip(heights, betas))]
        model = fit_beta_model(points, 2)
        sse_fit = sum((b - polyeval(model.poly, h)) ** 2 for h, b in zip(heights, betas))
        sse_truth = sum((b - polyeval(truth, h)) ** 2 for h, b in zip(heights, betas))
        assert sse_fit <= sse_truth + 1e-15


class TestPerspectiveCorrectPoint:
    def test_zero_model_is_identity(self):
        p = (0.4, 1.3, 2.7)
        assert perspective_correct_point(p, zero_model()) == p

    def test_constant_angle_worked_example(self):
        model = model_from(Polynomial((0.02,)))
        out = perspective_correct_point((0.0, 1.5, 2.0), model)
        assert out.y == pytest.approx(1.5400053341868047, abs=1e-12)

    @given(
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=0, max_value=2),
        st.floats(min_value=0.8, max_value=4.5),
    )
    def test_x_and_z_never_change(self, x, y, z):
        model = model_from(Polynomial((0.03, -0.01)))
        out = perspective_correct_point((x, y, z), model)
        assert out.x == x
        assert out.z == z

    def test_angle_near_right_angle_rejected(self):
        model = model_from(Polynomial((1.6,)))
        with pytest.raises(BetaOutOfRangeError):
            perspective_correct_point((0, 1.0, 2.0), model)


class TestPerspectiveCorrectSequence:
    def test_zero_model_preserves_sequence(self, truth_walk):
        out = perspective_correct_sequence(truth_walk, zero_model())
        assert np.array_equal(out.frame_index, truth_walk.frame_index)
        assert np.array_equal(out.xyz, truth_walk.xyz)

    def test_structure_preserved(self, truth_walk):
        out = perspective_correct_sequence(truth_walk, model_from(Polynomial((0.01,))))
        assert out.xyz.shape == truth_walk.xyz.shape
        assert out.frame_index.tolist() == truth_walk.frame_index.tolist()
        assert out.direction is truth_walk.direction

    def test_inverts_fixed_point_distortion(self, truth_walk):
        poly = Polynomial((math.radians(3), -0.02))
        raw = distort_perspective(truth_walk, poly)
        back = perspective_correct_sequence(raw, model_from(poly))
        assert np.abs(back.xyz[..., 1] - truth_walk.xyz[..., 1]).max() <= 1e-6

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(JOINT_COUNT), st.just(3)),
            elements=st.floats(min_value=-0.5, max_value=5.0),
        ),
        st.floats(min_value=-0.1, max_value=0.1),
        st.floats(min_value=-0.02, max_value=0.02),
        st.floats(min_value=-0.005, max_value=0.005),
    )
    def test_undoes_distort_perspective(self, xyz, c0, c1, c2):
        poly = Polynomial((c0, c1, c2))
        seq = CaptureSequence(xyz, range(len(xyz)), GaitDirection.VERTICAL)
        back = perspective_correct_sequence(distort_perspective(seq, poly), model_from(poly))
        assert back.xyz[..., [0, 2]].tobytes() == xyz[..., [0, 2]].tobytes()
        assert np.abs(back.xyz[..., 1] - xyz[..., 1]).max() <= 1e-9

    def test_check_angles_skips_nan(self):
        """A NaN before a steep angle does not hide it, and NaN alone passes."""
        beta = np.array([[math.nan, 0.1], [-1.6, 1.6]])
        y, z = np.arange(4.0).reshape(2, 2), np.arange(10.0, 14.0).reshape(2, 2)
        with pytest.raises(BetaOutOfRangeError, match=r"^angle -1\.6 rad too close to pi/2 at y=2\.0, z=12\.0$"):
            _check_angles(beta, y, z)
        _check_angles(np.full((2, 2), math.nan), y, z)


class TestBetaTypes:
    def test_beta_point_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BetaPoint(JointIndex.HEAD, 1.6, math.pi / 2)

    def test_beta_point_joint_is_a_joint_index(self):
        assert BetaPoint(3, 1.6, 0.0).joint is JointIndex.HEAD
        with pytest.raises(ValueError):
            BetaPoint(JOINT_COUNT, 1.0, 0.01)

    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
    def test_beta_point_rejects_non_finite_height(self, height):
        """write_profile would print it as a bare NaN or Infinity, which is not JSON."""
        with pytest.raises(ValueError):
            BetaPoint(JointIndex.HEAD, height, 0.01)

    def test_model_degree_must_match(self):
        with pytest.raises(ValueError):
            BetaModel(Polynomial((0.0, 1.0)), 2, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),) * 3)

    def test_model_needs_more_points_than_degree(self):
        with pytest.raises(ValueError):
            BetaModel(Polynomial((0.0, 1.0)), 1, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),))


class TestSequenceMatchesScalarOracle:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(JOINT_COUNT), st.just(3)),
            elements=st.floats(min_value=-0.5, max_value=5.0),
        ),
        st.floats(min_value=-0.1, max_value=0.1),
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-0.01, max_value=0.01),
    )
    def test_within_1e12_of_point(self, xyz, c0, c1, c2):
        model = model_from(Polynomial((c0, c1, c2)))
        seq = CaptureSequence(xyz, range(len(xyz)), GaitDirection.VERTICAL)
        out = perspective_correct_sequence(seq, model)
        for fa, fb in zip(out.xyz.tolist(), xyz.tolist()):
            for (x, y, z), b in zip(fa, fb):
                expected = perspective_correct_point(b, model)
                assert (x, z) == (expected.x, expected.z)
                assert abs(y - expected.y) <= 1e-12

    def test_angle_near_right_angle_rejected(self, truth_walk):
        y, z = truth_walk.xyz[0, 0, 1:]
        with pytest.raises(BetaOutOfRangeError, match=rf"^angle 1\.6 rad too close to pi/2 at y={y}, z={z}$"):
            perspective_correct_sequence(truth_walk, model_from(Polynomial((1.6,))))
