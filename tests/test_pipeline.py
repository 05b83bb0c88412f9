import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelcal import (
    BetaModel,
    BetaPoint,
    CalibrationProfile,
    DEFAULT_BETA_JOINTS,
    DistortionSpec,
    GaitDirection,
    JointIndex,
    PipelineConfig,
    Polynomial,
    TiltParams,
    apply_distortion,
    CaptureSequence,
    JOINT_COUNT,
    apply_profile,
    calibrate,
    default_template,
    estimate_tilt,
    fit_beta_model,
    gait_inclination,
    generate_truth_capture,
    mean_perspective_degrees,
    perspective_correct_sequence,
    tilt_correct_sequence,
)
from skelcal.errors import (
    EmptyInputError,
    MixedSignAnglesError,
    NonFiniteCoordinateError,
    NoUsableGaitsError,
    WrongDirectionError,
)
from oracles import beta_error_deg, max_y_diff


def identity_profile():
    beta = BetaModel(Polynomial((0.0,)), 0, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),))
    return CalibrationProfile(TiltParams(0.0, 0.0), beta, 1)


def shear_spec(noise_seed=None):
    return DistortionSpec(
        tilt_rad=math.radians(7),
        sensor_height_m=0.75,
        beta_poly=Polynomial((math.radians(3), -0.02)),
        noise_std_m=0.005 if noise_seed is not None else 0.0,
        seed=noise_seed or 0,
    )


@functools.lru_cache(maxsize=None)
def shear_gait(direction, noise_seed):
    """A 90-frame walk under shear_spec, cached: distortion is the slow part of a test."""
    truth = generate_truth_capture(default_template(), direction, 90, 4.5, 1.5)
    return apply_distortion(truth, shear_spec(noise_seed))


def staged_calibration(gaits, height, config):
    """The stages composed on whole sequences, as calibrate composed them before it kept joint slices."""
    tilt = TiltParams(estimate_tilt([gait_inclination(g) for g in gaits]), height)
    with np.errstate(over="ignore", invalid="ignore"):
        corrected = [tilt_correct_sequence(g, tilt) for g in gaits]
    beta = fit_beta_model(mean_perspective_degrees(corrected, config.beta_joints), config.beta_degree)
    return CalibrationProfile(tilt, beta, len(gaits))


def tracemalloc_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCalibrate:
    def test_undistorted_gaits_fall_back_to_zero_tilt(self, truth_walk):
        profile = calibrate([truth_walk] * 3, 0.0)
        assert profile.tilt.tilt_rad == 0.0
        assert profile.gait_count == 3

    def test_recovers_shear_injected_tilt(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec()) for _ in range(10)]
        profile = calibrate(gaits, 0.75)
        expected = math.atan(math.sin(math.radians(7)))
        assert abs(profile.tilt.tilt_rad - expected) <= 1e-6

    def test_empty_gait_list_rejected(self):
        with pytest.raises(EmptyInputError):
            calibrate([], 0.75)

    def test_negative_sensor_height_rejected(self, truth_walk):
        with pytest.raises(ValueError):
            calibrate([truth_walk], -0.1)

    @pytest.mark.parametrize("height", [-1.0, math.nan, math.inf, -math.inf])
    def test_bad_sensor_height_rejected_before_estimation(self, truth_walk, height):
        with mock.patch("skelcal.pipeline.gait_inclination", side_effect=AssertionError("estimation ran")):
            with pytest.raises(ValueError, match="sensor height"):
                calibrate([truth_walk], height)

    def test_deterministic(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec(noise_seed=5)) for _ in range(3)]
        a = calibrate(gaits, 0.75)
        b = calibrate(gaits, 0.75)
        assert a == b

    def test_stage_tag_on_propagated_errors(self, template):
        up = generate_truth_capture(template, GaitDirection.VERTICAL, 30, 4.5, 1.5)
        down = apply_distortion(up, DistortionSpec(tilt_rad=-0.1))
        tilted = apply_distortion(up, DistortionSpec(tilt_rad=0.1))
        with pytest.raises(MixedSignAnglesError) as err:
            calibrate([down, tilted], 0.0)
        assert err.value.stage == "tilt-estimation"
        assert "tilt-estimation" in str(err.value)

    @pytest.mark.parametrize("first_seed", [0, 10, 20])
    def test_level_sensor_with_tracking_noise(self, truth_walk, first_seed):
        # with 5 mm noise the per-gait means scatter about 0 with both signs,
        # each within 3 of its standard errors, inside the 5 that count as 0
        gaits = [
            apply_distortion(truth_walk, DistortionSpec(noise_std_m=0.005, seed=first_seed + i))
            for i in range(10)
        ]
        assert calibrate(gaits, 0.75).tilt.tilt_rad == 0.0

    @pytest.mark.parametrize("first_seed", [0, 10, 20])
    def test_small_tilt_with_tracking_noise(self, truth_walk, first_seed):
        # each 0.5 degree gait mean lies a few standard errors from 0, but all
        # share a sign, so they are aggregated rather than taken as 0
        gaits = [
            apply_distortion(
                truth_walk, DistortionSpec(tilt_rad=math.radians(0.5), noise_std_m=0.005, seed=first_seed + i)
            )
            for i in range(10)
        ]
        tilt_rad = calibrate(gaits, 0.75).tilt.tilt_rad
        assert tilt_rad == pytest.approx(math.radians(0.5), abs=math.radians(0.15))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 10: 0.3 degree gait means that straddle 0 each lie within 5 standard "
        "errors of it, so estimate_tilt takes the sensor as level and returns 0.0",
    )
    def test_0_3_degree_tilt_with_tracking_noise(self, truth_walk):
        gaits = [
            apply_distortion(
                truth_walk,
                DistortionSpec(tilt_rad=math.radians(0.3), sensor_height_m=0.75, noise_std_m=0.005, seed=10 + i),
            )
            for i in range(10)
        ]
        tilt_rad = calibrate(gaits, 0.75).tilt.tilt_rad
        assert tilt_rad == pytest.approx(math.radians(0.3), abs=math.radians(0.1))

    def test_noisy_opposed_tilts_still_raise(self, truth_walk):
        gaits = [
            apply_distortion(truth_walk, DistortionSpec(tilt_rad=tilt, noise_std_m=0.005, seed=i))
            for i, tilt in enumerate((-0.1, 0.1, 0.1))
        ]
        with pytest.raises(MixedSignAnglesError):
            calibrate(gaits, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(beta_degree=0)
        with pytest.raises(ValueError):
            PipelineConfig(beta_degree=7)

    @pytest.mark.parametrize("joint", [25, -1])
    def test_config_rejects_joint_out_of_range(self, joint):
        with pytest.raises(ValueError, match=f"^{joint} is not a valid JointIndex"):
            PipelineConfig(beta_joints=(JointIndex.HEAD, joint))

    def test_config_stores_joints_as_joint_indices(self):
        config = PipelineConfig(beta_joints=[3, np.int64(15)])
        assert config.beta_joints == (JointIndex.HEAD, JointIndex.FOOT_LEFT)
        assert all(type(j) is JointIndex for j in config.beta_joints)

    def test_beta_degree_configurable(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec()) for _ in range(3)]
        profile = calibrate(gaits, 0.75, PipelineConfig(beta_degree=1))
        assert profile.beta.fit_degree == 1
        assert len(profile.beta.poly.coefficients) == 2


    @pytest.mark.parametrize("joints", [(3, 3, 3, 2, 20, 1, 0), (JointIndex.HEAD, 2, 3)])
    def test_config_rejects_a_repeated_joint(self, joints):
        with pytest.raises(ValueError, match="^joint 3 is listed twice in beta_joints$"):
            PipelineConfig(beta_joints=joints)


#: β = 3.0 - 1.0·y degrees, as in the TestOutputDigests inputs.
_WALK_BETA = Polynomial((math.radians(3.0), math.radians(-1.0)))
#: The largest β error allowed over y in [0.05, 1.7] m: one-way walks measure 0.23 degrees.
_WALK_BETA_ERROR_DEG = 0.5


@functools.lru_cache(maxsize=None)
def one_way_walks():
    """Ten 90-frame vertical walks from 4.5 m to 1.5 m on seeds 0-9, with 7 degrees of shear,
    h = 0.75 m, β = _WALK_BETA and 5 mm noise."""
    truth = generate_truth_capture(default_template(), GaitDirection.VERTICAL, 90, 4.5, 1.5)
    return tuple(
        apply_distortion(truth, DistortionSpec(
            tilt_rad=math.radians(7), sensor_height_m=0.75, beta_poly=_WALK_BETA, noise_std_m=0.005, seed=seed
        ))
        for seed in range(10)
    )


def _refused(k):
    return pytest.param(k, marks=pytest.mark.xfail(
        strict=True, raises=NoUsableGaitsError,
        reason="ROADMAP item 19: the first and last frames lie at about the same depth, so no joint has depth travel",
    ))


def _silently_wrong(k, measured):
    return pytest.param(k, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"ROADMAP item 19: beta_points reads the first and last frames of the walk; {measured} degrees wrong",
    ))


class TestWalksInAndBackOut:
    """A walk toward the sensor and back, as people record one: each gait is followed by its
    own frames reversed, less the last k, so the walk back ends k frames short of its start."""

    def test_one_way(self):
        profile = calibrate(list(one_way_walks()), 0.75)
        assert beta_error_deg(profile, _WALK_BETA) < _WALK_BETA_ERROR_DEG
        assert math.degrees(profile.tilt.tilt_rad) == pytest.approx(7.0, abs=0.1)

    @pytest.mark.parametrize("k", [
        _refused(0), _refused(3), _silently_wrong(6, 4.37), _silently_wrong(15, 1.69), _silently_wrong(30, 0.92),
    ])
    def test_in_and_back_out(self, k):
        walks = []
        for gait in one_way_walks():
            xyz = np.concatenate([gait.xyz, gait.xyz[::-1][: len(gait) - k]])
            walks.append(CaptureSequence(xyz, np.arange(len(xyz)), GaitDirection.VERTICAL))
        profile = calibrate(walks, 0.75)
        assert math.degrees(profile.tilt.tilt_rad) == pytest.approx(7.0, abs=0.1)
        assert beta_error_deg(profile, _WALK_BETA) < _WALK_BETA_ERROR_DEG


class TestCalibrateOnePass:
    """calibrate reads its gaits once and keeps only the joints its estimators read."""

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 15), min_size=1, max_size=4),
        horizontal_seed=st.none() | st.integers(0, 3),
        degree=st.integers(1, 3),
        data=st.data(),
    )
    def test_equals_the_staged_composition_bit_for_bit(self, seeds, horizontal_seed, degree, data):
        gaits = [shear_gait(GaitDirection.VERTICAL, seed) for seed in seeds]
        if horizontal_seed is not None:
            gaits.insert(data.draw(st.integers(0, len(gaits))), shear_gait(GaitDirection.HORIZONTAL, horizontal_seed))
        joints = data.draw(st.lists(st.sampled_from(JointIndex), min_size=degree + 1, max_size=9, unique=True))
        config = PipelineConfig(beta_degree=degree, beta_joints=joints)
        staged = staged_calibration(gaits, 0.75, config)
        for argument in (iter(gaits), gaits):
            profile = calibrate(argument, 0.75, config)
            assert repr((profile.tilt, profile.beta, profile.gait_count)) == repr(
                (staged.tilt, staged.beta, staged.gait_count)
            )

    def test_no_gaits(self):
        with pytest.raises(EmptyInputError):
            calibrate(iter(()), 0.75)

    def test_only_horizontal_gaits(self):
        gaits = [shear_gait(GaitDirection.HORIZONTAL, seed) for seed in (0, 1)]
        with pytest.raises(WrongDirectionError) as err:
            calibrate(iter(gaits), 0.75)
        assert err.value.stage == "perspective-estimation"

    def test_a_joint_without_depth_travel_in_any_gait(self, truth_walk):
        xyz = truth_walk.xyz.copy()
        xyz[-1, JointIndex.KNEE_LEFT, 2] = xyz[0, JointIndex.KNEE_LEFT, 2]  # level sensor: z is not corrected
        still_knee = truth_walk.with_xyz(xyz)
        with pytest.raises(NoUsableGaitsError) as err:
            calibrate(iter([still_knee, still_knee]), 0.0)
        assert (err.value.joint, err.value.stage) == (JointIndex.KNEE_LEFT, "perspective-estimation")

    @pytest.mark.parametrize(
        "joints, expected",
        [
            ((JointIndex.HEAD,), (5, 3, "y")),
            ((JointIndex.HEAD, JointIndex.NECK), (5, 2, "y")),  # validate_sequence's order, not the config's
            ((JointIndex.HAND_LEFT, JointIndex.HEAD), (5, 3, "y")),
        ],
    )
    def test_overflow_in_a_read_joint(self, joints, expected):
        gaits = [shear_gait(GaitDirection.VERTICAL, seed) for seed in (0, 1, 2)]
        xyz = gaits[1].xyz.copy()
        xyz[5, list(joints)] = (1.0, 1.7e308, 1.7e308)  # the 7 degree tilt correction overflows them
        gaits[1] = gaits[1].with_xyz(xyz)
        tilt = TiltParams(estimate_tilt([gait_inclination(g) for g in gaits]), 0.75)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteCoordinateError) as whole:
            tilt_correct_sequence(gaits[1], tilt)
        with pytest.raises(NonFiniteCoordinateError) as err:
            calibrate(iter(gaits), 0.75)
        assert err.value.stage == "tilt-correction"
        assert (err.value.frame_index, err.value.joint, err.value.field) == expected
        assert str(err.value) == f"[stage: tilt-correction] {whole.value}"

    def test_overflow_only_in_an_unread_joint_is_ignored(self):
        gaits = [shear_gait(GaitDirection.VERTICAL, seed) for seed in (0, 1, 2)]
        xyz = gaits[1].xyz.copy()
        xyz[5, JointIndex.HAND_LEFT] = (1.0, 1.7e308, 1.7e308)
        overflowing = gaits[:1] + [gaits[1].with_xyz(xyz)] + gaits[2:]
        assert calibrate(iter(overflowing), 0.75) == calibrate(gaits, 0.75)
        # no estimator reads a horizontal gait's joints after its inclination
        gaits.append(shear_gait(GaitDirection.HORIZONTAL, 0))
        xyz = gaits[-1].xyz.copy()
        spine = [JointIndex.SPINE_BASE, JointIndex.SPINE_MID]  # what its inclination reads
        xyz[5, [j for j in DEFAULT_BETA_JOINTS if j not in spine]] = (1.0, 1.7e308, 1.7e308)
        overflowing = gaits[:-1] + [gaits[-1].with_xyz(xyz)]
        assert calibrate(iter(overflowing), 0.75) == calibrate(gaits, 0.75)

    def test_memory_grows_by_less_than_a_gait_per_gait(self, truth_walk):
        """Of each gait only 9 of 25 joints and its inclinations are kept: 0.55 of its xyz, measured."""
        def gaits(n):
            return (CaptureSequence(truth_walk.xyz, truth_walk.frame_index, truth_walk.direction) for _ in range(n))

        two, eight = (tracemalloc_peak(lambda: calibrate(gaits(n), 0.0)) for n in (2, 8))
        assert (eight - two) / 6 < 0.75 * truth_walk.xyz.nbytes


def uniform_capture_and_profile(frames):
    """A capture of uniform random points and a profile with tilt and a linear angle."""
    xyz = np.random.default_rng(3).uniform(0.0, 3.0, (frames, JOINT_COUNT, 3))
    seq = CaptureSequence(xyz, range(frames), GaitDirection.VERTICAL)
    points = (BetaPoint(JointIndex.HEAD, 1.6, 0.0), BetaPoint(JointIndex.KNEE_LEFT, 0.5, 0.01))
    return seq, CalibrationProfile(TiltParams(0.1, 0.75), BetaModel(Polynomial((0.02, -0.01)), 1, points), 1)


class TestApplyProfile:
    def test_identity_profile_preserves_sequence(self, truth_walk):
        out = apply_profile(truth_walk, identity_profile())
        assert out == truth_walk

    def test_not_idempotent_with_sensor_height(self, truth_walk):
        beta = BetaModel(Polynomial((0.0,)), 0, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),))
        profile = CalibrationProfile(TiltParams(0.0, 0.75), beta, 1)
        once = apply_profile(truth_walk, profile)
        twice = apply_profile(once, profile)
        assert twice != once
        assert twice.xyz[0, 0, 1] == pytest.approx(once.xyz[0, 0, 1] + 0.75)

    def test_preserves_structure_and_x(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec()) for _ in range(3)]
        profile = calibrate(gaits, 0.75)
        raw = apply_distortion(truth_walk, shear_spec())
        out = apply_profile(raw, profile)
        assert out.xyz.shape == raw.xyz.shape
        assert out.frame_index.tolist() == raw.frame_index.tolist()
        assert np.array_equal(out.xyz[..., 0], raw.xyz[..., 0])

    def test_deterministic(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec()) for _ in range(3)]
        profile = calibrate(gaits, 0.75)
        raw = apply_distortion(truth_walk, shear_spec())
        assert apply_profile(raw, profile) == apply_profile(raw, profile)

    def test_held_out_gait_corrected_below_five_centimeters(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec(noise_seed=100 + i)) for i in range(10)]
        profile = calibrate(gaits, 0.75)
        held_out = apply_distortion(truth_walk, shear_spec(noise_seed=999))
        assert max_y_diff(apply_profile(held_out, profile)) <= 0.05

    def test_equals_the_two_stages_bit_for_bit(self, truth_walk):
        profile = calibrate([apply_distortion(truth_walk, shear_spec(noise_seed=i)) for i in range(3)], 0.75)
        raw = apply_distortion(truth_walk, shear_spec(noise_seed=7))
        staged = perspective_correct_sequence(tilt_correct_sequence(raw, profile.tilt), profile.beta)
        assert apply_profile(raw, profile).xyz.tobytes() == staged.xyz.tobytes()

    def test_peak_memory_below_two_captures(self):
        """Both stages write one fresh array; the perspective angles are the one temporary."""
        seq, profile = uniform_capture_and_profile(2000)
        assert tracemalloc_peak(lambda: apply_profile(seq, profile)) < 2 * seq.xyz.nbytes

    def test_temporaries_are_the_angles(self):
        """Beside its output, a whole-capture correction holds the float angles
        (a third of the output) and nothing else the size of the capture."""
        seq, profile = uniform_capture_and_profile(9000)
        peak = tracemalloc_peak(lambda: apply_profile(seq, profile))
        assert peak - seq.xyz.nbytes < 0.34 * seq.xyz.nbytes

    def test_overflowing_correction_raises_typed_error(self):
        xyz = np.ones((2, JOINT_COUNT, 3))
        xyz[1, 0] = (1.0, 1.7e308, 1.7e308)  # the tilt stage's z overflows
        seq = CaptureSequence(xyz, [0, 1], GaitDirection.VERTICAL)
        profile = CalibrationProfile(TiltParams(0.1, 0.75), identity_profile().beta, 1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteCoordinateError) as err:
            apply_profile(seq, profile)
        assert (err.value.frame_index, err.value.joint, err.value.field) == (1, 0, "y")

    def test_profile_requires_at_least_one_gait(self):
        beta = BetaModel(Polynomial((0.0,)), 0, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),))
        with pytest.raises(ValueError):
            CalibrationProfile(TiltParams(0.0, 0.0), beta, 0)
