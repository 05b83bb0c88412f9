import math
import tracemalloc

import numpy as np
import pytest

from skelcal import (
    BetaModel,
    BetaPoint,
    CalibrationProfile,
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
    generate_truth_capture,
    max_y_diff,
    perspective_correct_sequence,
    tilt_correct_sequence,
)
from skelcal.errors import EmptyInputError, MixedSignAnglesError


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
        xyz = np.random.default_rng(3).uniform(0.0, 3.0, (2000, JOINT_COUNT, 3))
        seq = CaptureSequence(xyz, range(2000), GaitDirection.VERTICAL)
        points = (BetaPoint(JointIndex.HEAD, 1.6, 0.0), BetaPoint(JointIndex.KNEE_LEFT, 0.5, 0.01))
        profile = CalibrationProfile(TiltParams(0.1, 0.75), BetaModel(Polynomial((0.02, -0.01)), 1, points), 1)
        tracemalloc.start()
        try:
            apply_profile(seq, profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * seq.xyz.nbytes

    def test_profile_requires_at_least_one_gait(self):
        beta = BetaModel(Polynomial((0.0,)), 0, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),))
        with pytest.raises(ValueError):
            CalibrationProfile(TiltParams(0.0, 0.0), beta, 0)
