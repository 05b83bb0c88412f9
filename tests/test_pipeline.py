import math

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
    apply_profile,
    calibrate,
    generate_truth_capture,
    max_y_diff,
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

    def test_beta_degree_configurable(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec()) for _ in range(3)]
        profile = calibrate(gaits, 0.75, PipelineConfig(beta_degree=1))
        assert profile.beta.fit_degree == 1
        assert len(profile.beta.poly.coefficients) == 2


class TestApplyProfile:
    def test_identity_profile_preserves_sequence(self, truth_walk):
        out = apply_profile(truth_walk, identity_profile())
        assert out.frames == truth_walk.frames

    def test_not_idempotent_with_sensor_height(self, truth_walk):
        beta = BetaModel(Polynomial((0.0,)), 0, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),))
        profile = CalibrationProfile(TiltParams(0.0, 0.75), beta, 1)
        once = apply_profile(truth_walk, profile)
        twice = apply_profile(once, profile)
        assert twice.frames != once.frames
        assert twice.frames[0].joints[0].y == pytest.approx(
            once.frames[0].joints[0].y + 0.75
        )

    def test_preserves_structure_and_x(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec()) for _ in range(3)]
        profile = calibrate(gaits, 0.75)
        raw = apply_distortion(truth_walk, shear_spec())
        out = apply_profile(raw, profile)
        assert len(out.frames) == len(raw.frames)
        assert [f.frame_index for f in out.frames] == [f.frame_index for f in raw.frames]
        for fa, fb in zip(out.frames, raw.frames):
            for a, b in zip(fa.joints, fb.joints):
                assert a.x == b.x

    def test_deterministic(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec()) for _ in range(3)]
        profile = calibrate(gaits, 0.75)
        raw = apply_distortion(truth_walk, shear_spec())
        assert apply_profile(raw, profile).frames == apply_profile(raw, profile).frames

    def test_held_out_gait_corrected_below_five_centimeters(self, truth_walk):
        gaits = [apply_distortion(truth_walk, shear_spec(noise_seed=100 + i)) for i in range(10)]
        profile = calibrate(gaits, 0.75)
        held_out = apply_distortion(truth_walk, shear_spec(noise_seed=999))
        assert max_y_diff(apply_profile(held_out, profile)) <= 0.05

    def test_profile_requires_at_least_one_gait(self):
        beta = BetaModel(Polynomial((0.0,)), 0, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),))
        with pytest.raises(ValueError):
            CalibrationProfile(TiltParams(0.0, 0.0), beta, 0)
