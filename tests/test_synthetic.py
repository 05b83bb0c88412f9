import hashlib
import math

import numpy as np
import pytest

from skelcal import (
    BodyTemplate,
    CaptureSequence,
    DistortionSpec,
    GaitDirection,
    JOINT_COUNT,
    JointIndex,
    Point3,
    Polynomial,
    TiltModel,
    add_noise,
    default_template,
    generate_truth_capture,
    validate_sequence,
)
from skelcal.errors import BetaOutOfRangeError, FixedPointDivergenceError, InvalidScenarioError
from skelcal.fileio import write_capture
from skelcal.perspective import (
    MAX_ABS_BETA_RAD,
    BetaModel,
    BetaPoint,
    distort_perspective,
    perspective_correct_sequence,
)
from skelcal.synthetic import apply_distortion
from skelcal.tilt import TiltParams, distort_tilt
from oracles import bone_lengths, tilt_correct_point


def one_frame(point):
    """A one-frame vertical sequence with every joint at ``point``."""
    return CaptureSequence(np.tile(point, (1, JOINT_COUNT, 1)), [0], GaitDirection.VERTICAL)


class TestGenerateTruthCapture:
    def test_standing_frames_identical(self, template):
        seq = generate_truth_capture(template, GaitDirection.VERTICAL, 2, 3.0, 3.0)
        assert np.array_equal(seq.xyz[0], seq.xyz[1])

    def test_bone_lengths_rigid_across_frames(self, truth_walk):
        lengths = np.array([[l for _, l in bone_lengths(f)] for f in truth_walk.xyz])
        assert (lengths.max(axis=0) - lengths.min(axis=0)).max() <= 1e-12

    def test_vertical_base_z_strictly_decreasing(self, truth_walk):
        zs = truth_walk.xyz[:, JointIndex.SPINE_BASE, 2].tolist()
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_output_passes_validation(self, truth_walk):
        assert validate_sequence(truth_walk) is truth_walk

    def test_ground_contact(self, truth_walk):
        foot_min = float(truth_walk.xyz[:, [JointIndex.FOOT_LEFT, JointIndex.FOOT_RIGHT], 1].min())
        assert foot_min == pytest.approx(0.0, abs=1e-12)
        assert foot_min >= 0.0

    def test_first_and_last_frame_share_pose(self, truth_walk):
        # whole number of gait cycles: same joint offsets relative to the base
        first, last = truth_walk.xyz[0], truth_walk.xyz[-1]
        (x0, y0, _), (x1, y1, _) = first[JointIndex.SPINE_BASE], last[JointIndex.SPINE_BASE]
        for (ax, ay, _), (bx, by, _) in zip(first, last):
            assert ay - y0 == pytest.approx(by - y1, abs=1e-9)
            assert ax - x0 == pytest.approx(bx - x1, abs=1e-9)

    def test_horizontal_crosses_at_midpoint_depth(self, template):
        seq = generate_truth_capture(template, GaitDirection.HORIZONTAL, 30, 4.0, 2.0)
        base = seq.xyz[:, JointIndex.SPINE_BASE]
        assert base[0, 0] == pytest.approx(-1.0)
        assert base[-1, 0] == pytest.approx(1.0)
        assert all(z == pytest.approx(3.0) for z in base[:, 2])

    @pytest.mark.parametrize(
        "frames,z_start,z_end",
        [(1, 4.5, 1.5), (30, 1.5, 4.5), (30, 4.5, 0.5)],
    )
    def test_invalid_scenarios_rejected(self, template, frames, z_start, z_end):
        with pytest.raises(InvalidScenarioError):
            generate_truth_capture(template, GaitDirection.VERTICAL, frames, z_start, z_end)

    def test_template_validation(self):
        offsets = list(default_template().joint_offsets)
        offsets[JointIndex.HEAD] = Point3(0.0, -1.0, 0.0)  # head below neck
        with pytest.raises(ValueError):
            BodyTemplate(tuple(offsets))

    def test_template_needs_25_offsets_and_bones_of_some_length(self):
        offsets = list(default_template().joint_offsets)
        with pytest.raises(ValueError, match="^expected 25 joint offsets$"):
            BodyTemplate(tuple(offsets[:24]))
        offsets[JointIndex.THUMB_LEFT] = offsets[JointIndex.HAND_LEFT]
        with pytest.raises(ValueError, match="^zero-length bone HAND_LEFT->THUMB_LEFT$"):
            BodyTemplate(tuple(offsets))


class TestDistortTilt:
    def test_zero_tilt_identity_in_both_modes(self, truth_walk):
        for model in TiltModel:
            assert distort_tilt(truth_walk, TiltParams(0.0, 0.0), model) == truth_walk

    def test_shear_inverse_worked_example(self):
        # inverse of correcting (0.2, 1.0, 2.0) with tilt 0.1, height 0.5
        seq = one_frame((0.2, 1.7096335443730355, 2.099833416646828))
        raw = distort_tilt(seq, TiltParams(0.1, 0.5))
        x, y, z = raw.xyz[0, 0]
        assert x == 0.2
        assert y == pytest.approx(1.0, abs=1e-9)
        assert z == pytest.approx(2.0, abs=1e-9)

    def test_shear_then_correct_identity(self, truth_walk):
        params = TiltParams(0.21, 0.6)
        raw = distort_tilt(truth_walk, params)
        for fa, fb in zip(raw.xyz, truth_walk.xyz):
            for a, (_, y, z) in zip(fa, fb):
                back = tilt_correct_point(a, params)
                assert back.y == pytest.approx(y, abs=1e-9)
                assert back.z == pytest.approx(z, abs=1e-9)

    def test_rotation_mode_is_rigid(self, truth_walk):
        raw = distort_tilt(truth_walk, TiltParams(0.15, 0.75), TiltModel.ROTATION)
        before = [l for _, l in bone_lengths(truth_walk.xyz[0])]
        after = [l for _, l in bone_lengths(raw.xyz[0])]
        assert after == pytest.approx(before, abs=1e-12)

    def test_tilt_model_given_by_value(self, truth_walk):
        shear = apply_distortion(truth_walk, DistortionSpec(TiltModel.SHEAR_INVERSE, 0.2, 0.5))
        assert apply_distortion(truth_walk, DistortionSpec("shear", 0.2, 0.5)) == shear
        assert apply_distortion(truth_walk, DistortionSpec("rotation", 0.2, 0.5)) != shear
        with pytest.raises(ValueError, match="bogus"):
            apply_distortion(truth_walk, DistortionSpec("bogus", 0.2, 0.5))

    def test_tilt_model_resolved_at_construction(self):
        assert DistortionSpec("rotation", 0.2, 0.5).tilt_model is TiltModel.ROTATION
        with pytest.raises(ValueError, match="bogus"):
            DistortionSpec("bogus", 0.2, 0.5)

    def test_spec_rejects_large_tilt(self):
        with pytest.raises(ValueError):
            DistortionSpec(tilt_rad=0.6)

    @pytest.mark.parametrize("field", ["tilt_rad", "sensor_height_m", "noise_std_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            DistortionSpec(**{field: value})


class TestDistortPerspective:
    def test_zero_polynomial_identity(self, truth_walk):
        out = distort_perspective(truth_walk, Polynomial((0.0,)))
        assert out == truth_walk

    def test_constant_angle_inverse_of_worked_example(self):
        seq = one_frame((0.0, 1.5400053341868047, 2.0))
        out = distort_perspective(seq, Polynomial((0.02,)))
        assert out.xyz[0, 0, 1] == pytest.approx(1.5, abs=1e-9)

    def test_divergence_detected(self):
        # steep angle-vs-height slope breaks the fixed-point contraction
        seq = one_frame((0.0, 1.4, 4.0))
        with pytest.raises(FixedPointDivergenceError):
            distort_perspective(seq, Polynomial((0.0, 1.0)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_shares_the_corrections_angle_bound(self, sign):
        seq = one_frame((0.0, 1.0, 3.0))
        with pytest.raises(BetaOutOfRangeError, match=r"at y=1\.0, z=3\.0"):
            distort_perspective(seq, Polynomial((sign * MAX_ABS_BETA_RAD,)))
        beta = sign * math.nextafter(MAX_ABS_BETA_RAD, 0.0)
        raw = distort_perspective(seq, Polynomial((beta,)))
        model = BetaModel(Polynomial((beta,)), 0, (BetaPoint(JointIndex.HEAD, 1.0, beta),))
        back = perspective_correct_sequence(raw, model)
        assert back.xyz[0, 0, 1] == pytest.approx(1.0, abs=1e-6)


class TestAddNoise:
    def test_zero_std_returns_sequence_unchanged(self, truth_walk):
        assert add_noise(truth_walk, 0.0, 42) is truth_walk

    @pytest.mark.parametrize("std", [math.nan, math.inf, -0.001])
    def test_bad_std_rejected(self, truth_walk, std):
        with pytest.raises(ValueError):
            add_noise(truth_walk, std, 42)

    def test_same_seed_reproducible(self, truth_walk):
        a = add_noise(truth_walk, 0.005, 42)
        b = add_noise(truth_walk, 0.005, 42)
        assert a == b

    def test_different_seed_differs(self, truth_walk):
        a = add_noise(truth_walk, 0.005, 1)
        b = add_noise(truth_walk, 0.005, 2)
        assert a != b

    def test_sample_std_close_to_requested(self, template):
        clean = generate_truth_capture(template, GaitDirection.VERTICAL, 134, 4.5, 1.5)
        noisy = add_noise(clean, 0.005, 7)
        deltas = (noisy.xyz - clean.xyz).ravel()
        assert len(deltas) >= 10_000
        sample_std = float(np.std(deltas))
        assert abs(sample_std - 0.005) / 0.005 <= 0.05


class TestGeneratedBytesPinned:
    """SHA-256 of seeded 60-frame raw captures with the benchmark's distortion.

    The benchmark fingerprints its generated inputs; these digests catch, in
    the unit tests, any change to the generator, the distortions or the noise
    that moves a coordinate by one printed digit.
    """

    @pytest.mark.parametrize(
        "direction,tilt_model,digest",
        [
            (
                GaitDirection.VERTICAL,
                TiltModel.SHEAR_INVERSE,
                "fe80a1f44bb2569392cbfa11e8e7c8a36657456f46683a38e8024475bd0ec664",
            ),
            (
                GaitDirection.HORIZONTAL,
                TiltModel.ROTATION,
                "43e21065b72e209844d86548313f1cc5cd416c616a3270f462d12742f3732508",
            ),
        ],
    )
    def test_sha256(self, template, tmp_path, direction, tilt_model, digest):
        truth = generate_truth_capture(template, direction, 60, 4.5, 1.5)
        spec = DistortionSpec(
            tilt_model, math.radians(7.0), 0.75, Polynomial((math.radians(3.0), -0.02)), 0.005, 0
        )
        path = tmp_path / "raw.csv"
        write_capture(apply_distortion(truth, spec), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
