import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from skelcal import (
    JOINT_COUNT,
    BetaModel,
    BetaPoint,
    CalibrationProfile,
    CaptureSequence,
    DistortionSpec,
    GaitDirection,
    JointIndex,
    PipelineConfig,
    Polynomial,
    TiltModel,
    TiltParams,
    apply_distortion,
    calibrate,
    default_template,
    generate_truth_capture,
    read_capture,
    read_profile,
    write_capture,
    write_profile,
)
from skelcal import fileio
from skelcal.cli import _median_foot_y, main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_files(tmp_path):
    truth = tmp_path / "truth.csv"
    raw = tmp_path / "raw.csv"
    code = run(
        "synth", "--frames", 60, "--tilt-deg", 7, "--sensor-height", 0.75,
        "--beta-coeffs", "2.0,-1.0", "--noise-std", 0.003, "--seed", 11,
        "--out-truth", truth, "--out-raw", raw,
    )
    assert code == 0
    return truth, raw


class TestSynth:
    def test_writes_parseable_captures(self, synth_files):
        truth, raw = synth_files
        t = read_capture(truth, GaitDirection.VERTICAL)
        r = read_capture(raw, GaitDirection.VERTICAL)
        assert len(t) == len(r) == 60

    def test_seed_reproducible(self, tmp_path):
        args = ["synth", "--frames", 30, "--noise-std", 0.005, "--seed", 3,
                "--tilt-deg", 5, "--sensor-height", 0.5]
        run(*args, "--out-truth", tmp_path / "t1.csv", "--out-raw", tmp_path / "r1.csv")
        run(*args, "--out-truth", tmp_path / "t2.csv", "--out-raw", tmp_path / "r2.csv")
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_invalid_scenario_exits_nonzero(self, tmp_path, capsys):
        code = run("synth", "--frames", 1,
                   "--out-truth", tmp_path / "t.csv", "--out-raw", tmp_path / "r.csv")
        assert code != 0
        captured = capsys.readouterr()
        assert "error" in captured.err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--tilt-deg", "nan"), ("--tilt-deg", "inf"), ("--tilt-deg", "-inf"),
            ("--sensor-height", "nan"), ("--sensor-height", "inf"), ("--sensor-height", "-inf"),
            ("--noise-std", "nan"), ("--noise-std", "inf"),
            ("--z-start", "nan"), ("--z-start", "inf"), ("--z-end", "nan"), ("--z-end", "-inf"),
        ],
    )
    def test_non_finite_input_rejected_before_writing(self, tmp_path, capsys, flag, value):
        truth, raw = tmp_path / "t.csv", tmp_path / "r.csv"
        # --flag=value, since argparse would read a lone "-inf" as an option
        assert run("synth", "--frames", 10, f"{flag}={value}", "--out-truth", truth, "--out-raw", raw) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if flag in ("--z-start", "--z-end"):
            assert "InvalidScenarioError" in err
        assert not truth.exists() and not raw.exists()

    @pytest.mark.parametrize("coeffs", ["nan", "2.0,inf"])
    def test_non_finite_beta_coefficients_named(self, tmp_path, capsys, coeffs):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--beta-coeffs", coeffs,
                "--out-truth", tmp_path / "t.csv", "--out-raw", tmp_path / "r.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad coefficient list '{coeffs}': polynomial coefficients must be finite" in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("coeffs", ["100", "1e308", "-90"])
    def test_uncorrectable_angle_rejected_before_writing(self, tmp_path, capsys, coeffs):
        truth, raw = tmp_path / "t.csv", tmp_path / "r.csv"
        code = run("synth", "--frames", 5, f"--beta-coeffs={coeffs}", "--out-truth", truth, "--out-raw", raw)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BetaOutOfRangeError: ") and " at y=" in err and ", z=" in err
        assert not truth.exists() and not raw.exists()

    def test_negative_sensor_height_rejected_before_writing(self, tmp_path, capsys):
        truth, raw = tmp_path / "t.csv", tmp_path / "r.csv"
        assert run("synth", "--frames", 20, "--sensor-height=-0.5", "--out-truth", truth, "--out-raw", raw) == 1
        assert "sensor height must be finite and >= 0, got -0.5" in capsys.readouterr().err
        assert not truth.exists() and not raw.exists()

    def test_rotation_tilt_model_matches_library(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        assert run("synth", "--tilt-model", "rotation", "--frames", 40, "--tilt-deg", 5,
                   "--sensor-height", 0.6, "--beta-coeffs", "2.0,-1.0", "--noise-std", 0.002,
                   "--seed", 4, "--out-truth", tmp_path / "truth.csv", "--out-raw", raw) == 0
        truth = generate_truth_capture(default_template(), GaitDirection.VERTICAL, 40, 4.5, 1.5)
        beta = Polynomial((math.radians(2.0), math.radians(-1.0)))
        spec = DistortionSpec(TiltModel.ROTATION, math.radians(5), 0.6, beta, 0.002, 4)
        expected = tmp_path / "expected.csv"
        write_capture(apply_distortion(truth, spec), expected)
        assert raw.read_bytes() == expected.read_bytes()
        with pytest.raises(SystemExit):
            run("synth", "--help")
        assert "--tilt-model {shear,rotation}" in capsys.readouterr().out

    def test_rewrite_round_trip_byte_identical(self, synth_files, tmp_path):
        _, raw = synth_files
        back = read_capture(raw, GaitDirection.VERTICAL)
        again = tmp_path / "again.csv"
        write_capture(back, again)
        assert again.read_bytes() == raw.read_bytes()


class TestDirection:
    @pytest.mark.parametrize("command", ["synth", "apply", "diagnose"])
    def test_help_lists_direction_words(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert "--direction {vertical,horizontal}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["synth", "apply", "diagnose"])
    def test_bad_direction_names_the_choices(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--direction", "bogus")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "vertical" in err and "horizontal" in err

    def test_horizontal_walk_round_trips(self, tmp_path):
        truth = tmp_path / "truth.csv"
        assert run("synth", "--direction", "horizontal", "--frames", 30,
                   "--out-truth", truth, "--out-raw", tmp_path / "raw.csv") == 0
        seq = read_capture(truth, GaitDirection.HORIZONTAL)
        assert seq.direction is GaitDirection.HORIZONTAL
        report = tmp_path / "ydiff.csv"
        assert run("diagnose", "--direction", "horizontal", "--in", truth, "--out", report) == 0
        assert len(report.read_text().splitlines()) == 31


class TestCalibrateApplyDiagnose:
    @pytest.fixture
    def captures(self, tmp_path):
        paths = []
        for i in range(4):
            truth = tmp_path / f"truth{i}.csv"
            raw = tmp_path / f"raw{i}.csv"
            run("synth", "--frames", 60, "--tilt-deg", 7, "--sensor-height", 0.75,
                "--beta-coeffs", "2.0,-1.0", "--noise-std", 0.002, "--seed", i,
                "--out-truth", truth, "--out-raw", raw)
            paths.append(raw)
        return paths

    def test_calibrate_then_apply(self, tmp_path, captures):
        profile_path = tmp_path / "profile.json"
        code = run("calibrate", "--sensor-height", 0.75, "--degree", 2,
                   "--out-profile", profile_path, *captures[:3])
        assert code == 0
        profile = read_profile(profile_path)
        assert profile.gait_count == 3
        assert profile.tilt.tilt_rad == pytest.approx(
            math.atan(math.sin(math.radians(7))), abs=2e-3
        )

        corrected = tmp_path / "corrected.csv"
        assert run("apply", "--profile", profile_path, "--in", captures[3],
                   "--out", corrected) == 0
        out = read_capture(corrected, GaitDirection.VERTICAL)
        assert len(out) == 60

    def test_apply_warns_on_calibrated_input(self, tmp_path, captures, capsys):
        profile_path = tmp_path / "profile.json"
        run("calibrate", "--sensor-height", 0.75, "--out-profile", profile_path, *captures[:3])
        first = tmp_path / "walk.calibrated.csv"
        run("apply", "--profile", profile_path, "--in", captures[3], "--out", first)
        capsys.readouterr()
        run("apply", "--profile", profile_path, "--in", first, "--out", tmp_path / "twice.csv")
        assert "already calibrated" in capsys.readouterr().err

    def test_apply_does_not_warn_on_raw_input_named_calibrated(self, tmp_path, captures, capsys):
        profile_path = tmp_path / "profile.json"
        run("calibrate", "--sensor-height", 0.75, "--out-profile", profile_path, *captures[:3])
        raw = tmp_path / "x.calibrated.csv"
        raw.write_bytes(captures[3].read_bytes())
        capsys.readouterr()
        assert run("apply", "--profile", profile_path, "--in", raw, "--out", tmp_path / "out.csv") == 0
        assert "warning" not in capsys.readouterr().err

    def test_apply_warns_on_calibrated_input_named_plainly(self, tmp_path, captures, capsys):
        profile_path = tmp_path / "profile.json"
        run("calibrate", "--sensor-height", 0.75, "--out-profile", profile_path, *captures[:3])
        corrected = tmp_path / "walk.csv"
        run("apply", "--profile", profile_path, "--in", captures[3], "--out", corrected)
        capsys.readouterr()
        assert run("apply", "--profile", profile_path, "--in", corrected, "--out", tmp_path / "out.csv") == 0
        assert "already calibrated" in capsys.readouterr().err

    def test_diagnose_ydiff_report(self, tmp_path, captures):
        report = tmp_path / "report.csv"
        assert run("diagnose", "--in", captures[0], "--report", "ydiff", "--out", report) == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("frame,head,neck")
        assert len(lines) == 61

    def test_diagnose_both_reports_with_profile(self, tmp_path, captures):
        profile_path = tmp_path / "profile.json"
        run("calibrate", "--sensor-height", 0.75, "--out-profile", profile_path, *captures[:3])
        out = tmp_path / "report.csv"
        assert run("diagnose", "--in", captures[3], "--profile", profile_path,
                   "--report", "both", "--out", out) == 0
        assert (tmp_path / "report_ydiff.csv").exists()
        assert (tmp_path / "report_bones.csv").exists()
        bones = (tmp_path / "report_bones.csv").read_text().splitlines()
        assert len(bones) == 25  # header + 24 edges

    def test_calibrate_joints_match_library(self, tmp_path, captures):
        joints = (JointIndex.HEAD, JointIndex.NECK, JointIndex.SPINE_SHOULDER, JointIndex.SPINE_MID,
                  JointIndex.SPINE_BASE)
        profile_path = tmp_path / "profile.json"
        assert run("calibrate", "--sensor-height", 0.75, "--joints", "3,2,20,1,0",
                   "--out-profile", profile_path, *captures[:3]) == 0
        gaits = [read_capture(path, GaitDirection.VERTICAL) for path in captures[:3]]
        expected = calibrate(gaits, 0.75, PipelineConfig(beta_joints=joints))
        profile = read_profile(profile_path)
        assert profile == expected
        assert sorted(p.joint for p in profile.beta.source_points) == sorted(joints)

    def test_diagnose_joints_name_the_columns(self, tmp_path, captures):
        report = tmp_path / "report.csv"
        assert run("diagnose", "--in", captures[0], "--report", "ydiff", "--joints", "3,15",
                   "--out", report) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "frame,head,foot_left"
        assert len(lines) == 61

    @pytest.mark.parametrize("command", ["calibrate", "diagnose"])
    def test_joint_out_of_range_exits_2_before_writing(self, tmp_path, captures, command, capsys):
        out = tmp_path / "out"
        if command == "calibrate":
            argv = ["calibrate", "--sensor-height", 0.75, "--out-profile", out, *captures[:3]]
        else:
            argv = ["diagnose", "--in", captures[0], "--out", out]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--joints", "25")
        assert exc.value.code == 2
        assert "'25'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "ending, error",
        [
            (",nan", "NonFiniteCoordinateError: {path}: non-finite coordinate at frame 27, joint 24, field z"),
            (",2.0,3.0", "ParseError: {path}: line 701: expected 5 comma-separated fields, got 6"),
        ],
    )
    def test_capture_read_errors_name_the_file(self, tmp_path, captures, capsys, ending, error):
        bad = tmp_path / "bad.csv"
        lines = captures[2].read_text().splitlines()
        lines[700] = lines[700].rsplit(",", 1)[0] + ending  # file line 701: frame 27, joint 24
        bad.write_text("\n".join(lines) + "\n")
        profile = tmp_path / "p.json"
        code = run("calibrate", "--sensor-height", 0.75, "--out-profile", profile, *captures[:2], bad, captures[3])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error.format(path=bad)}\n"
        assert not profile.exists()

    def test_diagnose_both_leaves_no_file_on_failure(self, tmp_path, captures, capsys):
        one = tmp_path / "one.csv"
        seq = read_capture(captures[0], GaitDirection.VERTICAL)
        write_capture(CaptureSequence(seq.xyz[:1], seq.frame_index[:1], seq.direction), one)
        before = set(tmp_path.iterdir())
        assert run("diagnose", "--in", one, "--report", "both", "--out", tmp_path / "report.csv") == 1
        assert capsys.readouterr().err == (
            "error: TooFewFramesError: [stage: diagnostics] bone-length stability needs at least 2 frames\n"
        )
        assert set(tmp_path.iterdir()) == before

    def test_missing_capture_exits_nonzero(self, tmp_path, capsys):
        code = run("calibrate", "--sensor-height", 0.75,
                   "--out-profile", tmp_path / "p.json", tmp_path / "missing.csv")
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_corrupt_profile_exits_nonzero(self, tmp_path, captures, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 99}')
        code = run("apply", "--profile", bad, "--in", captures[0], "--out", tmp_path / "o.csv")
        assert code != 0
        assert f"SchemaError: {bad}: field " in capsys.readouterr().err

    # an overflow in a correction is one error line naming the stage; a numpy warning would raise here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["apply", "diagnose"])
    def test_correction_overflow_is_one_tagged_error(self, tmp_path, command, capsys):
        capture, profile = tmp_path / "huge.csv", tmp_path / "tilt.json"
        # finite, but tilting it by 0.1 rad overflows its y and z
        write_capture(CaptureSequence(np.tile((1.0, 1.7e308, 1.7e308), (2, JOINT_COUNT, 1)), [0, 1],
                                      GaitDirection.VERTICAL), capture)
        beta = BetaModel(Polynomial((0.0,)), 0, (BetaPoint(JointIndex.HEAD, 1.6, 0.0),))
        write_profile(CalibrationProfile(TiltParams(0.1, 0.0), beta, 1), profile)
        assert run(command, "--profile", profile, "--in", capture, "--out", tmp_path / "out.csv") == 1
        assert capsys.readouterr().err == (
            "error: NonFiniteCoordinateError: [stage: correction] non-finite coordinate at frame 0, joint 0, field y\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_tilt_correction_overflow_is_one_tagged_error(self, tmp_path, captures, capsys):
        seq = read_capture(captures[0], GaitDirection.VERTICAL)
        xyz = seq.xyz.copy()
        xyz[5, JointIndex.HEAD] = (1.0, 1.7e308, 1.7e308)  # the 7 degree tilt correction overflows it
        huge = tmp_path / "huge.csv"
        write_capture(CaptureSequence(xyz, seq.frame_index, seq.direction), huge)
        assert run("calibrate", "--sensor-height", 0.75, "--out-profile", tmp_path / "p.json", huge, *captures[1:3]) == 1
        assert capsys.readouterr().err == (
            "error: NonFiniteCoordinateError: [stage: tilt-correction] non-finite coordinate at frame 5, joint 3, field y\n"
        )


    def test_repeated_calibrate_joint_rejected_before_reading(self, tmp_path, captures, capsys):
        profile = tmp_path / "p.json"
        with mock.patch.object(fileio, "read_capture", side_effect=AssertionError("a capture was read")):
            code = run("calibrate", "--sensor-height", 0.75, "--joints", "3,2,3", "--out-profile", profile, *captures)
        assert code == 1
        assert capsys.readouterr().err == "error: joint 3 is listed twice in beta_joints\n"
        assert not profile.exists()

    def test_diagnose_repeats_a_joint_column(self, tmp_path, captures):
        report = tmp_path / "report.csv"
        assert run("diagnose", "--in", captures[0], "--joints", "3,3", "--out", report) == 0
        assert report.read_text().splitlines()[0] == "frame,head,head"

    def test_bad_sensor_height_reported_before_any_file_is_read(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        assert run("calibrate", "--sensor-height", -1, "--out-profile", profile, tmp_path / "missing.csv") == 1
        assert capsys.readouterr().err == "error: sensor height must be finite and >= 0, got -1.0\n"
        assert not profile.exists()

    def test_estimation_error_comes_before_a_later_read_error(self, tmp_path, captures, capsys):
        seq = read_capture(captures[0], GaitDirection.VERTICAL)
        xyz = seq.xyz.copy()
        xyz[:, JointIndex.SPINE_MID, 1] = xyz[:, JointIndex.SPINE_BASE, 1]  # no frame has a usable spine
        flat = tmp_path / "flat.csv"
        write_capture(seq.with_xyz(xyz), flat)
        profile = tmp_path / "p.json"
        assert run("calibrate", "--sensor-height", 0.75, "--out-profile", profile, flat, tmp_path / "missing.csv") == 1
        assert capsys.readouterr().err == (
            f"error: NoUsableFramesError: [stage: tilt-estimation] {flat}: no frame of 'flat' has a usable spine segment\n"
        )
        assert not profile.exists()

    def test_a_gait_error_names_its_file_among_files_of_one_stem(self, tmp_path, captures, capsys):
        seq = read_capture(captures[0], GaitDirection.VERTICAL)
        xyz = seq.xyz.copy()
        xyz[:, JointIndex.SPINE_MID, 1] = xyz[:, JointIndex.SPINE_BASE, 1]  # no frame has a usable spine
        good, flat = tmp_path / "s1" / "walk.csv", tmp_path / "s2" / "walk.csv"
        good.parent.mkdir()
        flat.parent.mkdir()
        write_capture(seq, good)
        write_capture(seq.with_xyz(xyz), flat)
        assert run("calibrate", "--sensor-height", 0.75, "--out-profile", tmp_path / "p.json", good, flat) == 1
        assert capsys.readouterr().err == (
            f"error: NoUsableFramesError: [stage: tilt-estimation] {flat}: no frame of 'walk' has a usable spine segment\n"
        )

    def test_an_error_after_the_last_gait_names_no_file(self, tmp_path, captures, capsys):
        mirrored = tmp_path / "mirrored.csv"
        run("synth", "--frames", 60, "--tilt-deg", -7, "--sensor-height", 0.75, "--seed", 9,
            "--out-truth", tmp_path / "truth.csv", "--out-raw", mirrored)
        capsys.readouterr()
        assert run("calibrate", "--sensor-height", 0.75, "--out-profile", tmp_path / "p.json", captures[0], mirrored) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MixedSignAnglesError: [stage: tilt-estimation] gait means disagree in sign: ")
        assert str(tmp_path) not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "report, message",
        [
            ("ydiff", "y - y_last of joint 3 overflows at frame 0"),
            ("bones", "length of bone 0-1 overflows at frame 1"),
        ],
    )
    def test_diagnostics_overflow_is_one_tagged_error(self, tmp_path, report, message, capsys):
        xyz = np.ones((2, JOINT_COUNT, 3))
        xyz[0, :, 1], xyz[1, :, 1] = 1.7e308, -1.7e308  # y drift overflows
        xyz[1, ::2, 1] = 1.7e308  # and so do bones between joints of opposite sign
        capture, out = tmp_path / "huge.csv", tmp_path / "report.csv"
        write_capture(CaptureSequence(xyz, [0, 1], GaitDirection.VERTICAL), capture)
        assert run("diagnose", "--in", capture, "--report", report, "--out", out) == 1
        assert capsys.readouterr().err == f"error: MeasureOverflowError: [stage: diagnostics] {message}\n"
        assert not out.exists()

    def test_calibrate_memory_grows_by_less_than_a_gait_per_gait(self, tmp_path, capsys):
        """The CLI hands calibrate one gait at a time: reading them all first holds each whole."""
        gait, truth = tmp_path / "gait.csv", tmp_path / "truth.csv"
        run("synth", "--frames", 300, "--tilt-deg", 7, "--sensor-height", 0.75, "--noise-std", 0.002,
            "--out-truth", truth, "--out-raw", gait)
        gait_bytes = read_capture(gait, GaitDirection.VERTICAL).xyz.nbytes

        def peak(n):
            tracemalloc.start()
            try:
                assert run("calibrate", "--sensor-height", 0.75, "--out-profile", tmp_path / "p.json", *[gait] * n) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(8) - peak(2)) / 6 < 0.75 * gait_bytes


class TestMedianFootY:
    """The apply warning's foot height equals np.median's (the sign of a zero aside)."""

    @pytest.mark.parametrize("frames", [1, 2, 3, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_numpy_median_with_ties_and_negatives(self, frames, seed):
        rng = np.random.default_rng(seed)
        xyz = rng.normal(size=(frames, JOINT_COUNT, 3))
        feet = [JointIndex.FOOT_LEFT, JointIndex.FOOT_RIGHT]
        # few distinct heights, so ranks tie; negatives and a signed zero among them
        xyz[:, feet, 1] = rng.choice([-2.5, -0.75, -0.0, 0.0, 0.125, 1.5], size=(frames, 2))
        seq = CaptureSequence(xyz, np.arange(frames), GaitDirection.VERTICAL)
        expected = float(np.median(xyz[:, feet, 1]))
        got = _median_foot_y(seq)
        assert got == expected
        assert got.hex() == expected.hex() or got == 0.0  # -0.0 and 0.0 tie in any order
