import hashlib
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
    apply_profile,
    bone_length_stability,
    calibrate,
    default_template,
    generate_truth_capture,
    read_capture,
    read_profile,
    write_capture,
    write_profile,
    y_diff_to_last,
)
from skelcal import diagnostics, fileio
from skelcal.cli import _FEET, _median, main
from skelcal.errors import CalibrationError


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

    @pytest.mark.parametrize("command,files", [("apply", 1), ("diagnose", 2)])
    def test_apply_and_diagnose_write_the_same_bytes_for_either_direction(self, tmp_path, profile, command, files):
        raw = raw_capture(tmp_path, 300)
        report = ["--report", "both"] if command == "diagnose" else []
        outputs = []
        for direction in ("vertical", "horizontal"):
            out = tmp_path / direction
            out.mkdir()
            assert run(command, "--profile", profile, "--in", raw, "--direction", direction, *report,
                       "--out", out / "out.csv") == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(outputs[0]) == files
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["apply", "diagnose"])
    def test_help_says_direction_does_not_change_the_output(self, command, capsys):
        with pytest.raises(SystemExit):
            run(command, "--help")
        assert "does not change the output" in " ".join(capsys.readouterr().out.split())

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

    @pytest.mark.parametrize("command", ["apply", "diagnose"])
    def test_profile_is_read_before_the_capture(self, tmp_path, command, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(command, "--profile", bad, "--in", tmp_path / "missing.csv", "--out", tmp_path / "o.csv") == 1
        assert capsys.readouterr().err.startswith(f"error: SchemaError: {bad}: field '<document>': not valid JSON")

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

    def test_an_unreadable_gait_is_named_as_apply_names_it(self, tmp_path, captures, capsys):
        missing = tmp_path / "missing.csv"
        assert run("calibrate", "--sensor-height", 0.75, "--out-profile", tmp_path / "p.json", captures[0], missing) == 1
        assert capsys.readouterr().err.startswith(f"error: IoFailureError: cannot read {missing}: ")

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


def _write_profile(path, tilt_rad, sensor_height_m, beta_coeffs):
    """A profile file with the given tilt and perspective polynomial, fitted to no real points."""
    points = tuple(BetaPoint(JointIndex.HEAD, 1.0 + k, 0.0) for k in range(len(beta_coeffs)))
    beta = BetaModel(Polynomial(beta_coeffs), len(beta_coeffs) - 1, points)
    write_profile(CalibrationProfile(TiltParams(tilt_rad, sensor_height_m), beta, 1), path)
    return path


#: A fault, placed at the head of one frame, that the correction of a
#: profile with no tilt and angle 0.01 * y turns into an error: y + z * tan(1.0)
#: overflows, or the angle 2.0 is beyond pi/2.
_FAULTS = {"overflow": (0.0, 100.0, 1.7e308), "angle": (0.0, 200.0, 2.0)}


@pytest.fixture
def profile(tmp_path):
    return _write_profile(tmp_path / "profile.json", math.radians(7), 0.75, (0.03, -0.01))


@pytest.fixture
def angle_profile(tmp_path):
    return _write_profile(tmp_path / "angle.json", 0.0, 0.0, (0.0, 0.01))


def raw_capture(tmp_path, frames, faults=None):
    """A synthetic raw capture of ``frames`` frames, with ``_FAULTS[f]`` at the head of each frame k of ``faults``."""
    path = tmp_path / "raw.csv"
    run("synth", "--frames", max(frames, 2), "--tilt-deg", 7, "--sensor-height", 0.75, "--noise-std", 0.002,
        "--out-truth", tmp_path / "truth.csv", "--out-raw", path)
    seq = read_capture(path, GaitDirection.VERTICAL)[:frames]
    xyz = seq.xyz.copy()
    for frame, fault in (faults or {}).items():
        xyz[frame, JointIndex.HEAD] = _FAULTS[fault]
    write_capture(seq.with_xyz(xyz), path)
    return path


def peak_after_read(*argv):
    """The tracemalloc peak of the CLI run ``argv`` from the end of its read of the capture,
    with the read capture in it: the reader's own peak is not the part loop's."""
    read = fileio.read_capture

    def read_then_reset_peak(*args):
        seq = read(*args)
        tracemalloc.reset_peak()
        return seq

    tracemalloc.start()
    try:
        with mock.patch.object(fileio, "read_capture", read_then_reset_peak):
            assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_of_run(*argv):
    """The tracemalloc peak of the CLI run ``argv``, its read of the capture included."""
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestApplyInParts:
    """``apply`` corrects and writes one 256-frame part at a time: its file is that
    of the whole correction, or no file is written."""

    @pytest.mark.parametrize("frames", [1, 255, 256, 257, 513])
    def test_output_is_the_whole_correction(self, tmp_path, profile, frames):
        raw, out, whole = raw_capture(tmp_path, frames), tmp_path / "out.csv", tmp_path / "whole.csv"
        assert run("apply", "--profile", profile, "--in", raw, "--out", out) == 0
        write_capture(apply_profile(read_capture(raw, GaitDirection.VERTICAL), read_profile(profile)), whole)
        assert out.read_bytes() == whole.read_bytes()

    def test_output_may_replace_the_input(self, tmp_path, profile):
        raw = raw_capture(tmp_path, 300)
        other = tmp_path / "other.csv"
        assert run("apply", "--profile", profile, "--in", raw, "--out", other) == 0
        assert run("apply", "--profile", profile, "--in", raw, "--out", raw) == 0
        assert raw.read_bytes() == other.read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_a_fault_in_a_late_part_writes_nothing(self, tmp_path, angle_profile, fault, capsys):
        raw, out = raw_capture(tmp_path, 400, {300: fault}), tmp_path / "out.csv"
        out.write_bytes(b"old\n")
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run("apply", "--profile", angle_profile, "--in", raw, "--out", out) == 1
        with pytest.raises(CalibrationError) as whole:  # the error of the whole correction
            apply_profile(read_capture(raw, GaitDirection.VERTICAL), read_profile(angle_profile))
        assert capsys.readouterr().err == f"error: {type(whole.value).__name__}: {whole.value}\n"
        if fault == "overflow":
            assert str(whole.value) == "[stage: correction] non-finite coordinate at frame 300, joint 3, field y"
        assert sorted(tmp_path.iterdir()) == before  # no temp file
        assert out.read_bytes() == b"old\n"

    @pytest.mark.parametrize(
        "faults, error",
        [
            ({100: "overflow", 300: "angle"}, "NonFiniteCoordinateError"),
            ({100: "angle", 300: "overflow"}, "BetaOutOfRangeError"),
        ],
    )
    def test_of_faults_in_two_parts_the_earlier_frame_is_reported(self, tmp_path, angle_profile, faults, error, capsys):
        raw = raw_capture(tmp_path, 400, faults)
        capsys.readouterr()
        assert run("apply", "--profile", angle_profile, "--in", raw, "--out", tmp_path / "out.csv") == 1
        assert capsys.readouterr().err.startswith(f"error: {error}: [stage: correction] ")

    def test_an_unwritable_output_is_reported_before_a_correction_error(self, tmp_path, angle_profile, capsys):
        raw, out = raw_capture(tmp_path, 20, {5: "overflow"}), tmp_path / "missing" / "out.csv"
        capsys.readouterr()
        assert run("apply", "--profile", angle_profile, "--in", raw, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"error: IoFailureError: cannot write {out}: ")

    def test_the_warning_follows_the_write(self, tmp_path, profile, capsys):
        raw, once = raw_capture(tmp_path, 300), tmp_path / "once.csv"
        assert run("apply", "--profile", profile, "--in", raw, "--out", once) == 0
        capsys.readouterr()
        twice = tmp_path / "twice.csv"
        assert run("apply", "--profile", profile, "--in", once, "--out", twice) == 0
        warning, wrote = capsys.readouterr().err.splitlines()
        assert warning.startswith(f"warning: {once} looks already calibrated")
        assert wrote == f"wrote {twice}"
        # a write that fails prints no warning
        assert run("apply", "--profile", profile, "--in", once, "--out", tmp_path / "missing" / "out.csv") == 1
        assert capsys.readouterr().err.startswith("error: IoFailureError: ")

    @pytest.mark.filterwarnings("error")
    def test_feet_near_the_float64_limit_print_no_warning(self, tmp_path, capsys):
        xyz = np.ones((4, JOINT_COUNT, 3))
        xyz[:, [JointIndex.FOOT_LEFT, JointIndex.FOOT_RIGHT], 1] = 1e308  # the mean of two such heights overflows
        capture, out = tmp_path / "high.csv", tmp_path / "out.csv"
        write_capture(CaptureSequence(xyz, np.arange(4), GaitDirection.VERTICAL), capture)
        profile = _write_profile(tmp_path / "zero.json", 0.0, 0.0, (0.0,))
        assert run("apply", "--profile", profile, "--in", capture, "--out", out) == 0
        assert capsys.readouterr().err == f"wrote {out}\n"
        assert out.read_bytes() == capture.read_bytes()  # the zero profile changes nothing

    def test_memory_grows_by_less_than_two_captures_per_capture(self, tmp_path, profile):
        """After the read, apply holds the raw capture and one corrected part,
        about 1.0x the raw capture's xyz.nbytes per frame; correcting it whole
        first holds raw, corrected and temporaries, about 2.0x."""
        small, large = tmp_path / "small", tmp_path / "large"
        small.mkdir(), large.mkdir()
        paths = raw_capture(small, 1000), raw_capture(large, 4000)

        def peak(path):
            return peak_after_read("apply", "--profile", profile, "--in", path, "--out", tmp_path / "out.csv")

        peak(paths[0])  # the first run's one-time allocations
        frame_bytes = JOINT_COUNT * 3 * 8
        assert (peak(paths[1]) - peak(paths[0])) / (3000 * frame_bytes) < 1.5

    def test_whole_run_grows_by_less_than_a_capture_and_a_third(self, tmp_path, profile):
        """With its read, apply holds at most the raw capture and one fill's or one
        part's arrays beside it: its peak grows by about 1.05x the raw capture's
        xyz.nbytes per frame. A reader that also held two integers per row grew
        by about 1.65x: from 4,000 frames on, its read peaked above the write,
        whose block arrays cost a fixed amount, and below that the two readers
        would measure alike."""
        small, large = tmp_path / "small", tmp_path / "large"
        small.mkdir(), large.mkdir()
        paths = raw_capture(small, 4000), raw_capture(large, 8000)

        def peak(path):
            return peak_of_run("apply", "--profile", profile, "--in", path, "--out", tmp_path / "out.csv")

        peak(paths[0])  # the first run's one-time allocations
        frame_bytes = JOINT_COUNT * 3 * 8
        assert (peak(paths[1]) - peak(paths[0])) / (4000 * frame_bytes) < 1.3


class TestDiagnoseInParts:
    """``diagnose`` corrects and measures one 256-frame part at a time: its reports
    are those of the whole capture, or no report is written."""

    @staticmethod
    def whole_reports(tmp_path, raw, profile):
        """The ydiff and bone report bytes written from the whole capture, corrected with ``profile`` if given."""
        seq = read_capture(raw, GaitDirection.VERTICAL)
        if profile is not None:
            seq = apply_profile(seq, read_profile(profile))
        ydiff, bones = tmp_path / "whole_ydiff.csv", tmp_path / "whole_bones.csv"
        series, report = y_diff_to_last(seq), bone_length_stability(seq)
        diffs = np.stack([s.per_frame_diff for s in series], axis=1)
        stats = np.array([[e.mean_length_m, e.std_length_m, e.max_abs_dev_m] for e in report.per_edge])
        fileio.write_ydiff_report(seq.frame_index, [s.joint for s in series], diffs, ydiff)
        fileio.write_bone_report(stats, bones)
        return {"ydiff": ydiff.read_bytes(), "bones": bones.read_bytes()}

    @pytest.mark.parametrize("report", ["ydiff", "bones", "both"])
    @pytest.mark.parametrize("corrected", [False, True], ids=["raw", "profile"])
    @pytest.mark.parametrize("frames", [2, 255, 256, 257, 513])
    def test_reports_are_those_of_the_whole_capture(self, tmp_path, profile, frames, corrected, report):
        raw, out = raw_capture(tmp_path, frames), tmp_path / "report.csv"
        given = ["--profile", profile] if corrected else []
        assert run("diagnose", "--in", raw, "--report", report, "--out", out, *given) == 0
        whole = self.whole_reports(tmp_path, raw, profile if corrected else None)
        if report == "both":
            assert (tmp_path / "report_ydiff.csv").read_bytes() == whole["ydiff"]
            assert (tmp_path / "report_bones.csv").read_bytes() == whole["bones"]
        else:
            assert out.read_bytes() == whole[report]

    @pytest.mark.parametrize("corrected", [False, True], ids=["raw", "profile"])
    def test_reports_build_no_records(self, tmp_path, profile, corrected):
        """The part loop's arrays go to the report writers as they are: the record
        types of the whole-capture functions are never built, and the bytes stay."""
        raw, out = raw_capture(tmp_path, 513), tmp_path / "report.csv"
        given = ["--profile", profile] if corrected else []
        whole = self.whole_reports(tmp_path, raw, profile if corrected else None)

        def refuse(*args, **kwargs):
            raise AssertionError("a diagnostics record was built")

        with mock.patch.multiple(diagnostics, DiffSeries=refuse, EdgeStability=refuse, StabilityReport=refuse):
            assert run("diagnose", "--in", raw, "--report", "both", "--out", out, *given) == 0
        assert (tmp_path / "report_ydiff.csv").read_bytes() == whole["ydiff"]
        assert (tmp_path / "report_bones.csv").read_bytes() == whole["bones"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_a_fault_in_a_late_part_writes_no_report(self, tmp_path, angle_profile, fault, capsys):
        raw, old = raw_capture(tmp_path, 400, {300: fault}), tmp_path / "report_ydiff.csv"
        old.write_bytes(b"old\n")
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run("diagnose", "--profile", angle_profile, "--in", raw, "--report", "both",
                   "--out", tmp_path / "report.csv") == 1
        with pytest.raises(CalibrationError) as whole:  # the error of the whole correction
            apply_profile(read_capture(raw, GaitDirection.VERTICAL), read_profile(angle_profile))
        assert capsys.readouterr().err == f"error: {type(whole.value).__name__}: {whole.value}\n"
        if fault == "overflow":
            assert str(whole.value) == "[stage: correction] non-finite coordinate at frame 300, joint 3, field y"
        assert sorted(tmp_path.iterdir()) == before  # no temp file
        assert old.read_bytes() == b"old\n"

    @pytest.mark.parametrize(
        "faults, error",
        [
            ({100: "overflow", 300: "angle"}, "NonFiniteCoordinateError"),
            ({100: "angle", 300: "overflow"}, "BetaOutOfRangeError"),
        ],
    )
    def test_of_faults_in_two_parts_the_earlier_frame_is_reported(self, tmp_path, angle_profile, faults, error, capsys):
        raw = raw_capture(tmp_path, 400, faults)
        capsys.readouterr()
        assert run("diagnose", "--profile", angle_profile, "--in", raw, "--out", tmp_path / "report.csv") == 1
        assert capsys.readouterr().err.startswith(f"error: {error}: [stage: correction] ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "report, overflow",
        [
            ("ydiff", "y - y_last of joint 3 overflows at frame 0"),
            ("bones", "length of bone 0-1 overflows at frame "),
            ("both", "y - y_last of joint 3 overflows at frame 0"),
        ],
    )
    def test_a_correction_error_comes_before_a_diagnostics_overflow(self, tmp_path, report, overflow, capsys):
        xyz = np.ones((400, JOINT_COUNT, 3))
        # the first and last frames, corrected, hold y near +-1.01e308: their y - y_last and bones overflow
        xyz[[0, -1], :, 2] = 0.0
        xyz[0, ::2, 1] = xyz[-1, 1::2, 1] = 1e308
        xyz[0, 1::2, 1] = xyz[-1, ::2, 1] = -1e308
        capture, out = tmp_path / "huge.csv", tmp_path / "report.csv"
        profile = _write_profile(tmp_path / "tilt.json", 0.1, 0.0, (0.0,))
        argv = ("diagnose", "--profile", profile, "--in", capture, "--report", report, "--out", out)
        write_capture(CaptureSequence(xyz, np.arange(400), GaitDirection.VERTICAL), capture)
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: MeasureOverflowError: [stage: diagnostics] {overflow}")
        xyz[300, JointIndex.HEAD] = (1.0, 1.7e308, 1.7e308)  # tilting it overflows its z, and then its y
        write_capture(CaptureSequence(xyz, np.arange(400), GaitDirection.VERTICAL), capture)
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            "error: NonFiniteCoordinateError: [stage: correction] non-finite coordinate at frame 300, joint 3, field y\n"
        )
        assert not set(tmp_path.glob("report*"))

    def test_memory_grows_by_less_than_one_and_a_half_captures_per_capture(self, tmp_path, profile):
        """After the read, diagnose holds the raw capture and, of each corrected
        part, 9 joints' heights and 24 bone lengths: about 1.45x the raw
        capture's xyz.nbytes per frame. Correcting it whole first holds raw,
        corrected and temporaries, about 2x."""
        small, large = tmp_path / "small", tmp_path / "large"
        small.mkdir(), large.mkdir()
        paths = raw_capture(small, 1000), raw_capture(large, 4000)

        def peak(path):
            return peak_after_read("diagnose", "--profile", profile, "--in", path, "--report", "both",
                                   "--out", tmp_path / "report.csv")

        peak(paths[0])  # the first run's one-time allocations
        frame_bytes = JOINT_COUNT * 3 * 8
        assert (peak(paths[1]) - peak(paths[0])) / (3000 * frame_bytes) < 1.5


@pytest.mark.parametrize("command", ["apply", "diagnose"])
def test_parts_are_256_frames_whatever_the_writer_block(tmp_path, profile, command):
    """The part loop has its own size: it does not follow ``fileio.BLOCK_FRAMES``."""
    raw = raw_capture(tmp_path, 513)
    with mock.patch("skelcal.cli.apply_profile", wraps=apply_profile) as spy:
        assert run(command, "--profile", profile, "--in", raw, "--out", tmp_path / "out.csv") == 0
    assert spy.call_count == math.ceil(513 / 256)
    assert [len(call.args[0]) for call in spy.call_args_list] == [256, 256, 1]


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
        got = _median(seq.xyz[:, _FEET, 1])  # as cmd_apply calls it on the raw feet
        assert got == expected
        assert got.hex() == expected.hex() or got == 0.0  # -0.0 and 0.0 tie in any order


class TestOutputDigests:
    """The SHA-256 of every file ``calibrate``, ``apply`` and ``diagnose --report both``
    write from seeded synthetic inputs: a change to any output byte fails here."""

    DIGESTS = {
        "profile.json": "3bb4bb9fbc45abe649cb79ec8005a8b2540a92d1221fc2b9c3dcbd06a48df5f3",
        "corrected.csv": "0b72781b53b0d160790bbfe7468ee6b7add5f36348547ae6c137c5da1b273674",
        "report_ydiff.csv": "cb264c3d559a74e8c2fe786e9ba6bcadbab0020000a9f7b4d03f22cb4a8f2548",
        "report_bones.csv": "f9ca8bf2dfd91172fed17c0cec184221fed8eae4ee70f99311c7c6544ad86be0",
    }

    def test_outputs_keep_their_bytes(self, tmp_path):
        def synth(name, frames, seed, direction="vertical"):
            raw = tmp_path / f"{name}.csv"
            assert run("synth", "--direction", direction, "--frames", frames, "--tilt-deg", 7,
                       "--sensor-height", 0.75, "--beta-coeffs", "3.0,-1.0", "--noise-std", 0.005,
                       "--seed", seed, "--out-truth", tmp_path / f"{name}_truth.csv", "--out-raw", raw) == 0
            return raw

        gaits = [synth(f"gait{i}", 90, i) for i in range(3)]
        capture = synth("capture", 600, 3)  # 3 parts, 10 writer blocks
        walk = synth("walk", 300, 4, "horizontal")
        profile = tmp_path / "profile.json"
        assert run("calibrate", "--sensor-height", 0.75, "--out-profile", profile, *gaits) == 0
        assert run("apply", "--profile", profile, "--in", capture, "--out", tmp_path / "corrected.csv") == 0
        assert run("diagnose", "--profile", profile, "--in", walk, "--direction", "horizontal",
                   "--report", "both", "--out", tmp_path / "report.csv") == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert digests == self.DIGESTS
