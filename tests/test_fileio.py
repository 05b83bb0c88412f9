import json
import math

import pytest

from skelcal import (
    BetaModel,
    BetaPoint,
    CalibrationProfile,
    DistortionSpec,
    GaitDirection,
    JointIndex,
    Polynomial,
    TiltParams,
    apply_distortion,
    calibrate,
    generate_truth_capture,
    read_capture,
    read_profile,
    write_capture,
    write_profile,
)
from skelcal import CaptureSequence, JOINT_COUNT, Point3, SkeletonFrame, y_diff_to_last
from skelcal.fileio import write_ydiff_report
from skelcal.errors import (
    EmptySequenceError,
    IoFailureError,
    MissingJointError,
    ParseError,
    SchemaError,
)


@pytest.fixture
def short_walk(template):
    return generate_truth_capture(template, GaitDirection.VERTICAL, 3, 4.5, 1.5)


@pytest.fixture
def profile(truth_walk):
    spec = DistortionSpec(
        tilt_rad=math.radians(7), sensor_height_m=0.75, beta_poly=Polynomial((0.02, -0.01))
    )
    return calibrate([apply_distortion(truth_walk, spec) for _ in range(3)], 0.75, created_label="fixture")


class TestCaptureRoundTrip:
    def test_write_read_within_tolerance(self, short_walk, tmp_path):
        path = tmp_path / "walk.csv"
        write_capture(short_walk, path)
        back = read_capture(path, GaitDirection.VERTICAL)
        assert len(back.frames) == len(short_walk.frames)
        for fa, fb in zip(back.frames, short_walk.frames):
            assert fa.frame_index == fb.frame_index
            for a, b in zip(fa.joints, fb.joints):
                assert abs(a.x - b.x) <= 1e-9
                assert abs(a.y - b.y) <= 1e-9
                assert abs(a.z - b.z) <= 1e-9

    def test_read_write_byte_identical(self, short_walk, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_capture(short_walk, first)
        write_capture(read_capture(first, GaitDirection.VERTICAL), second)
        assert first.read_bytes() == second.read_bytes()

    def test_writes_are_deterministic(self, short_walk, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_capture(short_walk, a)
        write_capture(short_walk, b)
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings_and_header(self, short_walk, tmp_path):
        path = tmp_path / "walk.csv"
        write_capture(short_walk, path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.startswith(b"frame,joint,x,y,z\n")

    def test_label_defaults_to_stem(self, short_walk, tmp_path):
        path = tmp_path / "session7.csv"
        write_capture(short_walk, path)
        assert read_capture(path, GaitDirection.VERTICAL).label == "session7"


class TestCaptureErrors:
    def test_missing_joint_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["frame,joint,x,y,z"]
        for j in range(24):  # joint 24 absent
            lines.append(f"0,{j},0.1,1.0,2.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MissingJointError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.frame_index == 0
        assert err.value.joint == 24

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("frame,joint,x,y,z\n")
        with pytest.raises(EmptySequenceError):
            read_capture(path, GaitDirection.VERTICAL)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"0,{j},0.1,1.0,2.0" for j in range(25)]
        rows[3] = "0,2,0.1,not_a_number,2.0"  # file line 4 (header is line 1)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 4

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,joint,x,y,z\n0,0,0.1,1.0\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 2

    def test_duplicate_joint_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"0,{j},0.1,1.0,2.0" for j in range(25)]
        rows.append("0,5,0.1,1.0,2.0")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError):
            read_capture(path, GaitDirection.VERTICAL)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            read_capture(tmp_path / "nope.csv", GaitDirection.VERTICAL)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0.1,1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 1


class TestProfileRoundTrip:
    def test_field_for_field_equal(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        write_profile(profile, path)
        back = read_profile(path)
        assert back == profile

    def test_write_deterministic(self, profile, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_profile(profile, a)
        write_profile(profile, b)
        assert a.read_bytes() == b.read_bytes()


def valid_profile_doc():
    return {
        "schema_version": 1,
        "alpha_g_rad": 0.12,
        "h_k_m": 0.75,
        "beta_degree": 1,
        "beta_coeffs": [0.02, -0.01],
        "gait_count": 10,
        "beta_points": [
            {"joint": 3, "height_y_m": 1.6, "beta_rad": 0.005},
            {"joint": 0, "height_y_m": 0.9, "beta_rad": 0.012},
        ],
        "created_label": "test",
    }


class TestProfileSchema:
    def write(self, tmp_path, doc):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        return path

    def test_valid_document_accepted(self, tmp_path):
        profile = read_profile(self.write(tmp_path, valid_profile_doc()))
        assert profile.tilt.tilt_rad == 0.12
        assert profile.beta.poly.coefficients == (0.02, -0.01)
        assert profile.gait_count == 10

    def test_coefficient_count_mismatch(self, tmp_path):
        doc = valid_profile_doc()
        doc["beta_coeffs"] = [0.02, -0.01, 0.003]
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == "beta_coeffs"

    def test_unsupported_schema_version(self, tmp_path):
        doc = valid_profile_doc()
        doc["schema_version"] = 2
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == "schema_version"

    def test_unknown_field_rejected(self, tmp_path):
        doc = valid_profile_doc()
        doc["comment"] = "hello"
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == "comment"

    def test_missing_field_rejected(self, tmp_path):
        doc = valid_profile_doc()
        del doc["h_k_m"]
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == "h_k_m"

    def test_wrong_type_rejected(self, tmp_path):
        doc = valid_profile_doc()
        doc["alpha_g_rad"] = "0.12"
        with pytest.raises(SchemaError):
            read_profile(self.write(tmp_path, doc))

    def test_unknown_beta_point_field_rejected(self, tmp_path):
        doc = valid_profile_doc()
        doc["beta_points"][0]["extra"] = 1
        with pytest.raises(SchemaError):
            read_profile(self.write(tmp_path, doc))

    def test_not_json(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_profile(path)


class TestArrayBackedIo:
    def test_frame_index_beyond_int64_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"{2**63},{j},0.1,1.0,2.0" for j in range(25)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 2

    def test_ydiff_report_rows_carry_frame_indices(self, tmp_path):
        frames = [
            SkeletonFrame(k, tuple(Point3(0.0, y, 2.0) for _ in range(JOINT_COUNT)))
            for k, y in ((3, 1.3), (7, 1.7), (9, 1.9))
        ]
        seq = CaptureSequence(frames, GaitDirection.VERTICAL)
        path = tmp_path / "ydiff.csv"
        write_ydiff_report(seq, y_diff_to_last(seq, [JointIndex.HEAD]), path)
        assert path.read_text() == "frame,head\n3,-0.600000000\n7,-0.200000000\n9,0.000000000\n"
