"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion.
"""

import math
import time

import numpy as np

from skelcal import (
    DistortionSpec,
    GaitDirection,
    Polynomial,
    TiltModel,
    TiltParams,
    apply_distortion,
    apply_profile,
    arithmetic_mean,
    bone_length_stability,
    calibrate,
    geometric_mean,
    perspective_correct_sequence,
    polyfit_least_squares,
    read_capture,
    read_profile,
    tilt_correct_sequence,
    write_capture,
    write_profile,
)
from skelcal.perspective import BetaModel, BetaPoint, distort_perspective
from skelcal.skeleton import JointIndex
from skelcal.tilt import distort_tilt
from oracles import max_y_diff

TILT_7_DEG = math.radians(7)
SENSOR_HEIGHT = 0.75
BETA_LINEAR_3_DEG = Polynomial((math.radians(3), -0.02))


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def max_coordinate_error(a, b):
    return float(np.abs(a.xyz - b.xyz).max())


def shear_spec(seed=None, beta=Polynomial((0.0,))):
    return DistortionSpec(
        tilt_rad=TILT_7_DEG,
        sensor_height_m=SENSOR_HEIGHT,
        beta_poly=beta,
        noise_std_m=0.005 if seed is not None else 0.0,
        seed=seed if seed is not None else 0,
    )


def test_criterion_1_shear_round_trip(truth_walk):
    start = time.perf_counter()
    raw = distort_tilt(truth_walk, TiltParams(TILT_7_DEG, SENSOR_HEIGHT))
    back = tilt_correct_sequence(raw, TiltParams(TILT_7_DEG, SENSOR_HEIGHT))
    err = max_coordinate_error(back, truth_walk)
    elapsed = time.perf_counter() - start
    report(
        1, "shear round-trip", err <= 1e-9 and elapsed < 1.0,
        f"max coordinate error {err:.3e} m, {elapsed:.3f} s",
    )


def test_criterion_2_perspective_round_trip(truth_walk):
    poly = Polynomial((0.035, -0.02))
    model = BetaModel(poly, poly.degree, (
        BetaPoint(JointIndex.HEAD, 1.6, 0.0), BetaPoint(JointIndex.SPINE_BASE, 0.9, 0.0),
    ))
    start = time.perf_counter()
    raw = distort_perspective(truth_walk, poly)
    back = perspective_correct_sequence(raw, model)
    err = float(np.abs(back.xyz[..., 1] - truth_walk.xyz[..., 1]).max())
    elapsed = time.perf_counter() - start
    report(
        2, "perspective round-trip", err <= 1e-6 and elapsed < 1.0,
        f"max |dy| {err:.3e} m, {elapsed:.3f} s",
    )


def test_criterion_3_tilt_recovery(truth_walk):
    shear_gaits = [apply_distortion(truth_walk, shear_spec()) for _ in range(10)]
    shear_estimate = calibrate(shear_gaits, SENSOR_HEIGHT).tilt.tilt_rad
    expected = math.atan(math.sin(TILT_7_DEG))
    shear_err = abs(shear_estimate - expected)

    rotation_gaits = [
        distort_tilt(truth_walk, TiltParams(TILT_7_DEG, SENSOR_HEIGHT), TiltModel.ROTATION)
        for _ in range(10)
    ]
    rotation_estimate = calibrate(rotation_gaits, SENSOR_HEIGHT).tilt.tilt_rad
    rotation_err = abs(rotation_estimate - TILT_7_DEG)

    report(
        3, "tilt recovery",
        shear_err <= 1e-6 and rotation_err <= math.radians(0.25),
        f"shear err {shear_err:.2e} rad, rotation err {math.degrees(rotation_err):.4f} deg",
    )


def make_end_to_end_fixture(truth_walk):
    gaits = [
        apply_distortion(truth_walk, shear_spec(seed=100 + i, beta=BETA_LINEAR_3_DEG))
        for i in range(10)
    ]
    held_out = apply_distortion(truth_walk, shear_spec(seed=999, beta=BETA_LINEAR_3_DEG))
    return gaits, held_out


def test_criterion_4_end_to_end_five_centimeters(truth_walk):
    start = time.perf_counter()
    gaits, held_out = make_end_to_end_fixture(truth_walk)
    profile = calibrate(gaits, SENSOR_HEIGHT)
    corrected = apply_profile(held_out, profile)
    worst = max_y_diff(corrected)
    elapsed = time.perf_counter() - start
    report(
        4, "end-to-end 5 cm", worst <= 0.05 and elapsed < 5.0,
        f"max |y - y_last| {worst:.4f} m, {elapsed:.2f} s",
    )


def test_criterion_5_monotone_improvement(truth_walk):
    gaits, held_out = make_end_to_end_fixture(truth_walk)
    profile = calibrate(gaits, SENSOR_HEIGHT)
    raw_m = max_y_diff(held_out)
    tilt_m = max_y_diff(tilt_correct_sequence(held_out, profile.tilt))
    full_m = max_y_diff(apply_profile(held_out, profile))
    report(
        5, "monotone improvement",
        raw_m >= tilt_m >= full_m and full_m * 5 <= raw_m,
        f"raw {raw_m:.4f} >= tilt {tilt_m:.4f} >= full {full_m:.4f}, ratio {raw_m / full_m:.1f}x",
    )


def test_criterion_6_bone_length_stability(truth_walk, template):
    poly = Polynomial((0.035, -0.02))
    gaits = [distort_perspective(truth_walk, poly) for _ in range(10)]
    profile = calibrate(gaits, 0.0)
    held_out = distort_perspective(truth_walk, poly)
    before = bone_length_stability(held_out)
    after = bone_length_stability(apply_profile(held_out, profile))
    offsets = template.joint_offsets
    checked, violations = 0, []
    for eb, ea in zip(before.per_edge, after.per_edge):
        dy = abs(offsets[eb.edge.parent].y - offsets[eb.edge.child].y)
        if dy > 0.05:
            checked += 1
            if ea.std_length_m > eb.std_length_m:
                violations.append(eb.edge)
    report(
        6, "bone-length stability", checked > 0 and not violations,
        f"{checked} edges with |dY| > 0.05 m checked, {len(violations)} regressions",
    )


def test_criterion_7_numerics_properties():
    rng = np.random.default_rng(2024)

    am_gm_ok = True
    for _ in range(1000):
        values = rng.uniform(1e-4, 10.0, rng.integers(1, 12)).tolist()
        if geometric_mean(values) > arithmetic_mean(values) * (1 + 1e-12):
            am_gm_ok = False
            break

    fit_ok = True
    worst_fit = 0.0
    for _ in range(100):
        degree = int(rng.integers(0, 3))
        truth = rng.uniform(-1, 1, degree + 1)
        xs = rng.uniform(-2, 2, degree + 1 + int(rng.integers(1, 6)))
        while len(set(xs.tolist())) <= degree:
            xs = rng.uniform(-2, 2, degree + 4)
        ys = [float(sum(c * x**k for k, c in enumerate(truth))) for x in xs]
        fit = polyfit_least_squares(xs.tolist(), ys, degree)
        design = np.vander(xs, degree + 1, increasing=True)
        oracle = np.linalg.solve(design.T @ design, design.T @ np.asarray(ys))
        dev = max(
            max(abs(f - t) for f, t in zip(fit.coefficients, truth)),
            max(abs(f - o) for f, o in zip(fit.coefficients, oracle)),
        )
        worst_fit = max(worst_fit, dev)
        if dev > 1e-9:
            fit_ok = False

    gm_ok = True
    worst_gm = 0.0
    for _ in range(200):
        values = rng.uniform(1e-3, 1.0, rng.integers(1, 11)).tolist()
        direct = math.prod(values) ** (1.0 / len(values))
        dev = abs(geometric_mean(values) - direct)
        worst_gm = max(worst_gm, dev)
        if dev > 1e-12:
            gm_ok = False

    report(
        7, "numerics properties", am_gm_ok and fit_ok and gm_ok,
        f"AM-GM 1000 lists ok={am_gm_ok}, fit dev {worst_fit:.2e}, gm dev {worst_gm:.2e}",
    )


def test_criterion_8_format_determinism(tmp_path, truth_walk):
    raw = apply_distortion(truth_walk, shear_spec(seed=5, beta=BETA_LINEAR_3_DEG))
    first = tmp_path / "raw.csv"
    second = tmp_path / "raw2.csv"
    write_capture(raw, first)
    loaded = read_capture(first, GaitDirection.VERTICAL)
    write_capture(loaded, second)
    bytes_identical = first.read_bytes() == second.read_bytes()
    coord_err = max_coordinate_error(loaded, raw)

    profile = calibrate([apply_distortion(truth_walk, shear_spec(beta=BETA_LINEAR_3_DEG))
                         for _ in range(3)], SENSOR_HEIGHT, created_label="determinism")
    ppath = tmp_path / "profile.json"
    write_profile(profile, ppath)
    profile_ok = read_profile(ppath) == profile

    report(
        8, "format determinism",
        bytes_identical and coord_err <= 1e-9 and profile_ok,
        f"byte-identical={bytes_identical}, capture err {coord_err:.2e} m, profile exact={profile_ok}",
    )
