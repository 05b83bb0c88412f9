"""The scenario matrix: calibrate on seeded gaits, then measure the profile against ground truth.

Each scenario distorts ten 90-frame vertical gaits, 4.5 m to 1.5 m, with
noise seeds 0-9: a sensor tilt under one ``TiltModel``, h = 0.75 m,
β = 3.0 - 1.0·y degrees and 5 mm Gaussian noise. It calibrates on them and
measures, against the truth:

- the tilt error, |a_fit - a|;
- the β error, the largest |β_fit - β| over y in [0.05, 1.7] m;
- the Y and Z RMSE of a held-out 900-frame walk over the same path, distorted
  alike on noise seed 10 and corrected with the profile.

The bounds come from measurement. Over the rows that meet them, seeds 0-9
read at most 0.045 degrees of tilt error, 0.35 degrees of β error (shear 15
degrees; at most 0.045 elsewhere), 10.2 mm Y RMSE and 5.04 mm Z RMSE; seeds
20-29 (held-out seed 30) read at most 0.066, 0.076, 10.4 and 5.07, and miss
the same bounds in the same rows, and the β bound at shear 15 degrees too,
reading 0.401. A row that misses a bound today is a strict xfail that names
the ROADMAP item that mends it, so it fails here once it passes.

Under the shear model the tilt also runs negative, -0.3, -2 and -7 degrees.
Over those rows that meet the bounds, seeds 0-9 read at most 0.084 degrees of
tilt error, 0.29 of β error, 4.9 mm Y RMSE and 5.62 mm Z RMSE; seeds 20-29
0.048, 0.15, 4.8 and 5.11. At -0.3 degrees both seed sets miss the tilt bound,
reading 0.300 (a level sensor) and 0.129 degrees: item 10's defect at 0.3
degrees, mirrored.
"""

import functools
import math

import numpy as np
import pytest

from skelcal import (
    BodyTemplate,
    CaptureSequence,
    DistortionSpec,
    GaitDirection,
    JointIndex,
    Point3,
    Polynomial,
    TiltModel,
    apply_distortion,
    apply_profile,
    calibrate,
    default_template,
    generate_truth_capture,
)
from oracles import beta_error_deg

SENSOR_HEIGHT_M = 0.75
BETA = Polynomial((math.radians(3.0), math.radians(-1.0)))
GAIT_SEEDS = range(10)
HELD_OUT_SEED = 10
TILTS_DEG = [0, 0.3, 2, 7, 15]
#: The sensor pitched the other way, under the shear model only.
NEGATIVE_TILTS_DEG = [-0.3, -2, -7]

#: Each measure's bound, with its unit in its name.
BOUNDS = {"tilt_deg": 0.1, "beta_deg": 0.4, "y_rmse_mm": 12.0, "z_rmse_mm": 6.0}

_ITEM_10 = (
    "ROADMAP item 10: the spine reads a shear tilt a as atan(sin a), and the correction takes "
    "that for a: atan(sin 15 degrees) is 14.51 degrees"
)
_ITEM_5 = (
    "ROADMAP item 5: the shear correction leaves a rotated capture an error that grows with depth, "
    "which the β fit takes as an angle of the wrong sign: β(0) read -9.79 degrees at 7, 3.00 true"
)
_ITEM_10_LEVEL = (
    "ROADMAP item 10: -0.3 degree gait means that straddle 0 each lie within 5 standard errors of it, "
    "so estimate_tilt takes the sensor as level and returns 0.0"
)
#: The measures that miss their bound today, with what seeds 0-9 read and the item that mends them.
DEFECTS = {
    ("tilt_deg", TiltModel.SHEAR_INVERSE, 15): (0.45, _ITEM_10),
    ("z_rmse_mm", TiltModel.SHEAR_INVERSE, 15): (9.0, _ITEM_10),
    ("beta_deg", TiltModel.ROTATION, 0.3): (0.56, _ITEM_5),
    ("beta_deg", TiltModel.ROTATION, 2): (3.64, _ITEM_5),
    ("beta_deg", TiltModel.ROTATION, 7): (12.7, _ITEM_5),
    ("beta_deg", TiltModel.ROTATION, 15): (28.9, _ITEM_5),
    ("y_rmse_mm", TiltModel.ROTATION, 7): (32.6, _ITEM_5),
    ("y_rmse_mm", TiltModel.ROTATION, 15): (29.4, _ITEM_5),
    ("z_rmse_mm", TiltModel.ROTATION, 0.3): (6.36, _ITEM_5),
    ("z_rmse_mm", TiltModel.ROTATION, 2): (24.9, _ITEM_5),
    ("z_rmse_mm", TiltModel.ROTATION, 7): (70.2, _ITEM_5),
    ("z_rmse_mm", TiltModel.ROTATION, 15): (105.4, _ITEM_5),
    ("tilt_deg", TiltModel.SHEAR_INVERSE, -0.3): (0.30, _ITEM_10_LEVEL),
}


def _spec(model, tilt_deg, seed, beta=BETA):
    return DistortionSpec(
        tilt_model=model,
        tilt_rad=math.radians(tilt_deg),
        sensor_height_m=SENSOR_HEIGHT_M,
        beta_poly=beta,
        noise_std_m=0.005,
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def _truth(frames):
    return generate_truth_capture(default_template(), GaitDirection.VERTICAL, frames, 4.5, 1.5)


def _against_truth(profile, model, tilt_deg, beta=BETA):
    """The four measures of ``profile``, calibrated at ``tilt_deg`` under ``model`` and ``beta``, by the names of
    ``BOUNDS``."""
    held_out = apply_distortion(_truth(900), _spec(model, tilt_deg, HELD_OUT_SEED, beta))
    error = apply_profile(held_out, profile).xyz - _truth(900).xyz
    return {
        "tilt_deg": abs(math.degrees(profile.tilt.tilt_rad) - tilt_deg),
        "beta_deg": beta_error_deg(profile, beta),
        "y_rmse_mm": 1000 * math.sqrt(np.mean(error[..., 1] ** 2)),
        "z_rmse_mm": 1000 * math.sqrt(np.mean(error[..., 2] ** 2)),
    }


@functools.lru_cache(maxsize=None)
def measure(model, tilt_deg):
    """The four measures of one scenario, by the names of ``BOUNDS``."""
    gaits = [apply_distortion(_truth(90), _spec(model, tilt_deg, seed)) for seed in GAIT_SEEDS]
    return _against_truth(calibrate(gaits, SENSOR_HEIGHT_M), model, tilt_deg)


def _row(key, defects, id):
    """The test parameters ``key``, which start with a measure's name: a strict xfail if ``defects`` holds them."""
    marks = []
    if key in defects:
        measured, reason = defects[key]
        reason = f"{reason}; {key[0]} read {measured}, bound {BOUNDS[key[0]]}"
        marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)]
    return pytest.param(*key, marks=marks, id=id)


def _rows():
    for name in BOUNDS:
        for model in TiltModel:
            negative = NEGATIVE_TILTS_DEG if model is TiltModel.SHEAR_INVERSE else []
            for tilt_deg in TILTS_DEG + negative:
                yield _row((name, model, tilt_deg), DEFECTS, f"{name}-{model.value}-{tilt_deg}deg")


@pytest.mark.parametrize("name, model, tilt_deg", _rows())
def test_measure_within_bound(name, model, tilt_deg):
    assert measure(model, tilt_deg)[name] <= BOUNDS[name]



# The next rows, under the shear model at tilts of 0, 2 and 7 degrees, with the same bounds and held-out walk:
# - "cut": each of the ten gaits cut 7 frames short, so no gait ends a whole gait cycle. Seeds 0-9 read at most
#   0.039 degrees of tilt error, 0.053 of β error, 5.00 mm Y RMSE and 5.04 mm Z RMSE; seeds 20-29 0.056, 0.063,
#   4.98 and 5.07.
# - "mixed": the ten gaits and three horizontal 90-frame walks across the same path, on noise seeds 100-102.
#   calibrate reads the horizontal walks' inclinations but fits β from the vertical gaits only. On seeds 0-9
#   each measure reads within 0.008 degrees (tilt and β) and 0.004 mm (Y and Z) of the vertical-only row; on
#   seeds 20-29, with horizontal seeds 120-122, within 0.004 degrees and 0.003 mm.
# - "long": ten 900-frame gaits over the same path instead of 90-frame ones. Seeds 0-9 read at most 0.035 degrees
#   of tilt error, 0.040 of β error, 4.97 mm Y RMSE and 5.05 mm Z RMSE; seeds 20-29 (held-out seed 30) 0.052,
#   0.055, 4.91 and 5.06.
# - "away": the ten gaits with their frames reversed and their indices kept increasing, so each walks away from the
#   sensor, 1.5 m to 4.5 m; the held-out walk still walks toward it. The solve reads the same points in either
#   order, so every measure reads as in the gaits toward the sensor. Seeds 0-9 read at most 0.031 degrees of tilt
#   error, 0.045 of β error, 5.00 mm Y RMSE and 5.04 mm Z RMSE; seeds 20-29 0.055, 0.066, 4.96 and 5.07.
VARIANT_TILTS_DEG = [0, 2, 7]
HORIZONTAL_SEEDS = range(100, 103)


@functools.lru_cache(maxsize=None)
def measure_variant(variant, tilt_deg):
    """The four measures of the shear scenario at ``tilt_deg`` with the gaits of ``variant``: "cut", "mixed",
    "long" or "away"."""
    model = TiltModel.SHEAR_INVERSE
    frames = 900 if variant == "long" else 90
    gaits = [apply_distortion(_truth(frames), _spec(model, tilt_deg, seed)) for seed in GAIT_SEEDS]
    if variant == "cut":
        gaits = [gait[:-7] for gait in gaits]
    elif variant == "mixed":
        across = generate_truth_capture(default_template(), GaitDirection.HORIZONTAL, 90, 4.5, 1.5)
        gaits += [apply_distortion(across, _spec(model, tilt_deg, seed)) for seed in HORIZONTAL_SEEDS]
    elif variant == "away":
        gaits = [CaptureSequence(gait.xyz[::-1], gait.frame_index, GaitDirection.VERTICAL) for gait in gaits]
    return _against_truth(calibrate(gaits, SENSOR_HEIGHT_M), model, tilt_deg)


@pytest.mark.parametrize("tilt_deg", VARIANT_TILTS_DEG, ids=lambda tilt_deg: f"{tilt_deg}deg")
@pytest.mark.parametrize("variant", ["cut", "mixed", "long", "away"])
@pytest.mark.parametrize("name", list(BOUNDS))
def test_variant_within_bound(name, variant, tilt_deg):
    assert measure_variant(variant, tilt_deg)[name] <= BOUNDS[name]


# The β shapes beside 3 - 1·y degrees, as ascending coefficients in degrees over y in m, under the shear model at 0
# and 7 degrees with the same bounds and held-out walk. Seeds 0-9 read at most 0.018 degrees of tilt error, 0.167
# of β error, 5.68 mm Y RMSE and 5.05 mm Z RMSE; seeds 20-29 (held-out seed 30) 0.056, 0.218, 5.90 and 5.10. The
# largest β errors are the constant 8 degrees' (0.159-0.218): y is noisy on both sides of the solve's model, and
# the bias grows with β. 3 - 3·y and 5 - 4·y + 1.5·y² read at most 0.018 / 0.052 degrees of β error and 4.77 /
# 4.72 mm Y RMSE; the end-frame estimator before the solve read 0.56-1.57 degrees and 19.7-70.2 mm there.
BETA_SHAPES_DEG = {
    "3": (3.0,),
    "8": (8.0,),
    "1-0.5y": (1.0, -0.5),
    "3-3y": (3.0, -3.0),
    "5-4y+1.5y2": (5.0, -4.0, 1.5),
}
SHAPE_TILTS_DEG = [0, 7]


@functools.lru_cache(maxsize=None)
def measure_shape(shape, tilt_deg):
    """The four measures of the shear scenario at ``tilt_deg`` with the β of ``BETA_SHAPES_DEG[shape]``."""
    beta = Polynomial(tuple(math.radians(c) for c in BETA_SHAPES_DEG[shape]))
    model = TiltModel.SHEAR_INVERSE
    gaits = [apply_distortion(_truth(90), _spec(model, tilt_deg, seed, beta)) for seed in GAIT_SEEDS]
    return _against_truth(calibrate(gaits, SENSOR_HEIGHT_M), model, tilt_deg, beta)


def _shape_rows():
    for name in BOUNDS:
        for shape in BETA_SHAPES_DEG:
            for tilt_deg in SHAPE_TILTS_DEG:
                yield pytest.param(name, shape, tilt_deg, id=f"{name}-{shape}-{tilt_deg}deg")


@pytest.mark.parametrize("name, shape, tilt_deg", _shape_rows())
def test_beta_shape_within_bound(name, shape, tilt_deg):
    assert measure_shape(shape, tilt_deg)[name] <= BOUNDS[name]


HEIGHT_ERRORS_M = [-0.2, 0.2]
HEIGHT_TILTS_DEG = [0, 7]
_ITEM_11 = "ROADMAP item 11: the sensor height is taken on trust, so its error moves every corrected Y by about as much"
#: The wrong-height rows that miss their bound today, with what seeds 0-9 read and the item that mends them.
HEIGHT_DEFECTS = {
    ("y_rmse_mm", -0.2, 0): (200.4, _ITEM_11),
    ("y_rmse_mm", -0.2, 7): (200.5, _ITEM_11),
    ("y_rmse_mm", 0.2, 0): (199.7, _ITEM_11),
    ("y_rmse_mm", 0.2, 7): (199.6, _ITEM_11),
}


@functools.lru_cache(maxsize=None)
def measure_height(error_m, tilt_deg):
    """The four measures of the shear scenario at ``tilt_deg``, calibrated with a sensor height ``error_m`` off
    the true 0.75 m."""
    model = TiltModel.SHEAR_INVERSE
    gaits = [apply_distortion(_truth(90), _spec(model, tilt_deg, seed)) for seed in GAIT_SEEDS]
    return _against_truth(calibrate(gaits, SENSOR_HEIGHT_M + error_m), model, tilt_deg)


def _height_rows():
    for name in BOUNDS:
        for error_m in HEIGHT_ERRORS_M:
            for tilt_deg in HEIGHT_TILTS_DEG:
                yield _row((name, error_m, tilt_deg), HEIGHT_DEFECTS, f"{name}-{error_m:+}m-{tilt_deg}deg")


@pytest.mark.parametrize("name, error_m, tilt_deg", _height_rows())
def test_wrong_sensor_height_within_bound(name, error_m, tilt_deg):
    """The shear scenario at 0 and 7 degrees, calibrated with h = 0.55 m and 0.95 m where it is 0.75 m.

    The tilt and Z do not depend on h: seeds 0-9 / 20-29 (held-out seed 30) read at most 0.012 / 0.055 degrees
    of tilt error and 5.04 / 5.07 mm Z RMSE. Y RMSE reads 200.4-200.5 / 200.2-200.3 mm at -0.2 m and 199.6-199.7 /
    199.8-200.0 mm at +0.2 m. The fitted β sits at heights shifted by the error, and the -1 degree/m slope of β
    turns 0.2 m into 0.2 degrees: the β error reads 0.21-0.22 / 0.20-0.24 degrees at -0.2 m and 0.22-0.23 /
    0.22-0.27 at +0.2 m.
    """
    assert measure_height(error_m, tilt_deg)[name] <= BOUNDS[name]


# Glitch rows: under the shear model at 7 degrees, a tracking glitch sets SPINE_MID's y 0.25 m below SPINE_BASE's in
# one mid-walk frame of each gait, or in three. gait_inclination skips such an inverted frame, so the tilt is exactly
# that of the gaits with those frames deleted. It moves from the glitch-free tilt only by the noise the skipped frames
# carried: seeds 0-9 read 0.0003 and 0.0076 degrees for these frames, seeds 20-29 0.0012 and 0.0028. Which frames
# drop matters at this scale: over every single frame seeds 0-9 read up to 0.014 degrees, and over 60 seeded random
# triples up to 0.025. Before the rule each inverted frame entered the mean at about pi - 0.15 rad, and the tilt read
# 8.83 and 12.52 degrees on seeds 0-9, 8.78 and 12.48 on seeds 20-29, against 6.99 and 6.94 without the glitches.
# Only the tilt is bounded here; the glitch rows below bound every measure.
GLITCH_FRAMES = {"1-frame": [45], "3-frames": [30, 45, 60]}


@pytest.mark.parametrize("frames", GLITCH_FRAMES.values(), ids=GLITCH_FRAMES.keys())
def test_inverted_spine_frames_do_not_steer_the_tilt(frames):
    gaits = [apply_distortion(_truth(90), _spec(TiltModel.SHEAR_INVERSE, 7, seed)) for seed in GAIT_SEEDS]
    glitched, kept = [], []
    for gait in gaits:
        xyz = gait.xyz.copy()
        xyz[frames, JointIndex.SPINE_MID, 1] = xyz[frames, JointIndex.SPINE_BASE, 1] - 0.25
        glitched.append(gait.with_xyz(xyz))
        kept.append(CaptureSequence(np.delete(gait.xyz, frames, axis=0), np.delete(gait.frame_index, frames),
                                    GaitDirection.VERTICAL))
    tilt = calibrate(glitched, SENSOR_HEIGHT_M).tilt.tilt_rad
    assert tilt == calibrate(kept, SENSOR_HEIGHT_M).tilt.tilt_rad
    assert abs(math.degrees(tilt - calibrate(gaits, SENSOR_HEIGHT_M).tilt.tilt_rad)) <= 0.01


# Tracking glitches, under the shear model at 7 degrees with the same bounds and held-out walk. Gait seed s draws its
# glitches from np.random.default_rng(1000 + s): each joint of the glitched frames is hit with probability ``rate``,
# by rng.random((frames, 25)) < rate, and each hit joint-frame, in np.argwhere order, moves by rng.normal(0, 0.15, 3)
# m. "1%" and "3%" glitch every frame; "20%-end-frames" glitches only the first and last frame, the 50 joint-frames
# that the end-frame estimator before the β solve read β from (it read 0.766 degrees of β error and 17.80 mm Y RMSE
# there). Seeds 0-9 read, in tilt error, β error, Y RMSE and Z RMSE (no glitch: 0.012, 0.018, 5.00, 5.04):
# - 1%: 0.139, 0.142, 4.99 and 5.30;
# - 3%: 0.104, 0.143, 5.03 and 5.19;
# - 20%-end-frames: 0.006, 0.020, 4.99 and 5.04.
# Seeds 20-29 (held-out seed 30) read 0.070 and 0.200 degrees of tilt error at 1% and 3%, so the 1% row meets its
# bound there. Their other cells read at most 0.088 degrees of tilt error, 0.263 of β error, 5.11 mm Y RMSE and
# 5.53 mm Z RMSE.
GLITCHES = {"1%": (0.01, range(90)), "3%": (0.03, range(90)), "20%-end-frames": (0.2, [0, 89])}
GLITCH_STD_M = 0.15
_ITEM_14 = (
    "ROADMAP item 14: every frame enters the inclination mean with full weight, so a glitch moves it as far as it "
    "moves its spine"
)
#: The glitch rows that miss their bound today, with what seeds 0-9 read and the item that mends them.
GLITCH_DEFECTS = {
    ("tilt_deg", "1%"): (0.139, _ITEM_14),
    ("tilt_deg", "3%"): (0.104, _ITEM_14),
}


def _glitched(gait, seed, rate, frames):
    """``gait`` with each joint of ``frames`` moved, with probability ``rate``, by N(0, GLITCH_STD_M) per axis."""
    rng = np.random.default_rng(1000 + seed)
    xyz = gait.xyz.copy()
    for f, j in np.argwhere(rng.random((len(frames), xyz.shape[1])) < rate):
        xyz[frames[f], j] += rng.normal(0, GLITCH_STD_M, 3)
    return gait.with_xyz(xyz)


@functools.lru_cache(maxsize=None)
def measure_glitches(glitch):
    """The four measures of the shear scenario at 7 degrees with the tracking glitches of ``GLITCHES[glitch]``."""
    model = TiltModel.SHEAR_INVERSE
    gaits = [
        _glitched(apply_distortion(_truth(90), _spec(model, 7, seed)), seed, *GLITCHES[glitch]) for seed in GAIT_SEEDS
    ]
    return _against_truth(calibrate(gaits, SENSOR_HEIGHT_M), model, 7)


def _glitch_rows():
    for name in BOUNDS:
        for glitch in GLITCHES:
            yield _row((name, glitch), GLITCH_DEFECTS, f"{name}-{glitch}")


@pytest.mark.parametrize("name, glitch", _glitch_rows())
def test_glitches_within_bound(name, glitch):
    assert measure_glitches(glitch)[name] <= BOUNDS[name]


# Body-size rows: subjects of three sizes, under the shear model at 0 and 7 degrees with the same bounds and held-out
# walk. Gait k walks with ``default_template()``'s offsets scaled by BODY_SCALES[k % 3], so each joint's height
# differs from gait to gait; the held-out walk keeps the default template. A β solve that shares one height per joint
# across the gaits reads about 8.5 degrees of β error here, with no error raised. Seeds 0-9 read at most 0.005
# degrees of tilt error, 0.017 of β error, 5.00 mm Y RMSE and 5.04 mm Z RMSE; seeds 20-29 (held-out seed 30) 0.054,
# 0.064, 4.97 and 5.07. The end-frame estimator before the solve read 0.219-0.221 / 0.154-0.201 degrees of β error
# and 9.33-9.36 / 8.21-8.46 mm Y RMSE.
BODY_SCALES = (0.85, 1.0, 1.15)
BODY_SCALE_TILTS_DEG = [0, 7]


@functools.lru_cache(maxsize=None)
def _scaled_truth(scale):
    """The 90-frame vertical walk of ``default_template()`` with every offset scaled by ``scale``."""
    template = BodyTemplate(tuple(Point3(*(scale * c for c in p)) for p in default_template().joint_offsets))
    return generate_truth_capture(template, GaitDirection.VERTICAL, 90, 4.5, 1.5)


@functools.lru_cache(maxsize=None)
def measure_body_scale(tilt_deg):
    """The four measures of the shear scenario at ``tilt_deg``, calibrated on gaits of three body sizes."""
    model = TiltModel.SHEAR_INVERSE
    gaits = [
        apply_distortion(_scaled_truth(BODY_SCALES[k % len(BODY_SCALES)]), _spec(model, tilt_deg, seed))
        for k, seed in enumerate(GAIT_SEEDS)
    ]
    return _against_truth(calibrate(gaits, SENSOR_HEIGHT_M), model, tilt_deg)


@pytest.mark.parametrize("tilt_deg", BODY_SCALE_TILTS_DEG, ids=lambda tilt_deg: f"{tilt_deg}deg")
@pytest.mark.parametrize("name", list(BOUNDS))
def test_body_scale_within_bound(name, tilt_deg):
    assert measure_body_scale(tilt_deg)[name] <= BOUNDS[name]
