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
read at most 0.045 degrees of tilt error, 0.23 degrees of β error, 10.0 mm
Y RMSE and 5.04 mm Z RMSE; seeds 20-29 (held-out seed 30) read at most 0.066,
0.22, 9.1 and 5.07, and miss the same bounds in the same rows. A row that misses a
bound today is a strict xfail that names the ROADMAP item that mends it, so
it fails here once it passes.

Under the shear model the tilt also runs negative, -0.3, -2 and -7 degrees.
Over those rows that meet the bounds, seeds 0-9 read at most 0.084 degrees of
tilt error, 0.24 of β error, 9.4 mm Y RMSE and 5.62 mm Z RMSE; seeds 20-29
0.048, 0.15, 8.2 and 5.11. At -0.3 degrees both seed sets miss the tilt bound,
reading 0.300 (a level sensor) and 0.130 degrees: item 10's defect at 0.3
degrees, mirrored.
"""

import functools
import math

import numpy as np
import pytest

from skelcal import (
    CaptureSequence,
    DistortionSpec,
    GaitDirection,
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
    ("beta_deg", TiltModel.SHEAR_INVERSE, 15): (0.58, _ITEM_10),
    ("z_rmse_mm", TiltModel.SHEAR_INVERSE, 15): (9.0, _ITEM_10),
    ("beta_deg", TiltModel.ROTATION, 0.3): (0.52, _ITEM_5),
    ("beta_deg", TiltModel.ROTATION, 2): (3.77, _ITEM_5),
    ("beta_deg", TiltModel.ROTATION, 7): (13.0, _ITEM_5),
    ("beta_deg", TiltModel.ROTATION, 15): (26.0, _ITEM_5),
    ("y_rmse_mm", TiltModel.ROTATION, 7): (13.6, _ITEM_5),
    ("y_rmse_mm", TiltModel.ROTATION, 15): (32.3, _ITEM_5),
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
#   0.039 degrees of tilt error, 0.291 of β error, 11.66 mm Y RMSE and 5.04 mm Z RMSE; seeds 20-29 0.056, 0.317,
#   10.63 and 5.07.
# - "mixed": the ten gaits and three horizontal 90-frame walks across the same path, on noise seeds 100-102.
#   calibrate reads the horizontal walks' inclinations but fits β from the vertical gaits only. On seeds 0-9
#   each measure reads within 0.008 degrees (tilt and β) and 0.01 mm (Y and Z) of the vertical-only row; on
#   seeds 20-29, with horizontal seeds 120-122, within 0.022 degrees and 0.022 mm.
# - "long": ten 900-frame gaits over the same path instead of 90-frame ones. Seeds 0-9 read at most 0.035 degrees
#   of tilt error, 0.183 of β error, 8.22 mm Y RMSE and 5.05 mm Z RMSE; seeds 20-29 (held-out seed 30) 0.052,
#   0.195, 8.05 and 5.06.
# - "away": the ten gaits with their frames reversed and their indices kept increasing, so each walks away from the
#   sensor, 1.5 m to 4.5 m; the held-out walk still walks toward it. Each gait's end frames only swap, so β and the
#   tilt read as in the gaits toward the sensor. Seeds 0-9 read at most 0.031 degrees of tilt error, 0.228 of β
#   error, 9.38 mm Y RMSE and 5.04 mm Z RMSE; seeds 20-29 0.055, 0.202, 8.47 and 5.07.
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
# and 7 degrees with the same bounds and held-out walk. The fit attributes each joint's β to its mean raw height,
# which drifts with depth, so the β error grows with the slope of β. Over the rows that meet the bounds, seeds 0-9
# read at most 0.011 degrees of tilt error, 0.101 of β error, 5.70 mm Y RMSE and 5.05 mm Z RMSE; seeds 20-29
# (held-out seed 30) 0.056, 0.069, 5.42 and 5.10. 3 - 3·y and 5 - 4·y + 1.5·y² miss the β and Y bounds at both
# tilts; seeds 20-29 read 0.56-0.60 and 1.51-1.55 degrees of β error, 19.7-19.8 and 67.7-67.8 mm Y RMSE.
BETA_SHAPES_DEG = {
    "3": (3.0,),
    "8": (8.0,),
    "1-0.5y": (1.0, -0.5),
    "3-3y": (3.0, -3.0),
    "5-4y+1.5y2": (5.0, -4.0, 1.5),
}
SHAPE_TILTS_DEG = [0, 7]
_ITEM_6 = (
    "ROADMAP item 6: β is fitted from each gait's end frames at the joint's mean raw height, which drifts "
    "with depth, so the β error grows with the slope of β"
)
#: The shape rows that miss their bound today, with what seeds 0-9 read and the item that mends them.
SHAPE_DEFECTS = {
    ("beta_deg", "3-3y", 0): (0.62, _ITEM_6),
    ("beta_deg", "3-3y", 7): (0.64, _ITEM_6),
    ("beta_deg", "5-4y+1.5y2", 0): (1.56, _ITEM_6),
    ("beta_deg", "5-4y+1.5y2", 7): (1.57, _ITEM_6),
    ("y_rmse_mm", "3-3y", 0): (21.8, _ITEM_6),
    ("y_rmse_mm", "3-3y", 7): (21.8, _ITEM_6),
    ("y_rmse_mm", "5-4y+1.5y2", 0): (70.2, _ITEM_6),
    ("y_rmse_mm", "5-4y+1.5y2", 7): (70.2, _ITEM_6),
}


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
                yield _row((name, shape, tilt_deg), SHAPE_DEFECTS, f"{name}-{shape}-{tilt_deg}deg")


@pytest.mark.parametrize("name, shape, tilt_deg", _shape_rows())
def test_beta_shape_within_bound(name, shape, tilt_deg):
    assert measure_shape(shape, tilt_deg)[name] <= BOUNDS[name]

