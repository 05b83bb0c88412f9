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
"""

import functools
import math

import numpy as np
import pytest

from skelcal import (
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
}


def _spec(model, tilt_deg, seed):
    return DistortionSpec(
        tilt_model=model,
        tilt_rad=math.radians(tilt_deg),
        sensor_height_m=SENSOR_HEIGHT_M,
        beta_poly=BETA,
        noise_std_m=0.005,
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def _truth(frames):
    return generate_truth_capture(default_template(), GaitDirection.VERTICAL, frames, 4.5, 1.5)


def _against_truth(profile, model, tilt_deg):
    """The four measures of ``profile``, calibrated at ``tilt_deg`` under ``model``, by the names of ``BOUNDS``."""
    held_out = apply_distortion(_truth(900), _spec(model, tilt_deg, HELD_OUT_SEED))
    error = apply_profile(held_out, profile).xyz - _truth(900).xyz
    return {
        "tilt_deg": abs(math.degrees(profile.tilt.tilt_rad) - tilt_deg),
        "beta_deg": beta_error_deg(profile, BETA),
        "y_rmse_mm": 1000 * math.sqrt(np.mean(error[..., 1] ** 2)),
        "z_rmse_mm": 1000 * math.sqrt(np.mean(error[..., 2] ** 2)),
    }


@functools.lru_cache(maxsize=None)
def measure(model, tilt_deg):
    """The four measures of one scenario, by the names of ``BOUNDS``."""
    gaits = [apply_distortion(_truth(90), _spec(model, tilt_deg, seed)) for seed in GAIT_SEEDS]
    return _against_truth(calibrate(gaits, SENSOR_HEIGHT_M), model, tilt_deg)


def _rows():
    for name in BOUNDS:
        for model in TiltModel:
            for tilt_deg in TILTS_DEG:
                key = (name, model, tilt_deg)
                marks = []
                if key in DEFECTS:
                    measured, reason = DEFECTS[key]
                    reason = f"{reason}; {name} read {measured}, bound {BOUNDS[name]}"
                    marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)]
                yield pytest.param(*key, marks=marks, id=f"{name}-{model.value}-{tilt_deg}deg")


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
VARIANT_TILTS_DEG = [0, 2, 7]
HORIZONTAL_SEEDS = range(100, 103)


@functools.lru_cache(maxsize=None)
def measure_variant(variant, tilt_deg):
    """The four measures of the shear scenario at ``tilt_deg`` with the gaits of ``variant``: "cut", "mixed" or
    "long"."""
    model = TiltModel.SHEAR_INVERSE
    frames = 900 if variant == "long" else 90
    gaits = [apply_distortion(_truth(frames), _spec(model, tilt_deg, seed)) for seed in GAIT_SEEDS]
    if variant == "cut":
        gaits = [gait[:-7] for gait in gaits]
    elif variant == "mixed":
        across = generate_truth_capture(default_template(), GaitDirection.HORIZONTAL, 90, 4.5, 1.5)
        gaits += [apply_distortion(across, _spec(model, tilt_deg, seed)) for seed in HORIZONTAL_SEEDS]
    return _against_truth(calibrate(gaits, SENSOR_HEIGHT_M), model, tilt_deg)


@pytest.mark.parametrize("tilt_deg", VARIANT_TILTS_DEG, ids=lambda tilt_deg: f"{tilt_deg}deg")
@pytest.mark.parametrize("variant", ["cut", "mixed", "long"])
@pytest.mark.parametrize("name", list(BOUNDS))
def test_variant_within_bound(name, variant, tilt_deg):
    assert measure_variant(variant, tilt_deg)[name] <= BOUNDS[name]
