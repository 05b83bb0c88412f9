"""Scalar statistics and least-squares polynomial fitting for the calibration stages."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSystemError,
    EmptyInputError,
    InsufficientPointsError,
    NonPositiveValueError,
)


@dataclass(frozen=True)
class Polynomial:
    """Coefficients in ascending degree: c0 + c1*x + ... + cd*x^d."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.coefficients, tuple):
            object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("polynomial coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def arithmetic_mean(values: Sequence[float]) -> float:
    if len(values) == 0:
        raise EmptyInputError("mean of empty list")
    return math.fsum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    """(prod values)^(1/n), computed in log space for stability.

    Only defined for strictly positive inputs; negative or zero values are
    rejected rather than absolutized so sign bugs upstream surface here.
    """
    if len(values) == 0:
        raise EmptyInputError("geometric mean of empty list")
    for v in values:
        if not v > 0.0:
            raise NonPositiveValueError(f"geometric mean undefined for value {v}")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def polyfit_least_squares(xs: Sequence[float], ys: Sequence[float], degree: int) -> Polynomial:
    """Least-squares polynomial fit of the given degree to the points (xs[i], ys[i]).

    Solved through an orthogonal decomposition (SVD-backed lstsq) rather than
    raw normal equations, for conditioning. Requires more distinct x values
    than the degree.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if len(set(xs)) <= degree:
        raise InsufficientPointsError(
            f"need more than {degree} distinct x values, got {len(set(xs))}"
        )
    design = np.vander(np.asarray(xs, dtype=float), degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.asarray(ys, dtype=float), rcond=None)
    if rank < degree + 1:
        raise DegenerateSystemError(
            f"design matrix rank {rank} < {degree + 1}; system numerically singular"
        )
    return Polynomial(tuple(float(c) for c in coeffs))


def polyeval(p: Polynomial, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate ``p`` at ``x`` with the Horner scheme; elementwise for an array ``x``."""
    coefficients = reversed(p.coefficients)
    acc = 0.0 * x  # a fresh array for an array x, which the Horner steps update in place
    acc += next(coefficients)
    for c in coefficients:
        acc *= x
        acc += c
    return acc
