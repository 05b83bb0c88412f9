import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skelcal import Polynomial, arithmetic_mean, geometric_mean, polyeval, polyfit_least_squares
from skelcal.errors import (
    DegenerateSystemError,
    EmptyInputError,
    InsufficientPointsError,
    NonPositiveValueError,
)

positive_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=20,
)


def normal_equations_fit(xs, ys, degree):
    """Independent least-squares oracle: solve the normal equations directly."""
    V = np.vander(np.asarray(xs, dtype=float), degree + 1, increasing=True)
    return np.linalg.solve(V.T @ V, V.T @ np.asarray(ys, dtype=float))


class TestArithmeticMean:
    def test_example(self):
        assert arithmetic_mean([0.08, 0.10, 0.12]) == pytest.approx(0.10, abs=1e-15)

    def test_singleton(self):
        assert arithmetic_mean([0.1]) == 0.1

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            arithmetic_mean([])


class TestGeometricMean:
    def test_example(self):
        assert geometric_mean([0.02, 0.08]) == pytest.approx(0.04, abs=1e-15)

    def test_singleton(self):
        assert geometric_mean([0.1]) == pytest.approx(0.1, abs=1e-15)

    def test_mixed_sign_rejected(self):
        with pytest.raises(NonPositiveValueError):
            geometric_mean([0.1, -0.1])

    def test_zero_rejected(self):
        with pytest.raises(NonPositiveValueError):
            geometric_mean([0.0, 0.1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            geometric_mean([])

    @given(positive_lists)
    def test_am_gm_inequality(self, values):
        assert geometric_mean(values) <= arithmetic_mean(values) * (1 + 1e-12)

    def test_log_space_matches_direct_product(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = rng.integers(1, 11)
            values = rng.uniform(1e-3, 1.0, n).tolist()
            direct = math.prod(values) ** (1.0 / len(values))
            assert geometric_mean(values) == pytest.approx(direct, abs=1e-12)


class TestPolyfit:
    def test_exact_line_recovered(self):
        xs = (0.0, 0.5, 1.0, 1.8, 2.2)
        fit = polyfit_least_squares(xs, [0.01 + 0.02 * x for x in xs], 1)
        assert fit.coefficients[0] == pytest.approx(0.01, abs=1e-9)
        assert fit.coefficients[1] == pytest.approx(0.02, abs=1e-9)

    def test_insufficient_points(self):
        xs = [0.0, 1.0, 2.0]
        with pytest.raises(InsufficientPointsError):
            polyfit_least_squares(xs, xs, 3)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="^degree must be >= 0$"):
            polyfit_least_squares([0.0, 1.0], [0.0, 1.0], -1)

    def test_duplicate_x_counts_once(self):
        with pytest.raises(InsufficientPointsError):
            polyfit_least_squares([1.0, 1.0, 2.0], [2.0, 2.1, 3.0], 2)

    def test_quadratic_recovered_and_matches_normal_equations_oracle(self):
        truth = (0.005, -0.01, 0.002)
        xs = [0.2, 0.7, 1.1, 1.4, 1.9, 2.3]
        ys = [truth[0] + truth[1] * x + truth[2] * x * x for x in xs]
        fit = polyfit_least_squares(xs, ys, 2)
        oracle = normal_equations_fit(xs, ys, 2)
        for got, want, ref in zip(fit.coefficients, truth, oracle):
            assert got == pytest.approx(want, abs=1e-9)
            assert got == pytest.approx(ref, abs=1e-9)

    def test_noisy_fit_agrees_with_oracle(self):
        rng = np.random.default_rng(5)
        for degree in (1, 2, 3):
            xs = rng.uniform(-2, 2, 12)
            ys = rng.normal(0, 0.5, 12)
            fit = polyfit_least_squares(xs, ys, degree)
            oracle = normal_equations_fit(xs, ys, degree)
            assert np.allclose(fit.coefficients, oracle, atol=1e-8)

    def test_residual_not_worse_than_zero_polynomial(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(4, 15))
            xs = rng.uniform(-3, 3, n)
            ys = rng.normal(0, 1, n)
            fit = polyfit_least_squares(xs, ys, 2)
            sse_fit = sum((y - polyeval(fit, x)) ** 2 for x, y in zip(xs, ys))
            sse_zero = sum(y * y for y in ys)
            assert sse_fit <= sse_zero + 1e-12

    def test_singular_design_matrix_rejected(self):
        # distinct x values whose higher powers underflow to an all-zero column
        with pytest.raises(DegenerateSystemError):
            polyfit_least_squares([0.0, 1e-200, 2e-200], [1.0, 2.0, 3.0], 2)

    @given(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=4, max_size=10, unique=True),
        st.lists(st.floats(min_value=-1, max_value=1), min_size=3, max_size=3),
    )
    def test_fit_reproduces_exact_polynomial_samples(self, grid, coeffs):
        xs = [g / 10 for g in grid]  # well-separated sample points in [-2, 2]
        poly = Polynomial(tuple(coeffs))
        ys = [polyeval(poly, x) for x in xs]
        fit = polyfit_least_squares(xs, ys, 2)
        for x, y in zip(xs, ys):
            assert polyeval(fit, x) == pytest.approx(y, abs=1e-9)


class TestPolyeval:
    def test_constant(self):
        assert polyeval(Polynomial((0.5,)), 123.0) == 0.5

    def test_identity(self):
        assert polyeval(Polynomial((0.0, 1.0)), 2.5) == 2.5

    def test_linear(self):
        assert polyeval(Polynomial((0.01, 0.02)), 1.5) == pytest.approx(0.04, abs=1e-15)

    def test_horner_matches_power_form(self):
        poly = Polynomial((1.0, -2.0, 0.5, 0.25))
        for x in (-1.5, 0.0, 0.3, 2.0):
            power_form = sum(c * x**k for k, c in enumerate(poly.coefficients))
            assert polyeval(poly, x) == pytest.approx(power_form, rel=1e-12)


class TestPolynomialType:
    def test_needs_a_coefficient(self):
        with pytest.raises(ValueError):
            Polynomial(())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Polynomial((1.0, math.nan))

    def test_degree(self):
        assert Polynomial((1.0, 2.0, 3.0)).degree == 2
