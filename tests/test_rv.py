import math

import pytest

from wardrop.costs import (
    Constant,
    ExpOverX,
    Monomial,
    Polynomial,
)
from wardrop.errors import DomainError, UnsupportedCostError
from wardrop.rv import (
    check_composition_rv,
    check_inverse_rv,
    check_product_and_integral_rv,
    check_scaling_identity,
    check_sum_rv,
    numeric_inverse,
    rv_index,
    rv_suite,
)

IDENTITY = Monomial(1.0, 1.0)
SQUARE = Monomial(1.0, 2.0)
CUBE = Monomial(1.0, 3.0)
MIXED = Polynomial((0.0, 1.0, 3.0))  # 3x^2 + x


def test_rv_index_exact_power_laws():
    # ratios of pure powers are exact on the grid, so the index is 1e-9 tight
    assert abs(rv_index(SQUARE).beta - 2.0) <= 1e-9
    assert abs(rv_index(Monomial(2.0, 1.0)).beta - 1.0) <= 1e-9
    assert abs(rv_index(CUBE).beta - 3.0) <= 1e-9


def test_rv_index_lower_order_term_washes_out():
    r = rv_index(MIXED)
    assert r.passed
    assert abs(r.beta - 2.0) <= 1e-3
    # residuals must decay along the grid
    assert all(b <= a * (1.0 + 1e-6) + 1e-12 for a, b in zip(r.residuals, r.residuals[1:]))


def test_rv_index_detects_non_variation():
    r = rv_index(ExpOverX())
    assert not r.passed
    assert "not regularly varying" in r.reason


def test_rv_index_constant_is_zero_index():
    r = rv_index(Constant(5.0))
    assert r.passed and r.beta == 0.0


def test_rv_index_rejects_nonpositive():
    with pytest.raises(DomainError):
        rv_index(lambda x: x - 1e7)


def test_rv_index_refuses_a_value_that_is_not_finite():
    # 1e308 * x once gave beta = nan and blamed the residual decay
    with pytest.raises(DomainError, match="got inf at 10000.0"):
        rv_index(lambda x: 1e308 * x)


@pytest.mark.parametrize("grid", [(), (1e4, 1e4), (1e5, 1e4), (0.0, 1e4), (1e4, 1e308)])
def test_rv_index_refuses_a_grid_it_cannot_probe(grid):
    with pytest.raises(DomainError, match="probe grid"):
        rv_index(SQUARE, grid)


def test_inverse_rv_examples():
    assert check_inverse_rv(CUBE).passed
    assert abs(check_inverse_rv(CUBE).measured[0] - 1.0 / 3.0) <= 1e-3
    assert abs(check_inverse_rv(Monomial(2.0, 1.0)).measured[0] - 1.0) <= 1e-6
    r = check_inverse_rv(Polynomial((0.0, 1.0, 1.0)))  # x^2 + x
    assert r.passed and abs(r.measured[0] - 0.5) <= 1e-3


def test_inverse_of_inverse_recovers_index():
    inv = numeric_inverse(CUBE)

    def inv_of_inv(x: float) -> float:
        # invert the numeric inverse by monotone bisection
        lo, hi = 0.0, 1.0
        while inv(hi) < x:
            hi *= 2.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if inv(mid) < x:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    r = rv_index(inv_of_inv, tuple(10.0**j for j in range(2, 6)))
    assert abs(r.beta - 3.0) <= 1e-3


def test_inverse_requires_strict_increase():
    with pytest.raises(UnsupportedCostError):
        check_inverse_rv(Constant(5.0))


def test_scaling_identity_examples():
    assert check_scaling_identity(SQUARE, 4.0).measured[0] == pytest.approx(2.0, abs=1e-3)
    r = check_scaling_identity(IDENTITY, 9.0)
    assert r.passed and r.measured[0] == pytest.approx(9.0, rel=1e-6)
    r = check_scaling_identity(SQUARE, 1.0)
    assert r.passed
    # gamma = 1 is the identity at every grid point
    assert all(v == pytest.approx(1.0, rel=1e-9) for v in r.details["profile"])


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_scaling_identity_needs_a_finite_positive_gamma(gamma):
    # gamma = nan was blamed on "level must be nonnegative"
    with pytest.raises(DomainError, match="gamma"):
        check_scaling_identity(SQUARE, gamma)


def test_product_and_integral_examples():
    r = check_product_and_integral_rv(IDENTITY)
    assert r.passed and r.measured == pytest.approx((2.0, 2.0), abs=1e-6)
    r = check_product_and_integral_rv(SQUARE)
    assert r.passed and r.measured == pytest.approx((3.0, 3.0), abs=1e-3)
    r = check_product_and_integral_rv(Constant(5.0))
    assert r.passed and r.measured == pytest.approx((1.0, 1.0), abs=1e-3)


def test_composition_examples():
    r = check_composition_rv(SQUARE, CUBE)
    assert r.passed and r.measured[0] == pytest.approx(6.0, abs=1e-2)
    assert check_composition_rv(SQUARE, IDENTITY).measured[0] == pytest.approx(2.0, abs=1e-2)
    assert check_composition_rv(IDENTITY, CUBE).measured[0] == pytest.approx(3.0, abs=1e-2)


def test_sum_examples():
    assert check_sum_rv(SQUARE, Monomial(3.0, 2.0)).measured[0] == pytest.approx(2.0, abs=1e-6)
    assert check_sum_rv(SQUARE, MIXED).measured[0] == pytest.approx(2.0, abs=1e-3)
    assert check_sum_rv(Monomial(2.0, 1.0), Monomial(5.0, 1.0)).measured[0] == pytest.approx(
        1.0, abs=1e-6
    )


def test_sum_requires_matching_indices():
    with pytest.raises(DomainError):
        check_sum_rv(SQUARE, CUBE)


def test_suite_passes_canonical_families_and_flags_exponential():
    suite = rv_suite()
    assert suite["all_pass"]
    names = {c["check"] for c in suite["checks"]}
    assert "non_rv_detector[exp(x)/x]" in names
    detector = next(c for c in suite["checks"] if c["check"].startswith("non_rv"))
    assert detector["passed"]  # i.e. the non-variation was detected
