import math

import pytest

from wardrop.errors import DomainError, RangeOverflowError
from wardrop.logdomain import LogValue, log_add


def test_zero_flag():
    z = LogValue(0.0, is_zero=True)
    assert z.to_float() == 0.0
    assert (z / LogValue(math.log(5.0))).is_zero
    with pytest.raises(DomainError):
        LogValue(1.0) / z


def test_addition_is_log_sum_exp():
    a, b = math.log(3.0), math.log(4.5)
    assert math.exp(log_add(a, b)) == pytest.approx(7.5, rel=1e-14)
    assert log_add(a, b) == log_add(b, a)
    # -inf is a zero term: the other log comes back unchanged
    assert log_add(a, -math.inf) == a and log_add(-math.inf, b) == b


def test_division_subtracts_logs():
    a, b = LogValue(math.log(3.0)), LogValue(math.log(4.5))
    assert (a / b).to_float() == pytest.approx(3.0 / 4.5, rel=1e-14)
    assert float(a / b) == (a / b).to_float()


def test_huge_exponents_survive():
    # representable range must cover exponents up to 1e6
    big = LogValue(1e6)
    bigger = LogValue(log_add(1e6, 1e6))
    assert bigger.log_magnitude == pytest.approx(1e6 + math.log(2.0), rel=1e-12)
    # cancellation of the 1e6 exponents costs ~1e-10 of relative precision
    assert (bigger / big).to_float() == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(RangeOverflowError):
        big.to_float()


def test_ordering():
    vals = [LogValue(math.log(v)) for v in (1e-300, 0.1, 1.0, 10.0, 1e300)]
    assert vals == sorted(vals)
    assert LogValue(1e6) > LogValue(1e6 - 1.0)
    # exact zero sorts below every positive value, whatever its placeholder log
    zero = LogValue(0.0, is_zero=True)
    assert zero < LogValue(math.log(1e-300)) and zero < LogValue(math.log(0.5))
    assert LogValue(math.log(0.5)) > zero and zero <= zero
