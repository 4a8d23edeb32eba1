"""Log-domain arithmetic for quantities far beyond native float range.

The exponential counterexample instances evaluate costs like e^alpha with
alpha in the hundreds of thousands, so equilibrium and optimum costs are
carried as natural logs.  Addition uses the stable log-sum-exp identity;
multiplication adds logs.  Exact zero is tracked with a flag because
log(0) has no float representation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, RangeOverflowError

# exp() overflows above this; used when collapsing back to a native float
_MAX_EXP = math.log(sys.float_info.max)


@dataclass(frozen=True)
class LogValue:
    """A nonnegative real stored as the natural log of its magnitude."""

    log_magnitude: float
    is_zero: bool = False

    @classmethod
    def from_float(cls, value: float) -> "LogValue":
        if value < 0:
            raise DomainError(f"LogValue represents nonnegative reals, got {value!r}")
        if value == 0:
            return cls(0.0, is_zero=True)
        return cls(math.log(value))

    @classmethod
    def from_log(cls, log_magnitude: float) -> "LogValue":
        return cls(float(log_magnitude))

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(0.0, is_zero=True)

    def to_float(self) -> float:
        if self.is_zero:
            return 0.0
        if self.log_magnitude > _MAX_EXP:
            raise RangeOverflowError(
                f"exp({self.log_magnitude!r}) exceeds native float range"
            )
        return math.exp(self.log_magnitude)

    def __float__(self) -> float:
        return self.to_float()

    def __add__(self, other: "LogValue") -> "LogValue":
        other = _coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        hi, lo = self.log_magnitude, other.log_magnitude
        if hi < lo:
            hi, lo = lo, hi
        return LogValue(hi + math.log1p(math.exp(lo - hi)))

    __radd__ = __add__

    def __mul__(self, other) -> "LogValue":
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return LogValue.zero()
        return LogValue(self.log_magnitude + other.log_magnitude)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogValue":
        other = _coerce(other)
        if other.is_zero:
            raise DomainError("division by exact zero LogValue")
        if self.is_zero:
            return LogValue.zero()
        return LogValue(self.log_magnitude - other.log_magnitude)

    # Comparisons order by magnitude; exact zero sorts below any positive.
    def _key(self) -> tuple[int, float]:
        return (0, -math.inf) if self.is_zero else (1, self.log_magnitude)

    def __lt__(self, other) -> bool:
        return self._key() < _coerce(other)._key()

    def __le__(self, other) -> bool:
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other) -> bool:
        return self._key() > _coerce(other)._key()

    def __ge__(self, other) -> bool:
        return self._key() >= _coerce(other)._key()


def _coerce(value) -> LogValue:
    if isinstance(value, LogValue):
        return value
    if isinstance(value, (int, float)):
        return LogValue.from_float(float(value))
    raise TypeError(f"cannot mix LogValue with {type(value).__name__}")


def log_sum(values) -> LogValue:
    """Sum an iterable of LogValues with the log-sum-exp identity."""
    total = LogValue.zero()
    for v in values:
        total = total + v
    return total
