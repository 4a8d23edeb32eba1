"""Log-domain arithmetic for quantities far beyond native float range.

The exponential counterexample instances evaluate costs like e^alpha with
alpha in the hundreds of thousands, so their costs are computed as natural
logs on plain floats: products add logs, and sums go through ``log_add``,
the one log-sum-exp of the package.  ``LogValue`` is the type the
exponential game's cost and common level come back in.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import total_ordering

from .errors import DomainError, RangeOverflowError

# exp() overflows above this; used when collapsing back to a native float
_MAX_EXP = math.log(sys.float_info.max)


def log_add(t: float, u: float) -> float:
    """ln(e^t + e^u), shifted by the larger log so that nothing overflows;
    -inf stands for a zero term, and t, u are not both -inf."""
    hi, lo = (u, t) if t < u else (t, u)
    return hi + math.log1p(math.exp(lo - hi))


def log_term(f: float, log_c: float) -> float:
    """ln(f e^log_c): a link's term f c(f) of a social cost, in logs, and
    -inf, the zero term of ``log_add``, where the link carries no flow."""
    return math.log(f) + log_c if f > 0 else -math.inf


@total_ordering
@dataclass(frozen=True)
class LogValue:
    """A nonnegative real stored as the natural log of its magnitude and
    ordered by that log; ``is_zero`` marks an exact zero, which sorts below
    every positive value and which the package's solvers never return."""

    log_magnitude: float
    is_zero: bool = False

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

    def __lt__(self, other: "LogValue") -> bool:
        return (not self.is_zero, self.log_magnitude) < (not other.is_zero, other.log_magnitude)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.is_zero:
            raise DomainError("division by exact zero LogValue")
        if self.is_zero:
            return self
        return LogValue(self.log_magnitude - other.log_magnitude)
