"""Closed families of monotone edge cost functions.

Every family is weakly increasing and nonnegative on [0, inf) and supports
evaluation, one-sided derivatives, the exact primitive int_0^x c(s) ds, the
set-valued generalized inverse, the asymptotic value at infinity, and
log-domain evaluation.  Step families are left-continuous: the value on
(a^{k-1}, a^k] is taken at the right end, so c(a^k) = a^k exactly for the
geometric step and evaluation at a knot returns the lower step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expi

from .errors import (
    DemandBracketError,
    DomainError,
    KinkError,
    RangeOverflowError,
    UnsupportedCostError,
)
from .logdomain import LogValue

_E = math.e
_MAX_EXP = math.log(sys.float_info.max)  # ~709.78


def _check_nonneg(x: float, what: str = "x") -> float:
    x = float(x)
    if math.isnan(x) or x < 0:
        raise DomainError(f"{what} must be nonnegative, got {x!r}")
    return x


def _num(value) -> float:
    """Parse a finite numeric JSON parameter; decimal strings are accepted."""
    try:
        x = float(value) if isinstance(value, (str, int, float)) else math.nan
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise DomainError(f"expected a finite number or decimal string, got {value!r}")
    return x


def bisect(goes_high, lo: float, hi: float, rel_tol: float, max_iter: int) -> tuple[float, float]:
    """Halve [lo, hi] toward the point where ``goes_high`` turns true.

    Each step moves hi to the midpoint if ``goes_high(mid)``, else lo; it
    stops after ``max_iter`` steps, once hi - lo <= rel_tol * max(1, |hi|),
    or once the midpoint rounds onto an end, after which every further step
    would repeat the last one.  Callers choose the comparison (and so the
    side NaN falls on) and which end of the returned bracket to use.
    """
    for _ in range(max_iter):
        if hi - lo <= rel_tol * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if goes_high(mid):
            if hi == mid:
                break
            hi = mid
        elif lo == mid:
            break
        else:
            lo = mid
    return lo, hi


def false_position(f, lo: float, f_lo: float, hi: float, f_hi: float, max_iter: int) -> float:
    """Root of a weakly increasing ``f`` on [lo, hi], given f_lo = f(lo) < 0 < f(hi) = f_hi.

    Illinois regula falsi: each step evaluates ``f`` at the secant point of
    the bracket and replaces the end of the same sign; when the same end is
    replaced twice in a row the other end's stored value is halved, so both
    ends close in superlinearly instead of one end sticking.  The step is the
    midpoint instead when the secant point is not strictly inside the
    bracket (a NaN value included) or the same end has been replaced three
    times in a row, so the bracket shrinks at least as fast as bisection's
    every few steps.  NaN counts as positive, as in ``not f(x) <= 0``.  Stops
    at an exact zero, after ``max_iter`` evaluations, or once the midpoint
    rounds onto an end, and returns the last point it tried.
    """
    x, moved, run = lo, 0, 0  # the end (-1 lo, +1 hi) replaced last, and how many times in a row
    for _ in range(max_iter):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if run >= 3 or not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx == 0.0:
            break
        end = -1 if fx < 0.0 else 1
        run = run + 1 if end == moved else 1
        moved = end
        if end < 0:
            lo, f_lo = x, fx
            if run > 1:
                f_hi *= 0.5
        else:
            hi, f_hi = x, fx
            if run > 1:
                f_lo *= 0.5
    return x


class CostFunction:
    """Base interface; concrete families are immutable dataclasses."""

    family: str = ""

    # --- structural flags used by solver routing ---
    def is_continuous(self) -> bool:
        return True

    def is_strictly_increasing(self) -> bool:
        return True

    # --- evaluation ---
    def eval(self, x: float) -> float:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation without domain checks (oracle/sweep path)."""
        return np.array([self.eval(float(v)) for v in np.asarray(xs, dtype=float)])

    def eval_right(self, x: float) -> float:
        """Right limit at x: the cost an entering infinitesimal player faces."""
        return self.eval(x)

    def eval_log(self, x: float) -> LogValue:
        return LogValue.from_float(self.eval(x))

    def eval_right_log(self, x: float) -> LogValue:
        return LogValue.from_float(self.eval_right(x))

    # --- calculus ---
    def derivative_bounds(self, x: float) -> tuple[float, float]:
        """(left, right) one-sided derivatives at x > 0."""
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        if float(x) <= 0:
            raise DomainError(f"derivative requires x > 0, got {x!r}")
        lo, hi = self.derivative_bounds(x)
        if lo != hi:
            raise KinkError(x, lo, hi)
        return lo

    def primitive(self, x: float) -> float:
        raise NotImplementedError

    # --- inversion ---
    def generalized_inverse(self, level: float) -> tuple[float, float]:
        """Closed interval [x-, x+] with x- = inf{x: c(x) >= level} and
        x+ = sup{x: c(x) <= level} (sup of the empty set is 0)."""
        raise NotImplementedError

    # --- asymptotics / misc ---
    def asymptotic_value(self) -> float:
        raise NotImplementedError

    def marginal_function(self):
        """Monotone level function for c(x) + x c'(x), when it exists."""
        raise UnsupportedCostError(
            f"{type(self).__name__} has no single-valued marginal transform"
        )

    def breakpoints_within(self, lo: float, hi: float) -> list[float]:
        return []

    def to_spec(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# smooth polynomial-type families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine(CostFunction):
    """c(x) = a + b x with a, b >= 0."""

    a: float
    b: float
    family = "affine"

    def __post_init__(self):
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf):
            raise DomainError(f"affine parameters must be finite and nonnegative: {self}")

    def is_strictly_increasing(self) -> bool:
        return self.b > 0

    def eval(self, x: float) -> float:
        return self.a + self.b * _check_nonneg(x)

    def eval_many(self, xs):
        return self.a + self.b * np.asarray(xs, dtype=float)

    def derivative_bounds(self, x):
        return (self.b, self.b)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        return self.a * x + 0.5 * self.b * x * x

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level < self.a:
            return (0.0, 0.0)
        if self.b == 0:
            if level == self.a:
                return (0.0, math.inf)
            return (math.inf, math.inf)  # level above the flat range
        x = (level - self.a) / self.b
        return (x, x)

    def asymptotic_value(self) -> float:
        return math.inf if self.b > 0 else self.a

    def marginal_function(self):
        return Affine(self.a, 2.0 * self.b)

    def to_spec(self) -> dict:
        return {"family": "affine", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class Constant(CostFunction):
    """c(x) = v with v >= 0."""

    value: float
    family = "constant"

    def __post_init__(self):
        if not 0 <= self.value < math.inf:
            raise DomainError(f"constant cost must be finite and nonnegative: {self.value!r}")

    def is_strictly_increasing(self) -> bool:
        return False

    def eval(self, x: float) -> float:
        _check_nonneg(x)
        return self.value

    def eval_many(self, xs):
        return np.full(np.shape(xs), self.value, dtype=float)

    def derivative_bounds(self, x):
        return (0.0, 0.0)

    def primitive(self, x: float) -> float:
        return self.value * _check_nonneg(x)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level < self.value:
            return (0.0, 0.0)
        if level == self.value:
            return (0.0, math.inf)
        return (math.inf, math.inf)

    def asymptotic_value(self) -> float:
        return self.value

    def marginal_function(self):
        return Constant(self.value)

    def to_spec(self) -> dict:
        return {"family": "constant", "value": self.value}


@dataclass(frozen=True)
class Monomial(CostFunction):
    """c(x) = coef * x**degree with coef > 0 and degree > 0."""

    coef: float
    degree: float
    family = "monomial"

    def __post_init__(self):
        if not (0 < self.coef < math.inf and 0 < self.degree < math.inf):
            raise DomainError(f"monomial needs finite coef > 0 and degree > 0: {self}")

    def eval(self, x: float) -> float:
        return self.coef * _check_nonneg(x) ** self.degree

    def eval_many(self, xs):
        return self.coef * np.asarray(xs, dtype=float) ** self.degree

    def eval_log(self, x: float) -> LogValue:
        x = _check_nonneg(x)
        if x == 0:
            return LogValue.zero()
        return LogValue.from_log(math.log(self.coef) + self.degree * math.log(x))

    def derivative_bounds(self, x):
        d = self.coef * self.degree * float(x) ** (self.degree - 1.0)
        return (d, d)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        return self.coef * x ** (self.degree + 1.0) / (self.degree + 1.0)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        x = (level / self.coef) ** (1.0 / self.degree)
        return (x, x)

    def asymptotic_value(self) -> float:
        return math.inf

    def marginal_function(self):
        return Monomial(self.coef * (1.0 + self.degree), self.degree)

    def to_spec(self) -> dict:
        return {"family": "monomial", "coef": self.coef, "degree": self.degree}


@dataclass(frozen=True)
class Polynomial(CostFunction):
    """c(x) = sum_j coefficients[j] * x**j, all coefficients >= 0."""

    coefficients: tuple[float, ...]
    family = "polynomial"

    def __post_init__(self):
        coefs = tuple(float(c) for c in self.coefficients)
        if not coefs or not all(0 <= c < math.inf for c in coefs):
            raise DomainError("polynomial needs finite nonnegative coefficients")
        object.__setattr__(self, "coefficients", coefs)

    def is_strictly_increasing(self) -> bool:
        return any(c > 0 for c in self.coefficients[1:])

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def eval_many(self, xs):
        return np.polyval(list(reversed(self.coefficients)), np.asarray(xs, dtype=float))

    def derivative_bounds(self, x):
        x = float(x)
        acc = 0.0
        for j in range(len(self.coefficients) - 1, 0, -1):
            acc = acc * x + j * self.coefficients[j]
        return (acc, acc)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        acc = 0.0
        for j in range(len(self.coefficients) - 1, -1, -1):
            acc = acc * x + self.coefficients[j] / (j + 1.0)
        return acc * x

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        c0 = self.coefficients[0]
        if level < c0:
            return (0.0, 0.0)
        if not self.is_strictly_increasing():
            return Constant(c0).generalized_inverse(level)
        if level == c0:
            return (0.0, 0.0)
        hi = 1.0
        while self.eval(hi) < level:
            hi *= 2.0
            if hi > 1e300:
                raise RangeOverflowError("polynomial inverse bracket overflow")
        coefs = self.coefficients[::-1]

        # not self.eval(t) < level, with eval's Horner loop inlined: the call
        # and domain check per step cost a quarter of poa on polynomial links
        def goes_high(t: float) -> bool:
            acc = 0.0
            for c in coefs:
                acc = acc * t + c
            return not acc < level

        lo, hi = bisect(goes_high, 0.0, hi, 1e-15, 200)
        x = 0.5 * (lo + hi)
        return (x, x)

    def asymptotic_value(self) -> float:
        return math.inf if self.is_strictly_increasing() else self.coefficients[0]

    def marginal_function(self):
        return Polynomial(tuple((j + 1.0) * c for j, c in enumerate(self.coefficients)))

    def to_spec(self) -> dict:
        return {"family": "polynomial", "coefficients": list(self.coefficients)}


@dataclass(frozen=True)
class SaturatingLinear(CostFunction):
    """c(x) = x + x/(1+x): affine growth plus a bounded increasing term.

    Sandwiched between x and x + 1 (two affine functions with equal slope),
    which is exactly the affine-bounded hypothesis the asymptotic
    experiments need an in-library instance for.
    """

    family = "saturating_linear"

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        return x + x / (1.0 + x)

    def eval_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        return xs + xs / (1.0 + xs)

    def derivative_bounds(self, x):
        d = 1.0 + 1.0 / (1.0 + float(x)) ** 2
        return (d, d)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        return 0.5 * x * x + x - math.log1p(x)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        # x + x/(1+x) = L  <=>  x^2 + (2-L)x - L = 0
        x = 0.5 * ((level - 2.0) + math.sqrt(level * level + 4.0))
        x = max(x, 0.0)
        return (x, x)

    def asymptotic_value(self) -> float:
        return math.inf

    def marginal_function(self):
        return _SaturatingLinearMarginal()

    def to_spec(self) -> dict:
        return {"family": "saturating_linear"}


# ---------------------------------------------------------------------------
# step and interpolation counterexample families
# ---------------------------------------------------------------------------


def _least_power_at_least(a: float, x: float) -> int:
    """Smallest integer k with a**k >= x, for x > 0."""
    k = math.ceil(math.log(x) / math.log(a))
    while a**k < x:
        k += 1
    while a ** (k - 1) >= x:
        k -= 1
    return k


def _least_power_array(a: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized _least_power_at_least; entries with x <= 0 are unspecified."""
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.ceil(np.log(xs) / math.log(a))
    k = np.where(np.power(a, k) < xs, k + 1, k)
    k = np.where(np.power(a, k - 1) >= xs, k - 1, k)
    return k


@dataclass(frozen=True)
class StepGeometric(CostFunction):
    """c(x) = a^k for x in (a^{k-1}, a^k], k in Z, with a >= 2.

    Left-continuous step function that touches the identity at every knot:
    c(a^k) = a^k exactly.  c(0) = 0 as the infimum limit over k -> -inf.
    """

    a: float
    family = "step_geometric"

    def __post_init__(self):
        if not 2 <= self.a < math.inf:
            raise DomainError(f"step family requires finite a >= 2, got {self.a!r}")

    def is_continuous(self) -> bool:
        return False

    def is_strictly_increasing(self) -> bool:
        return False

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        if x == 0:
            return 0.0
        k = _least_power_at_least(self.a, x)
        v = self.a**k
        if math.isinf(v):
            raise RangeOverflowError("step value overflows; use eval_log")
        return v

    def eval_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        k = _least_power_array(self.a, np.where(xs > 0, xs, 1.0))
        return np.where(xs > 0, np.power(self.a, k), 0.0)

    def eval_right(self, x: float) -> float:
        v = self.eval(x)
        if v == x:  # exactly at a knot: the next step is about to start
            return v * self.a
        return v

    def derivative_bounds(self, x):
        x = float(x)
        if self.eval(x) == x:
            return (0.0, math.inf)  # upward jump at the knot
        return (0.0, 0.0)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        if x == 0:
            return 0.0
        a = self.a
        k = _least_power_at_least(a, x)
        # full pieces (.., a^{k-1}] sum to a^{2(k-1)} * a/(a+1) (geometric in a^2)
        full = a ** (2 * (k - 1)) * a / (a + 1.0)
        return full + a**k * (x - a ** (k - 1))

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level == 0:
            return (0.0, 0.0)
        a = self.a
        j = _least_power_at_least(a, level)  # smallest step value >= level
        x_minus = a ** (j - 1)
        x_plus = a**j if a**j <= level else a ** (j - 1)
        return (x_minus, x_plus)

    def asymptotic_value(self) -> float:
        return math.inf

    def breakpoints_within(self, lo: float, hi: float) -> list[float]:
        return _geometric_knots(self.a, lo, hi)

    def to_spec(self) -> dict:
        return {"family": "step_geometric", "a": self.a}


def _geometric_knots(a: float, lo: float, hi: float) -> list[float]:
    if hi <= 0 or hi < lo:
        return []
    lo = max(lo, hi * 1e-18, 1e-300)
    k_lo = _least_power_at_least(a, lo)
    k_hi = _least_power_at_least(a, hi)
    return [a**k for k in range(k_lo, k_hi + 1) if lo <= a**k <= hi]


@dataclass(frozen=True)
class PwlSquare(CostFunction):
    """Linear interpolation of x^2 at the knots a^k (a >= 2).

    On [a^{k-1}, a^k] the value is (a^{k-1}+a^k) y - a^{k-1} a^k, which is
    x^2 exactly at every knot and lies above x^2 on piece interiors (chord
    above a convex function); convex and strictly increasing on [0, inf).
    """

    a: float
    family = "pwl_square"

    def __post_init__(self):
        if not 2 <= self.a < math.inf:
            raise DomainError(f"pwl-square family requires finite a >= 2, got {self.a!r}")

    def _piece(self, y: float) -> int:
        """Index k of the piece [a^{k-1}, a^k] containing y > 0."""
        return _least_power_at_least(self.a, y)

    def eval(self, y: float) -> float:
        y = _check_nonneg(y)
        if y == 0:
            return 0.0
        k = self._piece(y)
        p, q = self.a ** (k - 1), self.a**k
        return (p + q) * y - p * q

    def eval_many(self, ys):
        ys = np.asarray(ys, dtype=float)
        k = _least_power_array(self.a, np.where(ys > 0, ys, 1.0))
        p = np.power(self.a, k - 1)
        q = np.power(self.a, k)
        return np.where(ys > 0, (p + q) * ys - p * q, 0.0)

    def derivative_bounds(self, y):
        y = float(y)
        k = self._piece(y)
        p, q = self.a ** (k - 1), self.a**k
        if y == q:  # knot between pieces k and k+1
            return (p + q, q + q * self.a)
        return (p + q, p + q)

    def primitive(self, y: float) -> float:
        y = _check_nonneg(y)
        if y == 0:
            return 0.0
        a = self.a
        k = self._piece(y)
        # full pieces below a^{k-1}: geometric sum with ratio a^3
        full = a ** (3 * (k - 1)) * (a - 1.0) * (a * a + 1.0) / (2.0 * (a**3 - 1.0))
        p, q = a ** (k - 1), a**k
        partial = 0.5 * (p + q) * (y * y - p * p) - p * q * (y - p)
        return full + partial

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level == 0:
            return (0.0, 0.0)
        # piece k covers values [a^{2(k-1)}, a^{2k}]
        k = _least_power_at_least(self.a * self.a, level)
        p, q = self.a ** (k - 1), self.a**k
        y = (level + p * q) / (p + q)
        return (y, y)

    def asymptotic_value(self) -> float:
        return math.inf

    def marginal_function(self):
        return _PwlSquareMarginal(self.a)

    def breakpoints_within(self, lo: float, hi: float) -> list[float]:
        return _geometric_knots(self.a, lo, hi)

    def to_spec(self) -> dict:
        return {"family": "pwl_square", "a": self.a}


# ---------------------------------------------------------------------------
# exponential families (log-domain)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpOverX(CostFunction):
    """c(x) = e for x < 1 and e^x / x for x >= 1 (continuous at 1)."""

    family = "exp_over_x"

    def is_strictly_increasing(self) -> bool:
        return False  # flat on [0, 1)

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        if x < 1.0:
            return _E
        t = x - math.log(x)
        if t > _MAX_EXP:
            raise RangeOverflowError("exp(x)/x overflows native floats; use eval_log")
        return math.exp(t)

    def eval_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        safe = np.where(xs >= 1.0, xs, 1.0)
        t = safe - np.log(safe)
        if np.any(t > _MAX_EXP):
            raise RangeOverflowError("exp(x)/x overflows native floats; use eval_log")
        return np.where(xs >= 1.0, np.exp(t), _E)

    def eval_log(self, x: float) -> LogValue:
        x = _check_nonneg(x)
        if x < 1.0:
            return LogValue.from_log(1.0)
        return LogValue.from_log(x - math.log(x))

    def derivative_bounds(self, x):
        x = float(x)
        if x < 1.0:
            return (0.0, 0.0)
        d = math.exp(x - 2.0 * math.log(x)) * (x - 1.0) if x - 2 * math.log(x) <= _MAX_EXP else math.inf
        if x == 1.0:
            return (0.0, d)  # d == 0 here; reported as a kink per contract
        return (d, d)

    def derivative(self, x: float) -> float:
        if float(x) == 1.0:
            raise KinkError(1.0, 0.0, 0.0)
        return super().derivative(x)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        if x <= 1.0:
            return _E * x
        if x > _MAX_EXP:
            raise RangeOverflowError("primitive of exp(x)/x overflows; reduce range")
        return _E + (expi(x) - expi(1.0))

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level < _E:
            return (0.0, 0.0)
        if level == _E:
            return (0.0, 1.0)
        x = _solve_x_minus_logx(math.log(level))
        return (x, x)

    def asymptotic_value(self) -> float:
        return math.inf

    def marginal_function(self):
        return _ExpOverXMarginal()

    def to_spec(self) -> dict:
        return {"family": "exp_over_x"}


def _solve_x_minus_logx(target: float) -> float:
    """Solve x - ln x = target for x >= 1 (strictly increasing there)."""
    if target < 1.0:
        raise DomainError(f"x - ln x >= 1 on [1, inf); target {target!r} unreachable")
    x = max(2.0, target + math.log(max(target, 1.0)))
    for _ in range(80):
        f = x - math.log(x) - target
        step = f / (1.0 - 1.0 / x)
        x_new = x - step
        if x_new < 1.0:
            x_new = 0.5 * (x + 1.0)
        if abs(x_new - x) <= 1e-15 * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x


# --- alpha sequences for the step-exponential family ---


@dataclass(frozen=True)
class AlphaSequence:
    """Knot sequence alpha_1 < alpha_2 < ... with alpha_0 = 0.

    Presets: ``factorial`` (alpha_k = k!) and ``supergeometric``
    (alpha_k = base**(k^2)); both satisfy alpha_{k+1}/alpha_k -> inf.
    Explicit lists are accepted as-is.
    """

    kind: str = "factorial"
    base: float = 2.0
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("factorial", "supergeometric", "explicit"):
            raise DomainError(f"unknown alpha sequence kind {self.kind!r}")
        if self.kind == "explicit":
            vals = tuple(float(v) for v in self.values)
            if not vals or not all(0 < v < math.inf for v in vals):
                raise DomainError("explicit alpha sequence must be finite and positive")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise DomainError("explicit alpha sequence must be strictly increasing")
            object.__setattr__(self, "values", vals)
        if self.kind == "supergeometric" and not 1 < self.base < math.inf:
            raise DomainError("supergeometric alpha sequence needs finite base > 1")

    def alpha(self, k: int) -> float:
        if k < 0:
            raise DomainError(f"alpha index must be >= 0, got {k}")
        if k == 0:
            return 0.0
        if self.kind == "factorial":
            if k > 170:
                raise RangeOverflowError("factorial alpha exceeds float range")
            return float(math.factorial(k))
        if self.kind == "supergeometric":
            log_val = k * k * math.log(self.base)
            if log_val > _MAX_EXP:
                raise RangeOverflowError("supergeometric alpha exceeds float range")
            return self.base ** (k * k)
        if k > len(self.values):
            raise DemandBracketError(
                f"explicit alpha sequence has {len(self.values)} terms; "
                f"index {k} required",
                needed_index=k,
            )
        return self.values[k - 1]

    def max_index(self) -> int:
        if self.kind == "explicit":
            return len(self.values)
        return 170 if self.kind == "factorial" else int(math.sqrt(_MAX_EXP / math.log(self.base)))

    def cover_index(self, x: float) -> int:
        """Smallest j >= 1 with alpha_j >= x."""
        j = 1
        while self.alpha(j) < x:
            j += 1
            if j > self.max_index():
                raise DemandBracketError(
                    f"alpha sequence cannot cover {x!r}; index {j} needed",
                    needed_index=j,
                )
        return j

    def bracket_index(self, M: float) -> int:
        """k with 2 alpha_k < M <= 2 alpha_{k+1}: the exponential game's
        demand bracket holding M."""
        if self.kind == "explicit" and len(self.values) < 2:
            raise DemandBracketError(
                "alpha sequence needs at least two terms to define the bracket lattice"
            )
        if M <= 2.0 * self.alpha(1):
            raise DemandBracketError(
                f"demand {M!r} at or below 2*alpha_1; the bracket lattice starts above it",
                needed_index=0,
            )
        k = 1
        while 2.0 * self.alpha(k + 1) < M:
            k += 1
            if k + 1 > self.max_index():
                raise DemandBracketError(
                    f"demand {M!r} beyond the generated alpha sequence",
                    needed_index=k + 1,
                )
        return k

    def to_spec(self) -> dict:
        if self.kind == "explicit":
            return {"values": list(self.values)}
        if self.kind == "supergeometric":
            return {"preset": "supergeometric", "base": self.base}
        return {"preset": "factorial"}

    @classmethod
    def from_spec(cls, spec: dict) -> "AlphaSequence":
        if "values" in spec:
            return cls(kind="explicit", values=tuple(_num(v) for v in spec["values"]))
        preset = spec.get("preset", "factorial")
        if preset == "supergeometric":
            return cls(kind="supergeometric", base=_num(spec.get("base", 2)))
        if preset == "factorial":
            return cls(kind="factorial")
        raise DomainError(f"unknown alpha preset {preset!r}")


@dataclass(frozen=True)
class StepExp(CostFunction):
    """c(y) = ExpOverX(alpha_{k+1}) for y in (alpha_k, alpha_{k+1}].

    The step partner of ExpOverX in the unbounded-price-of-anarchy instance.
    Values grow like e^alpha, so anything beyond toy scales must go through
    eval_log / generalized_inverse_log.
    """

    alphas: AlphaSequence = field(default_factory=AlphaSequence)
    family = "step_exp"

    def is_continuous(self) -> bool:
        return False

    def is_strictly_increasing(self) -> bool:
        return False

    def _piece(self, y: float) -> int:
        y = _check_nonneg(y)
        if y == 0:
            return 1
        return self.alphas.cover_index(y)

    @staticmethod
    def _level_log(alpha_j: float) -> float:
        return alpha_j - math.log(alpha_j) if alpha_j >= 1.0 else 1.0

    def eval_log(self, y: float) -> LogValue:
        return LogValue.from_log(self._level_log(self.alphas.alpha(self._piece(y))))

    def eval(self, y: float) -> float:
        t = self.eval_log(y).log_magnitude
        if t > _MAX_EXP:
            raise RangeOverflowError("step-exp value overflows; use eval_log")
        return math.exp(t)

    def eval_many(self, ys):
        ys = np.asarray(ys, dtype=float)
        top = self.alphas.cover_index(float(np.max(ys))) if ys.size else 1
        knots = np.array([self.alphas.alpha(j) for j in range(0, top + 1)])
        idx = np.searchsorted(knots, ys, side="left")
        idx = np.maximum(idx, 1)
        logs = np.array([self._level_log(a) if a >= 1 else 1.0 for a in knots])
        t = logs[idx]
        if np.any(t > _MAX_EXP):
            raise RangeOverflowError("step-exp value overflows; use eval_log")
        return np.exp(t)

    def eval_right_log(self, y: float) -> LogValue:
        j = self._piece(y)
        if y == self.alphas.alpha(j):  # at a knot: the next step starts
            j += 1
        return LogValue.from_log(self._level_log(self.alphas.alpha(j)))

    def eval_right(self, y: float) -> float:
        t = self.eval_right_log(y).log_magnitude
        if t > _MAX_EXP:
            raise RangeOverflowError("step-exp value overflows; use eval_log")
        return math.exp(t)

    def derivative_bounds(self, y):
        y = float(y)
        j = self._piece(y)
        if y == self.alphas.alpha(j):
            return (0.0, math.inf)
        return (0.0, 0.0)

    def primitive(self, y: float) -> float:
        y = _check_nonneg(y)
        if y == 0:
            return 0.0
        j = self._piece(y)
        total = 0.0
        for i in range(1, j):
            width = self.alphas.alpha(i) - self.alphas.alpha(i - 1)
            total += math.exp(self._level_log(self.alphas.alpha(i))) * width
        total += math.exp(self._level_log(self.alphas.alpha(j))) * (
            y - self.alphas.alpha(j - 1)
        )
        if math.isinf(total):
            raise RangeOverflowError("step-exp primitive overflows")
        return total

    def generalized_inverse_log(self, level: LogValue) -> tuple[float, float]:
        if level.is_zero:
            return (0.0, 0.0)
        target = level.log_magnitude
        j = 1
        while self._level_log(self.alphas.alpha(j)) < target:
            j += 1
            if j > self.alphas.max_index():
                return (math.inf, math.inf)
        x_minus = self.alphas.alpha(j - 1)
        x_plus = (
            self.alphas.alpha(j)
            if self._level_log(self.alphas.alpha(j)) <= target
            else x_minus
        )
        return (x_minus, x_plus)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        return self.generalized_inverse_log(LogValue.from_float(_check_nonneg(level, "level")))

    def asymptotic_value(self) -> float:
        return math.inf

    def breakpoints_within(self, lo: float, hi: float) -> list[float]:
        out = []
        j = 1
        while True:
            try:
                a_j = self.alphas.alpha(j)
            except (DemandBracketError, RangeOverflowError):
                break
            if a_j > hi:
                break
            if a_j >= lo:
                out.append(a_j)
            j += 1
        return out

    def to_spec(self) -> dict:
        return {"family": "step_exp", "alpha": self.alphas.to_spec()}


# ---------------------------------------------------------------------------
# shifted wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shifted(CostFunction):
    """c(x) = shift + base(x) with shift >= 0."""

    base_cost: CostFunction
    shift: float
    family = "shifted"

    def __post_init__(self):
        if not 0 <= self.shift < math.inf:
            raise DomainError(f"shift must be finite and nonnegative, got {self.shift!r}")

    def is_continuous(self) -> bool:
        return self.base_cost.is_continuous()

    def is_strictly_increasing(self) -> bool:
        return self.base_cost.is_strictly_increasing()

    def eval(self, x: float) -> float:
        return self.shift + self.base_cost.eval(x)

    def eval_many(self, xs):
        return self.shift + self.base_cost.eval_many(xs)

    def eval_right(self, x: float) -> float:
        return self.shift + self.base_cost.eval_right(x)

    def derivative_bounds(self, x):
        return self.base_cost.derivative_bounds(x)

    def derivative(self, x: float) -> float:
        return self.base_cost.derivative(x)

    def primitive(self, x: float) -> float:
        return self.shift * _check_nonneg(x) + self.base_cost.primitive(x)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level < self.shift:
            return (0.0, 0.0)
        return self.base_cost.generalized_inverse(level - self.shift)

    def asymptotic_value(self) -> float:
        return self.shift + self.base_cost.asymptotic_value()

    def marginal_function(self):
        return Shifted(self.base_cost.marginal_function(), self.shift)

    def breakpoints_within(self, lo, hi):
        return self.base_cost.breakpoints_within(lo, hi)

    def to_spec(self) -> dict:
        return {"family": "shifted", "shift": self.shift, "base": self.base_cost.to_spec()}


# ---------------------------------------------------------------------------
# marginal-cost level functions (internal: used by the optimum solver)
# ---------------------------------------------------------------------------
# These only need the level-function protocol (eval + generalized_inverse);
# they are not public cost families.


class _ExpOverXMarginal:
    """d/dx [x * ExpOverX(x)]: e for x < 1, e^x for x >= 1."""

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        if x < 1.0:
            return _E
        if x > _MAX_EXP:
            raise RangeOverflowError("marginal exp(x) overflows")
        return math.exp(x)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level < _E:
            return (0.0, 0.0)
        if level == _E:
            return (0.0, 1.0)
        x = math.log(level)
        return (x, x)


class _SaturatingLinearMarginal:
    """d/dx [x * SaturatingLinear(x)] = 2x + (x^2+2x)/(1+x)^2."""

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        return 2.0 * x + (x * x + 2.0 * x) / (1.0 + x) ** 2

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level == 0:
            return (0.0, 0.0)
        hi = 1.0
        while self.eval(hi) < level:
            hi *= 2.0
        lo, hi = bisect(lambda t: not self.eval(t) < level, 0.0, hi, 1e-16, 200)
        x = 0.5 * (lo + hi)
        return (x, x)


class _PwlSquareMarginal:
    """Subdifferential selection of d/dy [y * PwlSquare(y)].

    Piecewise linear with upward jumps at the knots a^k; the knot
    subdifferential is [a^{2(k-1)}(2a^2+a), a^{2k}(2+a)].
    """

    def __init__(self, a: float):
        self.a = a

    def _knot_interval(self, k: int) -> tuple[float, float]:
        a = self.a
        return (a ** (2 * (k - 1)) * (2 * a * a + a), a ** (2 * k) * (2.0 + a))

    def eval(self, y: float) -> float:
        y = _check_nonneg(y)
        if y == 0:
            return 0.0
        k = _least_power_at_least(self.a, y)
        p, q = self.a ** (k - 1), self.a**k
        return 2.0 * (p + q) * y - p * q  # left-continuous selection

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level == 0:
            return (0.0, 0.0)
        a = self.a
        # find the smallest knot k whose subdifferential reaches level
        k = _least_power_at_least(a * a, level / (2.0 + a))
        while self._knot_interval(k)[1] < level:
            k += 1
        while k > -1075 and self._knot_interval(k - 1)[1] >= level:
            k -= 1
        lo_k, hi_k = self._knot_interval(k)
        if level >= lo_k:  # inside the knot's subdifferential
            y = a**k
            return (y, y)
        # otherwise level is an interior slope of piece (a^{k-1}, a^k)
        p, q = a ** (k - 1), a**k
        y = (level + p * q) / (2.0 * (p + q))
        return (y, y)


# ---------------------------------------------------------------------------
# marginal cost helpers
# ---------------------------------------------------------------------------


def marginal_bounds(cost: CostFunction, x: float) -> tuple[float, float]:
    """Endpoints of the subdifferential of y -> y*c(y) at x > 0."""
    if not cost.is_continuous():
        raise UnsupportedCostError(
            f"marginal cost undefined for {type(cost).__name__}; "
            "use interval decomposition instead"
        )
    x = float(x)
    if x <= 0:
        raise DomainError(f"marginal requires x > 0, got {x!r}")
    c = cost.eval(x)
    d_lo, d_hi = cost.derivative_bounds(x)
    return (c + x * d_lo, c + x * d_hi)


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

_FAMILIES = {
    "affine": lambda s: Affine(_num(s["a"]), _num(s["b"])),
    "monomial": lambda s: Monomial(_num(s["coef"]), _num(s["degree"])),
    "polynomial": lambda s: Polynomial(tuple(_num(c) for c in s["coefficients"])),
    "constant": lambda s: Constant(_num(s["value"])),
    "step_geometric": lambda s: StepGeometric(_num(s["a"])),
    "pwl_square": lambda s: PwlSquare(_num(s["a"])),
    "exp_over_x": lambda s: ExpOverX(),
    "step_exp": lambda s: StepExp(AlphaSequence.from_spec(s.get("alpha", {}))),
    "saturating_linear": lambda s: SaturatingLinear(),
}


def cost_from_spec(spec: dict) -> CostFunction:
    family = spec.get("family")
    if family == "shifted":
        return Shifted(cost_from_spec(spec["base"]), _num(spec["shift"]))
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown cost family {family!r}") from None
    return builder(spec)


def cost_to_spec(cost: CostFunction) -> dict:
    return cost.to_spec()
