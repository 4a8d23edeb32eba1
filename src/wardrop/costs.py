"""Closed families of monotone edge cost functions.

Every family is weakly increasing and nonnegative on [0, inf) and carries
what the solvers read: evaluation and its right limit, one-sided
derivatives (the general solver's slopes), the set-valued generalized
inverse, the asymptotic value at infinity, and log-domain evaluation.
``Affine``, ``Constant``, ``Monomial`` and ``Polynomial`` also give the
exact primitive int_0^x c(s) ds, which the regular-variation checks read.
Every method takes one point: the solvers and the brute-force oracle alike
call the scalar ``eval``.  ``StepGeometric``, ``PwlSquare`` and the
marginal of ``PwlSquare`` are affine on every piece (a^{k-1}, a^k] and
share one base, ``_Geometric``, which takes from each only its line on a
piece: ``eval``, ``eval_right`` and the inverse all read those lines at the
knots, so the inverse is the generalized inverse of ``eval``.  Step families are left-continuous: the
value on (a^{k-1}, a^k] is taken at the right end, so c(a^k) = a^k exactly
for the geometric step and evaluation at a knot returns the lower step.
"""

from __future__ import annotations

import bisect
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    DemandBracketError,
    DomainError,
    GameError,
    RangeOverflowError,
    UnsupportedCostError,
)

_E = math.e
_MAX_EXP = math.log(sys.float_info.max)  # ~709.78
ROOT_SLACK = 3  # evaluations ``root`` may spend over bisection's bound
_POLY_BRACKET_CAP = 2.0**996  # a polynomial inverse above it is out of range
_UNIT_STEPS = 4  # floats an inverse steps from its closed-form root
_NEWTON_STEPS = 8  # most Newton steps a seeded inverse takes towards its root
_SMALL_LEVEL = 2.0**-13  # below it the saturating marginal's inverse takes its series seed


def _log(v: float) -> float:
    """ln v for a cost value v >= 0, with ln 0 = -inf; a NaN stays NaN."""
    return math.log(v) if v != 0 else -math.inf


def _check_nonneg(x: float, what: str = "x") -> float:
    x = float(x)
    if not x >= 0:  # negative or NaN
        raise DomainError(f"{what} must be nonnegative, got {x!r}")
    return x


def _primitive_at_inf(cost) -> float:
    """int_0^inf c for a weakly increasing c >= 0: inf unless c is 0 throughout."""
    return math.inf if cost.asymptotic_value() > 0 else 0.0


def _num(value) -> float:
    """Parse a finite numeric JSON parameter; decimal strings are accepted,
    JSON's true and false are not."""
    try:
        x = float(value) if isinstance(value, (str, int, float)) and not isinstance(value, bool) else math.nan
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise DomainError(f"expected a finite number or decimal string, got {value!r}")
    return x


def _split_bound(lo: float, hi: float) -> int:
    """At most how many of bisection's splits close [lo, hi], 0 <= lo < hi,
    to adjacent floats; at most 64 in the float range."""
    base = max(lo, sys.float_info.min)
    if hi > 2.0 * base:
        # each geometric split halves log2(hi/base), down to at most 1, where
        # hi - lo spans at most 2^53 units in the last place of lo
        return max(1, math.ceil(math.log2(math.log2(hi) - math.log2(base)) + 1e-9)) + 53
    # each arithmetic split halves the width, rounding up to whole ulp(lo)
    return (int((hi - lo) / math.ulp(lo)) - 1).bit_length()


def root(f, lo: float, f_lo: float, hi: float, f_hi: float) -> tuple[float, float]:
    """Shrink [lo, hi], 0 <= lo < hi, to the adjacent floats between which a
    weakly increasing ``f`` turns non-negative, given f_lo = f(lo) < 0 and
    f_hi = f(hi) >= 0.  NaN counts as non-negative, as in ``not f(x) < 0``.

    Every step is either the split of a bisection, at the geometric midpoint
    while hi > 2 lo (lo read as at least ``sys.float_info.min``) and at the
    arithmetic one after, or an Illinois false position step: the secant
    point of the bracket replaces the end of its sign, and the other end's
    stored value is halved when the same end is replaced twice in a row.
    A secant point that rounds onto an end moves inside by one unit in the
    last place, then by 2, 4, ... while it keeps doing so: once the secant
    has found the root, the far end closes on it too.  A split is
    taken when the secant point is undefined (f_hi - f_lo not positive and
    finite), when the same end has been replaced three times in a row, and
    whenever a secant step could make the evaluations exceed
    ``_split_bound`` of the starting bracket plus ROOT_SLACK.  That check
    reads the last ``_split_bound`` computed and recomputes it only when the
    stale one fails: the bound never rises on a sub-bracket, so the stale
    one passes only where the current one would.  Splits alone close any
    bracket in the float range in at most 64 evaluations; a call costs at
    most ROOT_SLACK more than that bound from the same bracket, on any
    ``f``.  On a monotone ``f`` only one pair of adjacent floats has ``f``
    turn non-negative between them, so every path ends on it."""
    side = run = steps = 0  # the end (-1 lo, +1 hi) replaced last, how many times in a row
    bound = _split_bound(lo, hi)
    budget = bound + ROOT_SLACK
    reach = 1.0
    while True:
        base = max(lo, sys.float_info.min)
        x = math.sqrt(base) * math.sqrt(hi) if hi > 2.0 * base else lo + 0.5 * (hi - lo)
        if not lo < x < hi:
            return lo, hi
        if (
            run < 3
            and 0.0 < f_hi - f_lo < math.inf
            and (steps + bound < budget or steps + (bound := _split_bound(lo, hi)) < budget)
        ):
            # from the end nearer the root, where the secant point is exact
            w = (hi - lo) / (f_hi - f_lo)
            s = hi - f_hi * w if f_hi < -f_lo else lo - f_lo * w
            if s >= hi:
                s, reach = max(x, hi - reach * math.ulp(hi)), 2.0 * reach
            elif s <= lo:
                s, reach = min(x, lo + reach * math.ulp(lo)), 2.0 * reach
            else:
                reach = 1.0
            if lo < s < hi:  # else NaN
                x = s
        fx = f(x)
        steps += 1
        end = -1 if fx < 0.0 else 1
        run = run + 1 if end == side else 1
        side = end
        if end < 0:
            lo, f_lo = x, fx
            if run > 1:
                f_hi *= 0.5
        else:
            hi, f_hi = x, fx
            if run > 1:
                f_lo *= 0.5


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

    def eval_right(self, x: float) -> float:
        """Right limit at x: the cost an entering infinitesimal player faces."""
        return self.eval(x)

    def eval_log(self, x: float) -> float:
        """ln c(x); -inf where c(x) = 0."""
        return _log(self.eval(x))

    def eval_right_log(self, x: float) -> float:
        return _log(self.eval_right(x))

    # --- calculus ---
    def derivative_bounds(self, x: float) -> tuple[float, float]:
        """(left, right) one-sided derivatives at x > 0."""
        raise UnsupportedCostError(f"{type(self).__name__} has no one-sided derivatives")

    def primitive(self, x: float) -> float:
        raise UnsupportedCostError(f"{type(self).__name__} has no closed-form primitive")

    # --- inversion ---
    def generalized_inverse(self, level: float) -> tuple[float, float]:
        """Closed interval [x-, x+] with x- = inf{x: c(x) >= level} and
        x+ = sup{x: c(x) <= level} (sup of the empty set is 0)."""
        raise NotImplementedError

    # --- asymptotics / misc ---
    def asymptotic_value(self) -> float:
        raise NotImplementedError

    def marginal_function(self):
        """The marginal cost c(x) + x c'(x) as a CostFunction, when it exists."""
        raise UnsupportedCostError(
            f"{type(self).__name__} has no single-valued marginal transform"
        )

    def breakpoints_within(self, lo: float, hi: float) -> list[float]:
        """Flows in [lo, hi] where c jumps or kinks, ascending, as far as the
        family lists them (the brute-force oracle's lattices add them).
        ``StepGeometric`` and ``PwlSquare`` list only their knots in [max(lo,
        hi * 1e-18, 1e-300), hi]; those left out lie below the lattice spacing."""
        return []

    def jump_levels(self, lo: float, hi: float) -> list[float]:
        """Levels in [lo, hi] where x+ of ``generalized_inverse`` jumps (the
        values of the flat pieces of c), as far as the family lists them;
        the level search probes them before it bisects.  ``StepGeometric``
        lists its ``breakpoints_within(lo, hi)``, so only the top 18 decades
        of a wider bracket; any subset of the jumps gives the same level."""
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
        x = _check_nonneg(x)
        return self.a + self.b * x if x < math.inf else self.asymptotic_value()  # 0.0 * inf is NaN

    def derivative_bounds(self, x):
        return (self.b, self.b)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        return self.a * x + 0.5 * self.b * x * x if x < math.inf else _primitive_at_inf(self)

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

    def derivative_bounds(self, x):
        return (0.0, 0.0)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        return self.value * x if x < math.inf else _primitive_at_inf(self)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level < self.value:
            return (0.0, 0.0)
        if level == self.value:
            return (0.0, math.inf)
        return (math.inf, math.inf)

    def asymptotic_value(self) -> float:
        return self.value

    def jump_levels(self, lo: float, hi: float) -> list[float]:
        return [self.value] if lo <= self.value <= hi else []

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
        return self.coef * _pow_in_range(_check_nonneg(x), self.degree, "monomial value")

    def eval_log(self, x: float) -> float:
        x = _check_nonneg(x)
        if x == 0:
            return -math.inf
        return math.log(self.coef) + self.degree * math.log(x)

    def derivative_bounds(self, x):
        p = self.degree - 1.0  # below degree 1, x ** p divides by 0 at 0: the slope is infinite
        d = self.coef * self.degree * _pow_in_range(float(x), p, "monomial slope") if x or p >= 0 else math.inf
        return (d, d)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        p = self.degree + 1.0
        return self.coef * _pow_in_range(x, p, "monomial primitive") / p

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        p = 1.0 / self.degree
        try:
            x = (level / self.coef) ** p
        except OverflowError:
            x = math.inf
        if x == math.inf > level:  # past the float range, or level / coef is, where its root may not be
            x = level**p / self.coef**p if p < 1.0 else x
            if x == math.inf:
                raise RangeOverflowError("monomial inverse overflows native floats")
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
        object.__setattr__(self, "_increasing", any(c > 0 for c in coefs[1:]))  # read by every inverse
        object.__setattr__(self, "_slopes", tuple(j * coefs[j] for j in range(len(coefs) - 1, 0, -1)))  # j c_j, top first
        # c0, c1, c2 and sqrt(c2) of the closed-form inverse at degree 1 or 2, else None
        c2 = coefs[2] if len(coefs) == 3 else 0.0
        object.__setattr__(self, "_quadratic", (*coefs[:2], c2, math.sqrt(c2)) if 2 <= len(coefs) <= 3 else None)

    def is_strictly_increasing(self) -> bool:
        return self._increasing

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        if x == math.inf:  # where Horner's first step 0.0 * x is NaN
            return self.asymptotic_value()
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative_bounds(self, x):
        x = float(x)
        if x == math.inf:  # as in eval: the limit of the derivative's own polynomial
            d = Polynomial(self._slopes[::-1] or (0.0,)).asymptotic_value()
            return (d, d)
        acc = 0.0
        for d in self._slopes:
            acc = acc * x + d
        return (acc, acc)

    def primitive(self, x: float) -> float:
        x = _check_nonneg(x)
        if x == math.inf:  # where Horner's first step 0.0 * x is NaN
            return _primitive_at_inf(self)
        acc = 0.0
        for j in range(len(self.coefficients) - 1, -1, -1):
            acc = acc * x + self.coefficients[j] / (j + 1.0)
        return acc * x

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        """(x, x) for the midpoint x of the adjacent floats between which
        Horner's c(x) - level turns non-negative; (0, 0) at or below c0.
        ``_unit_pair`` closes the pair from a seed: above degree 2
        ``_polynomial_seed``, and at degree 1 or 2 the closed-form root x0 =
        2r / (c1 + hypot(c1, 2 sqrt(c2) sqrt(r))), with r = m - c0 and m the
        midpoint between level and the float below it: Horner's float sum c0
        + (c1 + c2 x) x rounds to level or above past m, so x0 lies within a
        few units in the last place of the pair unless a partial sum is
        subnormal, and the form has no cancellation while hypot keeps c1^2 +
        4 c2 r in range.  Where the steps do not close it, ``root`` closes
        it from ``_power_bracket``.  Horner's rule with nonnegative
        coefficients is monotone in floats, so the pair is unique and each
        path gives the same floats."""
        level = _check_nonneg(level, "level")
        c0 = self.coefficients[0]
        if level < c0:
            return (0.0, 0.0)
        if not self._increasing:
            return Constant(c0).generalized_inverse(level)
        if level == c0:
            return (0.0, 0.0)
        if level == math.inf:  # no finite x reaches it, as for Monomial: where Horner overflows is no root
            return (level, level)
        if self._quadratic:
            _, c1, _, s2 = self._quadratic
            r = level - c0 - 0.5 * (level - math.nextafter(level, 0.0))
            d = c1 + math.hypot(c1, 2.0 * s2 * math.sqrt(r))
            seed = 2.0 * r / d if d > 0.0 else math.nan
            value = self._quadratic_value
        else:
            coefs = self.coefficients[::-1]

            # eval's Horner loop inlined: the call and domain check per step
            # cost a quarter of poa on polynomial links
            def value(t: float) -> float:
                acc = 0.0
                for c in coefs:
                    acc = acc * t + c
                return acc

            seed = _polynomial_seed(self.coefficients, level)
        pair = _unit_pair(seed, value, level, _POLY_BRACKET_CAP) if 0.0 <= seed <= _POLY_BRACKET_CAP else None
        if pair is None:

            def excess(t: float) -> float:
                return value(t) - level

            pair = root(excess, *_power_bracket(self.coefficients, level, excess))
        x = 0.5 * (pair[0] + pair[1])
        return (x, x)

    def _quadratic_value(self, t: float) -> float:
        """``eval`` at degree 1 or 2, without its domain check: Horner's
        rule written out, as its first step 0.0 t + c2 is c2."""
        c0, c1, c2, _ = self._quadratic
        return (c2 * t + c1) * t + c0

    def asymptotic_value(self) -> float:
        return math.inf if self.is_strictly_increasing() else self.coefficients[0]

    def marginal_function(self):
        return Polynomial(tuple((j + 1.0) * c for j, c in enumerate(self.coefficients)))

    def to_spec(self) -> dict:
        return {"family": "polynomial", "coefficients": list(self.coefficients)}


def _power_bound(coefficients, level: float) -> float:
    """An upper bound on x+ of a polynomial at ``level`` > c0, up to
    rounding: c(x) >= c0 + c_j x^j for every j, so x+ <= (level - c0)^(1/j)
    / c_j^(1/j), taken root by root so that the quotient cannot underflow;
    at most _POLY_BRACKET_CAP."""
    c0 = coefficients[0]
    return min(
        _POLY_BRACKET_CAP,
        *((level - c0) ** (1.0 / j) / c ** (1.0 / j) for j, c in enumerate(coefficients) if j and c),
    )


def _power_bracket(coefficients, level: float, excess):
    """(lo, excess(lo), hi, excess(hi)) around x+ of a polynomial at
    ``level`` > c0: [0, ``_power_bound``], widened where rounding breaks the
    bound."""
    lo, hi = 0.0, _power_bound(coefficients, level)
    f_lo, f_hi, step = coefficients[0] - level, excess(hi), 2.0**-48
    while f_hi < 0.0:  # the bound holds up to rounding, and may round to 0
        if hi >= _POLY_BRACKET_CAP:
            raise RangeOverflowError("polynomial inverse bracket overflow")
        lo, f_lo = hi, f_hi
        hi, step = min(hi + max(hi * step, math.ulp(hi)), _POLY_BRACKET_CAP), 2.0 * step
        f_hi = excess(hi)
    return lo, f_lo, hi, f_hi


def _polynomial_seed(coefficients, level: float) -> float:
    """Where a polynomial's ``excess`` at ``level`` > c0 turns non-negative,
    above degree 2, to within about 2^-50 relative: ``_newton`` on the exact
    tail T(x) = x (c1 + c2 x + ...) against r = m - c0, with m the midpoint
    between level and the float below it, from ``_power_bound``: however
    close level is to c0, Horner's c0 + T(x) rounds to level or above about
    where T(x) passes r.  T is convex and increasing on x >= 0 with T(0) =
    0 < r, so the steps fall monotonically to its root.  NaN where a step
    is undefined: the bound underflows to 0 with c1 = 0, or T overflows
    near _POLY_BRACKET_CAP."""
    tail = coefficients[:0:-1]
    r = level - coefficients[0] - 0.5 * (level - math.nextafter(level, 0.0))

    def step(t: float) -> float:
        p = dp = 0.0  # c1 + c2 t + ... and its derivative, by Horner's rule
        for c in tail:
            dp = dp * t + p
            p = p * t + c
        slope = p + t * dp
        return (r - t * p) / slope if slope > 0.0 else math.nan

    return _newton(_power_bound(coefficients, level), step)


def _newton(x: float, step) -> float:
    """x after Newton steps x += step(x), at most _NEWTON_STEPS of them,
    stopping after the first one below 2^-26 of x: on the smooth convex or
    concave functions the inverses seed, the error then left is of the
    order of the square of that step, a few units in the last place, which
    ``_unit_pair`` steps across.  NaN after a NaN step."""
    for _ in range(_NEWTON_STEPS):
        d = step(x)
        x += d
        if not abs(d) > x * 2.0**-26:
            break
    return x


def _unit_pair(x: float, value, level: float, cap: float = math.inf):
    """The adjacent floats (lo, hi) between which the weakly increasing
    ``value`` turns >= ``level``, found from a close seed x >= 0 one float
    at a time, at most _UNIT_STEPS steps, towards the crossing.  None where
    the steps do not close the pair and where its upper end passes ``cap``.
    value(t) < level exactly where value(t) - level < 0, so wherever
    ``value`` is monotone in floats this is the pair ``root`` ends on from
    any bracket of that excess."""
    if value(x) < level:
        hi, steps = math.nextafter(x, math.inf), 1
        while value(hi) < level:
            if steps == _UNIT_STEPS:
                return None
            x, hi, steps = hi, math.nextafter(hi, math.inf), steps + 1
        return (x, hi) if hi <= cap else None
    lo, steps = math.nextafter(x, 0.0), 1
    while not value(lo) < level:
        if steps == _UNIT_STEPS:
            return None
        x, lo, steps = lo, math.nextafter(lo, 0.0), steps + 1
    return (lo, x)


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
        return x + x / (1.0 + x) if x < math.inf else x  # inf / inf is NaN

    def derivative_bounds(self, x):
        try:
            d = 1.0 + 1.0 / (1.0 + float(x)) ** 2
        except OverflowError:  # (1 + x)^2 is past floats, and 1/(1 + x)^2 under half an ulp of 1
            d = 1.0
        return (d, d)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        # x + x/(1+x) = L  <=>  x^2 + (2-L)x - L = 0; below L = 2 the
        # conjugate form avoids the cancellation in (L-2) + sqrt(L^2+4)
        square = level * level
        # sqrt(L^2 + 4) rounds to L long before L^2 overflows
        root = math.sqrt(square + 4.0) if square < math.inf else level
        x = 2.0 * level / ((2.0 - level) + root) if level < 2.0 else 0.5 * (level - 2.0) + 0.5 * root
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


def _check_base(a: float, label: str) -> None:
    """DomainError naming the ``label`` family where a is not a lattice base, a finite a >= 2."""
    if not 2 <= a < math.inf:
        raise DomainError(f"{label} family requires finite a >= 2, got {a!r}")


@lru_cache(maxsize=64)
def _powers(a: float) -> tuple[int, tuple[float, ...]]:
    """(k0, table) with table[i] = a ** (k0 + i) in Python's float pow, for a > 1: from the last power that rounds to 0
    through the last finite one (or the first infinite one, for a = inf).
    Every power the geometric families and the exact optima read comes
    from here, so a knot has the same bits in each of them."""
    a = float(a)
    low, k = [], -1
    while (v := a**k) > 0.0:
        low.append(v)
        k -= 1
    high, k = [], 0
    while v < math.inf:
        try:
            v = a**k
        except OverflowError:
            break
        high.append(v)
        k += 1
    return -len(low) - 1, (0.0, *reversed(low), *high)


def _piece(a: float, x: float) -> tuple[int, float, float]:
    """(k, a**(k-1), a**k) for the smallest integer k with a**k >= x > 0,
    all read from ``_powers(a)``; RangeOverflowError where every finite
    a**k is below x."""
    k0, table = _powers(a)
    i = bisect.bisect_left(table, x)
    if i == len(table):
        raise _beyond(a, x)
    return k0 + i, table[i - 1], table[i]


def _beyond(a: float, x: float) -> RangeOverflowError:
    return RangeOverflowError(f"no power of {a!r} in the float range reaches {x!r}")


def _power_index(a: float, x: float) -> int:
    """The k of ``_piece`` for 0 < x < inf, and K + 1 past the table's last
    finite power a^K, as a^(K+1) exceeds every float."""
    if x == math.inf:
        raise RangeOverflowError(f"no power of {a!r} reaches inf")
    k0, table = _powers(a)
    return k0 + bisect.bisect_left(table, x)


def _period_index(a: float, M: float) -> int:
    """k with M in (2 a^k, 2 a^{k+1}], for a finite M > 0."""
    if M / 2.0 == 0.0:  # subnormal M: no power of a is below M/2
        raise DomainError(f"M/2 underflows to 0 at M={float(M)!r}: "
                          "the demand is below the range native floats resolve")
    return _piece(a, M / 2.0)[0] - 1


@lru_cache(maxsize=64)
def _lattice(family: type, a: float):
    """(table, slopes, intercepts, values, rights) of a ``_Geometric``
    family at base a, indexed like the table of ``_powers(a)``: (slopes[i],
    intercepts[i]) = ``family._line(p, q)`` on the piece (p, q] that ends at
    table[i]; values[i] is that line at the knot table[i] (``eval`` there)
    and rights[i] the next piece's line there (``eval_right``; the piece
    past the last finite power ends at inf).  values store a NaN, inf -
    inf, as inf, so that they stay sorted; rights keep it, as
    ``eval_right`` raises on it.  A family whose ``eval_right`` is its
    ``eval`` has no jumps, and its rights are its values: the next line
    can overflow where the knot's value does not."""
    k0, table = _powers(a)
    lines = [(0.0, 0.0), *map(family._line, table, (*table[1:], math.inf))]  # the first piece is (0, a^(k0+1)]
    values = tuple(v if v == v else math.inf for v in (s * q + t for (s, t), q in zip(lines, table)))
    rights = values if family.eval_right is family.eval else tuple(s * q + t for (s, t), q in zip(lines[1:], table))
    slopes, intercepts = zip(*lines[:-1])
    return table, slopes, intercepts, values, rights


@dataclass(frozen=True)
class _Geometric(CostFunction):
    """A cost that is 0 at 0 and affine on each piece (p, q] = (a^(k-1),
    a^k] of ``_powers(a)``, a >= 2.  Each family supplies only its line
    rule ``_line(p, q)``: (0, q) for ``StepGeometric``, (p + q, -pq) for
    ``PwlSquare``, (2(p + q), -pq) for its marginal.  ``eval`` reads the
    line of the piece holding y, ``eval_right`` at a knot the next one,
    and the inverse both at the knots: it is the generalized inverse
    inf{y : eval(y) >= level} of ``eval``, with the whole flat piece at
    its value.  It refuses the level inf and a level above every knot
    value, which only the step has (its values end at the last power)."""

    a: float
    _label = ""  # the family's name in the range error of a
    _what = ""  # what the overflow error of ``eval`` names

    def __post_init__(self):
        _check_base(self.a, self._label)
        object.__setattr__(self, "_knots", None)  # the tables are read in on first use

    def _tables(self) -> tuple[float, ...]:
        """Read ``_lattice``'s tables into plain instance attributes and
        return the knots; a descriptor or ``__getattr__`` for them would
        slow every later read."""
        for key, value in zip(("_knots", "_slopes", "_intercepts", "_values", "_rights"), _lattice(type(self), self.a)):
            object.__setattr__(self, key, value)
        return self._knots

    def eval(self, y: float) -> float:
        y = _check_nonneg(y)
        if y == 0:
            return 0.0
        knots = self._knots or self._tables()
        i = bisect.bisect_left(knots, y)
        if i == len(knots):
            raise _beyond(self.a, y)
        v = self._slopes[i] * y + self._intercepts[i]
        if v != v:  # p q overflows, and s y with it: inf - inf
            raise RangeOverflowError(f"{self._what} at {y!r} overflows native floats")
        return v

    def eval_right(self, y: float) -> float:
        v = self.eval(y)
        if y > 0:
            i = bisect.bisect_left(self._knots, y)
            if self._knots[i] == y:  # at a knot: the next piece's line
                v = self._rights[i]
                if v != v:
                    raise RangeOverflowError(f"{self._what} at {y!r} overflows native floats")
        return v

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level == 0:
            return (0.0, 0.0)
        knots = self._knots or self._tables()
        values = self._values
        i = bisect.bisect_left(values, level)
        if i == len(values) or level == math.inf:
            raise _beyond(self.a, level)
        p, q = knots[i - 1], knots[i]
        s, t = self._slopes[i], self._intercepts[i]
        if not s:  # flat at t >= level: the whole piece, or its left end below the step
            return (p, q if level == t else p)
        if not level > self._rights[i - 1]:  # in the jump at p, or past the floats there
            return (p, p)
        if level == values[i]:
            return (q, q)
        y = (level - t) / s
        if y == math.inf:  # p q or level + p q overflows, y itself does not
            y = (level / q + p) / (s / q)
        # a subnormal p q, or rounding, puts y past the piece: stay in it
        y = p if y < p else q if y > q else y
        return (y, y)

    def asymptotic_value(self) -> float:
        return math.inf

    def breakpoints_within(self, lo: float, hi: float) -> list[float]:
        if hi <= 0 or hi < lo:
            return []
        lo, knots = max(lo, hi * 1e-18, 1e-300), self._knots or self._tables()
        return list(knots[bisect.bisect_left(knots, lo) : bisect.bisect_right(knots, hi)])

    def to_spec(self) -> dict:
        return {"family": self.family, "a": self.a}


class StepGeometric(_Geometric):
    """c(x) = a^k for x in (a^{k-1}, a^k], k in Z, with a >= 2.

    Left-continuous step function that touches the identity at every knot:
    c(a^k) = a^k exactly.  c(0) = 0 as the infimum limit over k -> -inf.
    """

    family = "step_geometric"
    _label = "step"
    _line = staticmethod(lambda p, q: (0.0, q))

    def is_continuous(self) -> bool:
        return False

    def is_strictly_increasing(self) -> bool:
        return False

    def eval_log(self, x: float) -> float:
        """k ln a for the k of ``eval``, and for k = K + 1 past the last
        finite power a^K (``_power_index``)."""
        x = _check_nonneg(x)
        if x == 0:
            return -math.inf
        return _power_index(self.a, x) * math.log(self.a)

    def derivative_bounds(self, x):
        x = float(x)
        if self.eval(x) == x:
            return (0.0, math.inf)  # upward jump at the knot
        return (0.0, 0.0)

    def jump_levels(self, lo: float, hi: float) -> list[float]:
        return self.breakpoints_within(lo, hi)  # x+ jumps at c(a^k) = a^k


class PwlSquare(_Geometric):
    """Linear interpolation of x^2 at the knots a^k (a >= 2).

    On [a^{k-1}, a^k] the value is (a^{k-1}+a^k) y - a^{k-1} a^k, which is
    x^2 exactly at every knot and lies above x^2 on piece interiors (chord
    above a convex function); convex and strictly increasing on [0, inf).
    """

    family = "pwl_square"
    _label = "pwl-square"
    _what = "pwl-square value"
    _line = staticmethod(lambda p, q: (p + q, -(p * q)))
    eval_right = _Geometric.eval  # continuous: no jump at a knot

    def eval_log(self, y: float) -> float:
        """ln eval(y) where eval is finite; past that, ln((p+q)y - pq) as
        ln y + k ln a + ln(1 + 1/a) + log1p(-q/((a+1)y)), with the k of
        ``StepGeometric.eval_log``."""
        y = _check_nonneg(y)
        try:
            v = self.eval(y)
        except RangeOverflowError:
            v = math.inf
        if v < math.inf:
            return _log(v)
        a, (k0, table) = self.a, _powers(self.a)
        k = _power_index(a, y)
        ratio = table[k - 1 - k0] / y * (a / (a + 1.0))  # q / ((a+1) y), q = a p
        return math.log(y) + k * math.log(a) + math.log1p(1.0 / a) + math.log1p(-ratio)

    def derivative_bounds(self, y):
        y = float(y)
        if not y > 0:
            return (0.0, 0.0)  # the pieces' slopes a^{k-1} + a^k shrink to 0
        _, p, q = _piece(self.a, y)
        if y == q:  # knot between pieces k and k+1
            return (p + q, q + q * self.a)
        return (p + q, p + q)

    def marginal_function(self):
        return _PwlSquareMarginal(self.a)


def _chord(p: float, q: float, y: float) -> float:
    """(p + q) y - p q: x^2 interpolated on the piece [p, q] holding y."""
    v = (p + q) * y - p * q
    if math.isnan(v):  # p q overflows, and (p + q) y with it: inf - inf
        raise RangeOverflowError(f"pwl-square value at {y!r} overflows native floats")
    return v


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
        return _exp_in_range(_log_exp_over_x(x), "exp(x)/x")

    def eval_log(self, x: float) -> float:
        return _log_exp_over_x(_check_nonneg(x))

    def derivative_bounds(self, x):
        x = float(x)
        if x < 1.0:
            return (0.0, 0.0)
        d = math.exp(x - 2.0 * math.log(x)) * (x - 1.0) if x - 2 * math.log(x) <= _MAX_EXP else math.inf
        return (d, d)  # both 0 at 1, where the flat part meets e^x/x

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level < _E:
            return (0.0, 0.0)
        if level == _E:
            return (0.0, 1.0)
        if level == math.inf:
            return (math.inf, math.inf)

        def excess(x: float) -> float:  # eval(x) - level, +inf where eval overflows
            t = x - math.log(x)
            return math.exp(t) - level if t <= _MAX_EXP else math.inf

        # x = L + ln x with L = ln(level) and x >= 1, so L <= x <= L + ln(2L);
        # where rounding breaks an end's sign, 1 and 2L (x - ln x >= x / 2) hold
        L = math.log(level)
        lo, hi = L, L + math.log(2.0 * L)
        if not (f_lo := excess(lo)) < 0:
            lo, f_lo = 1.0, excess(1.0)
        if (f_hi := excess(hi)) < 0:
            hi, f_hi = 2.0 * L, excess(2.0 * L)
        x = root(excess, lo, f_lo, hi, f_hi)[1]
        return (x, x)

    def asymptotic_value(self) -> float:
        return math.inf

    def marginal_function(self):
        return _ExpOverXMarginal()

    def to_spec(self) -> dict:
        return {"family": "exp_over_x"}


def _exp_in_range(t: float, what: str) -> float:
    """e^t, or RangeOverflowError naming ``what`` where e^t is beyond floats."""
    if t > _MAX_EXP:
        raise RangeOverflowError(f"{what} overflows native floats")
    return math.exp(t)


def _pow_in_range(x: float, p: float, what: str) -> float:
    """x ** p, or RangeOverflowError naming ``what`` where it is beyond floats."""
    try:
        return x**p
    except OverflowError:
        raise RangeOverflowError(f"{what} overflows native floats") from None


def _log_exp_over_x(x: float) -> float:
    """ln ExpOverX(x): x - ln x for x >= 1 (inf at inf, where it is NaN), and 1 below."""
    if x < 1.0:
        return 1.0
    return x - math.log(x) if x < math.inf else x


# --- alpha sequences for the step-exponential family ---

MAX_ALPHA_TERMS = 2**16  # the most finite terms an alpha sequence's table may hold


def _index(k, what: str) -> int:
    """k, or DomainError where it is not an int."""
    if not isinstance(k, int):
        raise DomainError(f"{what} must be an int, got {k!r}")
    return k


@dataclass(frozen=True)
class AlphaSequence:
    """Knot sequence alpha_1 < alpha_2 < ... with alpha_0 = 0.

    Presets: ``factorial`` (alpha_k = k!) and ``supergeometric``
    (alpha_k = base**(k^2)); both satisfy alpha_{k+1}/alpha_k -> inf.
    Explicit lists are accepted as-is.  Every kind is read from one table
    of its finite terms, built at construction; a supergeometric base so
    close to 1 that it has more than ``MAX_ALPHA_TERMS`` of them is refused.
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
        object.__setattr__(self, "_knots", self._table())

    def _table(self) -> tuple[float, ...]:
        """alpha_0 = 0 and every alpha_k that is a finite float, up to the
        first k! or base**(k^2) that raises OverflowError."""
        if self.kind == "explicit":
            return (0.0, *self.values)
        knots = [0.0]
        try:
            while (k := len(knots)) <= MAX_ALPHA_TERMS + 1:
                knots.append(float(math.factorial(k)) if self.kind == "factorial" else self.base ** (k * k))
        except OverflowError:
            return tuple(knots)
        raise DomainError(f"supergeometric alpha sequence at base {self.base!r} has more than "
                          f"{MAX_ALPHA_TERMS} finite terms")

    def alpha(self, k: int) -> float:
        if _index(k, "alpha index") < 0:
            raise DomainError(f"alpha index must be >= 0, got {k}")
        if k < len(self._knots):
            return self._knots[k]
        if self.kind == "explicit":
            raise DemandBracketError(f"explicit alpha sequence has {len(self.values)} terms; index {k} required")
        raise RangeOverflowError(f"{self.kind} alpha_{k} exceeds float range")

    def max_index(self) -> int:
        """The last k whose alpha_k is a finite float."""
        return len(self._knots) - 1

    def knots_through(self, x: float) -> tuple[float, ...]:
        """alpha_0, ..., alpha_n for the least n >= 1 with alpha_n >= x, or
        through max_index() when no alpha_n reaches x."""
        return self._knots[: bisect.bisect_left(self._knots, x, 1, self.max_index()) + 1]

    def cover_index(self, x: float) -> int:
        """Smallest j >= 1 with alpha_j >= x."""
        j = bisect.bisect_left(self._knots, x, 1)
        if j > self.max_index():
            raise DemandBracketError(f"alpha sequence cannot cover {x!r}; index {j} needed")
        return j

    def bracket_index(self, M: float) -> int:
        """k with 2 alpha_k < M <= 2 alpha_{k+1}: the exponential game's
        demand bracket holding M > 0, k = 0 at or below 2 alpha_1."""
        if self.max_index() < 2:
            raise DemandBracketError(
                "alpha sequence needs at least two terms to define the bracket lattice"
            )
        k = bisect.bisect_left(self._knots, 0.5 * M, 1) - 1
        if k + 1 > self.max_index():
            raise DemandBracketError(f"demand {M!r} beyond the generated alpha sequence")
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
    eval_log.  Every method reads the knots of ``alphas`` and, beside them,
    the log of each step, ``_logs``; the inverse bisects the latter.
    """

    alphas: AlphaSequence = field(default_factory=AlphaSequence)
    family = "step_exp"

    def is_continuous(self) -> bool:
        return False

    def is_strictly_increasing(self) -> bool:
        return False

    @cached_property
    def _logs(self) -> tuple[float, ...]:
        """ln ExpOverX(alpha_j) for each knot: the step over (alpha_{j-1}, alpha_j]."""
        return tuple(map(_log_exp_over_x, self.alphas._knots))

    def eval_log(self, y: float) -> float:  # the step (alpha_{j-1}, alpha_j] holding y, j = 1 at y = 0
        return self._logs[self.alphas.cover_index(_check_nonneg(y))]

    def eval(self, y: float) -> float:
        return _exp_in_range(self.eval_log(y), "step-exp value")

    def eval_right_log(self, y: float) -> float:
        j = self.alphas.cover_index(_check_nonneg(y))
        if y == self.alphas._knots[j]:  # at a knot: the next step starts
            return _log_exp_over_x(self.alphas.alpha(j + 1))
        return self._logs[j]

    def eval_right(self, y: float) -> float:
        return _exp_in_range(self.eval_right_log(y), "step-exp value")

    def derivative_bounds(self, y):
        y = _check_nonneg(y)
        return (0.0, math.inf if y == self.alphas._knots[self.alphas.cover_index(y)] else 0.0)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level == 0:
            return (0.0, 0.0)
        target, knots, logs = math.log(level), self.alphas._knots, self._logs
        j = bisect.bisect_left(logs, target, 1)  # the least step reaching the level
        if j == len(logs):
            return (math.inf, math.inf)
        return (knots[j - 1], knots[j] if logs[j] <= target else knots[j - 1])

    def asymptotic_value(self) -> float:
        return math.inf

    def breakpoints_within(self, lo: float, hi: float) -> list[float]:
        return [a for a in self.alphas.knots_through(hi)[1:] if lo <= a <= hi]

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

    def eval_right(self, x: float) -> float:
        return self.shift + self.base_cost.eval_right(x)

    def derivative_bounds(self, x):
        return self.base_cost.derivative_bounds(x)

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
# marginal costs (x c(x))' with no public family of their own
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ExpOverXMarginal(CostFunction):
    """d/dx [x * ExpOverX(x)]: e for x < 1, e^x for x >= 1."""

    def is_strictly_increasing(self) -> bool:
        return False  # flat on [0, 1)

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        if x < 1.0:
            return _E
        return _exp_in_range(x, "marginal exp(x)")

    def derivative_bounds(self, x):
        d = _exp_in_range(x, "marginal exp(x) slope") if x >= 1.0 else 0.0
        return (0.0 if x == 1.0 else d, d)  # a kink at 1, from flat to e^x

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        level = _check_nonneg(level, "level")
        if level < _E:
            return (0.0, 0.0)
        if level == _E:
            return (0.0, 1.0)
        x = math.log(level)
        return (x, x)


@dataclass(frozen=True)
class _SaturatingLinearMarginal(CostFunction):
    """d/dx [x * SaturatingLinear(x)] = 2x + (x^2+2x)/(1+x)^2."""

    @staticmethod
    def _value(x: float) -> float:
        """``eval`` without its domain check."""
        try:
            return 2.0 * x + (x * x + 2.0 * x) / (1.0 + x) ** 2
        except OverflowError:  # (1 + x)^2 is past floats, and the term below 1 under half an ulp of 2x
            return 2.0 * x

    def eval(self, x: float) -> float:
        x = _check_nonneg(x)
        return self._value(x) if x < math.inf else x  # inf / inf is NaN

    def derivative_bounds(self, x):
        try:
            d = 2.0 + 2.0 / (1.0 + float(x)) ** 3
        except OverflowError:  # as in eval: the term below 1 is under half an ulp of 2
            d = 2.0
        return (d, d)

    def generalized_inverse(self, level: float) -> tuple[float, float]:
        """(x, x) for the midpoint x of the adjacent floats between which
        eval(x) - level turns non-negative; (0, 0) at level 0.  eval(x) =
        2x + 1 - 1/(1+x)^2 = level is the cubic 2u^3 - (1 + level) u^2 - 1
        = 0 in u = 1 + x, whose one positive root is, by Cardano's formula,
        u = (1 + level)/2 (1 + c + 1/c)/3 with c = cbrt(1 + (t + sqrt(t (8
        + t)))/4) and t = (6/(1 + level))^3 in [0, 216]: nothing in it
        overflows, and only u - 1 cancels, at small levels.  Below
        _SMALL_LEVEL the seed is the series x = level/4 + 3 level^2/64 +
        O(level^3) instead.  ``_newton`` polishes the seed, in one step at
        every level measured, and ``_unit_pair`` closes the pair from it.
        Where the steps do not close it, ``root`` does, from the wide
        bracket [(level - 1)/2, level/2]; no level of the float range was
        seen to need it.  eval is not monotone in floats, so next to one of its
        dips two paths can end on different pairs where eval crosses level,
        a few units in the last place apart: the steps and ``root`` from
        the wide bracket do at 18 of 100,000 log-uniform levels on [1e-12,
        1e12], all in [0.1, 1.5]."""
        level = _check_nonneg(level, "level")
        if level == 0 or level == math.inf:
            return (level, level)
        value = self._value

        def step(t: float) -> float:
            try:
                slope = 2.0 + 2.0 / (1.0 + t) ** 3
            except OverflowError:  # as in derivative_bounds
                slope = 2.0
            return (level - value(t)) / slope

        if level >= _SMALL_LEVEL:
            t = 6.0 / (1.0 + level)
            t = t * t * t
            c = (1.0 + 0.25 * (t + math.sqrt(t * (8.0 + t)))) ** (1.0 / 3.0)  # math.cbrt needs Python 3.11
            x0 = _newton(0.5 * (1.0 + level) * ((1.0 + c + 1.0 / c) / 3.0) - 1.0, step)
        else:
            x0 = _newton(0.25 * level + 0.046875 * level * level, step)
        pair = _unit_pair(x0, value, level)
        if pair is None:

            def excess(t: float) -> float:
                return value(t) - level

            # 2x <= eval(x) < 2x + 1 brackets x+ by (level - 1)/2 and level/2; the
            # lower end gives way by 2^-50 relative, as eval rounds up to level
            lo, hi = max(0.5 * (level - 1.0) * (1.0 - 2.0**-50), 0.0), 0.5 * level
            f_lo = excess(lo)
            if not f_lo < 0.0:
                lo, f_lo = 0.0, -level
            f_hi = excess(hi)
            if f_hi < 0.0:  # level/2 rounded down: a subnormal level
                hi, f_hi = level, excess(level)
            pair = root(excess, lo, f_lo, hi, f_hi)
        x = 0.5 * (pair[0] + pair[1])
        return (x, x)


class _PwlSquareMarginal(_Geometric):
    """d/dy [y * PwlSquare(y)]: piecewise linear with upward jumps at the
    knots a^k, where ``eval`` and ``eval_right`` are the ends of the knot
    subdifferential, about [a^{2(k-1)}(2a^2+a), a^{2k}(2+a)]; the inverse
    maps that interval to the knot."""

    _what = "pwl-square marginal"
    _line = staticmethod(lambda p, q: (2.0 * (p + q), -(p * q)))
    breakpoints_within = CostFunction.breakpoints_within  # no caller reads the marginal's knots

    def is_continuous(self) -> bool:
        return False


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


@contextmanager
def _spec_errors(what: str):
    """Turn the bare errors of reading a malformed JSON spec into a
    DomainError naming ``what`` spec; a GameError passes as it is."""
    try:
        yield
    except GameError:
        raise
    except KeyError as exc:
        raise DomainError(f"{what} spec missing field {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"malformed {what} spec: {exc}") from None


def cost_from_spec(spec: dict) -> CostFunction:
    """The cost a JSON spec describes; a malformed spec is a DomainError."""
    with _spec_errors("cost"):
        return _cost_from_spec(spec)


def _cost_from_spec(spec: dict) -> CostFunction:
    """``cost_from_spec`` with a malformed spec's bare errors left to the
    caller, which names the spec it read (``network_from_spec``)."""
    family = spec.get("family")
    if family == "shifted":
        return Shifted(_cost_from_spec(spec["base"]), _num(spec["shift"]))
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown cost family {family!r}") from None
    return builder(spec)


def cost_to_spec(cost: CostFunction) -> dict:
    return cost.to_spec()
