import bisect
import json
import math
import random
import re
import struct
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wardrop import costs
from wardrop.costs import (
    Affine,
    AlphaSequence,
    Constant,
    CostFunction,
    ExpOverX,
    Monomial,
    Polynomial,
    PwlSquare,
    SaturatingLinear,
    Shifted,
    StepExp,
    StepGeometric,
    ROOT_SLACK,
    _split_bound,
    cost_from_spec,
    cost_to_spec,
    root,
)
from wardrop.errors import (
    DemandBracketError,
    DomainError,
    GameError,
    RangeOverflowError,
    UnsupportedCostError,
)

E = math.e

SMOOTH_FAMILIES = [
    Affine(1.0, 2.0),
    Affine(0.0, 1.0),
    Constant(3.0),
    Monomial(2.0, 3.0),
    Polynomial((1.0, 0.5, 2.0)),
    SaturatingLinear(),
    Shifted(Monomial(1.0, 2.0), 1.5),
]

ALL_FAMILIES = SMOOTH_FAMILIES + [
    StepGeometric(2.0),
    StepGeometric(3.0),
    PwlSquare(2.0),
    ExpOverX(),
    StepExp(AlphaSequence("factorial")),
]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_examples():
    assert StepGeometric(2.0).eval(3.0) == 4.0  # 3 in (2, 4]
    assert PwlSquare(2.0).eval(2.0) == 4.0
    assert ExpOverX().eval(1.0) == pytest.approx(E, rel=1e-15)
    assert Affine(1.0, 2.0).eval(3.0) == 7.0


def test_eval_rejects_negative():
    for c in ALL_FAMILIES:
        with pytest.raises(DomainError):
            c.eval(-1.0)


def test_eval_overflow_routes_to_log():
    with pytest.raises(RangeOverflowError):
        ExpOverX().eval(1000.0)
    with pytest.raises(RangeOverflowError):
        StepExp(AlphaSequence("factorial")).eval(1e4)
    # the log evaluator has no such limit
    assert ExpOverX().eval_log(1000.0) == pytest.approx(
        1000.0 - math.log(1000.0)
    )


def test_exp_over_x_inverse_is_where_eval_crosses_the_level():
    # x is the least float with eval(x) >= level, to the ulp: the float
    # below costs less than the level and the float above at least as much
    c, rng = ExpOverX(), random.Random(0)
    for level in (10.0 ** rng.uniform(1.0, 300.0) for _ in range(4000)):
        lo, hi = c.generalized_inverse(level)
        assert lo == hi
        assert c.eval(math.nextafter(lo, 0.0)) < level <= c.eval(math.nextafter(lo, math.inf)), level
    assert c.generalized_inverse(math.inf) == (math.inf, math.inf)


def _ulps_around(x: float, n: int) -> list[float]:
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = min(math.nextafter(up, math.inf), sys.float_info.max), math.nextafter(down, 0.0)
        out += [up, down]
    return out


def test_exp_over_x_inverse_bracket_keeps_every_answer():
    # the bracket [ln L, ln L + ln(2 ln L)] ends where [1, 2 ln L] ended
    def wide(level):
        def excess(x):
            t = x - math.log(x)
            return math.exp(t) - level if t <= costs._MAX_EXP else math.inf

        hi = 2.0 * math.log(level)
        x = root(excess, 1.0, excess(1.0), hi, excess(hi))[1]
        return (x, x)

    rng = random.Random(17)
    levels = [math.exp(rng.uniform(1.0, math.log(1e300))) for _ in range(3000)]
    levels += [v for x in (E, 1e308, sys.float_info.max) for v in _ulps_around(x, 6) if v > E]
    c = ExpOverX()
    for level in levels:
        assert repr(c.generalized_inverse(level)) == repr(wide(level)), level


def test_exp_over_x_inverse_evaluations(monkeypatch):
    # [1, 2 ln L] took 58-60 evaluations at levels 1e3-1e100
    calls, solve = [0], costs.root

    def counted_root(f, *bracket):
        return solve(lambda x: calls.__setitem__(0, calls[0] + 1) or f(x), *bracket)

    monkeypatch.setattr(costs, "root", counted_root)
    rng, c, counts = random.Random(19), ExpOverX(), []
    for _ in range(500):
        calls[0] = 0
        c.generalized_inverse(10.0 ** rng.uniform(3.0, 300.0))
        counts.append(calls[0] + 2)  # root's evaluations and the two ends
    assert max(counts) <= 18 and sum(counts) <= 15 * len(counts)


@settings(max_examples=40)
@given(
    st.sampled_from(ALL_FAMILIES),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=500.0),
)
def test_monotone(cost, x, y):
    lo, hi = sorted((x, y))
    assert cost.eval_log(lo) <= cost.eval_log(hi)


def test_eval_log_examples():
    assert ExpOverX().eval_log(100.0) == pytest.approx(
        100.0 - math.log(100.0), rel=1e-14
    )
    assert Constant(1.0).eval_log(17.0) == 0.0
    # factorial knots: 7 in (3!, 4!] so the level is c(24)
    got = StepExp(AlphaSequence("factorial")).eval_log(7.0)
    assert got == pytest.approx(24.0 - math.log(24.0), rel=1e-14)


def test_eval_log_matches_eval():
    for c in ALL_FAMILIES:
        for x in (0.3, 1.0, 2.5, 17.0, 111.0):
            try:
                direct = c.eval(x)
            except RangeOverflowError:
                continue
            t = c.eval_log(x)
            if direct == 0.0:
                assert t == -math.inf
            else:
                assert math.exp(t) == pytest.approx(direct, rel=1e-12)


def test_step_touches_identity_at_knots():
    for a in (2.0, 3.0, 5.0):
        c = StepGeometric(a)
        for k in range(-3, 8):
            assert c.eval(a**k) == a**k


def test_pwl_square_exact_at_knots_and_above_square_inside():
    for a in (2.0, 3.0):
        c = PwlSquare(a)
        for k in range(-2, 6):
            assert c.eval(a**k) == a ** (2 * k)
            # chord lies above the convex function on the piece interior
            for t in (0.25, 0.5, 0.75):
                y = a ** (k - 1) + t * (a**k - a ** (k - 1))
                assert c.eval(y) >= y * y


def _least_power_by_logs(a: float, x: float) -> int:
    """The log guess and two correction loops the power table replaced: the
    reference for the table's k, where its a**k does not overflow."""
    k = math.ceil(math.log(x) / math.log(a))
    while a**k < x:
        k += 1
    while a ** (k - 1) >= x:
        k -= 1
    return k


def _knots_and_neighbours(a: float) -> list[float]:
    k0, table = costs._powers(a)
    assert all(v == a ** (k0 + i) for i, v in enumerate(table))
    return sorted({y for v in table[1:] for y in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))
                   if 0.0 < y <= table[-1]})


@pytest.mark.parametrize("a", [2.0, 2.5, 3.0, 5.0])
def test_power_table_gives_python_powers_at_every_knot(a):
    xs = _knots_and_neighbours(a)
    k0, table = costs._powers(a)
    for x in xs:
        k, p, q = costs._piece(a, x)
        assert (p, q) == (a ** (k - 1), a**k)
        assert p < x <= q
        try:
            ref = _least_power_by_logs(a, x)
        except OverflowError:  # the log guess overshot to a power past the float range
            ref = k0 + len(table) - 1
        assert k == ref, x


def test_step_powers_reach_the_top_of_the_float_range():
    assert StepGeometric(3.0).eval(3.0**539) == 3.0**539
    assert StepGeometric(2.0).eval(2.0**1023) == 2.0**1023
    for x in (sys.float_info.max, 2.0**1023 * 1.5):
        with pytest.raises(RangeOverflowError):
            StepGeometric(2.0).eval(x)


@pytest.mark.parametrize("a", [2.0, 2.5, 3.0, 5.0, 7.3, 1e6])
def test_step_eval_log_is_k_log_a(a):
    """k ln a is within 1e-15 relative of ln eval wherever eval is a normal
    float, and goes on past the table's last finite power a^K with K + 1."""
    k0, table = costs._powers(a)
    step = StepGeometric(a)
    for x in _knots_and_neighbours(a):
        v = step.eval(x)
        if v >= sys.float_info.min:
            assert abs(step.eval_log(x) - math.log(v)) <= 1e-15 * abs(math.log(v)), x
    last = k0 + len(table) - 1
    for x in (math.nextafter(table[-1], math.inf), sys.float_info.max):
        assert step.eval_log(x) == (last + 1) * math.log(a)
    assert step.eval_log(0.0) == -math.inf
    with pytest.raises(RangeOverflowError):
        step.eval_log(math.inf)


def test_pwl_square_past_the_float_range_overflows_instead_of_nan():
    for cost, y in ((PwlSquare(3.0), 3.0**539), (PwlSquare(2.0), 1e300)):
        with pytest.raises(RangeOverflowError):
            cost.eval(y)
        assert math.isfinite(cost.eval_log(y))  # the log form answers there
    assert PwlSquare(2.0).eval(2.0**500) == 2.0**1000  # in range: a knot keeps its bits


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
def test_pwl_square_eval_log_matches_mpmath_past_the_float_range(a):
    """ln eval(y) where eval is finite; past it, the closed form on the piece
    of ``StepGeometric.eval_log`` (k = K + 1 past the table's a^K), checked
    at 50 digits on the same piece ends."""
    cost, (k0, table) = PwlSquare(a), costs._powers(a)
    with mpmath.workdps(50):
        for y in (1e150, 1.3e154, 1e200, 1e300, 1e308, math.nextafter(table[-1], math.inf),
                  sys.float_info.max):
            i = bisect.bisect_left(table, y)
            p = mpmath.mpf(table[i - 1])
            q = mpmath.mpf(table[i]) if i < len(table) else a * p
            ref = float(mpmath.log((p + q) * y - p * q))
            assert abs(cost.eval_log(y) - ref) <= 1e-15 * ref, y


@pytest.mark.parametrize("a", [2.0, 2.5, 3.0, 5.0])
def test_pwl_square_inverse_is_monotone_across_every_knot_value(a):
    """The a^2 table's values and the knot values eval(a^k) differ in the last
    place at many knots; the inverse stays in its piece, so over the 4 levels
    on either side of every knot value it never drops."""
    cost = PwlSquare(a)
    for y in costs._powers(a)[1]:
        if 1e-150 < y < 1e150:
            levels = [cost.eval(y)]
            for _ in range(4):
                levels = [math.nextafter(levels[0], 0.0), *levels, math.nextafter(levels[-1], math.inf)]
            xs = [cost.generalized_inverse(v)[1] for v in levels]
            assert xs == sorted(xs), y


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
def test_pwl_square_inverse_answers_at_the_top_of_the_float_range(a):
    """Past the last finite a^{2K} the level lies on piece K + 1, whose ends
    are floats: y is finite, in the piece, and y^2 <= level <= y^2 (a+1)^2/(4a),
    the most a chord of x^2 rises above it."""
    cost, (k0, table), (k02, squares) = PwlSquare(a), costs._powers(a), costs._powers(a * a)
    ys = []
    for level in (4.6e307, 1e308, sys.float_info.max):
        y, y_hi = cost.generalized_inverse(level)
        i = k02 + bisect.bisect_left(squares, level) - k0
        assert table[i - 1] <= y == y_hi <= table[i]
        log_rise = math.log((a + 1.0) ** 2 / (4.0 * a))
        assert math.log(level) - log_rise - 1e-12 <= 2.0 * math.log(y) <= math.log(level) + 1e-12
        ys.append(y)
    assert ys == sorted(ys)


@pytest.mark.parametrize("x", [1e300, 1e308, sys.float_info.max])
@pytest.mark.parametrize("cost", ALL_FAMILIES, ids=repr)
def test_eval_log_at_the_top_of_the_float_range_is_a_number_or_a_refusal(cost, x):
    """A log that is not NaN, or a GameError; the geometric step and the
    interpolated square have a finite log at every finite x."""
    try:
        t = cost.eval_log(x)
    except GameError:
        assert not isinstance(cost, (StepGeometric, PwlSquare))
        return
    assert not math.isnan(t)
    assert math.isfinite(t) or not isinstance(cost, (StepGeometric, PwlSquare))


def _with_marginals(families):
    out = []
    for c in families:
        out.append(c)
        try:
            out.append(c.marginal_function())
        except UnsupportedCostError:
            pass
    return out


@pytest.mark.parametrize("x", [1e300, 1e308, sys.float_info.max])
@pytest.mark.parametrize("method", ["eval", "eval_right", "primitive", "derivative_bounds"])
@pytest.mark.parametrize(
    "cost", _with_marginals(ALL_FAMILIES + [Monomial(1.0, 3.0), PwlSquare(1e10)]), ids=repr
)
def test_point_methods_at_the_top_of_the_float_range_are_a_number_or_a_refusal(cost, method, x):
    """Every point method of every family and marginal returns a value that
    is not NaN, or raises a GameError: no bare OverflowError."""
    try:
        v = getattr(cost, method)(x)
    except GameError:
        return
    assert not np.isnan(v).any(), v


@pytest.mark.parametrize("level", [1e300, 1e308, sys.float_info.max])
@pytest.mark.parametrize(
    "cost", _with_marginals(ALL_FAMILIES + [Monomial(1.0, 3.0), PwlSquare(1e10)]), ids=repr
)
def test_inverse_at_the_top_of_the_float_range_is_an_ordered_pair_or_a_refusal(cost, level):
    """The generalized inverse of every family and marginal at a level near
    the largest float is a pair 0 <= lo <= hi with no NaN, or a GameError."""
    try:
        lo, hi = cost.generalized_inverse(level)
    except GameError:
        return
    assert 0.0 <= lo <= hi, (lo, hi)


@pytest.mark.parametrize("method", ["eval", "eval_right", "eval_log", "derivative_bounds", "generalized_inverse",
                                    "primitive"])
@pytest.mark.parametrize(
    "cost", _with_marginals(ALL_FAMILIES + [Monomial(1.0, 3.0), PwlSquare(1e10), Polynomial((0.0, 1.0, 3.0)),
                                            Polynomial((2.0, 0.0)), SaturatingLinear(), Affine(0.0, 1.0),
                                            Constant(0.0)]), ids=repr
)
def test_point_methods_at_the_infinite_point_are_a_number_or_a_refusal(cost, method):
    """At x = inf (a level of inf for the inverse) every family and marginal
    answers with no NaN, or raises a GameError: Horner's 0.0 * inf and
    inf / inf are not answers."""
    try:
        v = getattr(cost, method)(math.inf)
    except GameError:
        return
    assert not np.isnan(v).any(), v


def test_the_infinite_point_answers_the_limit():
    for cost in (Polynomial((0.0, 1.0, 3.0)), SaturatingLinear(), SaturatingLinear().marginal_function()):
        assert cost.eval(math.inf) == cost.eval_log(math.inf) == math.inf
    assert Polynomial((2.0, 0.0)).eval(math.inf) == Affine(2.0, 0.0).eval(math.inf) == 2.0
    assert Polynomial((2.0, 5.0)).derivative_bounds(math.inf) == (5.0, 5.0)
    assert Polynomial((2.0, 5.0, 1e-300)).derivative_bounds(math.inf) == (math.inf, math.inf)
    assert ExpOverX().eval_log(math.inf) == math.inf
    with pytest.raises(RangeOverflowError):  # as at the largest float
        ExpOverX().eval(math.inf)
    assert SaturatingLinear().marginal_function().generalized_inverse(math.inf) == (math.inf, math.inf)
    for coefs in ((2.0, 5.0), (1.0, 0.5, 2.0), (1.0, 0.0, 0.0, 0.0, 0.15)):  # not where Horner overflows
        assert Polynomial(coefs).generalized_inverse(math.inf) == (math.inf, math.inf)
    # int_0^inf c is inf unless c is 0 throughout: no 0.0 * inf
    for cost in (Affine(0.0, 1.0), Affine(1.0, 0.0), Constant(2.0), Polynomial((1.0, 0.5, 2.0)), Monomial(1.0, 2.0)):
        assert cost.primitive(math.inf) == math.inf
    for cost in (Affine(0.0, 0.0), Constant(0.0), Polynomial((0.0, 0.0))):
        assert cost.primitive(math.inf) == 0.0


@pytest.mark.parametrize(
    "cost",
    _with_marginals(ALL_FAMILIES + [Monomial(1.0, 3.0), PwlSquare(1e10), Constant(1e308), Constant(sys.float_info.max)]),
    ids=repr,
)
def test_jump_levels_at_the_top_of_the_float_range_are_levels_in_the_bracket(cost):
    """The level search probes jump_levels(lo, hi) as levels: each is a
    finite float in [lo, hi], or the call raises a GameError."""
    for lo in (0.0, 1.0, 1e300):
        for hi in (1e300, 1e308, sys.float_info.max, math.inf):
            try:
                levels = cost.jump_levels(lo, hi)
            except GameError:
                continue
            assert all(math.isfinite(v) and lo <= v <= hi for v in levels), (lo, hi, levels)


def test_jump_levels_are_where_the_upper_inverse_jumps():
    for cost, lo, hi, expected in [
        (StepGeometric(2.0), 3.0, 64.0, [4.0, 8.0, 16.0, 32.0, 64.0]),
        (StepGeometric(3.0), 1.0, 8.9, [1.0, 3.0]),
        (Constant(5.0), 1.0, 5.0, [5.0]),
        (Constant(5.0), 5.5, 9.0, []),
        (Affine(1.0, 2.0), 0.0, 9.0, []),
    ]:
        assert cost.jump_levels(lo, hi) == expected
        for level in expected:
            assert cost.generalized_inverse(math.nextafter(level, 0.0))[1] < cost.generalized_inverse(level)[1]


def test_geometric_breakpoints_cover_only_the_top_18_decades():
    """breakpoints_within(lo, hi) lists the knots in [max(lo, hi * 1e-18,
    1e-300), hi]: of the 1993 knots 2^k in [1e-300, 1e300], the 60 from
    2^937 (about 1.16e282) up; jump_levels inherits the clamp."""
    knots = StepGeometric(2.0).breakpoints_within(1e-300, 1e300)
    assert knots == [2.0**k for k in range(937, 997)]
    assert knots[0] == pytest.approx(1.16e282, rel=1e-2)
    assert StepGeometric(2.0).jump_levels(1e-300, 1e300) == knots
    assert PwlSquare(2.0).breakpoints_within(1e-300, 1e300) == knots
    assert StepGeometric(2.0).breakpoints_within(0.0, 1e-290) == [2.0**k for k in range(-996, -963)]


def test_point_methods_past_the_float_range_raise_range_errors_not_nan():
    for call in (lambda: StepGeometric(2.0).eval(1e308),
                 lambda: Monomial(1.0, 3.0).eval(1e308),
                 lambda: Monomial(1.0, 3.0).eval_right(1e308),
                 lambda: Monomial(1.0, 3.0).primitive(1e308),
                 lambda: PwlSquare(2.0).marginal_function().eval(8.986697727553101e+224),
                 lambda: PwlSquare(2.0).marginal_function().eval_right(8.986697727553101e+224),
                 lambda: Monomial(1.0, 3.0).derivative_bounds(1e300),
                 lambda: Shifted(Monomial(1.0, 3.0), 1.0).derivative_bounds(sys.float_info.max),
                 lambda: ExpOverX().marginal_function().derivative_bounds(1e300)):
        with pytest.raises(RangeOverflowError):
            call()


def test_saturating_slopes_past_the_float_range_are_their_limits():
    # (1 + x)^2 overflows, and 1/(1 + x)^2 is far under half an ulp of the limit
    for x in (1e300, sys.float_info.max):
        assert SaturatingLinear().derivative_bounds(x) == (1.0, 1.0)
        assert SaturatingLinear().marginal_function().derivative_bounds(x) == (2.0, 2.0)


def test_step_right_limits():
    c = StepGeometric(2.0)
    assert c.eval_right(2.0) == 4.0
    assert c.eval_right(3.0) == 4.0
    se = StepExp(AlphaSequence("factorial"))
    assert se.eval_right_log(6.0) == pytest.approx(24.0 - math.log(24.0))
    assert se.eval_log(6.0) == pytest.approx(6.0 - math.log(6.0))


# ---------------------------------------------------------------------------
# slopes and marginal
# ---------------------------------------------------------------------------


def test_slope_examples():
    assert Affine(1.0, 2.0).derivative_bounds(5.0) == (2.0, 2.0)
    assert Monomial(1.0, 2.0).derivative_bounds(3.0) == (6.0, 6.0)
    assert PwlSquare(2.0).derivative_bounds(1.5) == (3.0, 3.0)  # slope 1+2 on [1, 2]


def test_slopes_agree_with_finite_differences_at_both_ends():
    for c in SMOOTH_FAMILIES:
        for x in (0.7, 1.3, 4.0, 40.0):
            h = 1e-6 * max(1.0, x)
            fd = (c.eval(x + h) - c.eval(x - h)) / (2.0 * h)
            left, right = c.derivative_bounds(x)
            assert left == right == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_slopes_at_kinks_are_the_two_one_sided_slopes():
    assert PwlSquare(2.0).derivative_bounds(2.0) == (3.0, 6.0)  # pieces [1, 2] and [2, 4]
    assert StepGeometric(2.0).derivative_bounds(4.0) == (0.0, math.inf)  # the jump at 4
    assert ExpOverX().derivative_bounds(1.0) == (0.0, 0.0)  # flat, then e^x/x with slope 0 at 1


def _or_inf(method, y: float) -> float:
    """method(y), or inf where it passes the float range."""
    try:
        return method(y)
    except RangeOverflowError:
        return math.inf


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0, 1e10])
def test_pwl_marginal_inverse_stays_on_its_piece_at_the_ends_of_the_float_range(a):
    """At subnormal levels p q is subnormal, and the answer is a point y with
    eval(y) <= level <= eval_right(y): on a piece where eval meets the level,
    or at a knot whose jump holds it.  At the largest float level + p q
    overflows; the answer is still a finite float on the piece (p, q] whose
    knot values eval(p) < level <= eval(q) hold the level."""
    m, knots = PwlSquare(a).marginal_function(), costs._powers(a)[1]
    for level in (5e-324, 9e-323, 1e-315, 2.2e-308):
        y, y_hi = m.generalized_inverse(level)
        assert y == y_hi and m.eval(y) <= level <= _or_inf(m.eval_right, y), level
    level = sys.float_info.max
    y, y_hi = m.generalized_inverse(level)
    i = next(i for i, q in enumerate(knots) if level <= _or_inf(m.eval, q))
    assert y == y_hi and knots[i - 1] <= y <= knots[i] and math.isfinite(y)


def test_pwl_marginal_answers_where_a_squared_overflows():
    # a * a = inf: the next knot's values overflow, so every level up to
    # the largest float is in the jump at the knot 1 or below it
    m = PwlSquare(1e300).marginal_function()
    assert (m.eval(1.0), m.eval_right(1.0)) == (2.0, 1e300)
    assert m.generalized_inverse(1.0) == (0.5, 0.5)
    assert m.generalized_inverse(1e300) == (1.0, 1.0)


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0, 1e10])
def test_lattice_inverses_hold_every_knot_at_both_of_its_values(a):
    """The inverse is the generalized inverse of ``eval``: at every knot q
    whose values are normal floats, the levels eval(q) and eval_right(q)
    both invert to a set that holds q.  And the step's right value at a
    knot is ``eval`` just right of it, the next power of the table."""
    knots = costs._powers(a)[1]
    for cost in (StepGeometric(a), PwlSquare(a), PwlSquare(a).marginal_function()):
        for q in knots[1:]:
            level, right = _or_inf(cost.eval, q), _or_inf(cost.eval_right, q)
            if sys.float_info.min <= level and right < math.inf:
                for v in (level, right):
                    lo, hi = cost.generalized_inverse(v)
                    assert lo <= q <= hi, (cost, q, v)
    step = StepGeometric(a)
    for q in knots[1:-1]:
        assert step.eval_right(q) == step.eval(math.nextafter(q, math.inf)), q


def test_pwl_marginal_inverts_a_level_in_the_jump_near_the_top():
    # a knot's right value a^(2k) (2 + a) holds the level, though level / (2 + a)
    # passes every power of a * a in the float range
    m = PwlSquare(16.429689253466627).marginal_function()
    assert m.generalized_inverse(4.018963468075558e307) == (1.476719544983653e153, 1.476719544983653e153)


def test_monomial_inverse_past_the_float_range_is_a_range_error():
    # below degree 1, (level / coef)^(1 / degree) leaves the float range first
    with pytest.raises(RangeOverflowError):
        Monomial(0.5, 0.5).generalized_inverse(1e300)
    assert Monomial(0.5, 0.5).generalized_inverse(1e100) == (4e200, 4e200)
    # where level / coef itself overflows, as at the largest float
    for coef, degree in ((0.5, 0.5), (0.5, 1.0), (5e-324, 1.5)):
        with pytest.raises(RangeOverflowError):
            Monomial(coef, degree).generalized_inverse(1.7e308)
    assert Monomial(0.5, 0.5).generalized_inverse(math.inf) == (math.inf, math.inf)


@pytest.mark.parametrize("coef, degree", [(0.5, 2.0), (1e-300, 3.0), (1e-300, 1.5), (0.9, 1.01)])
def test_monomial_inverse_where_level_over_coef_overflows(coef, degree):
    # the quotient overflows but its root is a float: level^p / coef^p
    for level in (1e300, 1.7e308, sys.float_info.max):
        with mpmath.workdps(40):
            exact = (mpmath.mpf(level) / mpmath.mpf(coef)) ** (1 / mpmath.mpf(degree))
        try:
            x, hi = Monomial(coef, degree).generalized_inverse(level)
        except RangeOverflowError:
            assert exact > sys.float_info.max, (level, exact)
            continue
        assert x == hi and abs(x - exact) <= 1e-12 * exact, (level, x, exact)


def test_pwl_marginal_has_no_slopes():
    # it jumps at every knot, so no solver reads its slopes: the general
    # solver takes continuous links only
    with pytest.raises(UnsupportedCostError):
        PwlSquare(2.0).marginal_function().derivative_bounds(2.0)
    with pytest.raises(UnsupportedCostError):
        PwlSquare(2.0).marginal_function().derivative_bounds(1.5)


def _marginal_ends(c, x):
    m = c.marginal_function()
    return (m.eval(x), m.eval_right(x))


def test_marginal_examples():
    assert _marginal_ends(Affine(0.0, 1.0), 2.0) == (4.0, 4.0)  # x + x*1 = 2x
    assert _marginal_ends(Affine(1.0, 1.0), 1.0) == (3.0, 3.0)


def test_marginal_pwl_knot_matches_secant_oracle():
    # subdifferential of h(y) = y*c(y) at the knot y = 2 for a = 2; the
    # one-sided secants of h are an independent check of the endpoints
    c = PwlSquare(2.0)
    lo, hi = _marginal_ends(c, 2.0)

    def h(y):
        return y * c.eval(y)

    eps = 1e-9
    left = (h(2.0) - h(2.0 - eps)) / eps
    right = (h(2.0 + eps) - h(2.0)) / eps
    assert lo == pytest.approx(left, rel=1e-6)
    assert hi == pytest.approx(right, rel=1e-6)
    assert (lo, hi) == (10.0, 16.0)


def test_marginal_unsupported_for_steps():
    with pytest.raises(UnsupportedCostError):
        StepGeometric(2.0).marginal_function()
    with pytest.raises(UnsupportedCostError):
        StepExp(AlphaSequence("factorial")).marginal_function()


@pytest.mark.parametrize("c", SMOOTH_FAMILIES + [ExpOverX(), PwlSquare(2.0)], ids=repr)
def test_marginal_function_is_a_cost_function(c):
    m = c.marginal_function()
    assert isinstance(m, CostFunction)
    assert m.is_continuous() == (c.family != "pwl_square")


def test_marginal_function_closed_forms():
    assert Affine(1.0, 2.0).marginal_function() == Affine(1.0, 4.0)
    assert Monomial(2.0, 3.0).marginal_function() == Monomial(8.0, 3.0)
    assert Polynomial((1.0, 2.0)).marginal_function() == Polynomial((1.0, 4.0))
    m = ExpOverX().marginal_function()
    assert m.eval(0.5) == pytest.approx(E)
    assert m.eval(3.0) == pytest.approx(math.exp(3.0))
    # x * c(x) = e^x for x >= 1, so the marginal inverse is the log
    lo, hi = m.generalized_inverse(math.exp(2.5))
    assert lo == hi == pytest.approx(2.5)


def test_marginal_function_matches_derivative_of_x_times_c():
    for c in SMOOTH_FAMILIES:
        m = c.marginal_function()
        for x in (0.5, 2.0, 9.0):
            h = 1e-6 * max(1.0, x)
            fd = ((x + h) * c.eval(x + h) - (x - h) * c.eval(x - h)) / (2.0 * h)
            assert m.eval(x) == pytest.approx(fd, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# primitive
# ---------------------------------------------------------------------------


def _quadrature(cost, hi):
    """Piecewise adaptive quadrature of eval; independent of primitive()."""
    points = sorted(set([0.0, hi] + [b for b in cost.breakpoints_within(0.0, hi)]))
    total = 0.0
    for lo, up in zip(points, points[1:]):
        val, _ = quad(cost.eval, lo, up, limit=200)
        total += val
    return total


PRIMITIVE_FAMILIES = [c for c in SMOOTH_FAMILIES if isinstance(c, (Affine, Constant, Monomial, Polynomial))]


def test_primitive_examples():
    assert Affine(1.0, 2.0).primitive(2.0) == 6.0
    for c in PRIMITIVE_FAMILIES:
        assert c.primitive(0.0) == 0.0


@pytest.mark.parametrize("cost", [c for c in ALL_FAMILIES if c not in PRIMITIVE_FAMILIES], ids=repr)
def test_only_the_polynomial_families_have_a_primitive(cost):
    # the regular-variation checks read the primitive of the polynomial
    # families only; ExpOverX's would be the exponential integral
    with pytest.raises(UnsupportedCostError):
        cost.primitive(2.0)


@pytest.mark.parametrize("cost,hi", [(c, 1000.0) for c in PRIMITIVE_FAMILIES])
def test_primitive_matches_quadrature(cost, hi):
    expected = _quadrature(cost, hi)
    assert cost.primitive(hi) == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------------------
# generalized inverse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", [1e154, 1.4e154, 1e200, sys.float_info.max])
def test_saturating_linear_inverse_stays_finite_where_the_level_squared_overflows(level):
    # x + x/(1+x) = L has x = L - 1 + O(1/L), which rounds to L up here
    assert SaturatingLinear().generalized_inverse(level) == (level, level)


def test_inverse_examples():
    assert Affine(0.0, 1.0).generalized_inverse(5.0) == (5.0, 5.0)
    assert StepGeometric(2.0).generalized_inverse(4.0) == (2.0, 4.0)
    assert Constant(1.0).generalized_inverse(0.5) == (0.0, 0.0)
    # 3 sits strictly between the step values 2 and 4
    assert StepGeometric(2.0).generalized_inverse(3.0) == (2.0, 2.0)
    with pytest.raises(DomainError):
        StepGeometric(2.0).generalized_inverse(-1.0)


def test_inverse_between_steps_matches_brute_scan():
    c = StepGeometric(2.0)
    xs = [i / 500.0 * 6.0 for i in range(1, 501)]
    below = [x for x in xs if c.eval(x) <= 3.0]
    assert max(below) == pytest.approx(2.0, abs=2e-2)  # no x beyond 2 has cost <= 3


def test_inverse_consistency_strictly_increasing():
    cases = [
        (Affine(1.0, 2.0), 7.3),
        (Monomial(2.0, 3.0), 11.0),
        (Polynomial((0.5, 1.0, 1.0)), 9.0),
        (PwlSquare(2.0), 13.0),
        (SaturatingLinear(), 4.2),
        (ExpOverX(), 40.0),
    ]
    for c, level in cases:
        lo, hi = c.generalized_inverse(level)
        assert lo == pytest.approx(hi, rel=1e-12)
        assert c.eval(lo) == pytest.approx(level, rel=1e-10)


@pytest.mark.parametrize("level", [1e-300, 1e-12, 1e-8, 3.0, 1e10])
def test_saturating_linear_inverse_round_trips_at_every_scale(level):
    # below L = 2 the plain root (L-2) + sqrt(L^2+4) cancels: 9e-5 relative
    # error at L = 1e-12
    c = SaturatingLinear()
    x, _ = c.generalized_inverse(level)
    assert abs(c.eval(x) - level) <= 4 * math.ulp(level)


def test_inverse_sandwich_on_step_families():
    c = StepGeometric(2.0)
    for x in (0.7, 1.0, 2.0, 3.3, 4.0, 9.0):
        level = c.eval(x)
        lo, hi = c.generalized_inverse(level)
        eps = 1e-9 * max(lo, 1.0)
        if lo > 0:
            assert c.eval(lo - eps) < level
        assert c.eval(hi) <= level
        assert c.eval_right(hi) >= level


def test_inverse_log_domain_step_exp():
    # the scan compares log(level) with each step's log level
    se = StepExp(AlphaSequence("factorial"))
    level = se.eval(7.0)  # value c(24) on (6, 24]
    assert se.generalized_inverse(level) == (6.0, 24.0)
    assert se.generalized_inverse(0.0) == (0.0, 0.0)
    assert se.generalized_inverse(math.inf) == (math.inf, math.inf)


# ---------------------------------------------------------------------------
# asymptotic values
# ---------------------------------------------------------------------------


def test_asymptotic_values():
    assert Constant(7.0).asymptotic_value() == 7.0
    assert math.isinf(Affine(1.0, 2.0).asymptotic_value())
    assert Shifted(Constant(2.0), 3.0).asymptotic_value() == 5.0
    assert math.isinf(StepGeometric(2.0).asymptotic_value())
    assert Polynomial((4.0,)).asymptotic_value() == 4.0


# ---------------------------------------------------------------------------
# construction validation and serialization
# ---------------------------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(DomainError):
        StepGeometric(1.9)
    with pytest.raises(DomainError):
        PwlSquare(1.0)
    with pytest.raises(DomainError):
        Monomial(0.0, 2.0)
    with pytest.raises(DomainError):
        Polynomial((1.0, -0.5))
    with pytest.raises(DomainError):
        Affine(-1.0, 0.0)
    with pytest.raises(DomainError):
        Shifted(Constant(1.0), -0.1)
    with pytest.raises(DomainError):
        AlphaSequence("explicit", values=(3.0, 2.0))


def test_alpha_sequences():
    fact = AlphaSequence("factorial")
    assert [fact.alpha(k) for k in range(5)] == [0.0, 1.0, 2.0, 6.0, 24.0]
    sup = AlphaSequence("supergeometric", base=2.0)
    assert sup.alpha(2) == 16.0
    expl = AlphaSequence("explicit", values=(1.0, 3.0, 30.0))
    assert expl.alpha(3) == 30.0
    with pytest.raises(DemandBracketError):
        expl.alpha(4)
    assert fact.cover_index(7.0) == 4  # alpha_4 = 24 is the first >= 7


ALPHA_PRESETS = [
    AlphaSequence("factorial"),
    AlphaSequence("supergeometric", base=2.0),
    AlphaSequence("supergeometric", base=3.0),
    AlphaSequence("supergeometric", base=1.01),
    AlphaSequence("supergeometric", base=1e100),
    AlphaSequence("explicit", values=(1.0, 3.0, 30.0)),
    AlphaSequence("explicit", values=(0.5, 2.0, 2.5, 1e9, 1e300)),
]


@pytest.mark.parametrize("base", [1.01, 1.5, 2.0, 3.0, 10.0, 1e100, 1e300])
def test_supergeometric_max_index_is_the_last_finite_alpha(base):
    seq = AlphaSequence("supergeometric", base=base)
    k = seq.max_index()
    assert seq.alpha(k) == base ** (k * k) < math.inf
    with pytest.raises(RangeOverflowError):
        seq.alpha(k + 1)
    with pytest.raises(OverflowError):  # float pow overflows past max_index
        base ** ((k + 1) * (k + 1))


def _scan_cover(seq, x):
    """cover_index's contract by linear scan: smallest j >= 1 with alpha_j >= x."""
    j = 1
    while seq.alpha(j) < x:
        j += 1
        if j > seq.max_index():
            return None
    return j


def _scan_bracket(seq, M):
    """bracket_index's contract by linear scan: 2 alpha_k < M <= 2 alpha_{k+1}."""
    k = 0
    while 2.0 * seq.alpha(k + 1) < M:
        k += 1
        if k + 1 > seq.max_index():
            return None
    return k


@pytest.mark.parametrize("seq", ALPHA_PRESETS, ids=repr)
def test_alpha_lookups_agree_with_a_linear_scan(seq):
    knots = [seq.alpha(j) for j in range(1, seq.max_index() + 1)]
    rng = random.Random(11)
    points = [0.0, 1e-300, 1.0, math.inf] + [10.0 ** rng.uniform(-5.0, 308.0) for _ in range(300)]
    for a in knots:
        points += [a, math.nextafter(a, 0.0), math.nextafter(a, math.inf), 2.0 * a,
                   math.nextafter(2.0 * a, 0.0), math.nextafter(2.0 * a, math.inf)]
    for x in points:
        want = _scan_cover(seq, x)
        if want is None:
            with pytest.raises(DemandBracketError):
                seq.cover_index(x)
        else:
            assert seq.cover_index(x) == want, x
        assert seq.knots_through(x) == tuple([0.0] + knots)[: (want or len(knots)) + 1], x
        if not 0.0 < x < math.inf:  # not in the bracket lattice's range
            continue
        if seq.max_index() < 2:
            with pytest.raises(DemandBracketError):
                seq.bracket_index(x)
            continue
        want = _scan_bracket(seq, x)
        if want is None:
            with pytest.raises(DemandBracketError):
                seq.bracket_index(x)
        else:
            assert seq.bracket_index(x) == want, x


def test_json_round_trip():
    for c in ALL_FAMILIES:
        again = cost_from_spec(json.loads(json.dumps(cost_to_spec(c))))
        assert again == c


def test_json_decimal_strings_parse_exactly():
    c = cost_from_spec({"family": "affine", "a": "1.5", "b": "0.25"})
    assert c == Affine(1.5, 0.25)
    c = cost_from_spec({"family": "step_geometric", "a": "2"})
    assert c == StepGeometric(2.0)


def test_json_unknown_family():
    with pytest.raises(DomainError):
        cost_from_spec({"family": "bpr"})


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"family": "affine"}, "cost spec missing field 'a'"),
        ({"family": "polynomial", "coefficients": 5}, "malformed cost spec: 'int' object is not iterable"),
        ({"family": "shifted", "base": 5, "shift": 1}, "malformed cost spec: 'int' object has no attribute"),
        ({"family": "step_exp", "alpha": []}, "malformed cost spec: 'list' object has no attribute"),
        ("affine", "malformed cost spec: 'str' object has no attribute"),
    ],
    ids=["affine-without-a", "coefficients-not-a-list", "shifted-base-not-an-object", "alpha-not-an-object",
         "spec-not-an-object"],
)
def test_malformed_cost_spec_is_a_domain_error(spec, message):
    # the bare KeyError, TypeError or AttributeError of reading the spec
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        cost_from_spec(spec)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", math.nan, math.inf, "abc"])
@pytest.mark.parametrize(
    "spec",
    [
        {"family": "affine", "a": "BAD", "b": 1},
        {"family": "affine", "a": 0, "b": "BAD"},
        {"family": "constant", "value": "BAD"},
        {"family": "monomial", "coef": "BAD", "degree": 2},
        {"family": "monomial", "coef": 1, "degree": "BAD"},
        {"family": "polynomial", "coefficients": [0, "BAD", 1]},
        {"family": "step_geometric", "a": "BAD"},
        {"family": "pwl_square", "a": "BAD"},
        {"family": "step_exp", "alpha": {"values": [1, "BAD"]}},
        {"family": "step_exp", "alpha": {"preset": "supergeometric", "base": "BAD"}},
        {"family": "shifted", "shift": "BAD", "base": {"family": "affine", "a": 0, "b": 1}},
    ],
    ids=lambda spec: json.dumps(spec),
)
def test_json_rejects_non_finite_parameters(spec, bad):
    text = json.dumps(spec).replace('"BAD"', json.dumps(bad))
    with pytest.raises(DomainError):
        cost_from_spec(json.loads(text))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Affine(math.nan, 1.0),
        lambda: Affine(0.0, math.inf),
        lambda: Constant(math.nan),
        lambda: Monomial(1.0, math.nan),
        lambda: Polynomial((0.0, math.nan)),
        lambda: StepGeometric(math.nan),
        lambda: StepGeometric(math.inf),
        lambda: PwlSquare(math.nan),
        lambda: Shifted(Affine(0.0, 1.0), math.nan),
        lambda: AlphaSequence("explicit", values=(1.0, math.nan)),
        lambda: AlphaSequence("supergeometric", base=math.nan),
    ],
)
def test_constructors_reject_non_finite_parameters(build):
    with pytest.raises(DomainError):
        build()


# ---------------------------------------------------------------------------
# the root finder and false position (the line search's)
# ---------------------------------------------------------------------------


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def _bisection(goes_high, lo: float, hi: float) -> tuple[float, float]:
    """Plain bisection to adjacent floats: the reference ``root`` must match."""
    while True:
        base = max(lo, sys.float_info.min)
        mid = math.sqrt(base) * math.sqrt(hi) if hi > 2.0 * base else lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo, hi
        if goes_high(mid):
            hi = mid
        else:
            lo = mid


_ROOT_TARGETS = [sys.float_info.min, 1e-300, 3e-200, 1e-100, 1e-12, 0.3, 1.0, 7.5, 1e12, 1e100,
                 2e200, 1e300]
_ROOT_TARGETS += [10.0 ** random.Random(7).uniform(-307.0, 300.0) for _ in range(200)]


def _staircase(t):
    return lambda x: 1.0 if x >= t else -1.0


@pytest.mark.parametrize("hi", [1e300, sys.float_info.max])
def test_root_splits_end_on_adjacent_floats_within_64_steps(hi):
    for t in _ROOT_TARGETS:
        f, calls = _counted(_staircase(t))
        lo, up = _bisection(lambda x: not f(x) < 0.0, 0.0, hi)
        assert lo < t <= up == math.nextafter(lo, math.inf)
        assert len(calls) <= 64, t


@pytest.mark.parametrize("hi", [1e300, sys.float_info.max])
def test_root_finds_a_linear_root_in_6_evaluations(hi):
    # the secant lands on the root at once, then closes the far end
    for t in _ROOT_TARGETS:
        f, calls = _counted(lambda x: x - t)
        lo, up = root(f, 0.0, -t, hi, hi - t)
        assert lo < t <= up == math.nextafter(lo, math.inf)
        assert len(calls) <= 6, t


_BRACKET_END = st.floats(min_value=0.0, max_value=sys.float_info.max)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_BRACKET_END, _BRACKET_END, _BRACKET_END, _BRACKET_END))
def test_split_bound_does_not_rise_on_a_sub_bracket(ends):
    # root reads a stale bound until it fails: it must never be below the current one
    lo, sub_lo, sub_hi, hi = sorted(ends)
    assume(sub_lo < sub_hi)
    assert _split_bound(sub_lo, sub_hi) <= _split_bound(lo, hi)


def test_split_bound_bounds_bisection():
    assert _split_bound(0.0, sys.float_info.max) == 64
    rng = random.Random(11)
    for _ in range(3000):
        lo, hi = sorted(10.0 ** rng.uniform(-323.0, 308.0) for _ in range(2))
        lo = 0.0 if rng.random() < 0.3 else lo
        t = rng.choice([lo + (hi - lo) * rng.random(), math.nextafter(lo, hi), hi])
        if lo < t <= hi:
            f, calls = _counted(_staircase(t))
            assert _bisection(lambda x: not f(x) < 0.0, lo, hi) == root(_staircase(t), lo, -1.0, hi, 1.0)
            assert len(calls) <= _split_bound(lo, hi), (lo, hi, t)


@pytest.mark.parametrize(
    "shape",
    [_staircase, lambda t: lambda x: x - t, lambda t: lambda x: math.atan(1e9 * (x / t - 1.0))],
    ids=["staircase", "linear", "steep"],
)
def test_root_spends_at_most_root_slack_over_the_split_bound(shape):
    """Secant steps never cost more than ROOT_SLACK evaluations over the
    bound on bisection from the same bracket, and end where it ends."""
    rng = random.Random(13)
    for _ in range(1000):
        lo, hi = sorted(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        lo = 0.0 if rng.random() < 0.3 else lo
        t = 10.0 ** rng.uniform(math.log10(max(lo, 1e-300)), math.log10(hi))
        if lo < t < hi:
            g = shape(t)
            f, calls = _counted(g)
            assert root(f, lo, g(lo), hi, g(hi)) == _bisection(lambda x: not g(x) < 0.0, lo, hi)
            assert len(calls) <= _split_bound(lo, hi) + ROOT_SLACK, (lo, hi, t)


def test_polynomial_inverse_matches_bisection_in_few_evaluations(monkeypatch):
    """On random polynomials and levels on [1e-300, 1e300], ``root`` lands on
    the pair plain bisection finds.  Over 20000 such draws its seeded
    bracket took at most 13 evaluations (bisection: 55-57)."""
    evaluations = []
    real_root = costs.root

    def counted(f, *bracket):
        return real_root(lambda x: evaluations.append(x) or f(x), *bracket)

    monkeypatch.setattr(costs, "root", counted)
    rng = random.Random(3)
    checked = 0
    while checked < 1500:
        degree = rng.randint(1, 8)
        coefs = [10.0 ** rng.uniform(-8, 8) if rng.random() < 0.6 else 0.0 for _ in range(degree + 1)]
        coefs[rng.randint(1, degree)] = 10.0 ** rng.uniform(-8, 8)
        level = 10.0 ** rng.uniform(-300, 300)
        if level <= coefs[0]:
            continue

        def horner(t):
            acc = 0.0
            for c in reversed(coefs):
                acc = acc * t + c
            return acc

        lo, hi = _bisection(lambda t: not horner(t) < level, 0.0, 2.0**996)
        if horner(hi) < level:  # beyond the inverse's range
            continue
        evaluations.clear()
        x = 0.5 * (lo + hi)
        assert Polynomial(tuple(coefs)).generalized_inverse(level) == (x, x), (coefs, level)
        assert len(evaluations) <= 16, (coefs, level)
        checked += 1


def _unseeded_polynomial_inverse(coefs, level):
    """x+ of a strictly increasing polynomial at a level above c0, from the
    bracket the inverse takes above degree 2: the reference for the seeded
    bracket of degrees 1 and 2."""
    def excess(t):
        acc = 0.0
        for c in reversed(coefs):
            acc = acc * t + c
        return acc - level

    cap = costs._POLY_BRACKET_CAP
    lo, hi = 0.0, min(cap, *((level - coefs[0]) ** (1.0 / j) / c ** (1.0 / j)
                             for j, c in enumerate(coefs) if j and c))
    f_lo, f_hi, step = coefs[0] - level, excess(hi), 2.0**-48
    while f_hi < 0.0:
        if hi >= cap:
            raise RangeOverflowError("polynomial inverse bracket overflow")
        lo, f_lo = hi, f_hi
        hi, step = min(hi + max(hi * step, math.ulp(hi)), cap), 2.0 * step
        f_hi = excess(hi)
    lo, hi = root(excess, lo, f_lo, hi, f_hi)
    return (0.5 * (lo + hi),) * 2


def test_seeded_quadratic_inverse_matches_the_unseeded_one():
    """The closed-form seed changes the bracket, never the answer: 20000
    polynomials of degree 1 and 2 over the float range, levels near c0 too."""
    rng = random.Random(17)
    for _ in range(20000):
        coefs = [10.0 ** rng.uniform(-150, 150) if rng.random() < 0.7 else 0.0 for _ in range(rng.randint(2, 3))]
        coefs[rng.randint(1, len(coefs) - 1)] = 10.0 ** rng.uniform(-150, 150)
        r = 10.0 ** rng.uniform(-300, 300)
        level = coefs[0] + r if rng.random() < 0.8 else coefs[0] * (1.0 + 2.0 ** -rng.randint(1, 52))
        if not coefs[0] < level < math.inf:
            continue
        try:
            expected = _unseeded_polynomial_inverse(coefs, level)
        except RangeOverflowError:
            with pytest.raises(RangeOverflowError):
                Polynomial(tuple(coefs)).generalized_inverse(level)
            continue
        assert Polynomial(tuple(coefs)).generalized_inverse(level) == expected, (coefs, level)


def _float_rank(x: float) -> int:
    """The position of a float x >= 0 among the floats: adjacent ones differ by 1."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _count_excess_evaluations(monkeypatch) -> list:
    """Record every point at which an inverse evaluates its cost or excess:
    in the unit steps, the Newton steps, the power bracket and ``root``
    alike (not in the saturating marginal's wide bracket, which calls it
    directly)."""
    evaluations = []

    def counting(fn, at):
        def wrapped(*args):
            f = args[at]
            return fn(*args[:at], lambda x: evaluations.append(x) or f(x), *args[at + 1:])
        return wrapped

    for name, at in (("_unit_pair", 1), ("_newton", 1), ("_power_bracket", 2), ("root", 0)):
        monkeypatch.setattr(costs, name, counting(getattr(costs, name), at))
    return evaluations


def _no_root(*args):
    raise AssertionError("root called")


def _horner(coefs, t: float) -> float:
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * t + c
    return acc


def _crossing_pair(value, level: float, x: float):
    """The adjacent floats (lo, hi) with value(lo) < level <= value(hi) whose
    midpoint rounds to an inverse's answer x, read back from x (the midpoint
    rounds onto lo or hi); None where no such pair gives x."""
    lo = x if value(x) < level else math.nextafter(x, 0.0)
    hi = math.nextafter(lo, math.inf)
    return (lo, hi) if value(lo) < level <= value(hi) and 0.5 * (lo + hi) == x else None


def test_designated_quadratic_inverse_closes_without_root(monkeypatch):
    """3x^2 + x (the designated instance's link) and its marginal 9x^2 + 2x
    close every pair from the closed form: ``root`` is never called, and an
    inverse evaluates the polynomial at most 5 times (x0, then 4 unit
    steps), the most measured on the benchmark's levels.  The same holds at
    20000 levels log-uniform on [1e-12, 1e12], each answer the midpoint of
    the pair where Horner's rule turns >= level."""
    evaluations = _count_excess_evaluations(monkeypatch)
    monkeypatch.setattr(costs, "root", _no_root)
    rng = random.Random(36)
    link = Polynomial((0.0, 1.0, 3.0))
    assert link.marginal_function() == Polynomial((0.0, 2.0, 9.0))
    for p in (link, link.marginal_function()):
        for _ in range(2000):
            level = 10.0 ** rng.uniform(-6.0, 18.0)
            evaluations.clear()
            assert p.generalized_inverse(level) == _unseeded_polynomial_inverse(p.coefficients, level)
            assert len(evaluations) <= 5, (p, level)
        for _ in range(20000):
            level = 10.0 ** rng.uniform(-12.0, 12.0)
            evaluations.clear()
            x, x_hi = p.generalized_inverse(level)
            assert x == x_hi and _crossing_pair(lambda t: _horner(p.coefficients, t), level, x), (p, level)
            assert len(evaluations) <= 5, (p, level)


def _coefficient(rng) -> float:
    return rng.choice([0.0, -0.0, 10.0 ** rng.uniform(-300.0, -100.0), 10.0 ** rng.uniform(-8.0, 8.0),
                       10.0 ** rng.uniform(100.0, 300.0)])


def test_quadratic_inverse_answers_the_midpoint_of_horners_crossing():
    """The referee for degree 1 and 2: over coefficients drawn from 0.0,
    -0.0, tiny, moderate and huge ones (so c1 = 0, c2 = 0 and c0 > 0 all
    occur) and levels from subnormal to the largest float, the answer is
    the midpoint of the adjacent floats where Horner's loop, which starts
    0.0 t + c2, turns >= level: (0, 0) at or below c0, and a
    RangeOverflowError only where that pair lies past _POLY_BRACKET_CAP."""
    rng = random.Random(39)
    cap = costs._POLY_BRACKET_CAP
    checked = 0
    while checked < 20000:
        coefs = tuple(_coefficient(rng) for _ in range(rng.randint(2, 3)))
        if not max(coefs[1:]) > 0.0:
            continue
        value = lambda t: _horner(coefs, t)  # noqa: E731
        level = rng.choice([
            2.0 ** rng.uniform(-1074.0, 1024.0),
            coefs[0] * (1.0 + 2.0 ** -rng.randint(1, 60)),
            coefs[0] + 2.0 ** rng.uniform(-1074.0, 1024.0),
            sys.float_info.max,
        ])
        if level <= coefs[0]:
            assert Polynomial(coefs).generalized_inverse(level) == (0.0, 0.0)
            continue
        checked += 1
        if value(cap) < level:
            with pytest.raises(RangeOverflowError):
                Polynomial(coefs).generalized_inverse(level)
            continue
        x, x_hi = Polynomial(coefs).generalized_inverse(level)
        assert x == x_hi and _crossing_pair(value, level, x), (coefs, level)


def test_seeded_quadratic_draws_take_few_evaluations(monkeypatch):
    """Over the 20000 draws of the test above, every evaluation counted
    (unit steps, power bracket and ``root``), an inverse takes at most 5,
    the seed and 4 unit steps: no draw falls back to ``root``, which from
    the power bracket may take 67.  The most measured is 4."""
    evaluations = _count_excess_evaluations(monkeypatch)
    inverse = Polynomial.generalized_inverse
    counts = []

    def counted(self, level):
        evaluations.clear()
        try:
            return inverse(self, level)
        finally:
            counts.append(len(evaluations))

    monkeypatch.setattr(Polynomial, "generalized_inverse", counted)
    test_seeded_quadratic_inverse_matches_the_unseeded_one()
    assert len(counts) > 10000 and max(counts) <= 5


@pytest.mark.parametrize("coefs, level", [
    # subnormal level: c1 x rounds on a grid of 5e-324, far coarser than x's ulps
    ((0.0, 1.2790338675859795e-291), 7.55900124438624e-310),
    ((0.0, 7.295946977632685e-110), 4.17945437430763e-310),
    # subnormal partial sum c1 x below a normal c0
    ((1.714149734365914e-299, 3.905246272679885e-252), 1.7141497343659147e-299),
], ids=["subnormal-level-large-root", "subnormal-level-small-root", "subnormal-partial-sum"])
def test_quadratic_inverse_falls_back_where_the_closed_form_is_far(monkeypatch, coefs, level):
    """Draws of a seeded search over the float range whose closed form lies
    more than 4 ulps from the answer: the unit steps give up, ``root``
    closes the pair from ``_power_bracket``, and the answer is the unseeded
    one."""
    calls = []
    for name in ("_unit_pair", "_power_bracket"):
        real = getattr(costs, name)
        monkeypatch.setattr(costs, name, lambda *a, real=real, name=name: calls.append((name, real(*a))) or calls[-1][1])
    expected = _unseeded_polynomial_inverse(coefs, level)
    assert Polynomial(coefs).generalized_inverse(level) == expected
    assert calls[0] == ("_unit_pair", None)
    assert [name for name, _ in calls[1:]] == ["_power_bracket"]


def test_root_counts_nan_as_non_negative():
    # undefined above 0.6: the NaN side is the upper end of the bracket
    f = lambda t: t - 0.2 if t <= 0.6 else math.nan  # noqa: E731
    lo, hi = root(f, 0.0, -0.2, 1.0, math.nan)
    assert lo < 0.2 <= hi == math.nextafter(lo, 1.0)


def test_root_splits_where_the_halved_values_meet():
    # halving f_lo = -5e-324 twice gives -0.0 = f_hi: no secant point exists
    f = lambda x: 0.0 if x >= 1e-300 else -5e-324  # noqa: E731
    lo, hi = root(f, 0.0, -5e-324, 1.0, 0.0)
    assert lo < 1e-300 <= hi == math.nextafter(lo, 1.0)


def test_polynomial_inverse_where_the_bracket_bound_underflows():
    # (level - c0) / c_j rounds to 0 here; the bound is taken root by root
    assert Polynomial((0.0, 1e10)).generalized_inverse(1e-315) == (0.0, 0.0)
    lo, hi = _bisection(lambda t: 1e10 * t * t >= 1e-315, 0.0, 1.0)
    x = 0.5 * (lo + hi)
    assert Polynomial((0.0, 0.0, 1e10)).generalized_inverse(1e-315) == (x, x) != (0.0, 0.0)


@pytest.mark.parametrize("coefs, mean, most", [
    ((1.0, 0.0, 0.0, 0.0, 0.15), 3.1, 4),
    ((1.0, 2.0, 0.0, 0.5), 5.0, 9),
], ids=["bpr", "cubic"])
def test_newton_seeded_polynomial_inverse_takes_few_evaluations(monkeypatch, coefs, mean, most):
    """Above degree 2 the inverse seeds its unit steps with Newton steps
    from the power bound: at 2000 levels 1 + 10^U(-3, 9) it ends where
    plain bisection ends, and counting every Horner evaluation (Newton
    steps and unit steps alike) it took 3.01 on average and at most 4 on
    the BPR link, 4.94 and 9 on the cubic.  With ``root`` from the bracket
    x0 (1 -+ 2^-48) after the Newton steps it took 5.96 and 12, and 8.21
    and 13; from ``_power_bracket`` alone 9.16 and 10.02, at most 67 on
    each."""
    evaluations = _count_excess_evaluations(monkeypatch)
    p = Polynomial(coefs)
    rng = random.Random(37)
    counts = []
    for _ in range(2000):
        level = 1.0 + 10.0 ** rng.uniform(-3.0, 9.0)
        lo, hi = _bisection(lambda t: not p.eval(t) < level, 0.0, 2.0**996)
        evaluations.clear()
        assert p.generalized_inverse(level) == (0.5 * (lo + hi),) * 2, level
        counts.append(len(evaluations))
    assert sum(counts) / len(counts) < mean and max(counts) <= most


def test_newton_seeded_inverse_falls_back_to_the_power_bracket(monkeypatch):
    """Where the unit steps from the Newton seed do not close the pair,
    ``root`` closes it from ``_power_bracket``: on 2x^5 + x^3 + x at 20000
    levels 10^U(-12, 12) that happens at 3 of them, and every answer is the
    unseeded one."""
    brackets = []
    real = costs._power_bracket
    monkeypatch.setattr(costs, "_power_bracket", lambda *a: brackets.append(real(*a)) or brackets[-1])
    coefs = (0.0, 1.0, 0.0, 1.0, 0.0, 2.0)
    rng = random.Random(37)
    for _ in range(20000):
        level = 10.0 ** rng.uniform(-12.0, 12.0)
        assert Polynomial(coefs).generalized_inverse(level) == _unseeded_polynomial_inverse(coefs, level), level
    assert len(brackets) == 3


_SATURATING_MARGINAL = SaturatingLinear().marginal_function()


def _wide_saturating_marginal_pair(level):
    """The adjacent floats where the saturating marginal's eval turns >=
    ``level`` > 0, as ``root`` finds them from the wide bracket [(level -
    1)/2, level/2]: the reference for the Newton-seeded inverse."""
    def excess(t):
        return _SATURATING_MARGINAL.eval(t) - level

    lo, hi = max(0.5 * (level - 1.0) * (1.0 - 2.0**-50), 0.0), 0.5 * level
    f_lo = excess(lo)
    if not f_lo < 0.0:
        lo, f_lo = 0.0, -level
    f_hi = excess(hi)
    if f_hi < 0.0:
        hi, f_hi = level, excess(level)
    return root(excess, lo, f_lo, hi, f_hi)


def test_seeded_saturating_marginal_inverse_matches_the_wide_search():
    """Every answer is the midpoint of adjacent floats where eval crosses
    the level.  The closed-form seed changes the path, and the answer only
    where eval, which is not monotone in floats, crosses the level more than
    once: then both pairs are crossings, at most 4 units in the last place
    apart.  At this seed 18 of the 100,004 levels move, all in [0.10, 1.45]."""
    rng = random.Random(37)
    levels = [10.0 ** rng.uniform(-12.0, 12.0) for _ in range(100000)] + [5e-324, 1e-300, 1e300, 1.7e308]
    moved = []
    for level in levels:
        expected = _wide_saturating_marginal_pair(level)
        x, x_hi = _SATURATING_MARGINAL.generalized_inverse(level)
        pair = _crossing_pair(_SATURATING_MARGINAL.eval, level, x)
        assert x == x_hi and pair is not None, level
        if pair != expected:
            moved.append(level)
            lo, hi = expected
            assert hi == math.nextafter(lo, math.inf), level
            assert _SATURATING_MARGINAL.eval(lo) < level <= _SATURATING_MARGINAL.eval(hi), level
            assert abs(_float_rank(pair[0]) - _float_rank(lo)) <= 4, level
    assert len(moved) <= 1e-3 * len(levels)
    assert 0.05 <= min(moved, default=1.0) and max(moved, default=1.0) <= 1.5


def _saturating_marginal_root(level: float) -> float:
    """The exact x+ of the saturating marginal at ``level`` > 0, to 50 digits
    at least: bisection of [level/4, level/2] (4x >= eval(x) >= 2x) on the
    cubic 2x^3 + (5 - L) x^2 + (4 - 2L) x - L, which is (eval(x) - L)(1 + x)^2
    and so changes sign at the root, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        L = mpmath.mpf(level)
        lo, hi = L / 4, L / 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if ((2 * mid + 5 - L) * mid + 4 - 2 * L) * mid - L < 0:
                lo = mid
            else:
                hi = mid
        return float(hi)


def test_saturating_marginal_inverse_is_within_4_ulps_of_the_exact_root():
    """The referee: at 300 levels log-uniform over the float range and at
    its ends, each answer lies within 4 units in the last place of the
    50-digit root of eval(x) = level."""
    rng = random.Random(39)
    levels = [2.0 ** rng.uniform(-1074.0, 1024.0) for _ in range(300)]
    levels += [5e-324, 2e-309, 1e-300, 2.0**-13, math.nextafter(2.0**-13, 0.0), 1.0, 1e300, sys.float_info.max]
    for level in levels:
        x, _ = _SATURATING_MARGINAL.generalized_inverse(level)
        assert abs(_float_rank(x) - _float_rank(_saturating_marginal_root(level))) <= 4, level


def test_seeded_saturating_marginal_inverse_takes_few_evaluations(monkeypatch):
    """Counting every evaluation of the marginal (the Newton step and the
    unit steps), an inverse at 20000 levels log-uniform on [1e-12, 1e12]
    took 3.11 on average and at most 6, and never called ``root``.  From
    the Newton-seeded bracket of 2beaebb it took 5.24 and 12, from the wide
    bracket 7.25 and 67."""
    evaluations = _count_excess_evaluations(monkeypatch)
    monkeypatch.setattr(costs, "root", _no_root)
    rng = random.Random(37)
    counts = []
    for _ in range(20000):
        level = 10.0 ** rng.uniform(-12.0, 12.0)
        evaluations.clear()
        _SATURATING_MARGINAL.generalized_inverse(level)
        counts.append(len(evaluations))
    assert sum(counts) / len(counts) < 3.2 and max(counts) <= 6


@pytest.mark.parametrize("level", [5e-324, 2e-309])
def test_saturating_marginal_inverse_falls_back_at_subnormal_levels(monkeypatch, level):
    """The unit steps close the pair at subnormal levels too; where they
    give up, ``root`` answers from the wide bracket."""
    lo, hi = _wide_saturating_marginal_pair(level)
    assert _SATURATING_MARGINAL.generalized_inverse(level) == (0.5 * (lo + hi),) * 2
    pairs = []
    real = costs.root
    monkeypatch.setattr(costs, "_unit_pair", lambda *a: None)
    monkeypatch.setattr(costs, "root", lambda *a: pairs.append(real(*a)) or pairs[-1])
    assert _SATURATING_MARGINAL.generalized_inverse(level) == (0.5 * (lo + hi),) * 2
    assert pairs == [(lo, hi)]


@pytest.mark.parametrize("x", [0.0, 0.25, 0.999, 1.5, 3.0, 40.0])
@pytest.mark.parametrize(
    "marginal", [SaturatingLinear().marginal_function(), ExpOverX().marginal_function()],
    ids=["saturating", "exp-over-x"],
)
def test_private_marginals_give_their_slopes(marginal, x):
    # the general solver's Newton moves read them; central differences agree
    left, right = marginal.derivative_bounds(x)
    assert left == right
    if x > 0:
        h = 1e-6 * max(x, 1.0)
        slope = (marginal.eval(x + h) - marginal.eval(x - h)) / (2.0 * h)
        assert left == pytest.approx(slope, rel=1e-6, abs=1e-9)


def test_exp_marginal_slope_kinks_at_one():
    assert ExpOverX().marginal_function().derivative_bounds(1.0) == (0.0, E)


def test_saturating_marginal_slope_closed_form():
    # d/dx [2x + 1 - 1/(1+x)^2] = 2 + 2/(1+x)^3
    d = SaturatingLinear().marginal_function().derivative_bounds
    assert d(0.0) == (4.0, 4.0)
    assert d(1.0) == (2.25, 2.25)


@pytest.mark.parametrize(
    "cost",
    [
        Affine(1.0, 2.0), Constant(1.0), Monomial(1.0, 0.5), Monomial(2.0, 1.0), Monomial(1.0, 3.0),
        Polynomial((1.0, 0.0, 2.0)), SaturatingLinear(), PwlSquare(2.0), ExpOverX(),
        Shifted(Monomial(1.0, 0.5), 1.0), SaturatingLinear().marginal_function(),
        ExpOverX().marginal_function(),
    ],
    ids=repr,
)
def test_continuous_families_give_a_slope_at_zero(cost):
    # a general network's empty paths start their edges at 0, where the
    # Newton moves read the slope; sqrt x's is infinite there
    left, right = cost.derivative_bounds(0.0)
    assert left == right and right >= 0.0
    assert math.isinf(right) == (cost in (Monomial(1.0, 0.5), Shifted(Monomial(1.0, 0.5), 1.0)))
