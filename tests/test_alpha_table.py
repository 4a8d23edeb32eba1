"""The exponential game's knots come from one table, ``AlphaSequence``.

``StepExp``'s inverse and the CLI's breakpoint hints read the knots
through ``knots_through``.  Each is checked
here against the hand-built ``alpha(j)`` loop it replaced, kept below as a
reference, on seeded random levels, demands and ranges.
"""

import math
import random
import sys

import pytest

from wardrop.cli import auto_breakpoints
from wardrop.costs import AlphaSequence, StepExp, _log_exp_over_x
from wardrop.errors import DemandBracketError, RangeOverflowError
from wardrop.instances import exp_game

SEQUENCES = [
    AlphaSequence("factorial"),
    AlphaSequence("supergeometric"),
    AlphaSequence("supergeometric", base=1.01),
    AlphaSequence("explicit", values=(0.5, 2.0, 2.5, 1e9, 1e300)),
]


def _scan_inverse(se: StepExp, level: float) -> tuple[float, float]:
    """The inverse by the former route: level -> its log -> the same scan."""
    if level == 0:
        return (0.0, 0.0)
    target = math.log(level)
    j = 1
    while _log_exp_over_x(se.alphas.alpha(j)) < target:
        j += 1
        if j > se.alphas.max_index():
            return (math.inf, math.inf)
    x_minus = se.alphas.alpha(j - 1)
    x_plus = se.alphas.alpha(j) if _log_exp_over_x(se.alphas.alpha(j)) <= target else x_minus
    return (x_minus, x_plus)


def _loop_breakpoints(alphas: AlphaSequence, M_lo: float, M_hi: float) -> list[float]:
    """The exp branch of ``auto_breakpoints`` as an ``alpha(k)`` loop."""
    out = []
    for k in range(alphas.max_index()):
        points = (2.0 * alphas.alpha(k), alphas.alpha(k) + alphas.alpha(k + 1))
        out.extend(p for p in points if M_lo <= p <= M_hi)
        if alphas.alpha(k) > M_hi:
            break
    return sorted(out)


def _finite_knots(seq: AlphaSequence) -> list[float]:
    """alpha_1, alpha_2, ... while the step's value e^alpha / alpha is a float."""
    return [a for a in seq.knots_through(math.inf)[1:] if _log_exp_over_x(a) < 709.0]


def _knot_neighbours(knots) -> list[float]:
    return [y for a in knots for y in (a, math.nextafter(a, 0.0), math.nextafter(a, math.inf))]


@pytest.mark.parametrize("seq", SEQUENCES, ids=repr)
def test_inverse_matches_the_logvalue_scan(seq):
    se = StepExp(seq)
    rng = random.Random(18)
    levels = [0.0, 5e-324, 1e-300, 1.0, math.e, 3.0, sys.float_info.max, math.inf]
    levels += [10.0 ** rng.uniform(-300.0, 308.0) for _ in range(2000)]
    levels += [math.exp(rng.uniform(0.0, 709.0)) for _ in range(1000)]
    step_levels = [math.exp(_log_exp_over_x(a)) for a in _finite_knots(seq)]
    levels += _knot_neighbours(step_levels)
    for level in levels:
        assert se.generalized_inverse(level) == _scan_inverse(se, level), level


@pytest.mark.parametrize("seq", SEQUENCES, ids=repr)
def test_breakpoint_hints_match_the_alpha_loop(seq):
    net = exp_game(seq)
    rng = random.Random(18)
    ranges = []
    for _ in range(1000):
        lo, hi = sorted(10.0 ** rng.uniform(-3.0, 308.0) for _ in range(2))
        ranges.append((lo, hi))
    knots = seq.knots_through(math.inf)  # from alpha_0 = 0, whose split point is alpha_1
    edges = [2.0 * a for a in knots] + [a + b for a, b in zip(knots, knots[1:])]
    for p in _knot_neighbours(e for e in edges if 0.0 < e < math.inf):
        ranges += [(p, 1e308), (1e-3, p), (p, p)]
    for lo, hi in ranges:
        assert auto_breakpoints(net, lo, hi) == _loop_breakpoints(seq, lo, hi), (lo, hi)


def test_eval_refuses_past_the_floats_or_the_table():
    se = StepExp(AlphaSequence("factorial"))
    with pytest.raises(RangeOverflowError):
        se.eval(121.0)  # the step up to 6! = 720 is beyond floats
    short = StepExp(AlphaSequence("explicit", values=(1.0, 3.0, 30.0)))
    with pytest.raises(DemandBracketError):
        short.eval(31.0)
