"""The exact optima's bounded scans against full scans.

Each referee below is a copy of one exact optimum as it stood before its
scan was bounded, with no cut and no window: it scores every candidate of
every piece from the bottom of ``_powers`` (from alpha_0 for the exponential
game) up to the piece holding M, and takes the first least value in that
order, the corners 0 and M first.  The step referee flags over the rows of
every piece.  A candidate whose (M - y)^2 (step) or (M - y)^3 (pwl)
overflows scores +inf.  Each solver must give the same flow, cost and flag by
``repr``, or the same error class and text, on seeded log-uniform demands,
on the knots a^k (alpha_k), 2a^k and a^k + a^(k+1) with their float
neighbours, and where the corner y = 0's objective, the bound of the
pieces below the optimum, overflows while the optimum does not.

A full scan passes over up to 2100 pieces per demand, so the knots are
those in [1e-10, 1e10] and the 30 at each end of ``_powers``, where the
scans meet underflow and overflow.
"""

import math
import random

import pytest

from wardrop.costs import AlphaSequence, PwlSquare, StepGeometric, _chord, _log_exp_over_x, _period_index, _piece, _powers
from wardrop.equilibrium import _typed_failures
from wardrop.errors import RangeOverflowError
from wardrop.logdomain import LogValue, log_add
from wardrop.network import FlowProfile
from wardrop.optimum import OptimumSolution, opt_parallel_exp_log, opt_parallel_pwl_square, opt_parallel_step


def _full_scan(M, top, pieces, objective):
    """Every candidate of ``pieces`` and the corners, inserted 0, M, then
    piece by piece upward, a y found twice keeping its last label; the first
    least value wins."""
    found = {0.0: (-1, 0.0, 0.0), M: (-1, *top)}
    for j, lo, hi, y in pieces:
        if y is not None:
            found[y] = (j, lo, hi) if y > lo else (j - 1, lo, lo)
        if hi <= M:
            found[hi] = (j, lo, hi)
    scores = {y: (objective(y, lo, hi), label) for y, (label, lo, hi) in found.items()}
    return min(scores, key=lambda y: scores[y][0]), scores


@_typed_failures
def _full_step(a, M):
    StepGeometric(a)
    k = _period_index(a, M)
    k0, table = _powers(a)
    k_top, lo_top, c_top = _piece(a, M)
    pieces = []
    for j in range(k0, k_top):
        aj, aj1 = table[j - k0], table[j + 1 - k0]
        pieces.append((j, aj, aj1, min(max(M - aj1 / 2.0, aj), aj1)))

    def objective(y, lo, hi):
        try:
            square = (M - y) ** 2
        except OverflowError:
            return math.inf
        return y * hi + square

    rows = {j: objective(y, lo, hi) for j, lo, hi, y in pieces}
    y_star, scores = _full_scan(M, (lo_top, c_top), pieces, objective)
    paper = [rows[j] for j in (k - 1, k) if j in rows]
    flag = None
    if not paper or min(paper) > min(rows.values()) * (1.0 + 1e-12):
        flag = "optimal interval outside {k-1, k}"
    return OptimumSolution(FlowProfile((M - y_star, y_star), M), scores[y_star][0], "step-interval", flag=flag)


@_typed_failures
def _full_pwl(a, M):
    PwlSquare(a)
    k_anchor, p_top, q_top = _piece(a, M)
    k0, table = _powers(a)
    pieces = []
    for k in range(k0 + 1, k_anchor + 1):
        p, q = table[k - 1 - k0], table[k - k0]
        b = 6.0 * M + 2.0 * (p + q)
        disc = b * b - 12.0 * (3.0 * M * M + p * q)
        root = (b - math.sqrt(disc)) / 6.0 if disc >= 0.0 else math.nan
        pieces.append((k, p, q, root if p < root < q and 0.0 < root <= M else None))

    def objective(y, p, q):
        try:
            cube = (M - y) ** 3
        except OverflowError:
            return math.inf
        return cube + y * _chord(p, q, y)

    y_star, scores = _full_scan(M, (p_top, q_top), pieces, objective)
    best = scores[y_star][0]
    if best == math.inf:
        raise RangeOverflowError(f"every pwl-square candidate overflows at M={float(M)!r}")
    return OptimumSolution(FlowProfile((M - y_star, y_star), M), best, "pwl-candidates")


@_typed_failures
def _full_exp(alphas, M):
    k = alphas.bracket_index(M)
    alphas.cover_index(M)
    knots = alphas.knots_through(M)
    pieces = [(j, aj, aj1, min(max(M - aj1 + math.log(max(aj1, 1.0)), aj), aj1, M))
              for j, (aj, aj1) in enumerate(zip(knots, knots[1:]))]

    def objective(y, lo, hi):
        x = M - y
        t = math.log(x) + _log_exp_over_x(x) if x > 0 else -math.inf
        u = math.log(y) + _log_exp_over_x(hi) if y > 0 else -math.inf
        return log_add(t, u)

    y_star, scores = _full_scan(M, knots[-2:], pieces, objective)
    log_value, label = scores[y_star]
    flag = None
    if label not in (k - 1, k, k + 1):
        flag = f"optimal piece j={label} outside the candidate set around k={k}"
    return OptimumSolution(FlowProfile((M - y_star, y_star), M), LogValue(log_value), "exp-candidates", flag=flag)


def _neighbours(v):
    return [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]


def _knot_demands(knots):
    """Each knot v, 2v and v + w for the next knot w, with float neighbours."""
    meets = [m for v, w in zip(knots, knots[1:]) for m in (v, 2.0 * v, v + w)]
    return [y for m in meets if 0.0 < m < math.inf for y in _neighbours(m)]


def _geometric_demands(a, seed):
    rng = random.Random(seed)
    table = _powers(a)[1][1:]
    middle = [q for q in table if 1e-10 <= q <= 1e10]
    return [*(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(200)), *_knot_demands(table[:30]),
            *_knot_demands(middle), *_knot_demands(table[-30:])]


def _outcome(solve, instance, M):
    try:
        return repr(solve(instance, M))
    except Exception as exc:  # noqa: BLE001 - a failure must match too
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
def test_step_scan_matches_the_full_scan(a):
    # M^2, the corner y = 0, overflows past M = 1.34e154, the optimum past about 1.9e154
    rng = random.Random(20 + int(a))
    overflowing = [1.3e154 * 1.5 ** rng.random() for _ in range(30)]
    for M in _geometric_demands(a, int(a)) + overflowing:
        assert _outcome(opt_parallel_step, a, M) == _outcome(_full_step, a, M), M
    answered = [M for M in overflowing if "Error" not in _outcome(opt_parallel_step, a, M)]
    assert 10 < len(answered) < len(overflowing)


@pytest.mark.parametrize("a", [2.0, 3.0])
def test_pwl_scan_matches_the_full_scan(a):
    # (M - y)^3 overflows past M = 5.64e102 at y = 0, the optimum past about 8.7e102
    rng = random.Random(10 + int(a))
    overflowing = [5.7e102 * 1.7 ** rng.random() for _ in range(60)]
    for M in _geometric_demands(a, int(a)) + overflowing:
        assert _outcome(opt_parallel_pwl_square, a, M) == _outcome(_full_pwl, a, M), M
    answered = [M for M in overflowing if "Error" not in _outcome(opt_parallel_pwl_square, a, M)]
    assert 10 < len(answered) < len(overflowing)


@pytest.mark.parametrize("alphas", [AlphaSequence("factorial"), AlphaSequence("supergeometric", base=2.0)],
                         ids=["factorial", "supergeometric:2"])
def test_exp_scan_matches_the_full_scan(alphas):
    rng = random.Random(9)
    knots = alphas.knots_through(math.inf)
    demands = [1e300 * 1e-600 ** rng.random() for _ in range(600)] + _knot_demands(knots)
    for M in demands:
        assert _outcome(opt_parallel_exp_log, alphas, M) == _outcome(_full_exp, alphas, M), M
