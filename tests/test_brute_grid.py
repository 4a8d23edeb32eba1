"""The brute-force oracle runs one zoom loop for two and three links.

``opt_bruteforce`` zooms a grid over the flows of links 2..n, one axis per
link, and gives link 1 the rest.  It replaced a two-link loop and a
three-link loop, kept below as references with the helpers they called.
Flows, costs and resolution bounds are compared for exact equality on
seeded random networks drawn from every cost family.
"""

import math
import random

import numpy as np
import pytest

from wardrop.costs import (
    Affine,
    AlphaSequence,
    Constant,
    ExpOverX,
    Monomial,
    Polynomial,
    PwlSquare,
    SaturatingLinear,
    Shifted,
    StepExp,
    StepGeometric,
)
from wardrop.network import build_parallel
from wardrop.optimum import opt_bruteforce


def _ref_axis_points(lo, hi, n, breakpoints, M, rng):
    base = np.linspace(lo, hi, n)
    if rng is not None and n > 2:
        cell = (hi - lo) / (n - 1)
        base[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * cell
    extra = []
    for b in breakpoints:
        if b <= 0:
            continue
        for off in (b * (1 - 1e-9), b, b * (1 + 1e-9)):
            if lo <= off <= hi:
                extra.append(off)
    if extra:
        base = np.unique(np.concatenate([base, np.asarray(extra)]))
    return np.clip(base, lo, hi)


def _ref_local_error_bound(ys, vals, i, cell):
    j0, j1 = max(i - 3, 0), min(i + 4, len(ys))
    slope, fallback = 0.0, 0.0
    for t in range(j0, j1 - 1):
        dy = float(ys[t + 1] - ys[t])
        with np.errstate(invalid="ignore"):  # inf - inf on two infeasible points
            df = abs(float(vals[t + 1] - vals[t]))
        fallback = max(fallback, df)
        if dy >= 0.5 * cell:
            slope = max(slope, df / dy)
    return slope * cell if slope > 0 else fallback


def _ref_two_links(net, M, resolution, zoom_rounds, seed):
    c1, c2 = net.costs
    rng = np.random.default_rng(seed)

    def objective(ys):
        xs = M - ys
        return xs * c1.eval_many(xs) + ys * c2.eval_many(ys)

    lo, hi = 0.0, M
    best_y, best_v, bound = 0.0, math.inf, math.inf
    for _ in range(zoom_rounds + 1):
        bps = list(c2.breakpoints_within(lo, hi))
        bps += [M - b for b in c1.breakpoints_within(M - hi, M - lo)]
        ys = _ref_axis_points(lo, hi, resolution, bps, M, rng)
        vals = objective(ys)
        i = int(np.argmin(vals))
        best_y, best_v = float(ys[i]), float(vals[i])
        cell = (hi - lo) / (resolution - 1)
        bound = _ref_local_error_bound(ys, vals, i, cell)
        lo, hi = max(0.0, best_y - cell), min(M, best_y + cell)
    return (M - best_y, best_y), best_v, bound + 1e-12 * abs(best_v)


def _ref_three_links(net, M, resolution, zoom_rounds, seed):
    c1, c2, c3 = net.costs
    rng = np.random.default_rng(seed)

    def objective(y2, y3):
        x1 = M - y2 - y3
        return np.where(
            x1 >= 0,
            np.where(x1 > 0, x1 * c1.eval_many(np.maximum(x1, 0.0)), 0.0)
            + y2 * c2.eval_many(y2)
            + y3 * c3.eval_many(y3),
            np.inf,
        )

    win = [(0.0, M), (0.0, M)]
    best = (0.0, 0.0)
    best_v, bound = math.inf, math.inf
    for _ in range(zoom_rounds + 1):
        axes = []
        for dim, (lo, hi) in enumerate(win):
            cost = net.costs[dim + 1]
            axes.append(
                _ref_axis_points(lo, hi, resolution, cost.breakpoints_within(lo, hi), M, rng)
            )
        g2, g3 = np.meshgrid(axes[0], axes[1], indexing="ij")
        vals = objective(g2, g3)
        i2, i3 = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = (float(g2[i2, i3]), float(g3[i2, i3]))
        best_v = float(vals[i2, i3])
        cell2 = (win[0][1] - win[0][0]) / (resolution - 1)
        cell3 = (win[1][1] - win[1][0]) / (resolution - 1)
        bound = max(
            _ref_local_error_bound(axes[0], vals[:, i3], i2, cell2),
            _ref_local_error_bound(axes[1], vals[i2, :], i3, cell3),
        )
        new_win = []
        for dim, (lo, hi) in enumerate(win):
            cell = (hi - lo) / (resolution - 1)
            new_win.append((max(0.0, best[dim] - cell), min(M, best[dim] + cell)))
        win = new_win
    x1 = max(M - best[0] - best[1], 0.0)
    return (x1, best[0], best[1]), best_v, bound + 1e-12 * abs(best_v)


def _reference(net, M, resolution, zoom_rounds, seed):
    if net.n_edges == 2:
        return _ref_two_links(net, M, resolution, zoom_rounds, seed)
    return _ref_three_links(net, M, min(resolution, 257), zoom_rounds, seed)


def _random_cost(rnd: random.Random):
    """A cost from every family the oracle evaluates on a grid."""
    family = rnd.randrange(11)
    if family == 0:
        return Affine(rnd.uniform(0.0, 3.0), rnd.uniform(0.0, 3.0))
    if family == 1:
        return Constant(rnd.uniform(0.0, 40.0))
    if family == 2:
        return Monomial(rnd.uniform(0.1, 3.0), rnd.uniform(0.5, 4.0))
    if family == 3:
        return Polynomial(tuple(rnd.uniform(0.0, 2.0) for _ in range(rnd.randint(1, 4))))
    if family == 4:
        return SaturatingLinear()
    if family == 5:
        return StepGeometric(rnd.choice((2.0, 3.0, 2.5)))
    if family == 6:
        return PwlSquare(rnd.choice((2.0, 3.0)))
    if family == 7:
        return ExpOverX()
    if family == 8:
        return StepExp(AlphaSequence("factorial"))
    if family == 9:
        return StepExp(AlphaSequence("supergeometric"))
    return Shifted(StepGeometric(2.0), rnd.uniform(0.0, 5.0))


def _cases(n_links: int, count: int, seed: int):
    rnd = random.Random(seed)
    for _ in range(count):
        net = build_parallel([_random_cost(rnd) for _ in range(n_links)])
        M = math.exp(rnd.uniform(math.log(0.2), math.log(25.0)))
        resolution = rnd.choice((33, 64, 257, 300, 1201, 4001))
        yield net, M, resolution, rnd.randint(0, 3), rnd.randint(0, 4)


def _assert_matches_reference(net, M, resolution, zoom_rounds, seed):
    sol = opt_bruteforce(net, M, resolution=resolution, zoom_rounds=zoom_rounds, seed=seed)
    flows, cost, bound = _reference(net, M, resolution, zoom_rounds, seed)
    case = (net.costs, M, resolution, zoom_rounds, seed)
    assert sol.flow.path_flows == flows, case
    assert sol.cost == cost, case
    assert sol.resolution_bound == bound, case


@pytest.mark.parametrize("n_links, count", [(2, 200), (3, 100)])
def test_oracle_matches_the_former_loops_bit_for_bit(n_links, count):
    for case in _cases(n_links, count, seed=19 + n_links):
        _assert_matches_reference(*case)


@pytest.mark.parametrize(
    "costs",
    [
        [StepGeometric(2.0), Affine(1.0, 1.0)],
        [PwlSquare(3.0), Monomial(1.0, 2.0)],
        [StepGeometric(2.0), StepGeometric(3.0)],
    ],
)
@pytest.mark.parametrize("M", [0.7, 3.0, 6.0, 13.5])
def test_two_link_oracle_mirrors_the_first_links_knots(costs, M):
    for zoom_rounds in (0, 2):
        _assert_matches_reference(build_parallel(costs), M, 257, zoom_rounds, 1)


def test_three_link_oracle_skips_infeasible_pairs_without_a_warning():
    # the grid cannot reach the face x_1 = 0, so the incumbent borders
    # infeasible points; the pytest configuration turns a warning into an error
    net = build_parallel([Constant(30.0), Affine(0.0, 1.0), Affine(0.0, 1.0)])
    sol = opt_bruteforce(net, 5.0)
    assert sol.resolution_bound == math.inf
    assert sol.cost == pytest.approx(12.5, rel=1e-3)
    assert (sol.flow.path_flows, sol.cost) == _reference(net, 5.0, 4001, 3, 0)[:2]
