"""What the brute-force oracle promises, on seeded networks from every cost family.

``opt_bruteforce`` searches a lattice on the simplex of flows: links 2..n
take the flows M k / D and their knots, link 1 the rest, and each round
zooms around the incumbent.  Its answer is a feasible flow, its cost is
that flow's social cost, no corner of the simplex and no knot of link 1
costs less, smooth networks of up to five links agree with the
marginal-cost optimum within its bound, two calls on the same input
answer alike, and at the top of the float range it answers a finite cost
or raises a RangeOverflowError.
"""

import math
import random
import sys

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
from wardrop.errors import RangeOverflowError, UnsupportedCostError
from wardrop.network import FlowProfile, build_parallel, social_cost
from wardrop.optimum import opt_bruteforce, opt_parallel_marginal

from test_costs import ALL_FAMILIES, _with_marginals


def _random_cost(rnd: random.Random):
    """A cost from every family the oracle evaluates on a lattice."""
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


def _demand(rnd: random.Random) -> float:
    return math.exp(rnd.uniform(math.log(0.2), math.log(25.0)))


def _cases(n_links: int, count: int, seed: int):
    rnd = random.Random(seed)
    for _ in range(count):
        net = build_parallel([_random_cost(rnd) for _ in range(n_links)])
        M = _demand(rnd)
        resolution = rnd.choice((33, 64, 257, 300, 1201, 4001))
        yield net, M, resolution, rnd.randint(0, 3)


@pytest.mark.parametrize("n_links, count", [(2, 200), (3, 100)])
def test_oracle_answers_a_feasible_flow_at_its_cost_and_beats_every_corner(n_links, count):
    for net, M, resolution, zoom_rounds in _cases(n_links, count, seed=19 + n_links):
        sol = opt_bruteforce(net, M, resolution=resolution, zoom_rounds=zoom_rounds)
        case = (net.costs, M, resolution, zoom_rounds)
        flows = sol.flow.path_flows
        assert len(flows) == n_links and min(flows) >= 0.0, case
        assert abs(math.fsum(flows) - M) <= 1e-12 * M, case
        assert sol.cost == pytest.approx(social_cost(net, sol.flow), rel=1e-12, abs=0.0), case
        # the corners are lattice points of the first round, and no later
        # round loses its incumbent
        for i in range(n_links):
            corner = FlowProfile(tuple(M if j == i else 0.0 for j in range(n_links)), M)
            assert sol.cost <= social_cost(net, corner), (case, i)


@pytest.mark.parametrize("n_links", [3, 4, 5])
def test_smooth_networks_agree_with_the_marginal_optimum_within_the_bound(n_links):
    rnd = random.Random(40 + n_links)
    for _ in range(12):
        costs = []
        while len(costs) < n_links:
            cost = _random_cost(rnd)
            if cost.is_continuous():
                costs.append(cost)
        net, M = build_parallel(costs), _demand(rnd)
        exact = opt_parallel_marginal(net, M)
        brute = opt_bruteforce(net, M)
        tol = max(brute.resolution_bound, 1e-9 * max(abs(exact.cost), 1.0))
        assert abs(brute.cost - exact.cost) <= tol, (costs, M, brute.resolution_bound)


def test_three_link_oracle_reaches_the_face_where_link_1_is_empty():
    # the optimum leaves the constant link empty: (0, 2.5, 2.5) at cost 12.5
    net = build_parallel([Constant(30.0), Affine(0.0, 1.0), Affine(0.0, 1.0)])
    sol = opt_bruteforce(net, 5.0)
    assert sol.flow.path_flows[0] == 0.0
    assert abs(sol.cost - 12.5) <= sol.resolution_bound < 1e-6


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
    # link 2's flow M - b puts link 1 at its knot b, where its cost jumps or
    # kinks; off the lattice, such a point is found only as a knot
    net = build_parallel(costs)
    knots = [b for b in costs[0].breakpoints_within(0.0, M) if b < M]
    at_knots = min(social_cost(net, FlowProfile((M - (M - b), M - b), M)) for b in knots)
    for zoom_rounds in (0, 2):
        assert opt_bruteforce(net, M, resolution=257, zoom_rounds=zoom_rounds).cost <= at_knots


@pytest.mark.parametrize("M", [1e300, 1e308, sys.float_info.max])
@pytest.mark.parametrize("shape", ["c c", "c 1 c"])
@pytest.mark.parametrize(
    "cost", _with_marginals(ALL_FAMILIES + [Monomial(1.0, 3.0), PwlSquare(1e10)]), ids=repr
)
def test_oracle_at_the_top_of_the_float_range_answers_or_refuses(cost, shape, M):
    """A feasible flow at a finite cost with a bound that is not NaN, or a
    RangeOverflowError: no infinite cost and no bare OverflowError.  The
    constant middle link leaves the incumbent finite while its neighbours
    on the lattice overflow."""
    net = build_parallel([cost if c == "c" else Constant(1.0) for c in shape.split()])
    try:
        sol = opt_bruteforce(net, M)
    except RangeOverflowError:
        return
    assert math.isfinite(sol.cost) and not math.isnan(sol.resolution_bound), sol
    assert min(sol.flow.path_flows) >= 0.0 and abs(math.fsum(sol.flow.path_flows) - M) <= 1e-12 * M, sol
    assert sol.cost == pytest.approx(social_cost(net, sol.flow), rel=1e-12, abs=0.0), sol


def test_two_calls_answer_alike():
    net = build_parallel([Shifted(StepGeometric(2.0), 1.0), PwlSquare(3.0), ExpOverX()])
    a, b = opt_bruteforce(net, 5.0), opt_bruteforce(net, 5.0)
    assert (a.flow, a.cost, a.resolution_bound) == (b.flow, b.cost, b.resolution_bound)


def test_a_lattice_with_fewer_than_two_flows_per_link_is_refused():
    # 257**2 lattice points per round give 17 free links 2 flows each, 18 only 1
    with pytest.raises(UnsupportedCostError, match="fewer than 2 flows"):
        opt_bruteforce(build_parallel([Affine(1.0, 1.0)] * 19), 1.0)
