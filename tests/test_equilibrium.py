import collections
import math
import random
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize

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
)
from wardrop import equilibrium
from wardrop.errors import (
    ConvergenceError,
    DemandBracketError,
    DomainError,
    GameError,
    RangeOverflowError,
    UnsupportedCostError,
)
from wardrop.asymptotics import poa, step_game_closed_form
from wardrop.instances import designated_limit_instances, exp_game, pigou, step_game
from wardrop.network import Edge, FlowProfile, Network, build_parallel, load_network, social_cost
from wardrop.optimum import opt_general_marginal, opt_parallel_marginal, social_optimum
from wardrop.equilibrium import (
    RESIDUAL_RTOL,
    verify_equilibrium,
    wardrop_equilibrium,
    wardrop_general,
    wardrop_parallel,
    wardrop_parallel_log,
)
from test_costs import _bisection
from test_network import FAMILY_DRAWS


def test_pigou():
    sol = wardrop_parallel(pigou(), 1.0)
    assert sol.flow.path_flows == pytest.approx((1.0, 0.0), abs=1e-12)
    assert sol.lam == pytest.approx(1.0)
    assert sol.cost == pytest.approx(1.0)


def test_pigou_brute_force_cross_check():
    # no feasible split beats sending everything down the variable road
    net = pigou()
    best = min(
        social_cost(net, FlowProfile((x, 1.0 - x), 1.0))
        - 0  # cost of equilibrium candidates, all must cost >= lam on used paths
        for x in np.linspace(0.0, 1.0, 1001)
        if max(verify_equilibrium(net, FlowProfile((x, 1.0 - x), 1.0)).residual, 0.0)
        <= 1e-9
    )
    assert best == pytest.approx(1.0)  # the only equilibrium costs exactly 1


def test_step_game_both_regimes():
    net = step_game(2.0)
    sol = wardrop_parallel(net, 5.0)  # 2a^k < M <= a^k + a^{k+1} with k = 1
    assert sol.flow.path_flows == pytest.approx((3.0, 2.0), abs=1e-9)
    assert sol.cost == pytest.approx(13.0, rel=1e-12)

    sol = wardrop_parallel(net, 7.0)  # a^k + a^{k+1} < M <= 2a^{k+1}
    assert sol.flow.path_flows == pytest.approx((4.0, 3.0), abs=1e-9)
    assert sol.cost == pytest.approx(28.0, rel=1e-12)  # M * a^{k+1}


def test_symmetric_links_split_evenly():
    net = build_parallel([Affine(0.0, 1.0), Affine(0.0, 1.0)])
    sol = wardrop_parallel(net, 2.0)
    assert sol.flow.path_flows == pytest.approx((1.0, 1.0), rel=1e-12)


def test_demand_must_be_positive():
    with pytest.raises(DomainError):
        wardrop_parallel(pigou(), 0.0)
    with pytest.raises(DomainError):
        wardrop_parallel(pigou(), -2.0)


def test_verify_equilibrium_examples():
    net = pigou()
    assert verify_equilibrium(net, FlowProfile((1.0, 0.0), 1.0)).residual == 0.0
    # the constant road is used but costs 1 while the other road costs 1/2
    assert verify_equilibrium(net, FlowProfile((0.5, 0.5), 1.0)).residual == pytest.approx(0.5)


def test_verify_ignores_unused_expensive_paths():
    net = build_parallel([Affine(0.0, 1.0), Constant(100.0)])
    report = verify_equilibrium(net, FlowProfile((1.0, 0.0), 1.0))
    assert report.residual == 0.0


def test_feasibility_and_residual_properties():
    rng = np.random.default_rng(42)
    net = build_parallel([Affine(1.0, 2.0), Monomial(1.0, 2.0), Constant(9.0)])
    for M in rng.uniform(0.1, 50.0, 25):
        sol = wardrop_parallel(net, float(M))
        assert math.fsum(sol.flow.path_flows) == pytest.approx(M, rel=1e-12)
        assert sol.residual <= 1e-9 * sol.lam


def test_lambda_monotone_in_demand():
    net = step_game(3.0)
    lams = [wardrop_parallel(net, M).lam for M in np.geomspace(0.5, 200.0, 60)]
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))


_rng = random.Random(23)
# one seeded demand in every ten decades of [1e-150, 1e150], besides the ends and 1
_STEP_DEMANDS = [1e-150, 1.0, 1e150, *(10.0 ** _rng.uniform(e, e + 10) for e in range(-150, 150, 10))]


@pytest.mark.parametrize("M", _STEP_DEMANDS)
def test_step_level_bisection_needs_at_most_64_inverses_per_link(M, monkeypatch):
    # secant steps on the staircase took at most 60 over 6000 such demands, and 8 after the jump probes
    calls = collections.Counter()
    for cls in (Affine, StepGeometric):
        def counted(self, level, inverse=cls.generalized_inverse):
            calls[type(self).__name__] += 1
            return inverse(self, level)

        monkeypatch.setattr(cls, "generalized_inverse", counted)
    for a in (2.0, 3.0, 5.0):
        calls.clear()
        sol = wardrop_parallel(step_game(a), M)
        assert sorted(calls) == ["Affine", "StepGeometric"]
        assert max(calls.values()) <= 64, a
        assert sol.cost == pytest.approx(step_game_closed_form(a, M).weq, rel=1e-12, abs=0.0)


_LEVEL_MIXES = {
    "step:2": step_game(2.0).costs,
    "step:3": step_game(3.0).costs,
    "step:5": step_game(5.0).costs,
    "affine-step-constant": (Affine(1.0, 2.0), StepGeometric(2.5), Constant(40.0)),
    "shifted-step-square": (Shifted(StepGeometric(3.0), 1.0), Monomial(1.0, 2.0)),
    "exp-steps-affine": (ExpOverX(), StepExp(AlphaSequence()), Affine(0.0, 1.0)),
    "pwl-marginal-affine": (PwlSquare(2.0).marginal_function(), Affine(0.0, 2.0)),
    "two-steps": (StepGeometric(2.0), StepGeometric(3.0)),
}


@pytest.mark.parametrize("mix", _LEVEL_MIXES, ids=str)
def test_level_search_ends_where_splits_alone_end(mix, monkeypatch):
    """Secant steps change the path of the level search, never its end: the
    sum of the x+ is monotone in floats, step links included.  The reference
    is root with bisection's splits alone, on 5000 seeded demands per mix."""
    funcs = _LEVEL_MIXES[mix]
    rng = random.Random(29)
    demands = [10.0 ** rng.uniform(-6.0, 9.0) for _ in range(5000)]

    def outcomes():
        out = []
        for M in demands:
            try:
                out.append(repr(equilibrium.level_allocation(funcs, M)))
            except Exception as exc:  # noqa: BLE001 - a failure must match too
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    secant = outcomes()
    monkeypatch.setattr(equilibrium, "root", lambda f, lo, f_lo, hi, f_hi: _bisection(
        lambda x: not f(x) < 0.0, lo, hi))
    assert secant == outcomes()


_WIDE_MIXES = {
    **_LEVEL_MIXES,
    "two-squares": (Monomial(1.0, 2.0), Monomial(1.0, 2.0)),
    **{f"marginal:{name}": net.marginal.costs for name, net in designated_limit_instances().items()},
}


@pytest.mark.parametrize("mix", _WIDE_MIXES, ids=str)
def test_level_search_ends_at_its_level(mix):
    """The level routes M on the aggregate upper inverse, 2^-40 below it
    does not, and each link's flow lies between its upper inverses at those
    two levels, the flows summing to M; a search that fails raises a typed
    error.  100 seeded demands per mix, one in five on [1e-300, 1e300],
    where the searches underflow and overflow, and M = 1.5e154, where M^2
    overflows but the two squares have their level at (M/2)^2 without it."""
    funcs = _WIDE_MIXES[mix]
    rng = random.Random(31)

    def uppers(lam):
        return [f.generalized_inverse(lam)[1] for f in funcs]

    failed = 0
    for i in range(101):
        M = 1.5e154 if i == 100 else 10.0 ** (rng.uniform(-300.0, 300.0) if i % 5 == 0 else rng.uniform(-6.0, 9.0))
        try:
            lam, x = equilibrium.level_allocation(funcs, M)
        except GameError:
            failed += 1
            continue
        below = lam * (1.0 - 2.0**-40)
        assert math.fsum([*uppers(lam), -M]) >= 0.0 > math.fsum([*uppers(below), -M]), M
        for lo, xi, hi in zip(uppers(below), x, uppers(lam)):
            assert lo * (1.0 - 1e-9) <= xi <= hi * (1.0 + 1e-9), M
        assert min(x) >= 0.0 and math.fsum(x) == pytest.approx(M, rel=1e-9)
        if mix == "two-squares" and M == 1.5e154:
            assert lam == pytest.approx((M / 2.0) ** 2, rel=1e-12)
    assert failed < 101


_JUMP_MIXES = {
    **_LEVEL_MIXES,
    "pigou": pigou().costs,
    "constant-step-affine": (Constant(3.0), StepGeometric(3.0), Affine(0.0, 2.0)),
    # the link that carries most of M puts the bracket's lower end below the jump
    "flat-affine-step": (Affine(0.0, 1e-3), StepGeometric(5.0)),
    # _SaturatingLinearMarginal is not monotone in floats: a different bracket could end elsewhere
    "constant-saturating-marginal": (Constant(7.0), SaturatingLinear().marginal_function()),
    "step-saturating-marginal": (StepGeometric(3.0), SaturatingLinear().marginal_function()),
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@pytest.mark.parametrize("mix", _JUMP_MIXES, ids=str)
def test_jump_probes_change_no_answer(mix, monkeypatch):
    """The level search with its probes at the jump levels ends where the
    search without them ends, or raises the same error: log-uniform demands
    on [1e-300, 1e300], every knot of the mix in that range with its float
    neighbours, and the demand sum_i x+_i(k) each knot level k routes
    exactly, where the probe at k finds the sum at M."""
    funcs = _JUMP_MIXES[mix]
    rng = random.Random(37)
    knots = {k for f in funcs for e in range(-300, 300, 10)  # breakpoints_within spans at most 18 decades
             for k in [*f.breakpoints_within(10.0**e, 10.0 ** (e + 10)), *f.jump_levels(10.0**e, 10.0 ** (e + 10))]}
    demands = [*(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(400)),
               *(y for k in knots for y in (math.nextafter(k, 0.0), k, math.nextafter(k, math.inf))),
               *(math.fsum(f.generalized_inverse(k)[1] for f in funcs) for k in knots)]

    def outcomes():
        out = []
        for M in demands:
            try:
                out.append(repr(equilibrium.level_allocation(funcs, M)))
            except Exception as exc:  # noqa: BLE001 - a failure must match too
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    probed = outcomes()
    for cls in [CostFunction, *_all_subclasses(CostFunction)]:
        if "jump_levels" in vars(cls):
            monkeypatch.setattr(cls, "jump_levels", lambda self, lo, hi: [])
    assert probed == outcomes()


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
def test_cold_step_equilibrium_needs_at_most_10_step_inverses(a, monkeypatch):
    # the jump probes close the staircase's riser; secant steps alone took up to 60
    levels = []

    def counted(self, level, inverse=StepGeometric.generalized_inverse):
        levels.append(level)
        return inverse(self, level)

    monkeypatch.setattr(StepGeometric, "generalized_inverse", counted)
    rng, net = random.Random(41), step_game(a)
    for _ in range(6000):
        M = 10.0 ** rng.uniform(-150.0, 150.0)
        levels.clear()
        wardrop_parallel(net, M)
        assert len(levels) <= 10, M


def test_allocation_skips_only_links_without_a_value():
    """The roundoff goes to the link whose cost is nearest the level; a link
    whose eval overflows is passed over, but a fault in a cost family, such as
    a TypeError, propagates."""
    def raising(error):
        class Raising(Affine):
            def eval(self, x):
                raise error(f"eval at {x!r}")

        return Raising(0.0, 1.0)

    los = [0.5, 0.25]
    x = equilibrium._allocate((Affine(0.0, 1.0), raising(OverflowError)), 0.5, los, los, 1.0)
    assert x == [0.75, 0.25]
    with pytest.raises(TypeError, match="eval at"):
        equilibrium._allocate((Affine(0.0, 1.0), raising(TypeError)), 0.5, los, los, 1.0)


def test_subnormal_social_cost_is_a_domain_error():
    # M^2 = 1e-310 is below float_info.min, where floats lose digits
    with pytest.raises(DomainError, match="division by zero at M=1e-155"):
        wardrop_equilibrium(step_game(2.0), 1e-155)


def test_identical_shift_moves_lambda_not_flows():
    base = build_parallel([Affine(0.0, 1.0), Affine(0.0, 2.0), Monomial(1.0, 2.0)])
    shift = 2.5
    shifted = build_parallel([Shifted(c, shift) for c in base.costs])
    for M in (1.0, 5.0, 20.0):
        a = wardrop_parallel(base, M)
        b = wardrop_parallel(shifted, M)
        assert b.lam == pytest.approx(a.lam + shift, rel=1e-9)
        assert b.flow.path_flows == pytest.approx(a.flow.path_flows, rel=1e-7, abs=1e-9)


# ---------------------------------------------------------------------------
# general-graph solver
# ---------------------------------------------------------------------------


def test_general_agrees_with_parallel():
    for costs in (
        [Affine(1.0, 1.0), Affine(2.0, 3.0)],
        [Monomial(1.0, 2.0), Affine(0.0, 1.0)],
        [Affine(0.0, 1.0), Constant(1.0)],
    ):
        net = build_parallel(costs)
        for M in (0.5, 2.0, 11.0):
            fast = wardrop_parallel(net, M)
            slow = wardrop_general(net, M)
            assert slow.cost == pytest.approx(fast.cost, rel=1e-6)


def test_general_agrees_with_parallel_to_1e_9():
    for costs in (
        [Affine(1.0, 1.0), Affine(2.0, 3.0)],
        [Monomial(1.0, 2.0), Affine(0.0, 1.0)],
        [Affine(0.0, 1.0), Constant(1.0)],
    ):
        net = build_parallel(costs)
        for M in (0.5, 2.0, 11.0):
            fast = wardrop_parallel(net, M)
            slow = wardrop_general(net, M)
            assert slow.cost == pytest.approx(fast.cost, rel=1e-9)


def test_general_two_path_series_graph():
    # s -> v -> t with one middle vertex: paths {e1,e3} and {e2,e3};
    # equivalent to a parallel game in (x, 1) plus a common identity edge
    net = Network(
        ("s", "v", "t"),
        (Edge("e1", "s", "v"), Edge("e2", "s", "v"), Edge("e3", "v", "t")),
        (Affine(0.0, 1.0), Constant(1.0), Affine(0.0, 1.0)),
        "s",
        "t",
    )
    sol = wardrop_general(net, 1.0)
    assert sol.flow.path_flows == pytest.approx((1.0, 0.0), abs=1e-6)


def test_general_single_path():
    net = Network(
        ("s", "t"), (Edge("e1", "s", "t"),), (Monomial(1.0, 2.0),), "s", "t"
    )
    sol = wardrop_general(net, 4.0)
    assert sol.flow.path_flows == (4.0,)


def test_general_rejects_discontinuous_nonparallel():
    net = Network(
        ("s", "v", "t"),
        (Edge("e1", "s", "v"), Edge("e2", "v", "t")),
        (StepGeometric(2.0), Affine(0.0, 1.0)),
        "s",
        "t",
    )
    with pytest.raises(UnsupportedCostError):
        wardrop_general(net, 3.0)


def test_router_sends_discontinuous_parallel_to_bisection():
    sol = wardrop_equilibrium(step_game(2.0), 5.0)
    assert sol.cost == pytest.approx(13.0, rel=1e-12)
    assert sol.method == "bisection"
    with pytest.raises(UnsupportedCostError):
        wardrop_general(step_game(2.0), 5.0)


def test_router_records_the_solver_it_picked():
    assert wardrop_equilibrium(exp_game(), 31.0).method == "log-bisection"
    assert wardrop_equilibrium(braess(Affine(0.0, 1.0)), 1.0).method == "frank-wolfe"


def braess(rising) -> Network:
    """s->a->t and s->b->t, rising cost on sa and bt, 1 on at and sb, and a
    free zigzag a->b; paths in order top (sa, at), zigzag (sa, ab, bt), bottom."""
    edges = (
        Edge("sa", "s", "a"), Edge("at", "a", "t"), Edge("sb", "s", "b"),
        Edge("bt", "b", "t"), Edge("ab", "a", "b"),
    )
    costs = (rising, Constant(1.0), Constant(1.0), rising, Constant(0.0))
    return Network(("s", "a", "b", "t"), edges, costs, "s", "t")


ZIGZAG = (0, 4, 3)


def test_braess_optimum_leaves_the_zigzag_exactly_empty():
    # at M = 1 the zigzag ties the two outer paths in the marginal game but
    # carries nothing; the Newton step's clip at 0 empties it exactly
    net = braess(Affine(0.0, 1.0))
    opt = opt_general_marginal(net, 1.0)
    assert opt.flow.path_flows[net.paths.index(ZIGZAG)] == 0.0
    assert opt.cost == 1.5


def test_braess_equilibrium_routes_everything_on_the_zigzag():
    net = braess(Affine(0.0, 1.0))
    sol = wardrop_general(net, 1.0)
    assert sol.flow.path_flows[net.paths.index(ZIGZAG)] == 1.0
    assert sol.cost == 2.0 and sol.residual == 0.0


def grid(n: int, cost_of, seed: int = 0) -> Network:
    """n x n grid, edges rightward and downward, corner to corner, with the
    cost parameters drawn within 10% of 1 and the edge order shuffled."""
    cells = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                cells.append((n * i + j, n * i + j + 1))
            if i + 1 < n:
                cells.append((n * i + j, n * (i + 1) + j))
    draw = random.Random(seed)
    params = [(draw.uniform(0.9, 1.1), draw.uniform(0.9, 1.1)) for _ in cells]
    order = list(range(len(cells)))
    draw.shuffle(order)
    names = tuple(f"v{k}" for k in range(n * n))
    edges = tuple(Edge(f"e{e}", names[cells[e][0]], names[cells[e][1]]) for e in order)
    costs = tuple(cost_of(*params[e]) for e in order)
    return Network(names, edges, costs, names[0], names[-1])


def affine(a: float, b: float):
    return Affine(a, b)


def bpr(t0: float, _unused: float):
    """BPR-style t0 (1 + 0.15 x^4)."""
    return Polynomial((t0, 0.0, 0.0, 0.0, 0.15 * t0))


def beckmann_reference_cost(net: Network, M: float) -> float:
    """Social cost at scipy's minimum of sum_e int_0^{x_e} c_e over the path simplex."""
    incidence = np.zeros((net.n_paths, net.n_edges))
    for i, p in enumerate(net.paths):
        incidence[i, list(p)] = 1.0

    def edges(y):
        return [max(float(x), 0.0) for x in y @ incidence]

    def potential(y):
        return math.fsum(c.primitive(x) for c, x in zip(net.costs, edges(y)))

    def gradient(y):
        return incidence @ np.array([c.eval(x) for c, x in zip(net.costs, edges(y))])

    res = minimize(
        potential,
        np.full(net.n_paths, M / net.n_paths),
        jac=gradient,
        method="SLSQP",
        bounds=[(0.0, None)] * net.n_paths,
        constraints=[{"type": "eq", "fun": lambda y: y.sum() - M, "jac": lambda y: np.ones_like(y)}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    y = np.maximum(res.x, 0.0)
    return social_cost(net, FlowProfile(tuple(y / y.sum() * M), M))


@pytest.mark.parametrize("M", [1.0, 10.0])
@pytest.mark.parametrize("cost_of", [affine, bpr])
@pytest.mark.parametrize("n", [3, 4])
def test_grid_equilibrium_matches_beckmann_minimum(n, cost_of, M):
    net = grid(n, cost_of)
    start = time.perf_counter()
    sol = wardrop_general(net, M)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert sol.residual <= RESIDUAL_RTOL * sol.lam
    assert verify_equilibrium(net, sol.flow).residual <= RESIDUAL_RTOL * sol.lam
    assert sol.cost == pytest.approx(beckmann_reference_cost(net, M), rel=1e-6)


def test_general_iteration_cap_raises_with_the_residual(monkeypatch):
    monkeypatch.setattr(equilibrium, "GENERAL_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as exc:
        wardrop_general(grid(4, bpr), 10.0)
    assert exc.value.residual > RESIDUAL_RTOL


def test_general_stops_at_a_move_that_shifts_no_flow(monkeypatch):
    # at a subnormal demand the Newton step rounds to 0, and every iteration
    # after it would repeat it up to the cap
    calls = []
    step = equilibrium._newton_step
    monkeypatch.setattr(equilibrium, "_newton_step", lambda *a: calls.append(a) or step(*a))
    with pytest.raises(ConvergenceError, match="stalled"):
        wardrop_general(build_parallel([Affine(0.0, 1.0), Affine(0.0, 1.0)]), 5e-324)
    assert len(calls) == 1


class Priced(CostFunction):
    """An edge cost that logs every flow it is priced at."""

    def __init__(self, cost, log: list):
        self.cost, self.log = cost, log

    def eval(self, x):
        self.log.append(x)
        return self.cost.eval(x)

    def derivative_bounds(self, x):
        return self.cost.derivative_bounds(x)


EDGE_ORDERS = (range(24), range(23, -1, -1), [*range(7, 24), *range(7)])  # of grid(4)'s 24 edges


@pytest.mark.parametrize("cost_of", [affine, bpr])
def test_general_iterates_do_not_depend_on_edge_order(monkeypatch, cost_of):
    # each Newton step's flow changes are recorded by path, and every
    # iterate prices every edge, so the flows each edge is priced at, in
    # order, record the iterates
    steps = []
    real = equilibrium._newton_step

    def recorded(paths, slope, cost):
        step = real(paths, slope, cost)
        steps.append({frozenset(relisted.edges[e].id for e in p): d for p, d in zip(paths, step)})
        return step

    monkeypatch.setattr(equilibrium, "_newton_step", recorded)
    net = grid(4, cost_of)
    runs = []
    for order in EDGE_ORDERS:
        priced = {net.edges[e].id: [] for e in order}
        relisted = Network(
            net.vertices[::-1],
            tuple(net.edges[e] for e in order),
            tuple(Priced(net.costs[e], priced[net.edges[e].id]) for e in order),
            net.source,
            net.sink,
        )
        steps.clear()
        flow, lam, _, _ = equilibrium._general_flow(relisted, 10.0)
        by_path = {
            frozenset(relisted.edges[e].id for e in p): x
            for p, x in zip(relisted.paths, flow.path_flows)
        }
        runs.append((list(steps), priced, by_path, lam, relisted.paths))
    assert runs[0][4] != runs[1][4] != runs[2][4]  # the paths come in other orders
    assert len(runs[0][0]) > 1  # the Newton steps were recorded
    for run in runs[1:]:
        assert run[:4] == runs[0][:4]


@pytest.mark.parametrize("cost_of", [affine, bpr])
def test_general_costs_do_not_depend_on_edge_order(cost_of):
    # the social costs sum edge flows that sum path flows: both correctly
    # rounded, the costs are the same floats in every edge order
    net = grid(4, cost_of)
    costs = set()
    for order in EDGE_ORDERS:
        relisted = Network(net.vertices[::-1], tuple(net.edges[e] for e in order),
                           tuple(net.costs[e] for e in order), net.source, net.sink)
        costs.add((wardrop_general(relisted, 10.0).cost, opt_general_marginal(relisted, 10.0).cost))
    assert len(costs) == 1


def test_general_edge_cost_overflow_is_a_range_error():
    # 0.15 x^4 leaves the float range at x = 1e80 without raising
    with pytest.raises(RangeOverflowError, match="M=1e\\+80"):
        wardrop_general(grid(3, bpr), 1e80)


def test_parallel_residual_and_cost_are_the_public_sums():
    """The solve checks and prices its flow in one pass over the links: its
    residual and cost are verify_equilibrium's and social_cost's on the same
    flow, by repr, on seeded parallel networks (-0.0 costs included)."""
    answered = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        net = build_parallel([FAMILY_DRAWS[seed % 10](rng), *(rng.choice(FAMILY_DRAWS)(rng) for _ in range(n - 1))])
        for M in (10.0 ** rng.uniform(-3.0, 6.0), rng.choice([0.5, 1.0, 2.0, 3.0])):
            try:
                sol = wardrop_parallel(net, M)
            except GameError:
                continue
            answered += 1
            assert repr(sol.residual) == repr(verify_equilibrium(net, sol.flow).residual), (seed, M)
            assert repr(sol.cost) == repr(social_cost(net, sol.flow)), (seed, M)
    assert answered > 300


@pytest.mark.parametrize("cost_of", [affine, bpr])
@pytest.mark.parametrize("n", [3, 4])
def test_general_cost_is_the_social_cost_of_its_flow(n, cost_of):
    for seed in (0, 1, 2):
        net = grid(n, cost_of, seed)
        for M in GRID_DEMANDS:
            sol = wardrop_general(net, M)
            assert repr(sol.cost) == repr(social_cost(net, sol.flow)), (seed, M)


@pytest.mark.parametrize("M", [1.0, 3.0, 10.0, 30.0, 100.0])
@pytest.mark.parametrize("cost_of", [affine, bpr])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_grid_equilibrium_keeps_the_demand_within_the_residual_bound(n, cost_of, M, monkeypatch):
    # every step rescales the flows to sum to M, which would hide flow a
    # step lost; the lost flow shows as a residual on the returned profile.
    # Projected Newton settles every grid up to 6 x 6 in under 50 steps,
    # the equilibrium and the optimum (the marginal game's equilibrium)
    monkeypatch.setattr(equilibrium, "GENERAL_MAX_ITER", 50)
    net = grid(n, cost_of)
    sol = wardrop_general(net, M)
    assert sol.residual <= RESIDUAL_RTOL * sol.lam
    assert verify_equilibrium(net, sol.flow).residual <= RESIDUAL_RTOL * sol.lam
    opt = opt_general_marginal(net, M)
    margs = tuple(c.marginal_function() for c in net.costs)
    report = verify_equilibrium(Network(net.vertices, net.edges, margs, net.source, net.sink), opt.flow)
    assert report.residual <= RESIDUAL_RTOL * report.min_entry_cost


def test_fork_equilibrium_is_its_closed_form_to_one_ulp():
    # x = 3 on sa, then at1 (x) against at2 (1 + x/2 + x^2/4): the tie
    # x2^2 + 6 x2 - 8 = 0 gives x2 = sqrt 17 - 3, x1 = 6 - sqrt 17, and the
    # level 3 + x1 = 9 - sqrt 17
    net = load_network(str(Path(__file__).resolve().parent / "golden" / "fork.json"))
    sol = wardrop_general(net, 3.0)
    with mpmath.workdps(50):
        root17 = mpmath.sqrt(17)
        exact = (6 - root17, root17 - 3, 9 - root17)
        for got, want in zip((*sol.flow.path_flows, sol.lam), exact):
            assert abs(mpmath.mpf(got) - want) <= math.ulp(float(want))


BRAESS_POA = {  # from the line-search solver this one replaced
    ("sqrt", 0.3): 1.0,
    ("sqrt", 1.0): 1.17157287525381,
    ("sqrt", 5.0): 1.0,
    ("saturating", 0.3): 1.000073997577255,
    ("saturating", 1.0): 1.0909090909090908,
    ("saturating", 5.0): 1.0,
}


@pytest.mark.parametrize("rising, M", sorted(BRAESS_POA))
def test_braess_with_curved_rising_edges_keeps_its_poa(rising, M):
    cost = Monomial(1.0, 0.5) if rising == "sqrt" else SaturatingLinear()
    got = poa(braess(cost), M).poa
    assert got == pytest.approx(BRAESS_POA[rising, M], rel=1e-9)
    if M == 1.0:  # the closed forms
        assert got == pytest.approx(4.0 - 2.0 * math.sqrt(2.0) if rising == "sqrt" else 12.0 / 11.0, rel=1e-9)


def test_an_infinite_slope_moves_by_root(monkeypatch):
    # sqrt x has no finite slope at 0, where the second link starts: that
    # move finds where the pair's gap closes instead of a Newton step
    assert Monomial(1.0, 0.5).derivative_bounds(0.0) == (math.inf, math.inf)
    steps = []
    real = equilibrium._newton_step
    monkeypatch.setattr(equilibrium, "_newton_step", lambda *a: steps.append(real(*a)) or steps[-1])
    sol = wardrop_general(build_parallel([Monomial(1.0, 0.5), Monomial(2.0, 0.5)]), 1.0)
    assert steps == [None]
    assert sol.flow.path_flows == pytest.approx((0.8, 0.2), rel=1e-12)  # sqrt x1 = 2 sqrt x2
    sol = wardrop_general(braess(Monomial(1.0, 0.5)), 5.0)
    assert sol.flow.path_flows == pytest.approx((2.5, 0.0, 2.5), rel=1e-9)


def _newton_sets(net: Network, monkeypatch) -> list:
    """The Newton sets (edge sets, the cheapest first) of every step
    ``wardrop_general`` takes on ``net`` at GRID_DEMANDS."""
    sets = []
    real = equilibrium._newton_step
    monkeypatch.setattr(equilibrium, "_newton_step", lambda *a: sets.append(a[0]) or real(*a))
    for M in GRID_DEMANDS:
        wardrop_general(net, M)
    monkeypatch.undo()
    return sets


def test_newton_step_levels_affine_path_costs(monkeypatch):
    # with affine edge costs the linear model is exact: one step from any
    # flow levels the costs of the Newton set's paths, summed here as
    # a_e + b_e x_e over each path's edges
    nets = [braess(Affine(0.0, 1.0)), *(grid(n, affine, seed) for n in (3, 4) for seed in range(3))]
    stepped = 0
    for k, net in enumerate(nets):
        rng = random.Random(k)
        a, b = zip(*[(c.value, 0.0) if isinstance(c, Constant) else (c.a, c.b) for c in net.costs])
        for newton in _newton_sets(net, monkeypatch):
            x = [rng.uniform(0.0, 10.0) for _ in net.paths]

            def path_costs():
                xe = net.edge_sums(x)
                return [math.fsum(a[e] + b[e] * xe[e] for e in p) for p in newton]

            slope = {e: b[e] for p in newton for e in p ^ newton[0]}
            step = equilibrium._newton_step(newton, slope, path_costs())
            if step is None:  # a direction with no curvature: Braess's constant edges
                continue
            for p, d in zip(newton, step):
                x[net.path_sets.index(p)] += d
            costs = path_costs()
            assert max(costs) - min(costs) <= 1e-12 * max(costs), (k, newton)
            stepped += 1
    assert stepped > 50


def test_newton_step_refuses_an_infinite_slope_where_the_paths_differ():
    paths = [frozenset({0, 1}), frozenset({0, 2})]  # edge 0 shared, so it has no slope here
    assert equilibrium._newton_step(paths, {1: 1.0, 2: 1.0}, [1.0, 2.0]) == [0.5, -0.5]
    assert equilibrium._newton_step(paths, {1: math.inf, 2: 1.0}, [1.0, 2.0]) is None
    assert equilibrium._newton_step(paths, {1: 1.0, 2: math.inf}, [1.0, 2.0]) is None
    assert equilibrium._newton_step(paths, {1: math.inf, 2: 1.0}, [1.0, 1.0]) is None  # even with nothing to level


class Sloped(CostFunction):
    """An edge cost that logs the edges its slope is read at."""

    def __init__(self, cost, edge: int, log: list):
        self.cost, self.edge, self.log = cost, edge, log

    def eval(self, x):
        return self.cost.eval(x)

    def derivative_bounds(self, x):
        self.log.append(self.edge)
        return self.cost.derivative_bounds(x)


@pytest.mark.parametrize("name", ["fork", "grid3", "grid4"])
def test_newton_step_prices_slopes_only_where_the_paths_differ(monkeypatch, name):
    # each step reads each slope once, on the edges where its paths differ
    # (those some path of the Newton set uses and another does not); the
    # fork's first edge, shared by every path, is never priced
    net = {"fork": load_network(FORK), "grid3": grid(3, bpr), "grid4": grid(4, bpr, 1)}[name]
    log, steps = [], []
    net = Network(net.vertices, net.edges, tuple(Sloped(c, e, log) for e, c in enumerate(net.costs)),
                  net.source, net.sink)
    real = equilibrium._newton_step

    def recorded(paths, slope, cost):
        steps.append((sorted(log), sorted(frozenset().union(*(p ^ paths[0] for p in paths)))))
        log.clear()
        return real(paths, slope, cost)

    monkeypatch.setattr(equilibrium, "_newton_step", recorded)
    for M in GRID_DEMANDS:
        wardrop_general(net, M)
    assert steps and all(priced == differ for priced, differ in steps)
    assert any(len(differ) < net.n_edges for _, differ in steps)


def test_braess_with_interpolated_square_edges():
    # PwlSquare is continuous, so a general network may use it; its slope
    # at 0, where the empty paths' edges start, is 0
    net = braess(PwlSquare(2.0))
    for M in (0.5, 1.0, 3.0):
        sol = wardrop_general(net, M)
        assert verify_equilibrium(net, sol.flow).residual <= RESIDUAL_RTOL * sol.lam


def test_general_optimum_runs_on_the_private_marginals():
    # SaturatingLinear and ExpOverX have marginals with no public family;
    # their slopes let the Newton moves run, and the optimum meets the KKT
    # check on the marginal network
    edges = (Edge("sa", "s", "a"), Edge("at1", "a", "t"), Edge("at2", "a", "t"))
    for costs in ((Affine(0.0, 1.0), SaturatingLinear(), ExpOverX()),
                  (SaturatingLinear(), ExpOverX(), Affine(1.0, 1.0))):
        net = Network(("s", "a", "t"), edges, costs, "s", "t")
        opt = opt_general_marginal(net, 4.0)
        margs = tuple(c.marginal_function() for c in costs)
        report = verify_equilibrium(Network(net.vertices, edges, margs, "s", "t"), opt.flow)
        assert report.residual <= RESIDUAL_RTOL * report.min_entry_cost
        assert opt.cost <= wardrop_general(net, 4.0).cost


GRID_DEMANDS = (0.3, 1.0, 3.0, 10.0, 100.0)
WARM_COST_ULPS = 5  # the largest gap measured over these 120 cases


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cost_of", [affine, bpr])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_poa_starts_the_general_optimum_from_the_equilibrium(n, cost_of, seed):
    # the warm-started optimum meets the KKT bound on the marginal network,
    # and its cost is the cold one's to a few ulps: both end within the
    # bound, at iterates that differ
    net = grid(n, cost_of, seed)
    for M in GRID_DEMANDS:
        warm = poa(net, M).optimum
        report = verify_equilibrium(net.marginal, warm.flow)
        assert report.residual <= RESIDUAL_RTOL * report.min_entry_cost
        cold = social_optimum(net, M).cost
        assert abs(warm.cost - cold) <= WARM_COST_ULPS * math.ulp(cold), M


FORK = str(Path(__file__).resolve().parent / "golden" / "fork.json")

GENERAL_POA = {  # (poa, optimum cost) from the cold-started optimum
    ("braess", 0.3): (1.0, 0.18),
    ("braess", 1.0): (1.3333333333333333, 1.5),
    ("braess", 3.0): (1.0, 7.5),
    ("braess", 10.0): (1.0, 60.0),
    ("braess", 100.0): (1.0, 5100.0),
    ("braess-x4", 1.0): (2.150501764876878, 0.9300155120377246),
    ("fork", 1.0): (1.0860138566096937, 1.8415971286439918),
    ("fork", 3.0): (1.0033794305350772, 14.581406273541845),
    ("fork", 10.0): (1.0021714572340799, 162.56495782133726),
    ("fork", 100.0): (1.005255318716494, 18191.93440687252),
}


@pytest.mark.parametrize("name, M", sorted(GENERAL_POA))
def test_warm_start_keeps_poa_on_braess_and_the_fork(name, M):
    # two used paths end in one exact split, wherever the Newton steps
    # started; the flows may still move by two ulps where the last step
    # leaves the other path of the pair the cheaper (the fork at M = 100)
    net = {"braess": braess(Affine(0.0, 1.0)), "braess-x4": braess(Monomial(1.0, 4.0)),
           "fork": load_network(FORK)}[name]
    got = poa(net, M)
    assert (got.poa, got.optimum.cost) == GENERAL_POA[name, M]
    cold = social_optimum(net, M).flow.path_flows
    for w, c in zip(got.optimum.flow.path_flows, cold):
        assert abs(w - c) <= 2.0 * math.ulp(c)


def _full_bracket_share(gap, total: float) -> float:
    """The pair split from [0, total], by plain bisection."""
    if not gap(0.0) < 0.0:
        return 0.0
    if gap(total) < 0.0:
        return total
    return _bisection(lambda y: not gap(y) < 0.0, 0.0, total)[1]


def test_seeded_pair_split_matches_the_full_bracket(monkeypatch):
    shares = []
    real = equilibrium._pair_share

    def checked(gap, total, seed):
        y = real(gap, total, seed)
        assert y == _full_bracket_share(gap, total), (total, seed)
        shares.append(abs(y - seed) <= 2.0**-30 * seed)
        return y

    monkeypatch.setattr(equilibrium, "_pair_share", checked)
    nets = [braess(Affine(0.0, 1.0)), braess(Monomial(1.0, 4.0)), braess(Monomial(1.0, 0.5)),
            load_network(FORK), *(grid(n, c, seed) for n in (3, 4, 5) for c in (affine, bpr) for seed in range(3))]
    for net in nets:
        for M in GRID_DEMANDS:
            poa(net, M)
            social_optimum(net, M)
    assert any(shares) and not all(shares)  # shares within the seeded bracket and outside it


def test_seeded_pair_split_falls_back_to_the_full_bracket():
    calls = []

    def gap_of(root_at):
        return lambda y: calls.append(y) or y - root_at

    cases = [(-1.0, 3.0, 2.9, 0.0),  # the target gains at every share: 0
             (5.0, 3.0, 2.9, 3.0),  # the target loses at every share: the whole total
             (1.0, 3.0, 2.5, 1.0),  # the sign changes far from the seed
             (1.0, 3.0, 0.0, 1.0),  # no seed
             (2.5, 3.0, 2.5, 2.5)]  # the seed is the share: its bracket holds it
    for root_at, total, seed, want in cases:
        calls.clear()
        assert equilibrium._pair_share(gap_of(root_at), total, seed) == want
        assert (0.0 in calls) == (want != seed)


@pytest.mark.parametrize("cost_of", [affine, bpr])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_warm_started_optimum_takes_fewer_newton_steps(monkeypatch, n, cost_of):
    # counted over the seeds and demands: one case of the 90, grid(5, bpr,
    # seed 2) at M = 3, takes 46 steps from the equilibrium against 18 cold
    calls = []
    real = equilibrium._newton_step
    monkeypatch.setattr(equilibrium, "_newton_step", lambda *a: calls.append(a) or real(*a))

    def steps(solve, net, M):
        calls.clear()
        solve(net, M)
        return len(calls)

    warm = cold = 0
    for seed in range(3):
        net = grid(n, cost_of, seed)
        for M in GRID_DEMANDS:
            warm += steps(poa, net, M) - steps(wardrop_general, net, M)
            cold += steps(social_optimum, net, M)
    assert warm < cold


@pytest.mark.parametrize("M", [1e-170, 1e-300])
@pytest.mark.parametrize(
    "costs",
    [
        [Monomial(1.0, 2.0), PwlSquare(2.0)],
        [Monomial(1.0, 2.0), Polynomial((0.0, 1.0, 3.0))],
        [Affine(0.0, 2.0), Monomial(1.0, 2.0)],
    ],
    ids=["pwl:2", "polynomial-over-common-rv", "derivative-limit"],
)
def test_level_that_underflows_to_zero_is_a_domain_error(costs, M):
    # min c_i(M) rounds to 0, where doubling the level's upper end gets nowhere
    with pytest.raises(DomainError, match="below the range native floats resolve"):
        wardrop_parallel(build_parallel(costs), M)


@pytest.mark.parametrize("solve", [wardrop_parallel, opt_parallel_marginal])
def test_subnormal_level_is_a_domain_error(solve):
    # derivative-limit (2x against x^2): the level, about M^2 = 5e-318, is
    # subnormal, where RESIDUAL_RTOL * lam rounds to 0 and no residual but 0
    # would meet the bound
    net = build_parallel([Affine(0.0, 2.0), Monomial(1.0, 2.0)])
    with pytest.raises(DomainError, match="cost level underflows at M=2.276895660721214e-159"):
        solve(net, 2.276895660721214e-159)


# ---------------------------------------------------------------------------
# log-domain solver
# ---------------------------------------------------------------------------


def test_log_solver_factorial_example():
    # alpha_3 = 6, alpha_4 = 24, M = 31 lands in the upper regime
    sol = wardrop_parallel_log(exp_game(AlphaSequence("factorial")), 31.0)
    assert sol.flow.path_flows == pytest.approx((24.0, 7.0))
    expected = math.log(31.0) + 24.0 - math.log(24.0)
    assert sol.cost.log_magnitude == pytest.approx(expected, rel=1e-12)
    assert sol.residual <= 1e-9


def test_log_solver_lower_regime_pins_step_link():
    alphas = AlphaSequence("factorial")
    M = 2.0 * 6.0 + 1e-6  # just above 2 alpha_3
    sol = wardrop_parallel_log(exp_game(alphas), M)
    assert sol.flow.path_flows[1] == 6.0


def test_log_solver_matches_native_floats_at_small_scale():
    alphas = AlphaSequence("explicit", values=(1.0, 3.0, 30.0))
    net = exp_game(alphas)
    M = 8.0
    log_sol = wardrop_parallel_log(net, M)
    native = social_cost(net, log_sol.flow)
    assert log_sol.cost.to_float() == pytest.approx(native, rel=1e-12)


@pytest.mark.parametrize(
    "alphas, seed",
    [
        (AlphaSequence("factorial"), 11),
        (AlphaSequence("supergeometric", base=2.0), 12),
        (AlphaSequence("supergeometric", base=1.5), 13),
        (AlphaSequence("explicit", values=(1.0, 3.0, 10.0, 50.0, 400.0, 1e4, 1e6, 1e9)), 14),
    ],
    ids=["factorial", "supergeometric:2", "supergeometric:1.5", "explicit"],
)
def test_log_solver_cost_is_the_log_sum_exp_of_its_links(alphas, seed):
    """The equilibrium's cost, bit for bit, against a log-sum-exp written
    out here: a fold from the first link's term, with the larger log as the
    shift.  The level is the larger of the two links' logs."""
    net = exp_game(alphas)
    rng = random.Random(seed)
    lo, hi = 2.0 * alphas.alpha(1), min(1e300, 2.0 * alphas.alpha(alphas.max_index()))
    for _ in range(500):
        M = hi * (lo / hi) ** rng.random()
        sol = wardrop_parallel_log(net, M)
        logs = [c.eval_log(f) for c, f in zip(net.costs, sol.flow.path_flows)]
        terms = [math.log(f) + t for f, t in zip(sol.flow.path_flows, logs)]
        total = terms[0]
        for t in terms[1:]:
            top, bottom = max(total, t), min(total, t)
            total = top + math.log1p(math.exp(bottom - top))
        assert sol.cost.log_magnitude == total and not sol.cost.is_zero, f"M={M!r}"
        assert sol.lam.log_magnitude == max(logs), f"M={M!r}"


def test_log_solver_degenerate_sequence():
    with pytest.raises(DemandBracketError):
        wardrop_parallel_log(exp_game(AlphaSequence("explicit", values=(5.0,))), 20.0)


def test_log_solver_demand_below_lattice():
    # at or below 2 alpha_1 the bracket is k = 0, alpha_0 = 0: the smooth link
    # carries M up to alpha_1, the step link no flow, and on factorial both
    # links cost e, so the price of anarchy is 1
    net = exp_game(AlphaSequence("factorial"))
    for M in (1e-300, 0.5, 1.0, 1.5, 2.0):
        r = poa(net, M)
        x, y = r.equilibrium.flow.path_flows
        assert (x, y) == ((M, 0.0) if M <= 1.0 else (1.0, M - 1.0)), M
        assert r.equilibrium.residual == 0.0 and abs(r.poa - 1.0) <= math.ulp(1.0), M


def test_log_solver_requires_exp_instance():
    with pytest.raises(UnsupportedCostError):
        wardrop_parallel_log(pigou(), 5.0)
