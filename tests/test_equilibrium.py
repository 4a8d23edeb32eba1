import math
import random
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from wardrop.costs import (
    Affine,
    AlphaSequence,
    Constant,
    Monomial,
    Polynomial,
    Shifted,
    StepGeometric,
)
from wardrop import equilibrium
from wardrop.errors import (
    ConvergenceError,
    DemandBracketError,
    DomainError,
    RangeOverflowError,
    UnsupportedCostError,
)
from wardrop.instances import exp_game, pigou, step_game
from wardrop.network import Edge, FlowProfile, Network, build_parallel, social_cost
from wardrop.optimum import opt_general_marginal
from wardrop.equilibrium import (
    GENERAL_RTOL,
    verify_equilibrium,
    wardrop_equilibrium,
    wardrop_general,
    wardrop_parallel,
    wardrop_parallel_log,
)


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
        assert sol.residual <= 1e-9 * max(sol.lam, 1.0)


def test_equilibrium_cost_unique_across_bisection_seeds():
    net = build_parallel([Affine(1.0, 2.0), StepGeometric(2.0), Constant(40.0)])
    for M in (3.0, 10.0, 27.5):
        a = wardrop_parallel(net, M, hi_seed=1.0)
        b = wardrop_parallel(net, M, hi_seed=7.3)
        assert a.cost == pytest.approx(b.cost, rel=1e-9)


def test_lambda_monotone_in_demand():
    net = step_game(3.0)
    lams = [wardrop_parallel(net, M).lam for M in np.geomspace(0.5, 200.0, 60)]
    assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:]))


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
    # carries nothing; a full pairwise step empties it exactly
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
    assert sol.residual <= GENERAL_RTOL * max(sol.lam, 1.0)
    assert verify_equilibrium(net, sol.flow).residual <= GENERAL_RTOL * max(sol.lam, 1.0)
    assert sol.cost == pytest.approx(beckmann_reference_cost(net, M), rel=1e-6)


def test_general_iteration_cap_raises_with_the_residual(monkeypatch):
    monkeypatch.setattr(equilibrium, "GENERAL_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as exc:
        wardrop_general(grid(4, bpr), 10.0)
    assert exc.value.residual > GENERAL_RTOL


@pytest.mark.parametrize("cost_of", [affine, bpr])
def test_general_iterates_do_not_depend_on_edge_order(monkeypatch, cost_of):
    steps = []
    real = equilibrium.false_position

    def recorded(*args):
        steps.append(real(*args))
        return steps[-1]

    monkeypatch.setattr(equilibrium, "false_position", recorded)
    net = grid(4, cost_of)
    runs = []
    for order in (range(24), range(23, -1, -1), [*range(7, 24), *range(7)]):
        relisted = Network(
            net.vertices[::-1],
            tuple(net.edges[e] for e in order),
            tuple(net.costs[e] for e in order),
            net.source,
            net.sink,
        )
        steps.clear()
        sol = wardrop_general(relisted, 10.0)
        by_path = {
            frozenset(relisted.edges[e].id for e in p): x
            for p, x in zip(relisted.paths, sol.flow.path_flows)
        }
        runs.append((list(steps), by_path, sol.lam, relisted.paths))
    assert runs[0][3] != runs[1][3] != runs[2][3]  # the paths come in other orders
    for line_searches, by_path, lam, _ in runs[1:]:
        assert line_searches == runs[0][0]
        assert by_path == runs[0][1]
        assert lam == runs[0][2]


def test_general_edge_cost_overflow_is_a_range_error():
    # 0.15 x^4 leaves the float range at x = 1e80 without raising
    with pytest.raises(RangeOverflowError, match="M=1e\\+80"):
        wardrop_general(grid(3, bpr), 1e80)


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


def test_log_solver_degenerate_sequence():
    with pytest.raises(DemandBracketError):
        wardrop_parallel_log(exp_game(AlphaSequence("explicit", values=(5.0,))), 20.0)


def test_log_solver_demand_below_lattice():
    with pytest.raises(DemandBracketError):
        wardrop_parallel_log(exp_game(AlphaSequence("factorial")), 1.5)


def test_log_solver_requires_exp_instance():
    with pytest.raises(UnsupportedCostError):
        wardrop_parallel_log(pigou(), 5.0)
