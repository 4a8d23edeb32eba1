import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from wardrop.equilibrium import USED_RTOL, ResidualReport, verify_equilibrium
from wardrop.errors import DomainError, GameError
from wardrop.network import (
    Edge,
    FlowProfile,
    Network,
    build_parallel,
    edge_flows,
    load_network,
    network_from_spec,
    network_to_spec,
    social_cost,
)


def flow_of(path_flows) -> FlowProfile:
    """The profile of ``path_flows`` whose total is their correctly rounded sum."""
    flows = tuple(float(f) for f in path_flows)
    return FlowProfile(flows, math.fsum(flows))


def social_cost_path_form(net: Network, flow: FlowProfile) -> float:
    """sum_P x_P c_P(x), the path form the edge form must agree with."""
    x = edge_flows(net, flow)
    return math.fsum(
        f * net.path_cost(i, x) for i, f in enumerate(flow.path_flows) if f > 0
    )


def _series_parallel():
    """Two parallel edges into a shared tail edge: P1={e1,e3}, P2={e2,e3}."""
    return Network(
        ("s", "v", "t"),
        (Edge("e1", "s", "v"), Edge("e2", "s", "v"), Edge("e3", "v", "t")),
        (Affine(0.0, 1.0), Constant(1.0), Affine(0.0, 1.0)),
        "s",
        "t",
    )


def test_build_parallel_examples():
    net = build_parallel([Affine(0.0, 1.0), Constant(1.0)])
    assert net.n_paths == 2
    assert all(len(p) == 1 for p in net.paths)

    single = build_parallel([Affine(0.0, 1.0)])
    assert single.n_paths == 1
    f = FlowProfile((4.0,), 4.0)
    assert edge_flows(single, f) == [4.0]

    three = build_parallel([Constant(1.0), Constant(2.0), Constant(3.0)])
    flows = FlowProfile((1.0, 2.0, 3.0), 6.0)
    assert edge_flows(three, flows) == [1.0, 2.0, 3.0]


def test_build_parallel_rejects_empty():
    with pytest.raises(DomainError):
        build_parallel([])


def test_edge_flows_examples():
    net = build_parallel([Affine(0.0, 1.0), Constant(1.0)])
    assert edge_flows(net, FlowProfile((3.0, 4.0), 7.0)) == [3.0, 4.0]

    sp = _series_parallel()
    x = edge_flows(sp, FlowProfile((1.0, 2.0), 3.0))
    assert x == [1.0, 2.0, 3.0]  # shared edge carries the sum

    assert edge_flows(net, FlowProfile((0.0, 0.0), 0.0)) == [0.0, 0.0]


def test_edge_flows_are_correctly_rounded():
    # three paths into one shared edge: a sum in path order loses each 1
    # against 1e16 (the spacing of floats there is 2)
    net = Network(
        ("s", "v", "t"),
        (Edge("a", "s", "v"), Edge("b", "s", "v"), Edge("c", "s", "v"), Edge("vt", "v", "t")),
        tuple(Constant(1.0) for _ in range(4)),
        "s",
        "t",
    )
    assert edge_flows(net, flow_of([1e16, 1.0, 1.0])) == [1e16, 1.0, 1.0, 1e16 + 2.0]
    assert net.through == ((0,), (1,), (2,), (0, 1, 2))
    assert net.path_sets == (frozenset({0, 3}), frozenset({1, 3}), frozenset({2, 3}))
    assert net.path_sets is net.path_sets  # built once, like the incidence


@pytest.mark.parametrize("edges", [(), (Edge("e1", "s", "t"),)], ids=["no-edges", "one-edge"])
def test_network_refuses_source_equal_to_sink(edges):
    # its one path would be the empty one, which carries the demand at no cost
    with pytest.raises(DomainError, match="source and sink must differ"):
        Network(("s", "t"), edges, tuple(Affine(0.0, 1.0) for _ in edges), "s", "s")


def test_edge_flows_dimension_mismatch():
    net = build_parallel([Affine(0.0, 1.0), Constant(1.0)])
    with pytest.raises(DomainError):
        edge_flows(net, FlowProfile((1.0,), 1.0))


def test_flow_profile_feasibility():
    with pytest.raises(DomainError):
        FlowProfile((1.0, 1.0), 3.0)
    with pytest.raises(DomainError):
        FlowProfile((-0.5, 1.5), 1.0)
    assert flow_of([0.25, 0.75]).total == 1.0


@pytest.mark.parametrize("flows, total", [
    ((math.nan, 1.0), 1.0),
    ((math.inf, 1.0), math.inf),
    ((1.0, 2.0), math.nan),
    ((1.0, 2.0), math.inf),
    ((math.nan,), math.nan),
])
def test_flow_profile_rejects_nan_and_inf(flows, total):
    with pytest.raises(DomainError, match="finite"):
        FlowProfile(flows, total)


@pytest.mark.parametrize("flows, total", [((10**400,), 1.0), ((1.0,), 10**400)], ids=["flow", "total"])
def test_flow_profile_int_past_the_float_range_is_not_finite(flows, total):
    # float() of such an int once raised a bare OverflowError
    with pytest.raises(DomainError, match="flows must be finite"):
        FlowProfile(flows, total)


@pytest.mark.parametrize("total", [math.inf, sys.float_info.max])
def test_flow_profile_sum_past_the_float_range_is_a_domain_error(total):
    # fsum raises a bare OverflowError on the intermediate sum
    with pytest.raises(DomainError, match="float range"):
        FlowProfile((1e308, 1e308), total)


def test_social_cost_examples():
    net = build_parallel([Affine(0.0, 1.0), Constant(1.0)])
    assert social_cost(net, FlowProfile((0.5, 0.5), 1.0)) == pytest.approx(0.75)
    assert social_cost(net, FlowProfile((1.0, 0.0), 1.0)) == pytest.approx(1.0)
    assert social_cost(net, FlowProfile((0.0, 0.0), 0.0)) == 0.0


@settings(max_examples=30)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=2))
def test_edge_and_path_form_agree(flows):
    net = build_parallel([Affine(1.0, 2.0), Monomial(1.0, 2.0)])
    f = flow_of(flows)
    edge_form = social_cost(net, f)
    path_form = social_cost_path_form(net, f)
    assert edge_form == pytest.approx(path_form, rel=1e-12, abs=1e-12)


def test_edge_and_path_form_agree_on_shared_edge():
    sp = _series_parallel()
    f = FlowProfile((1.25, 2.5), 3.75)
    assert social_cost(sp, f) == pytest.approx(social_cost_path_form(sp, f), rel=1e-12)


def test_edge_flows_linear():
    sp = _series_parallel()
    f = np.array([1.0, 2.0])
    g = np.array([0.5, 3.0])
    a, b = 2.0, 0.25
    combo = edge_flows(sp, flow_of(a * f + b * g))
    parts = a * np.array(edge_flows(sp, flow_of(f))) + b * np.array(edge_flows(sp, flow_of(g)))
    assert np.allclose(combo, parts, rtol=1e-12)


def test_parallel_path_count_matches_edges():
    for n in (1, 2, 5, 9):
        net = build_parallel([Constant(float(i + 1)) for i in range(n)])
        assert net.n_paths == n
        assert net.is_parallel()


def test_diamond_enumeration_and_cycle_rejection():
    net = Network(
        ("s", "a", "b", "t"),
        (
            Edge("sa", "s", "a"),
            Edge("sb", "s", "b"),
            Edge("ab", "a", "b"),
            Edge("ba", "b", "a"),  # would close a cycle
            Edge("at", "a", "t"),
            Edge("bt", "b", "t"),
        ),
        tuple(Constant(1.0) for _ in range(6)),
        "s",
        "t",
    )
    labels = {tuple(net.edges[e].id for e in p) for p in net.paths}
    assert labels == {
        ("sa", "at"),
        ("sa", "ab", "bt"),
        ("sb", "bt"),
        ("sb", "ba", "at"),
    }


def test_no_path_is_an_error():
    with pytest.raises(GameError):
        Network(("s", "t", "u"), (Edge("e", "s", "u"),), (Constant(1.0),), "s", "t")


def test_json_round_trip(tmp_path):
    net = build_parallel([Affine(1.0, 2.0), StepGeometric(2.0)])
    spec = network_to_spec(net)
    again = network_from_spec(json.loads(json.dumps(spec)))
    assert again.vertices == net.vertices
    assert again.costs == net.costs
    assert again.paths == net.paths

    path = tmp_path / "net.json"
    path.write_text(json.dumps(spec))
    assert load_network(str(path)).costs == net.costs


def test_json_missing_field():
    with pytest.raises(DomainError):
        network_from_spec({"vertices": ["s", "t"], "edges": [], "source": "s"})


# ---------------------------------------------------------------------------
# links are paths: the one-term sums of a parallel network
# ---------------------------------------------------------------------------

# each of the ten cost families, drawn with parameters that include -0.0
# (a cost of -0.0, which the one-term fsum turns into 0.0) and a numpy float
# (a cost the fsum turns into a float)
FAMILY_DRAWS = (
    lambda r: Affine(r.choice([-0.0, 0.0, 1.0, 2.5]), r.choice([-0.0, 0.0, 1.0, 3.0])),
    lambda r: Constant(r.choice([-0.0, 0.0, 1.0, 1e308, np.float64(2.0)])),
    lambda r: Monomial(r.choice([1.0, 2.0]), r.choice([0.5, 1.0, 2.0, 4.0])),
    lambda r: Polynomial((r.choice([-0.0, 1.0]), 1.0, r.choice([0.0, 3.0]))),
    lambda r: SaturatingLinear(),
    lambda r: StepGeometric(r.choice([2.0, 3.0])),
    lambda r: PwlSquare(r.choice([2.0, 3.0])),
    lambda r: ExpOverX(),
    lambda r: StepExp(AlphaSequence("factorial")),
    lambda r: Shifted(Affine(0.0, r.choice([1.0, 2.0])), r.choice([-0.0, 1.0])),
)
FLOW_DRAWS = (0.0, -0.0, 5e-324, 1e-200, 0.5, 1.0, 3.0, 1e300, 1e308, sys.float_info.max, math.inf, math.nan)


def raw_flow(path_flows) -> FlowProfile:
    """A profile of ``path_flows`` with their sum (inf where it overflows) as
    total, built past the constructor's checks, which a NaN or infinite flow
    and an overflowing sum fail."""
    try:
        total = math.fsum(path_flows)
    except OverflowError:
        total = math.inf
    flow = object.__new__(FlowProfile)
    object.__setattr__(flow, "path_flows", tuple(path_flows))
    object.__setattr__(flow, "total", total)
    return flow


def incidence_outcomes(net: Network, flow: FlowProfile) -> list:
    """edge_flows, social_cost and verify_equilibrium as sums over the
    incidence lists, as on any network: each result's repr, or its error's
    type and text."""
    def flows():
        if len(flow.path_flows) != net.n_paths:
            raise DomainError(f"flow has {len(flow.path_flows)} entries for {net.n_paths} paths")
        return [math.fsum([f for p, f in zip(net.paths, flow.path_flows) if e in p]) for e in range(net.n_edges)]

    def cost():
        return math.fsum(xe * c.eval(xe) for c, xe in zip(net.costs, flows()))

    def verify():
        x = flows()
        min_entry = min(math.fsum(net.costs[e].eval_right(x[e]) for e in p) for p in net.paths)
        threshold = USED_RTOL * max(flow.total, 0.0)
        gaps = (math.fsum(net.costs[e].eval(x[e]) for e in net.paths[i]) - min_entry
                for i, f in enumerate(flow.path_flows) if f > threshold)
        return ResidualReport(max([0.0, *gaps]), min_entry)

    return [outcome(f) for f in (flows, cost, verify)]


def library_outcomes(net: Network, flow: FlowProfile) -> list:
    return [outcome(lambda: call(net, flow)) for call in (edge_flows, social_cost, verify_equilibrium)]


def outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # every error the sums raise, typed or bare
        return type(exc), str(exc)


def test_links_are_paths_sums_match_the_incidence_sums():
    """On a parallel network (path i is link i) every result or error is
    the incidence sums' own, -0.0 flows and costs, subnormal flows and flows
    past the float range included."""
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        costs = [FAMILY_DRAWS[seed % 10](rng), *(rng.choice(FAMILY_DRAWS)(rng) for _ in range(n - 1))]
        net = build_parallel(costs)
        flows = [rng.choice(FLOW_DRAWS) for _ in range(n)]
        for flow in (raw_flow(flows), raw_flow([*flows, 1.0])):  # the second has one entry too many
            assert library_outcomes(net, flow) == incidence_outcomes(net, flow), (seed, net, flow)


@pytest.mark.parametrize("cost", [Constant(-0.0), Affine(-0.0, -0.0), Shifted(Affine(0.0, 1.0), -0.0)], ids=repr)
def test_a_cost_of_minus_zero_reads_as_zero_on_the_links(cost):
    # fsum([-0.0]) is 0.0: the path costs, min_entry among them, are 0.0
    net = build_parallel([cost, Affine(1.0, 1.0)])
    report = verify_equilibrium(net, FlowProfile((-0.0, 0.0), 0.0))
    assert repr(report) == "ResidualReport(residual=0.0, min_entry_cost=0.0)"
    assert repr(edge_flows(net, FlowProfile((-0.0, 1.0), 1.0))) == "[0.0, 1.0]"


def test_the_graph_fixes_the_paths():
    # a network takes no path list: its paths are its graph's, and path i
    # of a parallel network is link i
    costs = [Affine(float(i), 1.0) for i in range(11)]
    net = build_parallel(costs)
    with pytest.raises(TypeError):
        Network(net.vertices, net.edges, net.costs, "s", "t", paths=((0,),))
    assert net.paths == tuple((i,) for i in range(len(costs)))
    assert net.marginal.paths == net.paths
    # the canonical order is of path indices, by edge id: e1, e10, e11, e2, ...
    assert net.canonical == (0, 9, 10, *range(1, 9))
