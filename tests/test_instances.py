"""classify: the one place a network is matched to its solvers."""

from types import SimpleNamespace

import pytest

from wardrop import costs
from wardrop.costs import AlphaSequence
from wardrop.instances import (
    InstanceKind,
    classify,
    designated_limit_instances,
    named_instance,
)
from wardrop.network import Edge, Network

FACTORIAL = AlphaSequence("factorial")
PARALLEL = InstanceKind("parallel")
GENERAL = InstanceKind("general")


def _parallel(net_cls, *costs_):
    edges = tuple(Edge(f"e{i + 1}", "s", "t") for i in range(len(costs_)))
    return net_cls(("s", "t"), edges, tuple(costs_), "s", "t")


def _braess(net_cls, k):
    edges = (
        Edge("sa", "s", "a"), Edge("at", "a", "t"), Edge("sb", "s", "b"),
        Edge("bt", "b", "t"), Edge("ab", "a", "b"),
    )
    cs = (k.Affine(0.0, 1.0), k.Constant(1.0), k.Constant(1.0), k.Affine(0.0, 1.0), k.Constant(0.0))
    return net_cls(("s", "a", "b", "t"), edges, cs, "s", "t")


def _series(net_cls, *costs_):
    names = ["s"] + [f"v{i}" for i in range(1, len(costs_))] + ["t"]
    edges = tuple(Edge(f"e{i}", names[i], names[i + 1]) for i in range(len(costs_)))
    return net_cls(tuple(names), edges, tuple(costs_), "s", "t")


NAMED = {
    "pigou": PARALLEL,
    "step:2": InstanceKind("step", 2.0),
    "step:3": InstanceKind("step", 3.0),
    "pwl:2": InstanceKind("pwl", 2.0),
    "pwl:3.5": InstanceKind("pwl", 3.5),
    "exp": InstanceKind("exp", FACTORIAL),
    "exp:factorial": InstanceKind("exp", FACTORIAL),
    "exp:supergeometric:3": InstanceKind("exp", AlphaSequence("supergeometric", base=3.0)),
}

# Each builder takes (Network class, namespace of cost families), so every
# case also runs with subclasses of both, the way instrumented callers build them.
BUILT = {
    "step": (
        lambda N, k: _parallel(N, k.Affine(0.0, 1.0), k.StepGeometric(2.0)),
        InstanceKind("step", 2.0),
    ),
    "pwl": (
        lambda N, k: _parallel(N, k.Monomial(1.0, 2.0), k.PwlSquare(2.0)),
        InstanceKind("pwl", 2.0),
    ),
    "exp": (
        lambda N, k: _parallel(N, k.ExpOverX(), k.StepExp(FACTORIAL)),
        InstanceKind("exp", FACTORIAL),
    ),
    "three links": (
        lambda N, k: _parallel(N, k.Affine(0.0, 1.0), k.Affine(1.0, 2.0), k.Constant(2.5)),
        PARALLEL,
    ),
    "braess": (_braess, GENERAL),
    # near misses
    "affine 2x + step": (
        lambda N, k: _parallel(N, k.Affine(0.0, 2.0), k.StepGeometric(2.0)), PARALLEL,
    ),
    "monomial identity + step": (
        lambda N, k: _parallel(N, k.Monomial(1.0, 1.0), k.StepGeometric(2.0)),
        InstanceKind("step", 2.0),
    ),
    "identity + pwl": (
        lambda N, k: _parallel(N, k.Affine(0.0, 1.0), k.PwlSquare(2.0)), PARALLEL,
    ),
    "square + step": (
        lambda N, k: _parallel(N, k.Monomial(1.0, 2.0), k.StepGeometric(2.0)), PARALLEL,
    ),
    "step first": (
        lambda N, k: _parallel(N, k.StepGeometric(2.0), k.Affine(0.0, 1.0)), PARALLEL,
    ),
    "step + third link": (
        lambda N, k: _parallel(N, k.Affine(0.0, 1.0), k.StepGeometric(2.0), k.Constant(5.0)),
        PARALLEL,
    ),
    "exp in series": (lambda N, k: _series(N, k.ExpOverX(), k.StepExp(FACTORIAL)), GENERAL),
}

FAMILIES = ("Affine", "Constant", "Monomial", "StepGeometric", "PwlSquare", "ExpOverX", "StepExp")
PLAIN = SimpleNamespace(**{name: getattr(costs, name) for name in FAMILIES})
SUBCLASSED = SimpleNamespace(
    **{name: type(name, (getattr(costs, name),), {}) for name in FAMILIES}
)
SubNetwork = type("Network", (Network,), {})


@pytest.mark.parametrize("name", sorted(NAMED))
def test_classify_named_instances(name):
    assert classify(named_instance(name)) == NAMED[name]


@pytest.mark.parametrize("name", sorted(designated_limit_instances()))
def test_classify_designated_limit_instances(name):
    assert classify(designated_limit_instances()[name]) == PARALLEL


@pytest.mark.parametrize("name", sorted(BUILT))
def test_classify_built_networks(name):
    build, expected = BUILT[name]
    assert classify(build(Network, PLAIN)) == expected


@pytest.mark.parametrize("name", sorted(BUILT))
def test_classify_sees_through_subclasses(name):
    build, expected = BUILT[name]
    assert classify(build(SubNetwork, SUBCLASSED)) == expected
