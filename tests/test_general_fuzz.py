"""Seeded random networks of 3-5 vertices through ``wardrop_equilibrium``
and ``poa``: every call either answers within the residual bound, with a
PoA of at least 1, or raises a typed ``GameError``.  An interpolated-square
edge has a discontinuous marginal, so ``poa`` refuses a general network
with one; the equilibrium alone is still checked there.

    PYTHONPATH=src python tests/test_general_fuzz.py 381

prints the outcome classes of the first 381 seeds, one line each.
"""

import random
import sys

import pytest

from wardrop.asymptotics import poa
from wardrop.costs import Affine, Constant, Monomial, Polynomial, PwlSquare, SaturatingLinear
from wardrop.equilibrium import RESIDUAL_RTOL, verify_equilibrium, wardrop_equilibrium
from wardrop.errors import GameError
from wardrop.network import Edge, Network

SEEDS = 40


def random_cost(draw: random.Random):
    # the interpolated square rarely: its marginal has jumps, so poa refuses it
    kind = draw.choices(range(6), weights=(5, 5, 5, 3, 1, 3))[0]
    if kind == 0:
        return Affine(draw.uniform(0.0, 2.0), draw.uniform(0.1, 2.0))
    if kind == 1:
        return Monomial(draw.uniform(0.5, 2.0), draw.choice((0.5, 1.0, 2.0, 3.0)))
    if kind == 2:
        return Polynomial(tuple(draw.uniform(0.0, 1.0) for _ in range(draw.randint(2, 4))))
    if kind == 3:
        return SaturatingLinear()
    if kind == 4:
        return PwlSquare(draw.choice((2.0, 3.0)))
    return Constant(draw.uniform(0.5, 3.0))


def random_instance(seed: int) -> tuple[Network, float]:
    """A multigraph on 3-5 vertices, v0 to the last, with at least one path,
    and a demand log-uniform on [0.1, 100]."""
    draw = random.Random(seed)
    while True:
        names = tuple(f"v{i}" for i in range(draw.randint(3, 5)))
        edges = tuple(Edge(f"e{j}", *draw.sample(names, 2))
                      for j in range(draw.randint(len(names), 2 * len(names) + 1)))
        costs = tuple(random_cost(draw) for _ in edges)
        try:
            net = Network(names, edges, costs, names[0], names[-1])
        except GameError:  # no path from the source to the sink
            continue
        return net, 10.0 ** draw.uniform(-1.0, 2.0)


def outcome(seed: int) -> tuple[str, str]:
    """The equilibrium's and ``poa``'s outcome: "ok" once the answer's bounds
    are checked, else the error's class name."""
    net, M = random_instance(seed)
    try:
        eq = wardrop_equilibrium(net, M)
        assert verify_equilibrium(net, eq.flow).residual <= RESIDUAL_RTOL * eq.lam
        eq_outcome = "ok"
    except GameError as exc:
        eq_outcome = type(exc).__name__
    try:
        result = poa(net, M)
    except GameError as exc:
        return eq_outcome, type(exc).__name__
    assert result.poa >= 1.0 - 1e-9
    if "marginal" in result.optimum.method:  # the optimum is the marginal game's equilibrium
        margs = tuple(c.marginal_function() for c in net.costs)
        mnet = Network(net.vertices, net.edges, margs, net.source, net.sink)
        report = verify_equilibrium(mnet, result.optimum.flow)
        assert report.residual <= RESIDUAL_RTOL * report.min_entry_cost
    return eq_outcome, "ok"


@pytest.mark.parametrize("seed", range(SEEDS))
def test_random_network_answers_within_its_bounds_or_raises_a_game_error(seed):
    outcome(seed)


def test_most_random_networks_answer():
    outcomes = [outcome(seed) for seed in range(SEEDS)]
    assert sum(eq == "ok" for eq, _ in outcomes) >= 0.9 * SEEDS, outcomes
    assert sum(p == "ok" for _, p in outcomes) >= 0.3 * SEEDS, outcomes


if __name__ == "__main__":
    for seed in range(int(sys.argv[1]) if len(sys.argv) > 1 else SEEDS):
        print(seed, *outcome(seed))
