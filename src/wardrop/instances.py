"""Built-in game instances, and the classifier that routes a network to
its solvers."""

from __future__ import annotations

import math
from typing import NamedTuple

from .costs import (
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
from .errors import DomainError
from .network import Network, build_parallel


class InstanceKind(NamedTuple):
    """How a network is solved.

    ``name`` is one of exp | step | pwl (the paper's two-link
    counterexamples, each with an exact optimum), parallel or general.
    ``param`` is a for step and pwl, whose PoA repeats on the windows
    (2a^k, 2a^{k+1}], and the alpha sequence for exp.
    """

    name: str
    param: float | AlphaSequence | None = None


def _is_power(c: CostFunction, degree: float) -> bool:
    """c(x) = x**degree exactly; the identity may also be the affine x."""
    if isinstance(c, Monomial):
        return c.coef == 1.0 and c.degree == degree
    return degree == 1.0 and isinstance(c, Affine) and c.a == 0.0 and c.b == 1.0


def classify(net: Network) -> InstanceKind:
    """The single place where instances are recognised (by isinstance, so
    subclasses of the cost families and of Network classify as their base).
    The kind is decided once per network and kept on it, as its
    ``canonical`` order and ``marginal`` game are."""
    kind = vars(net).get("_kind")
    if kind is None:
        kind = vars(net)["_kind"] = _classify(net)
    return kind


def _classify(net: Network) -> InstanceKind:
    if not net.is_parallel():
        return InstanceKind("general")
    if net.n_edges == 2:
        c1, c2 = net.costs
        if isinstance(c1, ExpOverX) and isinstance(c2, StepExp):
            return InstanceKind("exp", c2.alphas)
        if _is_power(c1, 1.0) and isinstance(c2, StepGeometric):
            return InstanceKind("step", c2.a)
        if _is_power(c1, 2.0) and isinstance(c2, PwlSquare):
            return InstanceKind("pwl", c2.a)
    return InstanceKind("parallel")


def pigou() -> Network:
    """Two roads: c1(x) = x and c2 = 1; the classic 4/3 example."""
    return build_parallel([Affine(0.0, 1.0), Constant(1.0)])


def step_game(a: float) -> Network:
    """Identity vs geometric step: periodic price of anarchy on log scale."""
    return build_parallel([Affine(0.0, 1.0), StepGeometric(a)])


def pwl_game(a: float) -> Network:
    """x^2 vs its chordal interpolation: convex costs, PoA not -> 1."""
    return build_parallel([Monomial(1.0, 2.0), PwlSquare(a)])


def exp_game(alphas: AlphaSequence | None = None) -> Network:
    """exp(x)/x vs its step majorant: unbounded limsup of the PoA."""
    return build_parallel([ExpOverX(), StepExp(alphas or AlphaSequence())])


def named_instance(name: str) -> Network:
    """Resolve CLI shorthand: pigou | step:A | pwl:A | exp:factorial |
    exp:supergeometric:BASE."""
    parts = name.split(":")
    head = parts[0]
    if head == "pigou" and len(parts) == 1:
        return pigou()
    if head == "step" and len(parts) == 2:
        return step_game(float(parts[1]))
    if head == "pwl" and len(parts) == 2:
        return pwl_game(float(parts[1]))
    if head == "exp":
        if len(parts) == 1 or parts[1] == "factorial":
            return exp_game(AlphaSequence("factorial"))
        if parts[1] == "supergeometric":
            base = float(parts[2]) if len(parts) > 2 else 2.0
            return exp_game(AlphaSequence("supergeometric", base=base))
    raise DomainError(f"unknown named instance {name!r}")


def designated_limit_instances() -> dict[str, Network]:
    """The six instances exercising each class where the PoA drains to 1."""
    return {
        "bounded-path": build_parallel([Affine(0.0, 1.0), Constant(1.0)]),
        "shifted-affine": build_parallel(
            [Shifted(Affine(0.0, 1.0), 1.0), Shifted(Affine(0.0, 2.0), 3.0)]
        ),
        "affine": build_parallel([Affine(1.0, 1.0), Affine(2.0, 3.0)]),
        "polynomial-over-common-rv": build_parallel(
            [Monomial(1.0, 2.0), Polynomial((0.0, 1.0, 3.0))]
        ),
        "derivative-limit": build_parallel([Affine(0.0, 2.0), Monomial(1.0, 2.0)]),
        "affine-sandwich": build_parallel([SaturatingLinear(), Affine(0.0, 1.0)]),
    }


def step_breakpoints(a: float, k_lo: int, k_hi: int) -> list[float]:
    """Region boundaries of the step game within periods k_lo..k_hi:
    {a^k, 2a^k, alpha a^k, beta a^k, (1+a) a^k, gamma a^k}."""
    alpha = 1.0 + a / 2.0
    beta = alpha + math.sqrt(a - 1.0)
    gamma = 1.5 * a
    out = []
    for k in range(k_lo, k_hi + 1):
        base = a**k
        out.extend([base, 2.0 * base, alpha * base, beta * base, (1.0 + a) * base, gamma * base])
    return sorted(set(out))
