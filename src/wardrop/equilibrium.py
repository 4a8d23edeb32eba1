"""Wardrop equilibrium solvers.

The parallel solver finds the equilibrium cost level lambda as a root:
with set-valued inverses [x-_i, x+_i] = c_i^{-1}(lambda), the correct
level is the smallest lambda whose aggregate inverse interval
[sum x-_i, sum x+_i] contains the demand M.  This handles jumps (step
costs) and flats (constant costs) uniformly; any allocation inside the
per-link intervals is an equilibrium and the surplus M - sum x-_i is
distributed proportionally to interval widths, which is deterministic and
scale-covariant.  The search is ``costs.root`` on sum x+_i(lambda) - M,
with secant steps where every cost is continuous and bisection's splits
alone where a discontinuous link makes a staircase of that sum, until its
ends are adjacent floats.  So it has no tolerance and gives the
same answer at every scale, and the same answer bisection gives.

Equilibrium verification compares each used path's cost against the
cheapest *entry* cost (right limits of the edge costs): for continuous
costs this is the textbook condition, and for left-continuous step costs
it is the deviation an infinitesimal player would actually face, which is
what the counterexample constructions rely on.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .costs import root
from .errors import (
    ConvergenceError,
    DomainError,
    GameError,
    RangeOverflowError,
    UnsupportedCostError,
)
from .instances import classify
from .logdomain import LogValue
from .network import (
    FlowProfile,
    Network,
    edge_flows,
    social_cost,
    social_cost_log,
)

RESIDUAL_RTOL = 1e-9
USED_RTOL = 1e-9  # a path with more than this share of M is used
GENERAL_MAX_ITER = 100_000
PATH_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class EquilibriumSolution:
    flow: FlowProfile
    lam: float | LogValue  # common cost level (binding level at jumps)
    residual: float
    cost: float | LogValue
    method: str


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    min_entry_cost: float
    path_costs: tuple[float, ...]
    entry_costs: tuple[float, ...]
    worst_path: int | None


# ---------------------------------------------------------------------------
# the level-bisection engine (the marginal-cost optimum runs it too)
# ---------------------------------------------------------------------------


def level_allocation(funcs, M: float) -> tuple[float, list[float]]:
    """Solve sum_i f_i(x_i) balanced at a common level with sum x_i = M.

    ``funcs`` are weakly increasing cost functions and M > 0.  Returns
    (level, allocation).  The level is the least float lam with
    sum_i x+_i(lam) >= M on the exact sum.  It lies in [min_i f_i(M/n),
    min_i f_i(M)]: some link carries at least M/n, and any link can carry M.
    """
    def excess(lam: float) -> float:
        return math.fsum([*(f.generalized_inverse(lam)[1] for f in funcs), -M])

    lam_lo = min(f.eval(M / len(funcs)) for f in funcs)
    below = lam_star = lam_lo
    f_lo = excess(lam_lo)
    if f_lo < 0:
        lam_hi = min(f.eval(M) for f in funcs)
        if lam_hi == 0.0:  # a positive cost underflowed; doubling 0 gets nowhere
            raise DomainError(f"the cost level underflows to 0 at M={float(M)!r}: "
                              "the demand is below the range native floats resolve")
        f_hi = excess(lam_hi)
        doublings = 0
        while f_hi < 0:
            lam_lo, f_lo = lam_hi, f_hi
            lam_hi *= 2.0
            f_hi = excess(lam_hi)
            doublings += 1
            if doublings > 128:
                raise ConvergenceError(
                    "no finite level can route the demand (cost level unbounded)"
                )
        # a discontinuous link makes a staircase of the sum, where secant
        # steps gain nothing: splits alone close any bracket in 64 steps
        secant = all(f.is_continuous() for f in funcs)
        below, lam_star = root(excess, lam_lo, f_lo, lam_hi, f_hi, secant)

    inverses = [f.generalized_inverse(lam_star) for f in funcs]
    los, his = [lo for lo, _ in inverses], [hi for _, hi in inverses]
    if below < lam_star and math.fsum(los) > M:
        # M lies between the aggregate inverses at two adjacent levels, as on
        # continuous costs: the flows lie between the inverses at those levels
        los = [f.generalized_inverse(below)[1] for f in funcs]
    if math.fsum(los) > M * (1.0 + 1e-9):
        raise ConvergenceError(
            "level bisection failed to bracket the demand", residual=math.fsum(los) - M
        )
    return lam_star, _allocate(funcs, lam_star, los, his, M)


def _allocate(funcs, lam: float, los, his, M: float) -> list[float]:
    x = list(los)
    surplus = M - math.fsum(los)
    if surplus > 0:
        widths = [hi - lo for lo, hi in zip(los, his)]
        infinite = [i for i, w in enumerate(widths) if math.isinf(w)]
        if infinite:
            share = surplus / len(infinite)
            for i in infinite:
                x[i] += share
        else:
            total = math.fsum(widths)
            if total > 0:
                for i, w in enumerate(widths):
                    x[i] = min(los[i] + surplus * (w / total), his[i])
    # absorb bisection roundoff (either sign) on a link whose cost passes
    # through lam continuously; perturbing a knot-pinned link would move it
    # off the knot, where the entry cost is discontinuous
    diff = M - math.fsum(x)
    if diff != 0.0:
        x[_smoothest_link(funcs, lam, x, diff)] += diff
    return [max(v, 0.0) for v in x]


def _smoothest_link(funcs, lam: float, x, diff: float) -> int:
    best, arg = math.inf, 0
    for i, (f, xi) in enumerate(zip(funcs, x)):
        if xi + diff < 0:
            continue
        try:
            gap = abs(f.eval(max(xi, 0.0)) - lam)
        except Exception:
            continue
        if gap < best:
            best, arg = gap, i
    return arg


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _check_demand(M: float) -> None:
    if not 0 < M < math.inf:
        raise DomainError(f"demand must be a finite M > 0, got {M!r}")


def _typed_failures(solve):
    """Give the entry point ``solve(instance, M, ...)`` the failure contract
    of the package: a demand that is not a finite M > 0, float overflow,
    division by zero and a social cost that is not finite or is subnormal
    all come out as typed errors naming M.  ``instance`` is whatever the
    solver takes first: a network, a family parameter or an alpha sequence."""

    @functools.wraps(solve)
    def entry(instance, M: float, *args, **kwargs):
        _check_demand(M)
        try:
            sol = solve(instance, M, *args, **kwargs)
            if not isinstance(sol.cost, LogValue):
                if not math.isfinite(sol.cost):
                    raise OverflowError("the social cost left the native float range")
                if 0.0 < sol.cost < sys.float_info.min:
                    raise ZeroDivisionError("the social cost is subnormal")
        except GameError:  # typed already; RangeOverflowError is also an OverflowError
            raise
        except OverflowError as exc:
            raise RangeOverflowError(
                f"float overflow at M={float(M)!r}: the demand is above the range native floats resolve"
            ) from exc
        except ZeroDivisionError as exc:
            raise DomainError(
                f"division by zero at M={float(M)!r}: the demand is below the range native floats resolve"
            ) from exc
        return sol

    return entry


def wardrop_equilibrium(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium by the solver that ``classify`` picks: the log-domain
    split for the exponential game, pairwise gradient projection on a
    general network, level bisection on every other parallel network.
    Each of them carries the failure contract of ``_typed_failures``."""
    kind = classify(net).name
    if kind == "exp":
        return wardrop_parallel_log(net, M)
    if kind == "general":
        return wardrop_general(net, M)
    return wardrop_parallel(net, M)


@_typed_failures
def wardrop_parallel(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium of a parallel network via level bisection.

    Jumps are allowed; the allocation puts each link at the lower end of
    its inverse interval plus a proportional share of the remaining demand.
    """
    flow, lam, residual = _parallel_flow(net, M)
    return EquilibriumSolution(flow, lam, residual, social_cost(net, flow), "bisection")


def _parallel_flow(net: Network, M: float) -> tuple[FlowProfile, float, float]:
    """``wardrop_parallel``'s (flow, level, residual), without the social cost."""
    if not net.is_parallel():
        raise DomainError("wardrop_parallel requires a parallel network")
    lam, x = level_allocation(net.costs, M)
    flow = FlowProfile(tuple(x), M)
    report = verify_equilibrium(net, flow)
    tol = RESIDUAL_RTOL * lam
    if report.residual > tol:
        raise ConvergenceError(
            "parallel equilibrium residual above tolerance", residual=report.residual
        )
    return flow, lam, report.residual


def verify_equilibrium(net: Network, flow: FlowProfile) -> ResidualReport:
    """Worst violation of the equilibrium condition over used paths.

    A path counts as used when its flow exceeds USED_RTOL * M.  The
    comparison cost for each path is its entry cost (edge right limits),
    which coincides with the plain path cost for continuous families.
    """
    x = edge_flows(net, flow)
    own = tuple(net.path_cost(i, x) for i in range(net.n_paths))
    entry = tuple(net.path_entry_cost(i, x) for i in range(net.n_paths))
    min_entry = min(entry)
    threshold = USED_RTOL * max(flow.total, 0.0)
    worst, worst_path = 0.0, None
    for i, f in enumerate(flow.path_flows):
        if f > threshold:
            gap = own[i] - min_entry
            if gap > worst:
                worst, worst_path = gap, i
    return ResidualReport(worst, min_entry, own, entry, worst_path)


@_typed_failures
def wardrop_general(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium on an arbitrary network by pairwise gradient projection
    on the path flows (Bertsekas and Gafni 1982; Jayakrishnan et al. 1994).

    Each iteration moves flow from the costliest used path to the cheapest
    by one Newton step (``_newton_shift``), at most all the source's flow,
    and prices the two paths' edges again.  Once no used path costs more
    than RESIDUAL_RTOL * lam above the cheapest, the last pair moves to
    adjacent floats (``_exact_shift``), so a two-path equilibrium does not
    depend on where the Newton steps crossed that bound.

    Edge flows, path costs and the moves' sums are correctly rounded
    (``math.fsum``) and an exact tie on cost goes to the path with more
    flow, so the iterates, and the work, do not depend on the order in
    which the network lists its edges or enumerates its paths.

    Requires continuous costs.  The method keeps the label "frank-wolfe" of
    the conditional gradient it replaced: golden CLI output prints it.
    """
    flow, lam, residual = _general_flow(net, M)
    return EquilibriumSolution(flow, lam, residual, social_cost(net, flow), "frank-wolfe")


def _general_flow(net: Network, M: float) -> tuple[FlowProfile, float, float]:
    """``wardrop_general``'s (flow, level, residual), without the social cost."""
    if not all(c.is_continuous() for c in net.costs):
        raise UnsupportedCostError("gradient projection on a general network needs continuous costs")

    costs = net.costs
    paths = [list(p) for p in net.paths]  # enumerated paths are simple
    through = [[i for i, p in enumerate(paths) if e in p] for e in range(net.n_edges)]
    n, floor = len(paths), 1e-12 * M
    x_paths = [0.0] * n
    xe = [0.0] * net.n_edges
    edge_costs = [0.0] * net.n_edges

    def update(edges) -> None:
        """Edge flows and costs of ``edges`` again from the path flows."""
        for e in edges:
            xe[e] = math.fsum(map(x_paths.__getitem__, through[e]))
            edge_costs[e] = costs[e].eval(xe[e])
            if not math.isfinite(edge_costs[e]):
                raise RangeOverflowError(
                    f"an edge cost left the native float range at M={float(M)!r}"
                )

    def path_costs() -> list[float]:
        return [math.fsum(map(edge_costs.__getitem__, p)) for p in paths]

    def move(src: int, tgt: int, shift_of, *args) -> bool:
        """Move ``shift_of``'s flow from path src to path tgt; False if it is 0."""
        gain, loss = set(paths[tgt]), set(paths[src])
        unshared = [(costs[e], xe[e]) for e in gain - loss], [(costs[e], xe[e]) for e in loss - gain]
        shift = shift_of(*unshared, x_paths[src], x_paths[tgt], *args)
        x_paths[tgt] += shift
        x_paths[src] -= shift  # 0.0 exactly after a full step
        update(gain | loss)
        return shift > 0.0

    update(range(net.n_edges))
    own = path_costs()
    first = min(range(n), key=own.__getitem__)
    x_paths[first] = M
    update(paths[first])

    residual, source, target, polished = math.inf, -1, -1, False
    for _ in range(GENERAL_MAX_ITER):
        own = path_costs()
        lam = min(own)
        used = [i for i in range(n) if x_paths[i] > floor]
        top = max(own[i] for i in used)
        residual = max(top - lam, 0.0)
        if residual <= RESIDUAL_RTOL * lam:
            if polished or source < 0:
                total = math.fsum(x_paths)
                return FlowProfile(tuple(x / total * M for x in x_paths), M), lam, residual
            # the last pair to adjacent floats, whichever way its unshared edges say
            polished = True
            move(source, target, _exact_shift) or move(target, source, _exact_shift)
            continue
        # an exact tie on cost goes to the path with more flow
        target = max((i for i in range(n) if own[i] == lam), key=x_paths.__getitem__)
        worst = max((i for i in used if own[i] == top), key=x_paths.__getitem__)
        # a move leaves its two paths about tied; on a tie the last source
        # keeps draining rather than the path it has just filled
        if source < 0 or x_paths[source] <= floor or own[source] < top * (1.0 - PATH_TIE_RTOL):
            source = worst
        if not move(source, target, _newton_shift, own[source] - lam):
            # nothing moved, so every later iteration would repeat this one
            raise ConvergenceError("gradient projection stalled: a move shifted no flow",
                                   residual=residual)

    raise ConvergenceError("gradient projection hit the iteration cap", residual=residual)


def _newton_shift(gain, loss, amount: float, base: float, gap: float) -> float:
    """Flow to move from a source path, with flow ``amount``, to a target path,
    with flow ``base``, that costs ``gap`` > 0 less, given (cost, flow) of the
    edges only the target uses (``gain``) and only the source uses (``loss``):
    one Newton step, ``gap`` over the sum of the edges' derivatives on the
    side their flows move to, capped at ``amount``.  Where that sum is
    infinite, as sqrt x's slope at 0 is, ``_exact_shift`` moves instead."""
    slope = math.fsum([*(c.derivative_bounds(x)[1] for c, x in gain),
                       *(c.derivative_bounds(x)[0] for c, x in loss)])
    if not slope < math.inf:
        return _exact_shift(gain, loss, amount, base)
    return amount if slope == 0.0 else min(amount, gap / slope)


def _exact_shift(gain, loss, amount: float, base: float) -> float:
    """Shift in [0, ``amount``] at which the target-only edges come to cost at
    least the source-only ones, 0.0 if they already do: ``root`` on the
    target's new flow ``base`` + shift, to that flow's resolution."""

    def gap(y: float) -> float:
        s = min(y - base, amount)  # y - base may round above amount
        return math.fsum([*(c.eval(x + s) for c, x in gain), *(-c.eval(x - s) for c, x in loss)])

    f_lo = gap(base)
    if f_lo >= 0.0:
        return 0.0
    f_hi = gap(base + amount)
    if f_hi <= 0.0:
        return amount
    return min(root(gap, base, f_lo, base + amount, f_hi)[1] - base, amount)


@_typed_failures
def wardrop_parallel_log(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium of the exponential two-link instance, in log domain.

    Applies the explicit bracket split: for 2 a_k < M <= a_k + a_{k+1} the
    step link carries a_k; for a_k + a_{k+1} < M <= 2 a_{k+1} the smooth
    link carries a_{k+1}.
    """
    kind = classify(net)
    if kind.name != "exp":
        raise UnsupportedCostError(
            "log-domain solver expects links (exp_over_x, step_exp)"
        )
    alphas = kind.param
    k = alphas.bracket_index(M)
    a_k, a_k1 = alphas.alpha(k), alphas.alpha(k + 1)
    if M <= a_k + a_k1:
        x, y = M - a_k, a_k
    else:
        x, y = a_k1, M - a_k1
    flow = FlowProfile((x, y), M)

    own = (net.costs[0].eval_log(x), net.costs[1].eval_log(y))
    entry = (net.costs[0].eval_log(x), net.costs[1].eval_right_log(y))
    min_entry = min(entry)
    residual = 0.0
    for i, f in enumerate(flow.path_flows):
        if f > USED_RTOL * M:
            gap = own[i].log_magnitude - min_entry.log_magnitude
            residual = max(residual, math.expm1(gap) if gap > 0 else 0.0)
    lam = max(own)
    cost = social_cost_log(net, flow)
    return EquilibriumSolution(flow, lam, residual, cost, "log-bisection")
