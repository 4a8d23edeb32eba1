"""Wardrop equilibrium solvers.

The parallel solver finds the equilibrium cost level lambda as a root:
with set-valued inverses [x-_i, x+_i] = c_i^{-1}(lambda), the correct
level is the smallest lambda whose aggregate inverse interval
[sum x-_i, sum x+_i] contains the demand M.  This handles jumps (step
costs) and flats (constant costs) uniformly; any allocation inside the
per-link intervals is an equilibrium and the surplus M - sum x-_i is
distributed proportionally to interval widths, which is deterministic and
scale-covariant.  The search is ``costs.root`` on sum x+_i(lambda) - M,
with Illinois secant steps between bisection's splits, until its ends are
adjacent floats.  On a staircase (a step link) it first binary-searches the
levels where the sum jumps (``CostFunction.jump_levels``): a cold
equilibrium of a step game calls each link's inverse 5-6 times on average
and at most 8, where secant steps alone took 23-32 and up to 60.  The sum
is monotone in floats, so the search has no tolerance and gives the same
answer at every scale, and the same answer bisection gives.

Equilibrium verification compares each used path's cost against the
cheapest *entry* cost (right limits of the edge costs): for continuous
costs this is the textbook condition, and for left-continuous step costs
it is the deviation an infinitesimal player would actually face, which is
what the counterexample constructions rely on.
"""

from __future__ import annotations

import functools
import math
import operator
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
from .logdomain import LogValue, log_add, log_term
from .network import FlowProfile, Network, edge_flows

RESIDUAL_RTOL = 1e-9
USED_RTOL = 1e-9  # a path with more than this share of M is used
GENERAL_MAX_ITER = 200
PIVOT_RTOL = 1e-12  # a pivot below this share of the largest counts as 0


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


# ---------------------------------------------------------------------------
# the level-bisection engine (the marginal-cost optimum runs it too)
# ---------------------------------------------------------------------------


def level_allocation(funcs, M: float) -> tuple[float, list[float]]:
    """Solve sum_i f_i(x_i) balanced at a common level with sum x_i = M.

    ``funcs`` are weakly increasing cost functions and M > 0.  Returns
    (level, allocation).  The level is the least float lam with
    sum_i x+_i(lam) >= M on the exact sum.  It lies in [min_i f_i(M/n),
    min_i f_i(M)]: some link carries at least M/n, and any link can carry M.
    The jump levels J of the links inside that bracket, and the float below
    each, narrow it by binary search: the sum's steps lie between those
    pairs, so ``root`` is left a tread (on the step games each link's
    inverse is called 5-6 times per search on average and at most 8, over
    6000 demands on [1e-150, 1e150]).  The sum is monotone in floats, so
    ``root`` ends on the same pair as bisection from the whole bracket.
    """
    def excess(lam: float) -> float:
        return math.fsum([*(f.generalized_inverse(lam)[1] for f in funcs), -M])

    lam_lo = min(f.eval(M / len(funcs)) for f in funcs)
    f_lo = excess(lam_lo)
    below = lam_star = lam_lo
    if f_lo < 0:
        lam_hi = min(f.eval(M) for f in funcs)
        if lam_hi < sys.float_info.min:  # the level, at most lam_hi, is subnormal or 0
            raise _level_underflow(M)
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
        # a step link makes a staircase of the sum: binary search over its
        # risers (each jump and its float below) first, then root on the tread
        probes = sorted({p for f in funcs for jump in f.jump_levels(lam_lo, lam_hi)
                         for p in (jump, math.nextafter(jump, 0.0)) if lam_lo < p < lam_hi})
        while probes:
            mid = len(probes) // 2
            f_mid = excess(probes[mid])
            if f_mid < 0:
                lam_lo, f_lo, probes = probes[mid], f_mid, probes[mid + 1:]
            else:
                lam_hi, f_hi, probes = probes[mid], f_mid, probes[:mid]
        below, lam_star = root(excess, lam_lo, f_lo, lam_hi, f_hi)

    if 0.0 < lam_star < sys.float_info.min:  # RESIDUAL_RTOL * lam would round to 0
        raise _level_underflow(M)
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


def _level_underflow(M: float) -> DomainError:
    return DomainError(f"the cost level underflows at M={float(M)!r}: "
                       "the demand is below the range native floats resolve")


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
        except (OverflowError, GameError):  # no value to compare: not this link
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
    division by zero and a social cost that is not finite or is below the
    normal floats (0 included) all come out as typed errors naming M; a
    cost of 0 on links whose costs are identically 0 is named as such.
    ``instance`` is whatever the solver takes first: a network, a family
    parameter or an alpha sequence."""

    @functools.wraps(solve)
    def entry(instance, M: float, *args, **kwargs):
        _check_demand(M)
        try:
            sol = solve(instance, M, *args, **kwargs)
            if not isinstance(sol.cost, LogValue):
                if not math.isfinite(sol.cost):
                    raise OverflowError("the social cost left the native float range")
                if sol.cost < sys.float_info.min:
                    if sol.cost == 0 and isinstance(instance, Network) and all(
                        c.asymptotic_value() == 0
                        for c, x in zip(instance.costs, edge_flows(instance, sol.flow))
                        if x > 0
                    ):
                        raise DomainError(f"social cost 0 at M={float(M)!r}: the flow "
                                          "is cost-free, so the price of anarchy is 0/0")
                    raise ZeroDivisionError("the social cost is subnormal or 0")
        except (OverflowError, ZeroDivisionError) as exc:  # a cost's RangeOverflowError too
            raise _range_error(M, exc) from exc
        return sol

    return entry


def _range_error(M: float, exc: ArithmeticError) -> GameError:
    """The typed error, naming M, for float overflow or division by zero."""
    if isinstance(exc, OverflowError):
        return RangeOverflowError(f"float overflow at M={float(M)!r}: "
                                  "the demand is above the range native floats resolve")
    return DomainError(f"division by zero at M={float(M)!r}: "
                       "the demand is below the range native floats resolve")


def wardrop_equilibrium(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium by the solver that ``classify`` picks: the log-domain
    split for the exponential game, projected Newton steps on a general
    network, level bisection on every other parallel network.
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
    return EquilibriumSolution(*_parallel_flow(net, M), "bisection")


def _parallel_flow(net: Network, M: float) -> tuple[FlowProfile, float, float, float]:
    """``wardrop_parallel``'s (flow, level, residual, social cost), path i
    being link i; the residual and the cost are ``verify_equilibrium``'s and
    ``social_cost``'s, from one ``eval_right`` and one ``eval`` per link."""
    if not net.is_parallel():
        raise DomainError("wardrop_parallel requires a parallel network")
    lam, x = level_allocation(net.costs, M)
    flow = FlowProfile(tuple(x), M)
    x = [float(v) + 0.0 for v in x]  # a one-term fsum: -0.0 reads 0.0
    entry, own = zip(*[(float(c.eval_right(v)) + 0.0, float(c.eval(v)) + 0.0) for c, v in zip(net.costs, x)])
    min_entry = min(entry)
    residual = max([0.0, *(cost - min_entry for cost, v in zip(own, x) if v > USED_RTOL * M)])  # a NaN gap never counts
    if residual > RESIDUAL_RTOL * lam:
        raise ConvergenceError("parallel equilibrium residual above tolerance", residual=residual)
    return flow, lam, residual, math.fsum(map(operator.mul, x, own))


def verify_equilibrium(net: Network, flow: FlowProfile) -> ResidualReport:
    """Worst violation of the equilibrium condition over used paths.

    A path counts as used when its flow exceeds USED_RTOL * M.  The
    comparison cost for each path is its entry cost (edge right limits),
    which coincides with the plain path cost for continuous families.
    """
    x = edge_flows(net, flow)
    threshold = USED_RTOL * max(flow.total, 0.0)
    min_entry = min(net.path_entry_cost(i, x) for i in range(net.n_paths))
    gaps = [net.path_cost(i, x) - min_entry for i, f in enumerate(flow.path_flows) if f > threshold]
    return ResidualReport(max([0.0, *gaps]), min_entry)  # a NaN gap never counts


@_typed_failures
def wardrop_general(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium on an arbitrary network by projected Newton steps on the
    path flows (D. P. Bertsekas, "Projected Newton methods for optimization
    problems with simple constraints", SIAM J. Control Optim. 20(2), 1982).

    The iteration starts from all flow on the cheapest path.  Each iteration
    moves the flows of the used and the cheapest paths at once to where the
    linear model of their costs is level (``_newton_step``, on their edge
    sets ``Network.path_sets`` and the slopes where they differ, the only
    slopes priced), clips them at 0 and rescales them to sum to M.  Where a
    slope is infinite (sqrt x at 0), or a direction without curvature lowers
    the cost, the costliest used path and the cheapest split their flow
    exactly instead (``_pair_share``).
    Once no used path costs more than RESIDUAL_RTOL * lam above the
    cheapest, one such split ends the search, so a two-path equilibrium
    lands on the float grid wherever the Newton steps crossed that bound; it
    may still move by up to 2 ulps with which path of the pair ends the
    cheaper (measured on Braess and the fork).  Wherever order decides (the
    cheapest path, the costliest used one, the Newton set), paths are taken
    in the order of their (tail, head, id) sequences (``Network.canonical``,
    built once per network), and every sum is correctly rounded, so no
    iterate depends on the order of the edges.

    Requires continuous costs.  The method keeps the label "frank-wolfe" of
    the conditional gradient it replaced: golden CLI output prints it.
    """
    return EquilibriumSolution(*_general_flow(net, M), "frank-wolfe")


def _general_flow(net: Network, M: float, start=None) -> tuple[FlowProfile, float, float, float]:
    """``wardrop_general``'s (flow, level, residual, social cost), the cost
    summed from the last iteration's edge flows and costs.  The iteration
    starts from the path flows ``start`` (summing to M) where given, else
    from all flow on one path."""
    if not all(c.is_continuous() for c in net.costs):
        raise UnsupportedCostError("projected Newton on a general network needs continuous costs")

    order, paths, sets = net.canonical, net.paths, net.path_sets
    x = [0.0] * len(paths) if start is None else list(start)
    floor, polish, residual = 1e-12 * M, False, math.inf

    def split(src: int, tgt: int) -> None:
        """Give the target the least float share y of the pair's flow at which
        the edges only it uses cost at least those only the source uses, by
        ``_pair_share`` from the target's share: y does not depend on the split."""
        total = max(M - math.fsum([v for i, v in enumerate(x) if i not in (src, tgt)]), 0.0)
        # (cost, the other paths' flow) on the edges only the target uses, and only the source
        gained, lost = ([(net.costs[e], math.fsum([x[i] for i in net.through[e] if i not in (src, tgt)]))
                         for e in only] for only in (sets[tgt] - sets[src], sets[src] - sets[tgt]))

        def gap(y: float) -> float:
            rest = total - y
            return math.fsum([*(c.eval(o + y) for c, o in gained), *(-c.eval(o + rest) for c, o in lost)])

        y = _pair_share(gap, total, x[tgt])
        x[src], x[tgt] = total - y, y

    for _ in range(GENERAL_MAX_ITER):
        xe = net.edge_sums(x)
        ec = [c.eval(v) for c, v in zip(net.costs, xe)]
        if not all(map(math.isfinite, ec)):
            raise OverflowError("an edge cost left the native float range")
        own = [math.fsum(map(ec.__getitem__, p)) for p in paths]
        lam = own[cheapest := min(order, key=own.__getitem__)]
        if not any(x):  # the start: all flow on the path that is cheapest empty
            x[cheapest] = M
            continue
        used = [i for i in order if x[i] > floor]
        worst = max(used, key=own.__getitem__)
        residual = max(own[worst] - lam, 0.0)
        if residual <= RESIDUAL_RTOL * lam:
            rest = [i for i in used if i != cheapest]
            if not (polish and rest):
                return FlowProfile(tuple(x), M), lam, residual, math.fsum(map(operator.mul, xe, ec))
            # one exact split of the last pair, so that a two-path equilibrium
            # does not depend on where the Newton steps crossed the bound
            polish = False
            split(max(rest, key=own.__getitem__), cheapest)
            continue
        before, polish = list(x), True
        S = [cheapest, *(i for i in order if i != cheapest and (x[i] > floor or own[i] == lam))]
        newton = [sets[i] for i in S]  # slopes only where these paths differ
        slope = {e: net.costs[e].derivative_bounds(xe[e])[1]
                 for e in frozenset().union(*newton) - frozenset.intersection(*newton)}
        step = _newton_step(newton, slope, [own[i] for i in S])
        if step is None:
            split(worst, cheapest)
        else:
            for i, d in zip(S, step):
                x[i] = max(x[i] + d, 0.0)
            total = math.fsum(x)
            if total > 0.0:
                x[:] = [v / total * M for v in x]
        if x == before or not any(x):  # rounded away: every later iteration would repeat this one
            raise ConvergenceError("projected Newton stalled: a step moved no flow", residual=residual)

    raise ConvergenceError("projected Newton hit the iteration cap", residual=residual)


def _pair_share(gap, total: float, seed: float) -> float:
    """The least float y in [0, total] with gap(y) >= 0 for a weakly
    increasing ``gap`` (total where there is none), by ``root``: from a
    bracket of 2^-30 relative around ``seed`` where gap changes sign on it,
    else from [0, total].  On a monotone gap both brackets hold the one pair
    of adjacent floats where gap turns non-negative, so y does not depend on
    the seed."""
    lo, hi = seed * (1.0 - 2.0**-30), min(seed * (1.0 + 2.0**-30), total)
    if 0.0 < lo < hi:
        f_lo, f_hi = gap(lo), gap(hi)
        if f_lo < 0.0 and not f_hi < 0.0:
            return root(gap, lo, f_lo, hi, f_hi)[1]
    f_lo, f_hi = gap(0.0), gap(total)
    return 0.0 if f_lo >= 0.0 else total if f_hi < 0.0 else root(gap, 0.0, f_lo, total, f_hi)[1]


def _newton_step(paths, slope, cost) -> list[float] | None:
    """Flow changes d, sum(d) = 0, on ``paths`` (edge sets, the cheapest
    first) that level the linear model of their costs under the edge slopes:
    [H -1; 1' 0][d; mu] = [cost[0] - cost; 0] with H = A diag(slope) A',
    solved for d_1 .. d_m with d_0 = -(d_1 + ... + d_m); with D_i = paths[i]
    ^ paths[0], H_ij sums ``slope`` (given on the union of the D_i) over D_i
    & D_j.  It can be singular: complete pivoting leaves an unknown at 0 once
    its pivot falls below PIVOT_RTOL of the largest.  None if a slope is
    infinite, or if the equations left miss by more than PIVOT_RTOL of the
    largest cost (no curvature)."""
    if not all(s < math.inf for s in slope.values()):
        return None
    diff = [p ^ paths[0] for p in paths[1:]]
    a = [[0.0] * len(diff) for _ in diff]
    for i, di in enumerate(diff):
        a[i][i] = math.fsum(map(slope.__getitem__, di))
        for j in range(i + 1, len(diff)):
            a[i][j] = a[j][i] = math.fsum(map(slope.__getitem__, di & diff[j]))
    b = [cost[0] - c for c in cost[1:]]
    diag = [row[i] for i, row in enumerate(a)]
    free, pivots = list(range(len(b))), []
    largest = max(diag, default=0.0)
    while free:
        k = max(free, key=diag.__getitem__)
        if not diag[k] > PIVOT_RTOL * largest:
            break
        free.remove(k)
        pivots.append(k)
        for i in free:
            f = a[i][k] / a[k][k]
            a[i] = [u - f * v for u, v in zip(a[i], a[k])]
            b[i] -= f * b[k]
            diag[i] = a[i][i]
    if any(abs(b[i]) > PIVOT_RTOL * max(cost) for i in free):
        return None
    z = [0.0] * len(b)
    for k in reversed(pivots):
        z[k] = (b[k] - math.fsum([a[k][j] * z[j] for j in pivots if j != k])) / a[k][k]
    return [-math.fsum(z), *z]


@_typed_failures
def wardrop_parallel_log(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium of the exponential two-link instance, in log domain.

    Applies the explicit bracket split: for 2 a_k < M <= a_k + a_{k+1} the
    step link carries a_k; for a_k + a_{k+1} < M <= 2 a_{k+1} the smooth
    link carries a_{k+1}.  Below 2 a_1 the bracket is k = 0, where a_0 = 0.
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
    entry = (own[0], net.costs[1].eval_right_log(y))  # the smooth link has no jump
    min_entry = min(entry)
    residual = 0.0
    for i, f in enumerate(flow.path_flows):
        if f > USED_RTOL * M:
            gap = own[i] - min_entry
            residual = max(residual, math.expm1(gap) if gap > 0 else 0.0)
    cost = log_add(log_term(x, own[0]), log_term(y, own[1]))  # y = a_0 = 0 for M <= a_1
    return EquilibriumSolution(flow, LogValue(max(own)), residual, LogValue(cost), "log-bisection")
