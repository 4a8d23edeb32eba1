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
from .logdomain import LogValue, log_add
from .network import FlowProfile, Network, edge_flows, social_cost

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


def level_allocation(funcs, M: float, _guess: float | None = None) -> tuple[float, list[float]]:
    """Solve sum_i f_i(x_i) balanced at a common level with sum x_i = M.

    ``funcs`` are weakly increasing cost functions and M > 0.  Returns
    (level, allocation).  The level is the least float lam with
    sum_i x+_i(lam) >= M on the exact sum.  It lies in [min_i f_i(M/n),
    min_i f_i(M)]: some link carries at least M/n, and any link can carry M.

    A private ``_guess`` g of the level (``poa_sweep`` predicts one from the
    levels it found at smaller demands) narrows that bracket when it is in
    (min_i f_i(M/n), min_i f_i(M)]: the sum is evaluated at g and at its
    float below where it reaches M there, else at g (1 + 2^-7), and each
    end that a probe implies by monotonicity is not evaluated.  Then the
    jump levels J of the links inside the bracket, and the float below
    each, narrow it by binary search: the sum's steps lie between those
    pairs, so ``root`` is left a tread (on the step games each link's
    inverse is called 5-6 times per search on average and at most 8, over
    6000 demands on [1e-150, 1e150]).  The sum is monotone in floats, so
    ``root`` ends on the same pair from the narrowed bracket, and every
    error is raised where the search without the guess raises it.
    """
    def excess(lam: float) -> float:
        return math.fsum([*(f.generalized_inverse(lam)[1] for f in funcs), -M])

    lam_lo = min(f.eval(M / len(funcs)) for f in funcs)
    lam_hi = neg = pos = None  # the nearest probes (level, excess) below and at or above the level
    if _guess is not None:
        try:
            lam_hi = min(f.eval(M) for f in funcs)
        except (OverflowError, GameError):  # raised again below, where the search needs lam_hi
            pass
        if lam_hi is not None and lam_lo < _guess <= lam_hi and _guess < math.inf:
            probes = [(_guess, excess(_guess))]
            p = _guess * (1.0 + 2.0**-7) if probes[0][1] < 0 else math.nextafter(_guess, 0.0)
            if lam_lo < p <= lam_hi:
                probes.append((p, excess(p)))
            neg = max((q for q in probes if q[1] < 0), default=None)
            pos = min((q for q in probes if not q[1] < 0), default=None)
    lam_lo, f_lo = neg or (lam_lo, excess(lam_lo))
    below = lam_star = lam_lo
    if f_lo < 0:
        if lam_hi is None:
            lam_hi = min(f.eval(M) for f in funcs)
        if lam_hi < sys.float_info.min:  # the level, at most lam_hi, is subnormal or 0
            raise _level_underflow(M)
        lam_hi, f_hi = pos or (lam_hi, excess(lam_hi))
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


class _Track:
    """The last two (M, level) of each level search in one sweep, from which
    ``guess`` predicts the next level.  Entries are keyed by the identity of
    the search's cost tuple, so the equilibrium (``net.costs``) and the
    marginal-game optimum (``net.marginal.costs``, cached on the network)
    keep apart in one track.  It lives as long as the sweep loop holding it."""

    def __init__(self) -> None:
        self._last: dict[int, tuple] = {}

    def guess(self, funcs, M: float) -> float | None:
        """lam_1 (lam_1/lam_0)^(ln(M/M_1)/ln(M_1/M_0)), the log-log secant
        through the last two points (a predictor step of numerical
        continuation), exact where the level is flat; lam_1 after one point."""
        points = self._last.get(id(funcs), ())
        if len(points) < 2:
            return points[-1][1] if points else None
        (M0, lam0), (M1, lam1) = points
        try:
            return lam1 * (lam1 / lam0) ** (math.log(M / M1) / math.log(M1 / M0))
        except ArithmeticError:  # a level 0, or a prediction past the float range
            return lam1

    def record(self, funcs, M: float, lam: float) -> None:
        self._last[id(funcs)] = (*self._last.get(id(funcs), ())[-1:], (M, lam))


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


def wardrop_equilibrium(net: Network, M: float, _track: _Track | None = None) -> EquilibriumSolution:
    """Equilibrium by the solver that ``classify`` picks: the log-domain
    split for the exponential game, projected Newton steps on a general
    network, level bisection on every other parallel network.
    Each of them carries the failure contract of ``_typed_failures``.
    Only level bisection reads the private sweep ``_track``."""
    kind = classify(net).name
    if kind == "exp":
        return wardrop_parallel_log(net, M)
    if kind == "general":
        return wardrop_general(net, M)
    return wardrop_parallel(net, M, _track)


@_typed_failures
def wardrop_parallel(net: Network, M: float, _track: _Track | None = None) -> EquilibriumSolution:
    """Equilibrium of a parallel network via level bisection.

    Jumps are allowed; the allocation puts each link at the lower end of
    its inverse interval plus a proportional share of the remaining demand.
    """
    flow, lam, residual = _parallel_flow(net, M, _track)
    return EquilibriumSolution(flow, lam, residual, social_cost(net, flow), "bisection")


def _parallel_flow(net: Network, M: float, track: _Track | None = None) -> tuple[FlowProfile, float, float]:
    """``wardrop_parallel``'s (flow, level, residual), without the social cost.
    A sweep's ``track`` guesses the level and records the one found."""
    if not net.is_parallel():
        raise DomainError("wardrop_parallel requires a parallel network")
    lam, x = level_allocation(net.costs, M, None if track is None else track.guess(net.costs, M))
    if track is not None:
        track.record(net.costs, M, lam)
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
    threshold = USED_RTOL * max(flow.total, 0.0)
    used = [i for i, f in enumerate(flow.path_flows) if f > threshold]
    if net._links_are_paths:  # a path's cost is its link's, as the one-term fsum gives it
        costs = net.costs
        min_entry = min([float(c.eval_right(v)) + 0.0 for c, v in zip(costs, x)])
        gaps = [float(costs[i].eval(x[i])) + 0.0 - min_entry for i in used]
    else:
        min_entry = min(net.path_entry_cost(i, x) for i in range(net.n_paths))
        gaps = [net.path_cost(i, x) - min_entry for i in used]
    return ResidualReport(max([0.0, *gaps]), min_entry)  # a NaN gap never counts


@_typed_failures
def wardrop_general(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium on an arbitrary network by projected Newton steps on the
    path flows (D. P. Bertsekas, "Projected Newton methods for optimization
    problems with simple constraints", SIAM J. Control Optim. 20(2), 1982).

    The iteration starts from all flow on the cheapest path.  Each iteration
    moves the flows of the used and the cheapest paths at once to where the
    linear model of their costs is level (``_newton_step``), clips them at 0
    and rescales them to sum to M.  Where a slope is infinite (sqrt x at 0),
    or a direction without curvature lowers the cost, the costliest used path
    and the cheapest split their flow exactly instead (``_pair_share``).
    Once no used path costs more than RESIDUAL_RTOL * lam above the
    cheapest, one such split ends the search, so a two-path equilibrium
    lands on the float grid wherever the Newton steps crossed that bound; it
    may still move by up to 2 ulps with which path of the pair ends the
    cheaper (measured on Braess and the fork).  Paths are
    taken in the order of their (tail, head, id) sequences (``Network.canonical``,
    built once per network) and every sum is correctly rounded, so no
    iterate depends on the order of the edges.

    Requires continuous costs.  The method keeps the label "frank-wolfe" of
    the conditional gradient it replaced: golden CLI output prints it.
    """
    flow, lam, residual = _general_flow(net, M)
    return EquilibriumSolution(flow, lam, residual, social_cost(net, flow), "frank-wolfe")


def _general_flow(net: Network, M: float, start=None) -> tuple[FlowProfile, float, float]:
    """``wardrop_general``'s (flow, level, residual), without the social cost.
    The iteration starts from the path flows ``start`` (in ``net``'s path
    order, summing to M) where given, else from all flow on one path."""
    if not all(c.is_continuous() for c in net.costs):
        raise UnsupportedCostError("projected Newton on a general network needs continuous costs")

    order, canon = net.canonical
    paths = canon.paths
    x = [0.0] * len(paths) if start is None else [start[i] for i in order]
    floor, polish, residual = 1e-12 * M, False, math.inf

    def split(src: int, tgt: int) -> None:
        """Give the target the least float share y of the pair's flow at which
        the edges only it uses cost at least those only the source uses, by
        ``_pair_share`` from the target's share: y does not depend on the split."""
        gain, loss = set(paths[tgt]), set(paths[src])
        others = {e: math.fsum([x[i] for i in canon.through[e] if i not in (src, tgt)]) for e in gain ^ loss}
        total = max(M - math.fsum([v for i, v in enumerate(x) if i not in (src, tgt)]), 0.0)

        def gap(y: float) -> float:
            return math.fsum([*(net.costs[e].eval(others[e] + y) for e in gain - loss),
                              *(-net.costs[e].eval(others[e] + (total - y)) for e in loss - gain)])

        y = _pair_share(gap, total, x[tgt])
        x[src], x[tgt] = total - y, y

    for _ in range(GENERAL_MAX_ITER):
        xe = canon.edge_sums(x)
        ec = [c.eval(v) for c, v in zip(net.costs, xe)]
        if not all(map(math.isfinite, ec)):
            raise OverflowError("an edge cost left the native float range")
        own = [math.fsum(map(ec.__getitem__, p)) for p in paths]
        cheapest = own.index(lam := min(own))
        if not any(x):  # the start: all flow on the path that is cheapest empty
            x[cheapest] = M
            continue
        used = [i for i, v in enumerate(x) if v > floor]
        worst = max(used, key=own.__getitem__)
        residual = max(own[worst] - lam, 0.0)
        if residual <= RESIDUAL_RTOL * lam:
            rest = [i for i in used if i != cheapest]
            if not (polish and rest):
                return FlowProfile(tuple(v for _, v in sorted(zip(order, x))), M), lam, residual
            # one exact split of the last pair, so that a two-path equilibrium
            # does not depend on where the Newton steps crossed the bound
            polish = False
            split(max(rest, key=own.__getitem__), cheapest)
            continue
        before, polish = list(x), True
        S = [cheapest, *(i for i, v in enumerate(x) if i != cheapest and (v > floor or own[i] == lam))]
        slope = [c.derivative_bounds(v)[1] for c, v in zip(net.costs, xe)]
        step = _newton_step([paths[i] for i in S], slope, [own[i] for i in S])
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
    """Flow changes d, sum(d) = 0, on ``paths`` (the cheapest first) that level
    the linear model of their costs under the edge slopes: [H -1; 1' 0][d; mu]
    = [cost[0] - cost; 0] with H = A diag(slope) A', solved for d_1 .. d_m with
    d_0 = -(d_1 + ... + d_m); its matrix sums the slopes of the edges where
    paths i and j differ from path 0 alike.  It can be singular: complete
    pivoting leaves an unknown at 0 once its pivot falls below PIVOT_RTOL of
    the largest.  None if one of those slopes is infinite, or if the equations
    left miss by more than PIVOT_RTOL of the largest cost (no curvature)."""
    base = set(paths[0])
    diff = [(set(p) - base, base.difference(p)) for p in paths[1:]]  # (gained, lost) edges
    if not all(slope[e] < math.inf for gain, loss in diff for e in gain | loss):
        return None
    a = [[0.0] * len(diff) for _ in diff]
    for i, (gi, li) in enumerate(diff):
        for j, (gj, lj) in enumerate(diff[i:], i):
            a[i][j] = a[j][i] = math.fsum([slope[e] for e in (gi & gj) | (li & lj)])
    b = [cost[0] - c for c in cost[1:]]
    free, pivots = list(range(len(b))), []
    largest = max([a[i][i] for i in free], default=0.0)
    while free:
        k = max(free, key=lambda i: a[i][i])
        if not a[k][k] > PIVOT_RTOL * largest:
            break
        free.remove(k)
        pivots.append(k)
        for i in free:
            f = a[i][k] / a[k][k]
            a[i] = [u - f * v for u, v in zip(a[i], a[k])]
            b[i] -= f * b[k]
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
    entry = (own[0], net.costs[1].eval_right_log(y))  # the smooth link has no jump
    min_entry = min(entry)
    residual = 0.0
    for i, f in enumerate(flow.path_flows):
        if f > USED_RTOL * M:
            gap = own[i] - min_entry
            residual = max(residual, math.expm1(gap) if gap > 0 else 0.0)
    cost = log_add(math.log(x) + own[0], math.log(y) + own[1])  # x, y > 0
    return EquilibriumSolution(flow, LogValue(max(own)), residual, LogValue(cost), "log-bisection")
