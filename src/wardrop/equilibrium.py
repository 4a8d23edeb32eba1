"""Wardrop equilibrium solvers.

The parallel solver finds the equilibrium cost level lambda by monotone
bisection: with set-valued inverses [x-_i, x+_i] = c_i^{-1}(lambda), the
correct level is the smallest lambda whose aggregate inverse interval
[sum x-_i, sum x+_i] contains the demand M.  This handles jumps (step
costs) and flats (constant costs) uniformly; any allocation inside the
per-link intervals is an equilibrium and the surplus M - sum x-_i is
distributed proportionally to interval widths, which is deterministic and
scale-covariant.

Equilibrium verification compares each used path's cost against the
cheapest *entry* cost (right limits of the edge costs): for continuous
costs this is the textbook condition, and for left-continuous step costs
it is the deviation an infinitesimal player would actually face, which is
what the counterexample constructions rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import bisect, false_position
from .errors import (
    ConvergenceError,
    DomainError,
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
GENERAL_RTOL = 1e-7
GENERAL_MAX_ITER = 100_000
LINE_SEARCH_MAX_ITER = 80
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
# the level-bisection engine (shared with the marginal-cost optimum)
# ---------------------------------------------------------------------------


def _aggregate_inverse(funcs, lam: float):
    los, his = [], []
    for f in funcs:
        lo, hi = f.generalized_inverse(lam)
        los.append(lo)
        his.append(hi)
    return los, his


def level_allocation(funcs, M: float, *, hi_seed: float = 1.0) -> tuple[float, list[float]]:
    """Solve sum_i f_i(x_i) balanced at a common level with sum x_i = M.

    ``funcs`` are weakly increasing level functions exposing ``eval`` and
    ``generalized_inverse``.  Returns (level, allocation).
    """
    if M <= 0:
        raise DomainError(f"demand must be positive, got {M!r}")

    def g_plus(lam: float) -> float:
        return sum(f.generalized_inverse(lam)[1] for f in funcs)

    lam_lo = min(f.eval(0.0) for f in funcs)
    if g_plus(lam_lo) >= M:
        lam_star = lam_lo
    else:
        lam_hi = max(1.0, min(f.eval(M) for f in funcs)) * hi_seed
        doublings = 0
        while g_plus(lam_hi) < M:
            lam_hi *= 2.0
            doublings += 1
            if doublings > 128:
                raise ConvergenceError(
                    "no finite level can route the demand (cost level unbounded)"
                )
        _, lam_star = bisect(lambda lam: g_plus(lam) >= M, lam_lo, lam_hi, 1e-15, 300)

    slack = 1e-9 * max(1.0, M)
    los, his = _aggregate_inverse(funcs, lam_star)
    if math.fsum(los) > M + slack:
        # the bisection stopped a hair past a jump of g+; snap the level to
        # a nearby attained cost value and re-check the sandwich
        for cand in _snap_candidates(funcs, los, his, lam_star):
            c_los, c_his = _aggregate_inverse(funcs, cand)
            if math.fsum(c_los) <= M + slack and sum(c_his) >= M - slack:
                lam_star, los, his = cand, c_los, c_his
                break
        else:
            raise ConvergenceError(
                "level bisection failed to bracket the demand", residual=sum(los) - M
            )

    return lam_star, _allocate(funcs, lam_star, los, his, M)


def _snap_candidates(funcs, los, his, lam_star: float) -> list[float]:
    cands = set()
    for f, lo, hi in zip(funcs, los, his):
        for x in (lo, hi):
            if math.isfinite(x):
                try:
                    cands.add(f.eval(x))
                except Exception:
                    pass
    return sorted(c for c in cands if c <= lam_star * (1.0 + 1e-12) + 1e-300)


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


def wardrop_equilibrium(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium by the solver that ``classify`` picks: the log-domain
    split for the exponential game, conditional gradient on a general
    network, level bisection on every other parallel network."""
    kind = classify(net).name
    if kind == "exp":
        return wardrop_parallel_log(net, M)
    if kind == "general":
        return wardrop_general(net, M)
    return wardrop_parallel(net, M)


def wardrop_parallel(
    net: Network, M: float, *, hi_seed: float = 1.0
) -> EquilibriumSolution:
    """Equilibrium of a parallel network via level bisection.

    Jumps are allowed; the allocation puts each link at the lower end of
    its inverse interval plus a proportional share of the remaining demand.
    """
    if not net.is_parallel():
        raise DomainError("wardrop_parallel requires a parallel network")
    if M <= 0:
        raise DomainError(f"demand must be positive, got {M!r}")
    lam, x = level_allocation(net.costs, M, hi_seed=hi_seed)
    flow = FlowProfile(tuple(x), M)
    report = verify_equilibrium(net, flow)
    tol = RESIDUAL_RTOL * max(lam, 1.0)
    if report.residual > tol:
        raise ConvergenceError(
            "parallel equilibrium residual above tolerance", residual=report.residual
        )
    return EquilibriumSolution(flow, lam, report.residual, social_cost(net, flow), "bisection")


def verify_equilibrium(
    net: Network, flow: FlowProfile, used_tol: float = 1e-9
) -> ResidualReport:
    """Worst violation of the equilibrium condition over used paths.

    A path counts as used when its flow exceeds used_tol * M.  The
    comparison cost for each path is its entry cost (edge right limits),
    which coincides with the plain path cost for continuous families.
    """
    x = edge_flows(net, flow)
    own = tuple(net.path_cost(i, x) for i in range(net.n_paths))
    entry = tuple(net.path_entry_cost(i, x) for i in range(net.n_paths))
    min_entry = min(entry)
    threshold = used_tol * max(flow.total, 0.0)
    worst, worst_path = 0.0, None
    for i, f in enumerate(flow.path_flows):
        if f > threshold:
            gap = own[i] - min_entry
            if gap > worst:
                worst, worst_path = gap, i
    return ResidualReport(worst, min_entry, own, entry, worst_path)


def wardrop_general(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium on an arbitrary network by pairwise conditional gradient
    on the path flows, descending the separable potential
    sum_e int_0^{x_e} c_e.

    Each iteration moves flow from the costliest used path to the cheapest
    one, with an exact line search over the edges the two paths do not
    share, then evaluates the costs of the edges on those two paths again.
    The move is capped at the source path's flow, so a full step leaves that
    path at exactly 0.0.  Stops once no used path costs more than
    GENERAL_RTOL * max(lam, 1) above the cheapest.

    Edge flows, path costs and the line search's sums are correctly rounded
    (``math.fsum``) and an exact tie on cost goes to the path with more
    flow, so the iterates, and the work, do not depend on the order in
    which the network lists its edges or enumerates its paths.

    Requires continuous costs.
    """
    if M <= 0:
        raise DomainError(f"demand must be positive, got {M!r}")
    if not all(c.is_continuous() for c in net.costs):
        raise UnsupportedCostError("conditional gradient needs continuous costs")

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

    update(range(net.n_edges))
    own = path_costs()
    first = min(range(n), key=own.__getitem__)
    x_paths[first] = M
    update(paths[first])

    residual, source = math.inf, -1
    for _ in range(GENERAL_MAX_ITER):
        own = path_costs()
        lam = min(own)
        used = [i for i in range(n) if x_paths[i] > floor]
        top = max(own[i] for i in used)
        # an exact tie on cost goes to the path with more flow
        target = max((i for i in range(n) if own[i] == lam), key=x_paths.__getitem__)
        worst = max((i for i in used if own[i] == top), key=x_paths.__getitem__)
        residual = max(top - lam, 0.0)
        if residual <= GENERAL_RTOL * max(lam, 1.0):
            total = math.fsum(x_paths)
            flow = FlowProfile(tuple(x / total * M for x in x_paths), M)
            return EquilibriumSolution(flow, lam, residual, social_cost(net, flow), "frank-wolfe")
        # a line search leaves its two paths tied; on a tie the last source
        # keeps draining rather than the path it has just filled
        if source < 0 or x_paths[source] <= floor or own[source] < top * (1.0 - PATH_TIE_RTOL):
            source = worst

        # the edges the two paths do not share, gaining (+1) or losing (-1)
        # flow per unit of t
        amount = x_paths[source]
        gain, loss = set(paths[target]), set(paths[source])
        unshared = [(1.0, costs[e], xe[e]) for e in gain - loss]
        unshared += [(-1.0, costs[e], xe[e]) for e in loss - gain]

        def dphi(t: float) -> float:
            return math.fsum([s * c.eval(x + s * t * amount) for s, c, x in unshared])

        f_hi = dphi(1.0)
        if f_hi <= 0.0:
            x_paths[target] += amount
            x_paths[source] = 0.0
        else:
            f_lo = lam - own[source]
            shift = amount * false_position(dphi, 0.0, f_lo, 1.0, f_hi, LINE_SEARCH_MAX_ITER)
            x_paths[target] += shift
            x_paths[source] -= shift
        update(gain | loss)

    raise ConvergenceError(
        "conditional gradient hit the iteration cap", residual=residual
    )


def wardrop_parallel_log(net: Network, M: float) -> EquilibriumSolution:
    """Equilibrium of the exponential two-link instance, in log domain.

    Applies the explicit bracket split: for 2 a_k < M <= a_k + a_{k+1} the
    step link carries a_k; for a_k + a_{k+1} < M <= 2 a_{k+1} the smooth
    link carries a_{k+1}.
    """
    if M <= 0:
        raise DomainError(f"demand must be positive, got {M!r}")
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
        if f > 1e-9 * M:
            gap = own[i].log_magnitude - min_entry.log_magnitude
            residual = max(residual, math.expm1(gap) if gap > 0 else 0.0)
    lam = max(own)
    cost = social_cost_log(net, flow)
    return EquilibriumSolution(flow, lam, residual, cost, "log-bisection")
