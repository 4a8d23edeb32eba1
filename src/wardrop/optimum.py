"""Social optimum solvers with an independent brute-force oracle.

Smooth instances are solved as the Wardrop equilibrium of the game whose
edge costs are the marginal costs (x c(x))' = c(x) + x c'(x), by the
equilibrium solvers and their residual check.  The two-link
counterexample families get exact piecewise procedures: the geometric
step instance decomposes the problem over the intervals where the step
cost is constant, the interpolated-square instance enumerates knot and
interior stationary candidates, and the exponential instance evaluates
its candidate set in log domain.  Every exact method can be checked
against a zoomed grid search whose reported resolution bound is an
honest Lipschitz-style error estimate.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .costs import (
    AlphaSequence,
    PwlSquare,
    StepGeometric,
    _chord,
    _log_exp_over_x,
    _period_index,
    _piece,
    _powers,
)
from .errors import DomainError, RangeOverflowError, UnsupportedCostError
from .instances import classify
from .logdomain import LogValue, log_add
from .network import FlowProfile, Network, social_cost
from .equilibrium import _general_flow, _parallel_flow, _Track, _typed_failures

if TYPE_CHECKING:
    import numpy as np

_GRID_CAP_2D = 257  # per-axis cap for two-dimensional brute-force grids


@dataclass(frozen=True)
class OptimumSolution:
    flow: FlowProfile
    cost: float | LogValue
    method: str
    certificate: tuple = ()
    resolution_bound: float | None = None
    flag: str | None = None


# ---------------------------------------------------------------------------
# smooth instances: equilibrium of the marginal-cost game
# ---------------------------------------------------------------------------


@_typed_failures
def opt_parallel_marginal(net: Network, M: float, _track: _Track | None = None) -> OptimumSolution:
    """Optimum of a parallel network by level bisection on the marginal
    costs, its level guessed by the private sweep ``_track`` where given."""
    return _marginal_optimum(net, M, functools.partial(_parallel_flow, track=_track), "marginal")


@_typed_failures
def opt_general_marginal(net: Network, M: float, _start: FlowProfile | None = None) -> OptimumSolution:
    """Optimum on a general network by projected Newton steps on continuous
    marginals, started from all flow on one path, or from the private
    ``_start`` flow where given (``poa`` passes the equilibrium at the same M,
    which the optimum approaches as congestion grows)."""
    start = None if _start is None else _start.path_flows
    return _marginal_optimum(net, M, functools.partial(_general_flow, start=start), "marginal-general")


def _marginal_optimum(net: Network, M: float, solve, method: str) -> OptimumSolution:
    """An optimum is an equilibrium of the game whose edge costs are the
    marginals (x c(x))' (Beckmann, McGuire and Winsten), so ``solve``'s
    residual check, with [eval, eval_right] at a jump, is the KKT check.
    ``solve`` returns the equilibrium flow first; the marginal game's own
    social cost is never formed."""
    try:
        mnet = net.marginal
    except UnsupportedCostError:
        raise UnsupportedCostError(
            "non-smooth cost present; use the specialized or brute-force method"
        ) from None
    flow = solve(mnet, M)[0]
    return OptimumSolution(flow, social_cost(net, flow), method)


# ---------------------------------------------------------------------------
# geometric step instance: interval decomposition
# ---------------------------------------------------------------------------


@_typed_failures
def opt_parallel_step(a: float, M: float) -> OptimumSolution:
    """Exact optimum of the (identity, geometric step) two-link game.

    Decomposes min_y y c2(y) + (M-y)^2 over the intervals (a^j, a^{j+1}]
    where the step cost is constant; on each, the unconstrained minimizer
    y_j = M - a^{j+1}/2 is projected onto the interval.  All feasible j
    are scanned; the winner must land in {C_{k-1}, C_k}, which is flagged
    if violated.  Each candidate y is scored as y c2(y) + (M - y)^2 with
    the step value c2(y) of the piece that made it.
    """
    StepGeometric(a)  # the family's check of a
    k = _period_index(a, M)

    # certificate: the closed-form subproblem values C_j; feasibility
    # requires a^j < M, so j stops below the least knot at or above M
    k0, table = _powers(a)
    k_top, _, c_top = _piece(a, M)
    certificate = []
    candidates = {0.0, M}
    step = {0.0: 0.0, M: c_top}  # y -> c2(y)
    for j in range(k - 8, k_top):
        aj, aj1 = table[max(j - k0, 0)], table[max(j + 1 - k0, 0)]  # a^j rounds to 0 below k0
        y_free = M - aj1 / 2.0
        y_proj = min(max(y_free, aj), aj1)
        c_j = aj1 * y_proj + (M - y_proj) ** 2
        certificate.append({"j": j, "y_free": y_free, "y": y_proj, "value": c_j})
        y = min(y_proj, M)
        candidates.update((y, aj))
        step.setdefault(y, aj1 if y > aj else aj)  # c2 = aj1 on (aj, aj1], and c2(a^j) = a^j
        step.setdefault(aj, aj)

    def objective(y: float) -> float:
        return y * step[y] + (M - y) ** 2

    y_star = min(candidates, key=objective)
    best = objective(y_star)

    flag = None
    cert_best = min(row["value"] for row in certificate)
    paper_set = [row["value"] for row in certificate if row["j"] in (k - 1, k)]
    if not paper_set or min(paper_set) > cert_best * (1.0 + 1e-12):
        flag = "optimal interval outside {k-1, k}"

    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, best, "step-interval", tuple(certificate), flag=flag)


# ---------------------------------------------------------------------------
# interpolated-square instance: knot + interior candidates
# ---------------------------------------------------------------------------


@_typed_failures
def opt_parallel_pwl_square(a: float, M: float) -> OptimumSolution:
    """Exact optimum of the (x^2, interpolated x^2) two-link game.

    Candidates are the knots y = a^k (where the optimality condition
    3x^2 in the knot subdifferential can hold) and the stationary point of
    each linear piece; each is projected onto [0, M] and the cheapest wins.
    A candidate whose (M - y)^3 overflows scores +inf, so it loses to any
    finite one; when every candidate overflows, RangeOverflowError.  Each
    candidate y is scored with the chord of the piece [p, q] that made it.
    """
    PwlSquare(a)  # the family's check of a
    # pieces above the anchor start at or above M
    k_anchor, p_top, q_top = _piece(a, M)
    k0, table = _powers(a)
    candidates = {0.0, M}
    pieces = {0.0: (0.0, 0.0), M: (p_top, q_top)}  # y -> the piece (p, q) holding y

    def objective(y: float) -> float:
        try:
            cube = (M - y) ** 3
        except OverflowError:
            return math.inf
        return cube + y * _chord(*pieces[y], y)

    certificate = []
    for k in range(k_anchor - 3, k_anchor + 1):
        p, q = table[max(k - 1 - k0, 0)], table[max(k - k0, 0)]  # a^k rounds to 0 below k0
        if q <= M:
            candidates.add(q)
            pieces.setdefault(q, (p, q))
        # stationary point of (M-y)^3 + (p+q)y^2 - pqy on the piece interior:
        # 3(M-y)^2 = 2(p+q)y - pq, the increasing branch root
        b = 6.0 * M + 2.0 * (p + q)
        disc = b * b - 12.0 * (3.0 * M * M + p * q)
        if disc >= 0.0:
            root = (b - math.sqrt(disc)) / 6.0
            if p < root < q and 0.0 < root <= M:
                candidates.add(root)
                pieces.setdefault(root, (p, q))
                certificate.append({"k": k, "interior": root, "value": objective(root)})
    value = {y: objective(y) for y in sorted(candidates)}
    certificate.extend({"y": y, "value": v} for y, v in value.items())

    y_star = min(candidates, key=value.__getitem__)
    best = value[y_star]
    if best == math.inf:
        raise RangeOverflowError(f"every pwl-square candidate overflows at M={float(M)!r}")
    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, best, "pwl-candidates", tuple(certificate))


# ---------------------------------------------------------------------------
# exponential instance: log-domain candidate set
# ---------------------------------------------------------------------------


def _exp_log_objective(M: float, y: float, alpha: float) -> float:
    """ln(x c1(x) + y c2(y)) at x = M - y, where c2(y) = ExpOverX(alpha) is
    the step holding y; a term with no flow is left out."""
    x = M - y
    t = math.log(x) + _log_exp_over_x(x) if x > 0 else -math.inf
    u = math.log(y) + _log_exp_over_x(alpha) if y > 0 else -math.inf
    return log_add(t, u)


@_typed_failures
def opt_parallel_exp_log(alphas: AlphaSequence, M: float) -> OptimumSolution:
    """Optimum of the exponential two-link instance as a finite candidate search.

    For each feasible piece (alpha_j, alpha_{j+1}] the unconstrained
    stationary point y_j = M - alpha_{j+1} + ln(alpha_{j+1}) is projected
    onto the piece; the true objective is evaluated in log domain at every
    projected candidate, every knot, and the corners.  The scan runs on
    float logs summed by ``log_add`` and scores each candidate once; only
    the winner becomes a ``LogValue``.  The winner is flagged when it falls
    outside the asymptotic candidate set {k-1, k, k+1}.
    """
    k = alphas.bracket_index(M)
    alphas.cover_index(M)  # DemandBracketError when no step holds y = M
    knots = alphas.knots_through(M)

    labels = {0.0: -1, M: -1}  # y -> piece label j of (alpha_j, alpha_{j+1}]; -1 at a corner
    steps = {0.0: 0.0, M: knots[-1]}  # y -> alpha_j with c2(y) = ExpOverX(alpha_j)
    rows = []
    for j in range(len(knots) - 1):
        aj, aj1 = knots[j], knots[j + 1]
        y_free = M - aj1 + math.log(max(aj1, 1.0))
        y_proj = min(max(y_free, aj), aj1, M)
        if aj < y_proj:
            labels[y_proj], steps[y_proj] = j, aj1
        else:
            labels[y_proj], steps[y_proj] = j - 1, aj
        if aj1 <= M:
            labels[aj1], steps[aj1] = j, aj1
        rows.append((j, y_free, y_proj))

    logs = {y: _exp_log_objective(M, y, alpha) for y, alpha in steps.items()}
    certificate = tuple(
        {"j": j, "y_free": y_free, "y": y, "log_value": logs[y]} for j, y_free, y in rows
    )
    y_star = min(logs, key=logs.__getitem__)
    label = labels[y_star]
    flag = None
    if label not in (k - 1, k, k + 1):
        flag = f"optimal piece j={label} outside the candidate set around k={k}"

    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, LogValue(logs[y_star]), "exp-candidates", certificate, flag=flag)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def opt_bruteforce(
    net: Network,
    M: float,
    *,
    resolution: int = 4001,
    zoom_rounds: int = 3,
    seed: int = 0,
) -> OptimumSolution:
    """Grid search over the feasible simplex, zoomed around the incumbent.

    Independent of every exact method: only uses vectorized cost
    evaluation.  Step/kink breakpoints (and +-1e-9 relative offsets) are
    injected into the grid.  ``resolution_bound`` is a Lipschitz-style
    error estimate: max adjacent objective difference near the incumbent
    in the final round, inf where the incumbent borders infeasible points
    (link 1's flow negative).  Two-dimensional grids (three links) cap the
    per-axis resolution at 257 to bound memory.  It answers M = 0 with the
    empty flow, so it checks its demand itself rather than carry the
    ``_typed_failures`` guard of the solvers.
    """
    if not net.is_parallel():
        raise UnsupportedCostError("brute-force oracle requires a parallel network")
    if net.n_edges > 3:
        raise UnsupportedCostError("brute-force oracle supports at most 3 links")
    if resolution < 2 or zoom_rounds < 0:
        raise DomainError(f"brute force needs resolution >= 2 and zoom_rounds >= 0, "
                          f"got {resolution!r} and {zoom_rounds!r}")
    if not 0 <= M < math.inf:
        raise DomainError(f"demand must be a finite M >= 0, got {M!r}")
    if M == 0:
        flow = FlowProfile((0.0,) * net.n_edges, 0.0)
        return OptimumSolution(flow, 0.0, "brute-force", resolution_bound=0.0)
    if net.n_edges == 1:
        flow = FlowProfile((M,), M)
        return OptimumSolution(
            flow, social_cost(net, flow), "brute-force", resolution_bound=0.0
        )
    resolution = resolution if net.n_edges == 2 else min(resolution, _GRID_CAP_2D)
    return _brute_grid(net, M, resolution, zoom_rounds, seed)


def _axis_points(lo: float, hi: float, n: int, breakpoints, rng) -> np.ndarray:
    import numpy as np

    base = np.linspace(lo, hi, n)
    if n > 2:
        cell = (hi - lo) / (n - 1)
        base[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * cell
    extra = []
    for b in breakpoints:
        if b <= 0:
            continue
        for off in (b * (1 - 1e-9), b, b * (1 + 1e-9)):
            if lo <= off <= hi:
                extra.append(off)
    if extra:
        base = np.unique(np.concatenate([base, np.asarray(extra)]))
    return np.clip(base, lo, hi)


def _brute_grid(net, M, resolution, zoom_rounds, seed) -> OptimumSolution:
    """Zoomed grid over the flows y_2..y_n of links 2..n, one axis each;
    link 1 carries the rest, and a point where that rest is negative
    scores +inf.  With two links, c_1's knots enter the one axis mirrored
    as M - b."""
    import numpy as np

    c1, others = net.costs[0], net.costs[1:]
    rng = np.random.default_rng(seed)
    win = [(0.0, M)] * len(others)
    best, best_v, bound = (0.0,) * len(others), math.inf, math.inf
    for _ in range(zoom_rounds + 1):
        axes = []
        for cost, (lo, hi) in zip(others, win):
            bps = list(cost.breakpoints_within(lo, hi))
            if len(others) == 1:
                bps += [M - b for b in c1.breakpoints_within(M - hi, M - lo)]
            axes.append(_axis_points(lo, hi, resolution, bps, rng))
        ys = np.meshgrid(*axes, indexing="ij")
        x1 = functools.reduce(operator.sub, ys, M)  # M - y_2 - ... - y_n
        vals = x1 * c1.eval_many(np.maximum(x1, 0.0))
        for cost, y in zip(others, ys):
            vals = vals + y * cost.eval_many(y)
        vals = np.where(x1 < 0, np.inf, vals)
        at = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best, best_v = tuple(float(y[at]) for y in ys), float(vals[at])
        cells = [(hi - lo) / (resolution - 1) for lo, hi in win]
        bound = max(
            _local_error_bound(axis, vals[at[:d] + (slice(None),) + at[d + 1:]], at[d], cell)
            for d, (axis, cell) in enumerate(zip(axes, cells))
        )
        win = [(max(0.0, y - cell), min(M, y + cell)) for y, cell in zip(best, cells)]
    flow = FlowProfile((max(functools.reduce(operator.sub, best, M), 0.0),) + best, M)
    return OptimumSolution(
        flow, best_v, "brute-force", resolution_bound=bound + 1e-12 * abs(best_v)
    )


def _local_error_bound(ys: np.ndarray, vals: np.ndarray, i: int, cell: float) -> float:
    """Lipschitz-style error estimate near the incumbent grid point.

    Slopes are measured over regular cells only; the hair-width pairs
    injected around breakpoints would report the jump itself, which the
    grid resolves exactly, not an interpolation error.  A pair of two
    infeasible (+inf) points is skipped; a pair with one makes the bound inf.
    """
    j0, j1 = max(i - 3, 0), min(i + 4, len(ys))
    slope, fallback = 0.0, 0.0
    for t in range(j0, j1 - 1):
        if vals[t] == vals[t + 1] == math.inf:
            continue
        dy = float(ys[t + 1] - ys[t])
        df = abs(float(vals[t + 1] - vals[t]))
        fallback = max(fallback, df)
        if dy >= 0.5 * cell:
            slope = max(slope, df / dy)
    return slope * cell if slope > 0 else fallback


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


_EXACT_INSTANCES = {
    "step": "(identity, step)",
    "pwl": "(square, pwl-square)",
    "exp": "exponential",
}


@_typed_failures
def social_optimum(net: Network, M: float, method: str = "auto", _start: FlowProfile | None = None,
                   _track: _Track | None = None, **kwargs) -> OptimumSolution:
    """Dispatch to the exact method matching the instance, or brute force.
    The private ``_start`` flow starts ``opt_general_marginal`` and the
    private sweep ``_track`` guesses ``opt_parallel_marginal``'s level;
    every other method ignores them."""
    kind = classify(net)
    if method == "auto":
        if kind.name in _EXACT_INSTANCES:
            method = kind.name
        elif all(c.is_continuous() for c in net.costs):
            method = "marginal"
        elif kind.name == "parallel":
            method = "brute"
        else:
            raise UnsupportedCostError(
                "no optimum method applies: discontinuous costs on a general network"
            )
    if method in _EXACT_INSTANCES and kind.name != method:
        raise UnsupportedCostError(f"network is not the {_EXACT_INSTANCES[method]} instance")
    if method == "exp":
        return opt_parallel_exp_log(kind.param, M)
    if method == "step":
        return opt_parallel_step(kind.param, M)
    if method == "pwl":
        return opt_parallel_pwl_square(kind.param, M)
    if method == "marginal":
        return opt_parallel_marginal(net, M, _track) if net.is_parallel() else opt_general_marginal(net, M, _start)
    if method == "brute":
        return opt_bruteforce(net, M, **kwargs)
    raise DomainError(f"unknown optimum method {method!r}")
