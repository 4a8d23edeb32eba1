"""Social optimum solvers with an independent brute-force oracle.

Smooth instances are solved as the Wardrop equilibrium of the game whose
edge costs are the marginal costs (x c(x))' = c(x) + x c'(x), by the
equilibrium solvers and their residual check.  The paper's three two-link
counterexamples share one exact scan, ``_scan``: the least objective over
the corners, the knots and each piece's projected stationary point, each
scored once on the piece holding it (in log domain for the exponential
game).  Every exact method can be checked against a zoomed grid search
whose reported resolution bound is an honest Lipschitz-style error estimate.
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
# the exact two-link optima: one candidate scan
# ---------------------------------------------------------------------------


def _scan(M: float, top: tuple[float, float], pieces, objective) -> tuple[float, dict]:
    """The least objective over the exact optima's candidates.

    ``pieces`` yields (j, lo, hi, y) for each piece (lo, hi] of c2, where y
    is the caller's projected stationary point or None.  The candidates are
    the corners 0 and M (label -1; M lies on ``top``), each y and each knot
    hi <= M (label j); a y equal to lo lies on the piece below (label j - 1),
    scored on the point piece (lo, lo) for c2(lo).  A y found twice keeps
    its last label.  Each is scored once, as ``objective(y, lo, hi)``.
    Returns the least y (first found among equal values), {y: (value, label)}.
    """
    found = {0.0: (-1, 0.0, 0.0), M: (-1, *top)}  # y -> (label, lo, hi) of the piece holding y
    for j, lo, hi, y in pieces:
        if y is not None:
            found[y] = (j, lo, hi) if y > lo else (j - 1, lo, lo)
        if hi <= M:
            found[hi] = (j, lo, hi)
    scores = {y: (objective(y, lo, hi), label) for y, (label, lo, hi) in found.items()}
    return min(scores, key=lambda y: scores[y][0]), scores


@_typed_failures
def opt_parallel_step(a: float, M: float) -> OptimumSolution:
    """Exact optimum of the (identity, geometric step) two-link game.

    Decomposes min_y y c2(y) + (M-y)^2 over the intervals (a^j, a^{j+1}]
    where the step cost is constant; on each, the unconstrained minimizer
    y_j = M - a^{j+1}/2 is projected onto the interval.  All feasible j
    are scanned; the winner must land in {C_{k-1}, C_k}, which is flagged
    if violated.  On the piece (lo, hi] holding y, c2(y) = hi.
    """
    StepGeometric(a)  # the family's check of a
    k = _period_index(a, M)

    # certificate: the closed-form subproblem values C_j, with c2 = a^{j+1}
    # on the closed interval (the scan scores y = a^j at c2 = a^j); feasibility
    # requires a^j < M, so j stops below the least knot at or above M
    k0, table = _powers(a)
    k_top, lo_top, c_top = _piece(a, M)
    pieces = []
    for j in range(k - 8, k_top):
        aj, aj1 = table[max(j - k0, 0)], table[max(j + 1 - k0, 0)]  # a^j rounds to 0 below k0
        pieces.append((j, aj, aj1, min(max(M - aj1 / 2.0, aj), aj1)))
    certificate = [{"j": j, "y_free": M - hi / 2.0, "y": y, "value": hi * y + (M - y) ** 2}
                   for j, _, hi, y in pieces]
    y_star, scores = _scan(M, (lo_top, c_top), pieces, lambda y, lo, hi: y * hi + (M - y) ** 2)

    flag = None
    cert_best = min(row["value"] for row in certificate)
    paper_set = [row["value"] for row in certificate if row["j"] in (k - 1, k)]
    if not paper_set or min(paper_set) > cert_best * (1.0 + 1e-12):
        flag = "optimal interval outside {k-1, k}"

    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, scores[y_star][0], "step-interval", tuple(certificate), flag=flag)


@_typed_failures
def opt_parallel_pwl_square(a: float, M: float) -> OptimumSolution:
    """Exact optimum of the (x^2, interpolated x^2) two-link game.

    Candidates are the knots y = a^k (where the optimality condition
    3x^2 in the knot subdifferential can hold) and the stationary point of
    each linear piece, scored with the chord of the piece [p, q] holding
    them.  A candidate whose (M - y)^3 overflows scores +inf, so it loses
    to any finite one; when every candidate overflows, RangeOverflowError.
    """
    PwlSquare(a)  # the family's check of a
    # pieces above the anchor start at or above M
    k_anchor, p_top, q_top = _piece(a, M)
    k0, table = _powers(a)
    pieces = []
    for k in range(k_anchor - 3, k_anchor + 1):
        p, q = table[max(k - 1 - k0, 0)], table[max(k - k0, 0)]  # a^k rounds to 0 below k0
        # stationary point of (M-y)^3 + (p+q)y^2 - pqy on the piece interior:
        # 3(M-y)^2 = 2(p+q)y - pq, the increasing branch root
        b = 6.0 * M + 2.0 * (p + q)
        disc = b * b - 12.0 * (3.0 * M * M + p * q)
        root = (b - math.sqrt(disc)) / 6.0 if disc >= 0.0 else math.nan  # nan fails every test below
        pieces.append((k, p, q, root if p < root < q and 0.0 < root <= M else None))

    def objective(y: float, p: float, q: float) -> float:
        try:
            cube = (M - y) ** 3
        except OverflowError:
            return math.inf
        return cube + y * _chord(p, q, y)

    y_star, scores = _scan(M, (p_top, q_top), pieces, objective)
    certificate = [{"k": k, "interior": y, "value": scores[y][0]}
                   for k, _, _, y in pieces if y is not None]
    certificate.extend({"y": y, "value": v} for y, (v, _) in sorted(scores.items()))
    best = scores[y_star][0]
    if best == math.inf:
        raise RangeOverflowError(f"every pwl-square candidate overflows at M={float(M)!r}")
    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, best, "pwl-candidates", tuple(certificate))


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
    projected candidate, every knot, and the corners, on float logs summed
    by ``log_add``; only the winner becomes a ``LogValue``.  The winner is
    flagged when it falls outside the asymptotic candidate set {k-1, k, k+1}.
    """
    k = alphas.bracket_index(M)
    alphas.cover_index(M)  # DemandBracketError when no step holds y = M
    knots = alphas.knots_through(M)

    y_free = [M - aj1 + math.log(max(aj1, 1.0)) for aj1 in knots[1:]]
    pieces = [(j, aj, aj1, min(max(y_free[j], aj), aj1, M))
              for j, (aj, aj1) in enumerate(zip(knots, knots[1:]))]
    # c2(y) = ExpOverX(alpha) for the upper end alpha of the piece holding y
    y_star, scores = _scan(M, knots[-2:], pieces, lambda y, lo, hi: _exp_log_objective(M, y, hi))
    certificate = tuple({"j": j, "y_free": y_free[j], "y": y, "log_value": scores[y][0]}
                        for j, _, _, y in pieces)
    log_value, label = scores[y_star]
    flag = None
    if label not in (k - 1, k, k + 1):
        flag = f"optimal piece j={label} outside the candidate set around k={k}"

    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, LogValue(log_value), "exp-candidates", certificate, flag=flag)


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


_EXACT = {  # classify(net).name -> (the instance's name, its exact optimum)
    "step": ("(identity, step)", opt_parallel_step),
    "pwl": ("(square, pwl-square)", opt_parallel_pwl_square),
    "exp": ("exponential", opt_parallel_exp_log),
}


@_typed_failures
def social_optimum(net: Network, M: float, method: str = "auto", _start: FlowProfile | None = None,
                   _track: _Track | None = None, **kwargs) -> OptimumSolution:
    """Dispatch to the exact method matching the instance, or brute force.
    The private ``_start`` flow starts ``opt_general_marginal`` and the
    private sweep ``_track`` guesses ``opt_parallel_marginal``'s level;
    every other method ignores them.  Its guard covers the method, run unwrapped."""
    kind = classify(net)
    if method == "auto":
        if kind.name in _EXACT:
            method = kind.name
        elif all(c.is_continuous() for c in net.costs):
            method = "marginal"
        elif kind.name == "parallel":
            method = "brute"
        else:
            raise UnsupportedCostError(
                "no optimum method applies: discontinuous costs on a general network"
            )
    if method in _EXACT:
        name, solve = _EXACT[method]
        if kind.name != method:
            raise UnsupportedCostError(f"network is not the {name} instance")
        return solve.__wrapped__(kind.param, M)
    if method == "marginal":
        if net.is_parallel():
            return opt_parallel_marginal.__wrapped__(net, M, _track)
        return opt_general_marginal.__wrapped__(net, M, _start)
    if method == "brute":
        return opt_bruteforce(net, M, **kwargs)
    raise DomainError(f"unknown optimum method {method!r}")
