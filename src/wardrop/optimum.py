"""Social optimum solvers with an independent brute-force oracle.

Smooth instances equalize marginal costs c(x) + x c'(x) through the same
set-valued level bisection the equilibrium solver uses.  The two-link
counterexample families get exact piecewise procedures: the geometric
step instance decomposes the problem over the intervals where the step
cost is constant, the interpolated-square instance enumerates knot and
interior stationary candidates, and the exponential instance evaluates
its candidate set in log domain.  Every exact method can be checked
against a zoomed grid search whose reported resolution bound is an
honest Lipschitz-style error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    AlphaSequence,
    ExpOverX,
    PwlSquare,
    StepExp,
    StepGeometric,
    _least_power_at_least,
    marginal_bounds,
)
from .errors import (
    ConvergenceError,
    DomainError,
    UnsupportedCostError,
)
from .instances import classify
from .logdomain import LogValue, log_sum
from .network import FlowProfile, Network, social_cost
from .equilibrium import level_allocation, wardrop_general

KKT_RTOL = 1e-9
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
# smooth instances: marginal-cost equalization
# ---------------------------------------------------------------------------


def opt_parallel_marginal(net: Network, M: float) -> OptimumSolution:
    """Optimum of a parallel network by equalizing marginal costs."""
    if not net.is_parallel():
        raise DomainError("opt_parallel_marginal requires a parallel network")
    if M <= 0:
        raise DomainError(f"demand must be positive, got {M!r}")
    try:
        margs = [c.marginal_function() for c in net.costs]
    except UnsupportedCostError:
        raise UnsupportedCostError(
            "non-smooth cost present; use the specialized or brute-force method"
        ) from None
    mu, x = level_allocation(margs, M)
    flow = FlowProfile(tuple(x), M)
    residual = _kkt_residual(net.costs, margs, x, mu)
    if residual > KKT_RTOL * max(mu, 1.0):
        raise ConvergenceError("marginal-cost KKT residual too large", residual=residual)
    return OptimumSolution(flow, social_cost(net, flow), "marginal")


def _kkt_residual(costs, margs, x, mu: float) -> float:
    worst = 0.0
    for c, m, xi in zip(costs, margs, x):
        if xi > 0:
            lo, hi = marginal_bounds(c, xi)
            gap = max(lo - mu, mu - hi, 0.0)
        else:
            gap = max(mu - m.eval(0.0), 0.0)
        worst = max(worst, gap)
    return worst


def opt_general_marginal(net: Network, M: float) -> OptimumSolution:
    """Optimum on a general network: equilibrium of the marginal-cost game."""
    margs = tuple(_LevelAsCost(c.marginal_function()) for c in net.costs)
    mnet = Network(net.vertices, net.edges, margs, net.source, net.sink, paths=net.paths)
    eq = wardrop_general(mnet, M)
    return OptimumSolution(eq.flow, social_cost(net, eq.flow), "marginal-general")


class _LevelAsCost:
    """Adapter so a marginal level function can ride through the FW solver."""

    def __init__(self, level):
        self.level = level

    def eval(self, x: float) -> float:
        return self.level.eval(x)

    def eval_right(self, x: float) -> float:
        return self.level.eval(x)

    def is_continuous(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# geometric step instance: interval decomposition
# ---------------------------------------------------------------------------


def _period_index(a: float, M: float) -> int:
    """k with M in (2 a^k, 2 a^{k+1}]."""
    return _least_power_at_least(a, M / 2.0) - 1


def opt_parallel_step(a: float, M: float) -> OptimumSolution:
    """Exact optimum of the (identity, geometric step) two-link game.

    Decomposes min_y y c2(y) + (M-y)^2 over the intervals (a^j, a^{j+1}]
    where the step cost is constant; on each, the unconstrained minimizer
    y_j = M - a^{j+1}/2 is projected onto the interval.  All feasible j
    are scanned; the winner must land in {C_{k-1}, C_k}, which is flagged
    if violated.
    """
    if a < 2:
        raise DomainError(f"step family requires a >= 2, got {a!r}")
    if M <= 0:
        raise DomainError(f"demand must be positive, got {M!r}")
    step = StepGeometric(a)
    k = _period_index(a, M)

    def objective(y: float) -> float:
        return y * step.eval(y) + (M - y) ** 2

    # certificate: the closed-form subproblem values C_j
    j_hi = k + 1
    while a ** (j_hi + 1) < M:  # feasibility requires a^j < M
        j_hi += 1
    certificate = []
    candidates = {0.0, M}
    for j in range(k - 8, j_hi + 1):
        aj, aj1 = a**j, a ** (j + 1)
        if aj >= M:
            continue
        y_free = M - aj1 / 2.0
        y_proj = min(max(y_free, aj), aj1)
        c_j = aj1 * y_proj + (M - y_proj) ** 2
        certificate.append({"j": j, "y_free": y_free, "y": y_proj, "value": c_j})
        candidates.add(min(y_proj, M))
        if aj <= M:
            candidates.add(aj)

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


def opt_parallel_pwl_square(a: float, M: float) -> OptimumSolution:
    """Exact optimum of the (x^2, interpolated x^2) two-link game.

    Candidates are the knots y = a^k (where the optimality condition
    3x^2 in the knot subdifferential can hold) and the stationary point of
    each linear piece; each is projected onto [0, M] and the cheapest wins.
    """
    if a < 2:
        raise DomainError(f"pwl-square family requires a >= 2, got {a!r}")
    if M <= 0:
        raise DomainError(f"demand must be positive, got {M!r}")
    pwl = PwlSquare(a)

    def objective(y: float) -> float:
        return (M - y) ** 3 + y * pwl.eval(y)

    k_anchor = _least_power_at_least(a, M)
    candidates = {0.0, M}
    certificate = []
    for k in range(k_anchor - 3, k_anchor + 2):
        p, q = a ** (k - 1), a**k
        if p >= M:
            continue
        if q <= M:
            candidates.add(q)
        # stationary point of (M-y)^3 + (p+q)y^2 - pqy on the piece interior:
        # 3(M-y)^2 = 2(p+q)y - pq, the increasing branch root
        b = 6.0 * M + 2.0 * (p + q)
        disc = b * b - 12.0 * (3.0 * M * M + p * q)
        if disc >= 0.0:
            root = (b - math.sqrt(disc)) / 6.0
            if p < root < q and 0.0 < root <= M:
                candidates.add(root)
                certificate.append({"k": k, "interior": root, "value": objective(root)})
    for y in sorted(candidates):
        certificate.append({"y": y, "value": objective(y)})

    y_star = min(candidates, key=objective)
    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, objective(y_star), "pwl-candidates", tuple(certificate))


# ---------------------------------------------------------------------------
# exponential instance: log-domain candidate set
# ---------------------------------------------------------------------------


def opt_parallel_exp_log(alphas: AlphaSequence, M: float) -> OptimumSolution:
    """Optimum of the exponential two-link instance as a finite candidate search.

    For each feasible piece (alpha_j, alpha_{j+1}] the unconstrained
    stationary point y_j = M - alpha_{j+1} + ln(alpha_{j+1}) is projected
    onto the piece; the true objective is evaluated in log domain at every
    projected candidate, every knot, and the corners.  The winner is
    flagged when it falls outside the asymptotic candidate set
    {k-1, k, k+1}.
    """
    if M <= 0:
        raise DomainError(f"demand must be positive, got {M!r}")
    exp_cost = ExpOverX()
    step_cost = StepExp(alphas)
    k = alphas.bracket_index(M)

    def objective(y: float) -> LogValue:
        x = M - y
        terms = []
        if x > 0:
            terms.append(LogValue.from_float(x) * exp_cost.eval_log(x))
        if y > 0:
            terms.append(LogValue.from_float(y) * step_cost.eval_log(y))
        return log_sum(terms)

    candidates: dict[float, int] = {0.0: -1, M: -1}  # y -> piece label
    certificate = []
    for j in range(0, alphas.max_index()):
        aj = alphas.alpha(j)
        if aj >= M:
            break
        aj1 = alphas.alpha(j + 1)
        y_free = M - aj1 + math.log(max(aj1, 1.0))
        y_proj = min(max(y_free, aj), aj1, M)
        label = j if aj < y_proj else j - 1
        candidates[y_proj] = label
        if aj1 <= M:
            candidates[aj1] = j
        certificate.append(
            {"j": j, "y_free": y_free, "y": y_proj,
             "log_value": objective(y_proj).log_magnitude}
        )

    y_star = min(candidates, key=lambda y: objective(y))
    best = objective(y_star)
    label = candidates[y_star]
    flag = None
    if label not in (k - 1, k, k + 1):
        flag = f"optimal piece j={label} outside the candidate set around k={k}"

    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, best, "exp-candidates", tuple(certificate), flag=flag)


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
    in the final round.  Two-dimensional grids (three links) cap the
    per-axis resolution at 257 to bound memory.
    """
    if not net.is_parallel():
        raise UnsupportedCostError("brute-force oracle requires a parallel network")
    if net.n_edges > 3:
        raise UnsupportedCostError("brute-force oracle supports at most 3 links")
    if M < 0:
        raise DomainError(f"demand must be nonnegative, got {M!r}")
    if M == 0:
        flow = FlowProfile((0.0,) * net.n_edges, 0.0)
        return OptimumSolution(flow, 0.0, "brute-force", resolution_bound=0.0)
    if net.n_edges == 1:
        flow = FlowProfile((M,), M)
        return OptimumSolution(
            flow, social_cost(net, flow), "brute-force", resolution_bound=0.0
        )
    if net.n_edges == 2:
        return _brute_two_links(net, M, resolution, zoom_rounds, seed)
    return _brute_three_links(net, M, min(resolution, _GRID_CAP_2D), zoom_rounds, seed)


def _axis_points(
    lo: float, hi: float, n: int, breakpoints, M: float, rng
) -> np.ndarray:
    base = np.linspace(lo, hi, n)
    if rng is not None and n > 2:
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


def _brute_two_links(net, M, resolution, zoom_rounds, seed) -> OptimumSolution:
    c1, c2 = net.costs
    rng = np.random.default_rng(seed)

    def objective(ys: np.ndarray) -> np.ndarray:
        xs = M - ys
        return xs * c1.eval_many(xs) + ys * c2.eval_many(ys)

    lo, hi = 0.0, M
    best_y, best_v, bound = 0.0, math.inf, math.inf
    for _ in range(zoom_rounds + 1):
        bps = list(c2.breakpoints_within(lo, hi))
        bps += [M - b for b in c1.breakpoints_within(M - hi, M - lo)]
        ys = _axis_points(lo, hi, resolution, bps, M, rng)
        vals = objective(ys)
        i = int(np.argmin(vals))
        best_y, best_v = float(ys[i]), float(vals[i])
        cell = (hi - lo) / (resolution - 1)
        bound = _local_error_bound(ys, vals, i, cell)
        lo, hi = max(0.0, best_y - cell), min(M, best_y + cell)
    flow = FlowProfile((M - best_y, best_y), M)
    return OptimumSolution(
        flow, best_v, "brute-force", resolution_bound=bound + 1e-12 * abs(best_v)
    )


def _local_error_bound(ys: np.ndarray, vals: np.ndarray, i: int, cell: float) -> float:
    """Lipschitz-style error estimate near the incumbent grid point.

    Slopes are measured over regular cells only; the hair-width pairs
    injected around breakpoints would report the jump itself, which the
    grid resolves exactly, not an interpolation error.
    """
    j0, j1 = max(i - 3, 0), min(i + 4, len(ys))
    slope, fallback = 0.0, 0.0
    for t in range(j0, j1 - 1):
        dy = float(ys[t + 1] - ys[t])
        df = abs(float(vals[t + 1] - vals[t]))
        fallback = max(fallback, df)
        if dy >= 0.5 * cell:
            slope = max(slope, df / dy)
    return slope * cell if slope > 0 else fallback


def _brute_three_links(net, M, resolution, zoom_rounds, seed) -> OptimumSolution:
    c1, c2, c3 = net.costs
    rng = np.random.default_rng(seed)

    def objective(y2: np.ndarray, y3: np.ndarray) -> np.ndarray:
        x1 = M - y2 - y3
        out = np.where(
            x1 >= 0,
            np.where(x1 > 0, x1 * c1.eval_many(np.maximum(x1, 0.0)), 0.0)
            + y2 * c2.eval_many(y2)
            + y3 * c3.eval_many(y3),
            np.inf,
        )
        return out

    win = [(0.0, M), (0.0, M)]
    best = (0.0, 0.0)
    best_v, bound = math.inf, math.inf
    for _ in range(zoom_rounds + 1):
        axes = []
        for dim, (lo, hi) in enumerate(win):
            cost = net.costs[dim + 1]
            axes.append(_axis_points(lo, hi, resolution, cost.breakpoints_within(lo, hi), M, rng))
        g2, g3 = np.meshgrid(axes[0], axes[1], indexing="ij")
        vals = objective(g2, g3)
        flat = int(np.argmin(vals))
        i2, i3 = np.unravel_index(flat, vals.shape)
        best = (float(g2[i2, i3]), float(g3[i2, i3]))
        best_v = float(vals[i2, i3])
        cell2 = (win[0][1] - win[0][0]) / (resolution - 1)
        cell3 = (win[1][1] - win[1][0]) / (resolution - 1)
        bound = max(
            _local_error_bound(axes[0], vals[:, i3], i2, cell2),
            _local_error_bound(axes[1], vals[i2, :], i3, cell3),
        )
        new_win = []
        for dim, (lo, hi) in enumerate(win):
            cell = (hi - lo) / (resolution - 1)
            center = best[dim]
            new_win.append((max(0.0, center - cell), min(M, center + cell)))
        win = new_win
    x1 = max(M - best[0] - best[1], 0.0)
    flow = FlowProfile((x1, best[0], best[1]), M)
    return OptimumSolution(
        flow, best_v, "brute-force", resolution_bound=bound + 1e-12 * abs(best_v)
    )


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


_EXACT_INSTANCES = {
    "step": "(identity, step)",
    "pwl": "(square, pwl-square)",
    "exp": "exponential",
}


def social_optimum(net: Network, M: float, method: str = "auto", **kwargs) -> OptimumSolution:
    """Dispatch to the exact method matching the instance, or brute force."""
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
        return opt_parallel_marginal(net, M) if net.is_parallel() else opt_general_marginal(net, M)
    if method == "brute":
        return opt_bruteforce(net, M, **kwargs)
    raise DomainError(f"unknown optimum method {method!r}")
