"""Social optimum solvers with an independent brute-force oracle.

Smooth instances are solved as the Wardrop equilibrium of the game whose
edge costs are the marginal costs (x c(x))' = c(x) + x c'(x), by the
equilibrium solvers and their residual check.  The paper's three two-link
counterexamples share one exact scan, ``_scan``: the least objective over
the corners, the knots and each piece's projected stationary point, each
scored once on the piece holding it (in log domain for the exponential
game), from the piece holding M down until a lower bound on the objective
cuts every piece below.  ``certificate`` gives the rows ``wardrop opt``
prints.  Every exact method can be checked against a zoomed lattice search
whose reported resolution bound is an honest Lipschitz-style error estimate.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass

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
from .logdomain import LogValue, log_add, log_term
from .network import FlowProfile, Network, social_cost
from .equilibrium import _general_flow, _parallel_flow, _typed_failures

_LATTICE_POINTS = 257 * 257  # lattice points per brute-force round


@dataclass(frozen=True)
class OptimumSolution:
    flow: FlowProfile
    cost: float | LogValue
    method: str
    resolution_bound: float | None = None
    flag: str | None = None


# ---------------------------------------------------------------------------
# smooth instances: equilibrium of the marginal-cost game
# ---------------------------------------------------------------------------


@_typed_failures
def opt_parallel_marginal(net: Network, M: float) -> OptimumSolution:
    """Optimum of a parallel network by level bisection on the marginal costs."""
    return _marginal_optimum(net, M, _parallel_flow, "marginal")


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
    ``solve`` returns the equilibrium flow first and the marginal game's
    social cost last, which is dropped: the optimum is priced on ``net``."""
    try:
        mnet = net.marginal
    except UnsupportedCostError:
        raise UnsupportedCostError(
            "non-smooth cost present; use the specialized or brute-force method"
        ) from None
    flow = solve(mnet, M)[0]
    return OptimumSolution(flow, social_cost(net, flow), method)


# ---------------------------------------------------------------------------
# the exact two-link optima: one candidate scan, bounded by proof
# ---------------------------------------------------------------------------


def _scan(M: float, pieces, objective, bound) -> tuple[float, dict]:
    """The least objective over the exact optima's candidates, by branch and
    bound (Land and Doig, 1960) from the piece holding M down.

    ``pieces`` yields (j, lo, hi, y) for each piece (lo, hi] of c2, the one
    holding M first, where y is the caller's projected stationary point or
    None.  The candidates are the corners M (label -1, on the first piece)
    and 0 (label -1), each y and each knot hi <= M (label j); a y equal to lo
    lies on the piece below (label j - 1), scored on the point piece (lo, lo)
    for c2(lo).  Each is scored once, as ``objective(y, lo, hi)``, with the
    label of the highest piece that finds it.  ``bound(hi)`` is at most the
    objective at every y <= hi and rises as hi falls, so the first piece
    whose bound passes the least value found, by more than the rounding of
    either, is cut with every piece below it and the corner 0: none of them
    can win or tie.  A bound of +inf cuts too, as +inf is never an answer.
    Returns the winner (among equal values 0, then M, then the least y) and
    {y: (value, label)} over the candidates scored.
    """
    scores, best = {}, math.inf
    for n, (j, lo, hi, y) in enumerate(itertools.chain(pieces, [(-1, 0.0, 0.0, None)])):
        if n and ((low := bound(hi)) == math.inf or low > best + 1e-12 * abs(best)):
            break
        found = [(hi, j, lo, hi)] if hi <= M else []
        if not n:
            found.append((M, -1, lo, hi))
        if y is not None:
            found.append((y, j, lo, hi) if y > lo else (y, j - 1, lo, lo))
        for y, label, lo, hi in found:
            if y not in scores:
                scores[y] = (value := objective(y, lo, hi)), label
                best = min(best, value)
    return min(scores, key=lambda y: (scores[y][0], y != 0.0, y != M, y)), scores


def _step_pieces(a: float, M: float, js):
    """(j, a^j, a^{j+1}, y) for each j in ``js``, y = M - a^{j+1}/2, the
    minimizer of y a^{j+1} + (M-y)^2, projected onto the piece."""
    k0, table = _powers(a)
    for j in js:
        lo, hi = table[max(j - k0, 0)], table[max(j + 1 - k0, 0)]  # a^j rounds to 0 below k0
        yield j, lo, hi, min(max(M - hi / 2.0, lo), hi)


@_typed_failures
def opt_parallel_step(a: float, M: float) -> OptimumSolution:
    """Exact optimum of the (identity, geometric step) two-link game.

    Decomposes min_y y c2(y) + (M-y)^2 over the intervals (a^j, a^{j+1}]
    where the step cost is constant; on each, the unconstrained minimizer
    y_j = M - a^{j+1}/2 is projected onto the interval.  On the piece (lo, hi]
    holding y, c2(y) = hi.  ``_scan`` bounds each piece by max(M - hi, 0)^2,
    the least (M-y)^2 on it; a square that overflows scores +inf.  The
    winner must land in {C_{k-1}, C_k}, the values y a^{j+1} + (M-y)^2 at
    the projections, which is flagged if C_{k+1} is less; no C_j below k-1
    is less than C_{k-1}, as there y_j = a^{j+1} = h and h^2 + (M-h)^2
    falls as h rises to a^k < M/2.
    """
    StepGeometric(a)  # the family's check of a
    k, (k0, _), k_top = _period_index(a, M), _powers(a), _piece(a, M)[0]
    if _power(M, 2) < sys.float_info.min:  # the corner y = 0 scores M^2, at least the optimum
        raise ZeroDivisionError("the social cost is below the normal floats")
    y_star, scores = _scan(M, _step_pieces(a, M, range(k_top - 1, k0 - 1, -1)),
                           lambda y, lo, hi: y * hi + _power(M - y, 2), lambda hi: _power(max(M - hi, 0.0), 2))
    rows = {j: y * hi + _power(M - y, 2) for j, _, hi, y in _step_pieces(a, M, range(k - 1, k_top))}
    flag = None
    if min(rows[k - 1], rows[k]) > min(rows.values()) * (1.0 + 1e-12):
        flag = "optimal interval outside {k-1, k}"
    return OptimumSolution(FlowProfile((M - y_star, y_star), M), scores[y_star][0], "step-interval", flag=flag)


def _pwl_pieces(a: float, M: float, ks):
    """(k, a^{k-1}, a^k, y) for each k in ``ks``, y the stationary point of
    (M-y)^3 + (p+q)y^2 - pqy inside the piece [p, q], or None."""
    k0, table = _powers(a)
    for k in ks:
        p, q = table[max(k - 1 - k0, 0)], table[max(k - k0, 0)]  # a^k rounds to 0 below k0
        # 3(M-y)^2 = 2(p+q)y - pq, the increasing branch root
        b = 6.0 * M + 2.0 * (p + q)
        disc = b * b - 12.0 * (3.0 * M * M + p * q)
        root = (b - math.sqrt(disc)) / 6.0 if disc >= 0.0 else math.nan  # nan fails every test below
        yield k, p, q, root if p < root < q and 0.0 < root <= M else None


def _power(x: float, n: int) -> float:
    """x^n, or +inf where it overflows."""
    try:
        return x**n
    except OverflowError:
        return math.inf


def _pwl_objective(M: float):
    """(M-y)^3 + y c2(y), c2 the chord of the piece [p, q] holding y; +inf
    where the cube overflows."""
    def objective(y: float, p: float, q: float) -> float:
        cube = _power(M - y, 3)
        return cube if cube == math.inf else cube + y * _chord(p, q, y)
    return objective


@_typed_failures
def opt_parallel_pwl_square(a: float, M: float) -> OptimumSolution:
    """Exact optimum of the (x^2, interpolated x^2) two-link game.

    Candidates are the knots y = a^k (where the optimality condition
    3x^2 in the knot subdifferential can hold) and the stationary point of
    each linear piece, scored with the chord of the piece [p, q] holding
    them.  ``_scan`` bounds each piece by max(M - q, 0)^3, the least (M-y)^3
    on it.  A candidate whose (M - y)^3 overflows scores +inf, so it loses
    to any finite one; when every candidate overflows, the cost is +inf,
    which the guard reports as float overflow (RangeOverflowError).
    """
    PwlSquare(a)  # the family's check of a
    if _power(M, 3) < sys.float_info.min:  # the corner y = 0 scores M^3, at least the optimum
        raise ZeroDivisionError("the social cost is below the normal floats")
    k_anchor, k0 = _piece(a, M)[0], _powers(a)[0]
    y_star, scores = _scan(M, _pwl_pieces(a, M, range(k_anchor, k0, -1)), _pwl_objective(M),
                           lambda q: _power(max(M - q, 0.0), 3))
    return OptimumSolution(FlowProfile((M - y_star, y_star), M), scores[y_star][0], "pwl-candidates")


def _exp_log_objective(M: float, y: float, alpha: float) -> float:
    """ln(x c1(x) + y c2(y)) at x = M - y, where c2(y) = ExpOverX(alpha) is
    the step holding y; a term with no flow is left out."""
    return log_add(log_term(M - y, _log_exp_over_x(M - y)), log_term(y, _log_exp_over_x(alpha)))


def _exp_pieces(M: float, knots: tuple, js):
    """(j, alpha_j, alpha_{j+1}, y) for each j in ``js``, y the stationary
    point M - alpha_{j+1} + ln(alpha_{j+1}) projected onto the piece and [0, M]."""
    for j in js:
        lo, hi = knots[j], knots[j + 1]
        yield j, lo, hi, min(max(M - hi + math.log(max(hi, 1.0)), lo), hi, M)


@_typed_failures
def opt_parallel_exp_log(alphas: AlphaSequence, M: float) -> OptimumSolution:
    """Optimum of the exponential two-link instance as a finite candidate search.

    For each feasible piece (alpha_j, alpha_{j+1}] the unconstrained
    stationary point y_j = M - alpha_{j+1} + ln(alpha_{j+1}) is projected
    onto the piece; the true objective is evaluated in log domain at the
    projected candidates, the knots and the corners, on float logs summed by
    ``log_add``; only the winner becomes a ``LogValue``.  ``_scan`` bounds
    each piece by ln(x c1(x)) at x = M - alpha_{j+1}, the least x on it: on
    factorial at M = 1e300 it scores 2 candidates of 167 pieces.  The winner is flagged when it falls outside the
    asymptotic candidate set {k-1, k, k+1}.
    """
    k = alphas.bracket_index(M)
    alphas.cover_index(M)  # DemandBracketError when no step holds y = M
    knots = alphas.knots_through(M)
    # c2(y) = ExpOverX(alpha) for the upper end alpha of the piece holding y
    y_star, scores = _scan(M, _exp_pieces(M, knots, range(len(knots) - 2, -1, -1)),
                           lambda y, lo, hi: _exp_log_objective(M, y, hi),
                           lambda hi: log_term(M - hi, _log_exp_over_x(M - hi)))
    log_value, label = scores[y_star]
    flag = None
    if label not in (k - 1, k, k + 1):
        flag = f"optimal piece j={label} outside the candidate set around k={k}"
    return OptimumSolution(FlowProfile((M - y_star, y_star), M), LogValue(log_value), "exp-candidates", flag=flag)


def certificate(net: Network, M: float, method: str) -> list[dict]:
    """The rows ``wardrop opt`` prints for the exact optimum ``method``
    found on ``net`` at M, over fixed display windows, not the pieces
    ``_scan`` reached; [] for any other method.
    - step-interval: pieces k-8 up to the one holding M, each with its free
      point, projection y and value y a^{j+1} + (M-y)^2;
    - pwl-candidates: the interior stationary points of the four pieces up
      to the one holding M, then every candidate there with its value;
    - exp-candidates: every piece from alpha_0, with its free point,
      projection y and log objective at y."""
    param = classify(net).param
    if method == "step-interval":
        js = range(_period_index(param, M) - 8, _piece(param, M)[0])
        return [{"j": j, "y_free": M - hi / 2.0, "y": y, "value": y * hi + _power(M - y, 2)}
                for j, _, hi, y in _step_pieces(param, M, js)]
    if method == "pwl-candidates":
        k_anchor = _piece(param, M)[0]
        pieces = list(_pwl_pieces(param, M, range(k_anchor, k_anchor - 4, -1)))
        scores = _scan(M, pieces, _pwl_objective(M), lambda q: -math.inf)[1]
        return ([{"k": k, "interior": y, "value": scores[y][0]} for k, _, _, y in reversed(pieces) if y is not None]
                + [{"y": y, "value": v} for y, (v, _) in sorted(scores.items())])
    if method == "exp-candidates":
        knots = param.knots_through(M)
        return [{"j": j, "y_free": M - hi + math.log(max(hi, 1.0)), "y": y,
                 "log_value": _exp_log_objective(M, y, hi if y > lo else lo)}
                for j, lo, hi, y in _exp_pieces(M, knots, range(len(knots) - 1))]
    return []


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def opt_bruteforce(
    net: Network,
    M: float,
    *,
    resolution: int = 4001,
    zoom_rounds: int = 3,
) -> OptimumSolution:
    """Search over a lattice on the simplex of flows, zoomed around the incumbent.

    Independent of every exact method: it only calls each link's scalar
    ``eval``.  A round gives links 2..n ``resolution`` lattice flows each,
    fewer past 257**2 lattice points (4 links: 40, 5 links: 16), and their
    knots; link 1 takes the rest.  ``resolution_bound`` is a Lipschitz-style
    error estimate near the incumbent in the final round.  Where every
    lattice flow's social cost overflows, it raises a RangeOverflowError, as
    the exact solvers do.  It answers M = 0
    with the empty flow, so it checks its demand itself rather than carry
    the ``_typed_failures`` guard of the solvers.
    """
    if not net.is_parallel():
        raise UnsupportedCostError("brute-force oracle requires a parallel network")
    if not (isinstance(resolution, int) and isinstance(zoom_rounds, int)
            and resolution >= 2 and zoom_rounds >= 0):
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
    m = net.n_edges - 1
    r = min(resolution, int(_LATTICE_POINTS ** (1 / m) + 1e-9))  # r**m <= _LATTICE_POINTS
    if r < 2:
        raise UnsupportedCostError(f"brute-force lattice: fewer than 2 flows for each of {m} free links")
    return _brute_grid(net, M, r, zoom_rounds)


def _brute_grid(net, M, r, zoom_rounds) -> OptimumSolution:
    """Zoomed lattice search with r lattice flows per free link i >= 2.

    A point gives link i a flow as (y, k, e, y c_i(y)): (y, k, 0.0, .) for
    the lattice flow y = M k / D, (y, 0, y, .) for a knot or its +-1e-9
    relative offsets (with two links, c_1's knots b too, as M - b).  Link 1
    takes the rest M (D - K) / D - E for the points' sums K of k and E of e,
    exactly 0 on the face K = D.  A round takes the least lattice point of
    its windows, or the last incumbent if less, and descends from it.  Round
    0 takes D = r - 1 and all of [0, M]; each next one multiplies D by
    f = (r - 1) // 2 and spans one old cell either side of the incumbent,
    while f >= 2 and no two adjacent lattice flows round to the same float."""
    c1, others = net.costs[0], net.costs[1:]
    D, f = r - 1, (r - 1) // 2
    wins, zooms, found = [(0, D)] * len(others), zoom_rounds if f >= 2 else 0, None
    while True:
        lattices = [[M * (k / D) for k in range(lo, hi + 1)] for lo, hi in wins]
        K_lo, K_hi = sum(lo for lo, _ in wins), min(D, sum(hi for _, hi in wins))
        rests = [M * ((D - K) / D) for K in range(K_lo, K_hi + 1)]
        if found and any(len(set(ys)) < len(ys) for ys in [rests, *lattices]):
            break
        axes = []
        for cost, (lo, hi), ys in zip(others, wins, lattices):
            knots = list(cost.breakpoints_within(ys[0], ys[-1]))
            if len(others) == 1:
                knots += [M - b for b in c1.breakpoints_within(M - ys[-1], M - ys[0])]
            kys = sorted({off for b in knots if b > 0 for off in (b * (1 - 1e-9), b, b * (1 + 1e-9))
                          if ys[0] <= off <= ys[-1]})
            values = map(operator.mul, ys, map(cost.eval, ys))
            axes.append((list(zip(ys, range(lo, hi + 1), itertools.repeat(0.0), values)),
                         [(y, 0, y, y * cost.eval(y)) for y in kys]))
        table = list(map(operator.mul, rests, map(c1.eval, rests)))
        best_v, best = _least([lattice for lattice, _ in axes], table, K_lo)
        if found and found[0] < best_v:  # the same flows at the same value, in this round's units
            best_v, best = found[0], tuple((y, k * D // found[2], e, v) for y, k, e, v in found[1])
        best_v, best = _descend(M, D, c1, axes, best_v, best)
        centers = [k if e == 0.0 else round(y / M * D) for y, k, e, _ in best]
        # an incumbent that improved on an edge of its windows inside the
        # simplex may have better points beyond: search again around it
        walk = found is not None and best_v < found[0] and any(
            c in (lo, hi) and 0 < c < D for c, (lo, hi) in zip(centers, wins))
        bound = max(_bound(M, D, c1, axes, best, d, c - lo)
                    for d, (c, (lo, _)) in enumerate(zip(centers, wins)))
        found = best_v, best, D, bound
        if not walk:
            if not zooms:
                break
            zooms, D, centers = zooms - 1, D * f, [c * f for c in centers]
        wins = [(max(0, c - f), min(D, c + f)) for c in centers]
    best_v, best, D, bound = found
    if best_v == math.inf:
        raise RangeOverflowError(f"float overflow at M={float(M)!r}: every lattice flow's social cost "
                                 "is past the float range")
    flow = FlowProfile((_point(M, D, c1, best)[0],) + tuple(y for y, *_ in best), M)
    return OptimumSolution(
        flow, best_v, "brute-force", resolution_bound=bound + 1e-12 * abs(best_v)
    )


def _point(M: float, D: int, c1, points) -> tuple[float, float | None]:
    """(x, objective) at one point: link 1's rest x, and the points' y c(y)
    plus x c_1(x), or None where x < 0."""
    *free, last = points
    x = M * ((D - sum(p[1] for p in points)) / D) - sum(p[2] for p in points)
    return x, None if x < 0 else sum(p[3] for p in free) + (last[3] + x * c1.eval(x))


def _least(lattices, table: list, K_lo: int) -> tuple[float, tuple]:
    """The least objective over the lattice points of a round's windows, as
    ``_point`` sums it, and its points.  ``table[K - K_lo]`` is x c_1(x) at
    the lattice sum K, up to K = D, so a slice of it stops at x = 0."""
    *free, last = lattices
    values, best_v, best = [p[3] for p in last], math.inf, None
    for combo in itertools.product(*free):
        K, V = sum(p[1] for p in combo), sum(p[3] for p in combo)
        i = K + last[0][1] - K_lo
        low = min(map(operator.add, values, table[i:i + len(values)]), default=None)
        if low is not None and (best is None or V + low < best_v):
            j = list(map(operator.add, values, table[i:i + len(values)])).index(low)
            best_v, best = V + low, combo + (last[j],)
    return best_v, best


def _descend(M: float, D: int, c1, axes, best_v: float, best: tuple) -> tuple[float, tuple]:
    """Coordinate descent: each free link in turn, the others held, tries
    its knots, and its lattice flows too while another link sits at a knot;
    sweeps repeat until one finds nothing less.  Link 1's knots lie across
    these lines, so from three links on they do not enter."""
    improved = True
    while improved:
        improved = False
        for d, (lattice, knots) in enumerate(axes):
            held = best[:d] + best[d + 1:]
            for p in knots + lattice if any(e for _, _, e, _ in held) else knots:
                v = _point(M, D, c1, best[:d] + (p,) + best[d + 1:])[1]
                if v is not None and v < best_v:
                    best_v, best, improved = v, best[:d] + (p,) + best[d + 1:], True
    return best_v, best


def _bound(M: float, D: int, c1, axes, best: tuple, d: int, i: int) -> float:
    """Lipschitz-style error estimate along link d + 2's seven flows nearest
    the incumbent's, which lies next to its i-th lattice flow, the others
    held: the largest adjacent slope over regular cells times the cell M / D,
    else the largest adjacent difference.  Slopes skip the hair-width pairs
    around a knot, which would report its jump, not an interpolation error;
    pairs skip an infeasible end, as the face it borders lies on the lattice,
    and a pair with an overflowing end differs by inf, never by NaN."""
    lattice, knots = axes[d]
    around = lattice[max(i - 4, 0):i + 5]
    line = sorted({*around, *(p for p in knots if around[0][0] <= p[0] <= around[-1][0]), best[d]})
    j, cell = line.index(best[d]), M / D
    near = [(p[0], _point(M, D, c1, best[:d] + (p,) + best[d + 1:])[1]) for p in line[max(j - 3, 0):j + 4]]
    pairs = [(y1 - y0, abs(v1 - v0) if math.isfinite(v1 - v0) else math.inf)
             for (y0, v0), (y1, v1) in zip(near, near[1:]) if None not in (v0, v1)]
    slope = max((df / dy for dy, df in pairs if dy > 0 and dy >= 0.5 * cell), default=0.0)
    return slope * cell if slope > 0 else max((df for _, df in pairs), default=0.0)


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
                   **kwargs) -> OptimumSolution:
    """Dispatch to the exact method matching the instance, or brute force.
    The private ``_start`` flow starts ``opt_general_marginal``; every other
    method ignores it.  Its guard covers the method, run unwrapped."""
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
            return opt_parallel_marginal.__wrapped__(net, M)
        return opt_general_marginal.__wrapped__(net, M, _start)
    if method == "brute":
        return opt_bruteforce(net, M, **kwargs)
    raise DomainError(f"unknown optimum method {method!r}")
