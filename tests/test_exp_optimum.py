"""The exponential game's optimum scan against a reference scan and mpmath.

``opt_parallel_exp_log`` scores its candidates on plain float logs.  The
reference below scores every piece's candidates with its own log-sum-exp
written out: a fold from the first term, with the larger log as the shift;
every output and every row of ``certificate`` must match it bit for bit.
An mpmath referee at 50 digits checks each certificate value, and two
counting tests check the work per call, one of them on all three games
that share ``optimum._scan``.
"""

import functools
import math
import random

import mpmath
import pytest

from wardrop import optimum
from wardrop.costs import AlphaSequence, ExpOverX, StepExp
from wardrop.errors import DemandBracketError
from wardrop.instances import exp_game
from wardrop.logdomain import LogValue
from wardrop.network import FlowProfile
from wardrop.optimum import (
    OptimumSolution,
    certificate,
    opt_parallel_exp_log,
    opt_parallel_pwl_square,
    opt_parallel_step,
)

FACTORIAL = AlphaSequence("factorial")
SUPERGEOMETRIC = AlphaSequence("supergeometric", base=2.0)
EXPLICIT = AlphaSequence("explicit", values=(1.0, 3.0, 10.0, 50.0, 400.0, 1e4, 1e6, 1e9))
REFEREE_ULPS = 1.0


def _reference(alphas: AlphaSequence, M: float) -> tuple[OptimumSolution, tuple]:
    """Every piece's candidates scored through a log-sum-exp of its own,
    and the certificate rows."""
    exp_cost = ExpOverX()
    step_cost = StepExp(alphas)
    k = alphas.bracket_index(M)

    @functools.cache
    def objective(y: float) -> float:
        x = M - y
        terms = []
        if x > 0:
            terms.append(math.log(x) + exp_cost.eval_log(x))
        if y > 0:
            terms.append(math.log(y) + step_cost.eval_log(y))
        total = terms[0]
        for t in terms[1:]:
            hi, lo = max(total, t), min(total, t)
            total = hi + math.log1p(math.exp(lo - hi))
        return total

    candidates = {0.0: -1, M: -1}
    rows = []
    for j in range(0, alphas.max_index()):
        aj = alphas.alpha(j)
        if aj >= M:
            break
        aj1 = alphas.alpha(j + 1)
        y_free = M - aj1 + math.log(max(aj1, 1.0))
        y_proj = min(max(y_free, aj), aj1, M)
        candidates[y_proj] = j if aj < y_proj else j - 1
        if aj1 <= M:
            candidates[aj1] = j
        rows.append({"j": j, "y_free": y_free, "y": y_proj, "log_value": objective(y_proj)})
    y_star = min(candidates, key=objective)
    label = candidates[y_star]
    flag = None
    if label not in (k - 1, k, k + 1):
        flag = f"optimal piece j={label} outside the candidate set around k={k}"
    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, LogValue(objective(y_star)), "exp-candidates", flag=flag), tuple(rows)


def _with_rows(alphas: AlphaSequence, M: float) -> tuple[OptimumSolution, list]:
    sol = opt_parallel_exp_log(alphas, M)
    return sol, certificate(exp_game(alphas), M, sol.method)


def _outcome(alphas: AlphaSequence, M: float, solve) -> tuple:
    """Every output field and certificate row, floats as hex strings, or
    the error raised."""
    try:
        sol, certificate_rows = solve(alphas, M)
    except DemandBracketError as exc:
        return ("error", str(exc), exc.needed_index)
    rows = tuple(
        (r["j"], r["y_free"].hex(), r["y"].hex(), r["log_value"].hex()) for r in certificate_rows
    )
    return (
        tuple(f.hex() for f in sol.flow.path_flows),
        float(sol.flow.total).hex(),
        sol.cost.log_magnitude.hex(),
        sol.cost.is_zero,
        sol.method,
        sol.flag,
        rows,
    )


def _demands(seed: int, n: int, hi: float, lo: float = 2.0) -> list[float]:
    """n seeded demands log-uniform on (lo, hi]."""
    rng = random.Random(seed)
    return [hi * (lo / hi) ** rng.random() for _ in range(n)]


def _knot_demands(alphas: AlphaSequence) -> list[float]:
    """Every 2 alpha_k and alpha_k + alpha_(k+1) (k >= 1) in the float range
    and their float neighbours: the demands where a projected point meets a
    knot, so that the piece below sets its label and with it the flag."""
    knots = alphas.knots_through(math.inf)[1:]
    meets = [2.0 * v for v in knots] + [v + w for v, w in zip(knots, knots[1:])]
    return [y for m in meets if m < math.inf
            for y in (math.nextafter(m, 0.0), m, math.nextafter(m, math.inf))]


@pytest.mark.parametrize(
    "alphas, demands",
    [
        (FACTORIAL, _demands(1, 150, 1e300) + _demands(5, 30, 2.0, lo=1e-300) + [5.72e299, 1e300, 3.0, 1e307]
         + _knot_demands(FACTORIAL)),
        (SUPERGEOMETRIC, _demands(2, 150, 1e300) + [1.9e289, 3.0e289]),
        # past 1e9 the bracket lattice ends; in (1e9, 2e9] only y = M is uncovered
        (EXPLICIT, _demands(3, 80, 1e300) + _demands(4, 80, 4e9) + [1.5e9, 2e9]),
    ],
    ids=["factorial", "supergeometric:2", "explicit"],
)
def test_scan_is_bit_identical_to_the_logvalue_reference(alphas, demands):
    errors = 0
    for M in demands:
        got, want = _outcome(alphas, M, _with_rows), _outcome(alphas, M, _reference)
        assert got == want, f"M={M!r}"
        errors += got[0] == "error"
    if alphas is EXPLICIT:
        assert 0 < errors < len(demands)


def test_scan_builds_one_logvalue_per_call(monkeypatch):
    """O(1) LogValue objects per call, not O(pieces): count every one built."""
    built = []
    init = optimum.LogValue.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(optimum.LogValue, "__init__", counting_init)
    for M in (31.0, 1e20, 5.72e299):
        built.clear()
        sol = opt_parallel_exp_log(FACTORIAL, M)
        assert len(built) == 1 and type(sol.cost) is LogValue, f"M={M!r}"


def _record_scan(monkeypatch, log: dict) -> None:
    """Record what ``_scan`` is given and does: every piece (listed in full,
    from the one holding M down), each y scored and each knot bounded."""
    scan = optimum._scan

    def recording_scan(M, pieces, objective, bound):
        log.update(pieces=list(pieces), scored=[], bounded=[], objective=objective, bound=bound)

        def scored(y, lo, hi):
            log["scored"].append(y)
            return objective(y, lo, hi)

        def bounded(hi):
            log["bounded"].append(hi)
            return bound(hi)

        return scan(M, log["pieces"], scored, bounded)

    monkeypatch.setattr(optimum, "_scan", recording_scan)


def _candidates(M: float, pieces) -> dict:
    """{y: (lo, hi)}: each piece's knot hi <= M and projected point, a point
    at lo on the point piece (lo, lo), as ``_scan`` scores them."""
    found = {}
    for _, lo, hi, y in pieces:
        if hi <= M:
            found.setdefault(hi, (lo, hi))
        if y is not None:
            found.setdefault(y, (lo, hi) if y > lo else (lo, lo))
    return found


@pytest.mark.parametrize(
    "solve, cases",
    [
        (opt_parallel_step, [(3.0, 17.0), (2.0, 3.0 * 2.0**40), (2.0, 1e20), (5.0, 1e100), (1e10, 1e-100)]),
        (opt_parallel_pwl_square, [(2.0, 5.0), (3.0, 1e20), (2.0, 1e90), (3.0, 7e102)]),
        (opt_parallel_exp_log, [(FACTORIAL, 1.5), (FACTORIAL, 31.0), (FACTORIAL, 1e30), (FACTORIAL, 1e300),
                                (SUPERGEOMETRIC, 1e200)]),
    ],
    ids=["step", "pwl", "exp"],
)
def test_scan_scores_each_candidate_once(monkeypatch, solve, cases):
    """The scan runs from the piece holding M down, bounding each piece below
    it by the least objective at any y up to its knot hi: (M - hi)^2,
    (M - hi)^3 or ln((M - hi) c1(M - hi)).  It cuts the
    first piece whose bound passes the least value found, with every piece
    below it and y = 0, as the bound rises as hi falls.  So the scored set
    is {M} and the candidates of the pieces above the cut, each scored
    once; every candidate cut scores more than the winner, so none could
    win or tie.  On the exponential game the cut leaves at most 6
    candidates of 29 pieces at M = 1e30 and of 167 at M = 1e300."""
    log = {}
    _record_scan(monkeypatch, log)
    bottom = (-1, 0.0, 0.0, None)  # the corner y = 0, below every piece
    for instance, M in cases:
        sol = solve(instance, M)
        pieces, scored, objective = log["pieces"], log["scored"], log["objective"]
        best = sol.cost.log_magnitude if isinstance(sol.cost, LogValue) else sol.cost
        # each piece below the top is bounded before its candidates are scored
        cut = len(log["bounded"])
        if cut < len(pieces):
            kept, dropped = pieces[:cut], [*pieces[cut:], bottom]
        else:
            kept, dropped = ([*pieces, bottom], []) if 0.0 in scored else (pieces, [bottom])
        assert len(scored) == len(set(scored)), f"M={M!r}: a candidate scored twice"
        assert set(scored) == {M} | set(_candidates(M, kept)), f"M={M!r}"
        assert sol.flow.path_flows[1] in scored
        if dropped:
            assert log["bound"](dropped[0][2]) > best, f"M={M!r}: a piece was cut below the winner"
        for y, (lo, hi) in _candidates(M, dropped).items():
            if y not in scored:
                assert objective(y, lo, hi) > best, f"M={M!r}: y={y!r} was cut but ties or wins"
        if solve is opt_parallel_exp_log and M in (1e30, 1e300):
            assert len(scored) <= 6 and len(pieces) in (29, 167), (M, len(scored), len(pieces))


def _referee_log(alphas: AlphaSequence, M: float, y: float):
    """ln(x c1(x) + y c2(y)) at x = M - y, at 50 digits."""
    def x_cost(t):
        return mpmath.e if t < 1 else mpmath.exp(t) / t

    x = mpmath.mpf(M) - mpmath.mpf(y)
    total = x * x_cost(x) if x > 0 else mpmath.mpf(0)
    if y > 0:
        alpha = mpmath.mpf(alphas.alpha(alphas.cover_index(y)))
        total += mpmath.mpf(y) * x_cost(alpha)
    return mpmath.log(total)


@pytest.mark.parametrize("alphas, seed", [(FACTORIAL, 5), (SUPERGEOMETRIC, 6)],
                         ids=["factorial", "supergeometric:2"])
def test_certificate_matches_mpmath_referee(alphas, seed):
    """Every certificate log_value is within REFEREE_ULPS ulp of the
    50-digit value of the objective at the row's y."""
    with mpmath.workdps(50):
        hi = min(1e300, alphas.alpha(alphas.max_index()))
        for M in _demands(seed, 30, hi, lo=2.0 * alphas.alpha(1)):
            for row in certificate(exp_game(alphas), M, "exp-candidates"):
                got = row["log_value"]
                err = abs(mpmath.mpf(got) - _referee_log(alphas, M, row["y"]))
                assert err <= REFEREE_ULPS * math.ulp(got), (M, row)
