"""The exponential game's optimum scan against a reference scan and mpmath.

``opt_parallel_exp_log`` scores its candidates on plain float logs.  The
reference below is the same scan with its own log-sum-exp written out:
a fold from the first term, with the larger log as the shift; every
output must match it bit for bit.  An mpmath referee at 50 digits checks
each certificate value, and two counting tests check the work per call,
one of them on all three games that share ``optimum._scan``.
"""

import functools
import math
import random

import mpmath
import pytest

from wardrop import optimum
from wardrop.costs import AlphaSequence, ExpOverX, StepExp, _piece
from wardrop.errors import DemandBracketError
from wardrop.logdomain import LogValue
from wardrop.network import FlowProfile
from wardrop.optimum import (
    OptimumSolution,
    opt_parallel_exp_log,
    opt_parallel_pwl_square,
    opt_parallel_step,
)

FACTORIAL = AlphaSequence("factorial")
SUPERGEOMETRIC = AlphaSequence("supergeometric", base=2.0)
EXPLICIT = AlphaSequence("explicit", values=(1.0, 3.0, 10.0, 50.0, 400.0, 1e4, 1e6, 1e9))
REFEREE_ULPS = 1.0


def _reference(alphas: AlphaSequence, M: float) -> OptimumSolution:
    """The candidate scan scored through a log-sum-exp of its own."""
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
    certificate = []
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
        certificate.append(
            {"j": j, "y_free": y_free, "y": y_proj,
             "log_value": objective(y_proj)}
        )
    y_star = min(candidates, key=objective)
    label = candidates[y_star]
    flag = None
    if label not in (k - 1, k, k + 1):
        flag = f"optimal piece j={label} outside the candidate set around k={k}"
    flow = FlowProfile((M - y_star, y_star), M)
    return OptimumSolution(flow, LogValue(objective(y_star)), "exp-candidates", tuple(certificate),
                           flag=flag)


def _outcome(alphas: AlphaSequence, M: float, solve) -> tuple:
    """Every output field, floats as hex strings, or the error raised."""
    try:
        sol = solve(alphas, M)
    except DemandBracketError as exc:
        return ("error", str(exc), exc.needed_index)
    rows = tuple(
        (r["j"], r["y_free"].hex(), r["y"].hex(), r["log_value"].hex()) for r in sol.certificate
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
        (FACTORIAL, _demands(1, 150, 1e300) + [5.72e299, 1e300, 3.0, 1e307] + _knot_demands(FACTORIAL)),
        (SUPERGEOMETRIC, _demands(2, 150, 1e300) + [1.9e289, 3.0e289]),
        # past 1e9 the bracket lattice ends; in (1e9, 2e9] only y = M is uncovered
        (EXPLICIT, _demands(3, 80, 1e300) + _demands(4, 80, 4e9) + [1.5e9, 2e9]),
    ],
    ids=["factorial", "supergeometric:2", "explicit"],
)
def test_scan_is_bit_identical_to_the_logvalue_reference(alphas, demands):
    errors = 0
    for M in demands:
        got, want = _outcome(alphas, M, opt_parallel_exp_log), _outcome(alphas, M, _reference)
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
        assert len(sol.certificate) > 3


def _record_scan(monkeypatch, scored: list) -> None:
    """Record every y that ``_scan`` hands its objective."""
    scan = optimum._scan

    def recording_scan(M, top, pieces, objective):
        def recorded(y, lo, hi):
            scored.append(y)
            return objective(y, lo, hi)

        return scan(M, top, pieces, recorded)

    monkeypatch.setattr(optimum, "_scan", recording_scan)


def _record_exp_objective(monkeypatch, scored: list) -> None:
    """Record every y scored through the module's ``_exp_log_objective``."""
    score = optimum._exp_log_objective

    def recording(M, y, alpha):
        scored.append(y)
        return score(M, y, alpha)

    monkeypatch.setattr(optimum, "_exp_log_objective", recording)


def _step_candidates(a: float, M: float, sol) -> set:
    """Each piece's projected point, and its upper knot a^(j+1) <= M."""
    rows = sol.certificate
    return {row["y"] for row in rows} | {a ** (row["j"] + 1) for row in rows if a ** (row["j"] + 1) <= M}


def _pwl_candidates(a: float, M: float, sol) -> set:
    """The interior stationary points, and the knots a^k <= M of the four
    pieces through the one holding M."""
    k_anchor = _piece(a, M)[0]
    knots = {a ** k for k in range(k_anchor - 3, k_anchor + 1)}
    return {row["interior"] for row in sol.certificate if "interior" in row} | {q for q in knots if q <= M}


def _exp_candidates(alphas: AlphaSequence, M: float, sol) -> set:
    """Each piece's projected point, and its upper knot alpha_(j+1) <= M."""
    rows = sol.certificate
    return {row["y"] for row in rows} | {
        alphas.alpha(row["j"] + 1) for row in rows if alphas.alpha(row["j"] + 1) <= M
    }


@pytest.mark.parametrize(
    "solve, record, candidates, cases",
    [
        (opt_parallel_step, _record_scan, _step_candidates, [(3.0, 17.0), (2.0, 1e20), (5.0, 1e100)]),
        (opt_parallel_pwl_square, _record_scan, _pwl_candidates, [(2.0, 5.0), (3.0, 1e20), (2.0, 1e90)]),
        (opt_parallel_exp_log, _record_exp_objective, _exp_candidates,
         [(FACTORIAL, 31.0), (FACTORIAL, 5.72e299), (SUPERGEOMETRIC, 1e200)]),
    ],
    ids=["step", "pwl", "exp"],
)
def test_scan_scores_each_candidate_once(monkeypatch, solve, record, candidates, cases):
    """No y is scored twice, and the scored set is {0, M}, the knots <= M
    and the projected stationary points."""
    scored = []
    record(monkeypatch, scored)
    for instance, M in cases:
        scored.clear()
        sol = solve(instance, M)
        assert len(scored) == len(set(scored)), f"M={M!r}: a candidate scored twice"
        assert set(scored) == {0.0, M} | candidates(instance, M, sol), f"M={M!r}"


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
            for row in opt_parallel_exp_log(alphas, M).certificate:
                got = row["log_value"]
                err = abs(mpmath.mpf(got) - _referee_log(alphas, M, row["y"]))
                assert err <= REFEREE_ULPS * math.ulp(got), (M, row)
