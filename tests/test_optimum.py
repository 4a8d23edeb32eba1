import math
import random
import sys
import time

import numpy as np
import pytest

from wardrop.costs import (
    Affine,
    AlphaSequence,
    Constant,
    Monomial,
    Polynomial,
    PwlSquare,
    SaturatingLinear,
    StepGeometric,
    _period_index,
    _piece,
    _powers,
)
from wardrop.errors import DemandBracketError, DomainError, RangeOverflowError, UnsupportedCostError
from wardrop.instances import exp_game, pigou, pwl_game, step_game
from wardrop.network import Edge, FlowProfile, Network, build_parallel, social_cost
from wardrop.equilibrium import _typed_failures, wardrop_parallel, wardrop_parallel_log
from wardrop.optimum import (
    OptimumSolution,
    certificate,
    opt_bruteforce,
    opt_parallel_exp_log,
    opt_parallel_marginal,
    opt_parallel_pwl_square,
    opt_parallel_step,
    social_optimum,
)


# ---------------------------------------------------------------------------
# marginal-cost equalization
# ---------------------------------------------------------------------------


def test_pigou_optimum():
    sol = opt_parallel_marginal(pigou(), 1.0)
    assert sol.flow.path_flows == pytest.approx((0.5, 0.5), rel=1e-9)
    assert sol.cost == pytest.approx(0.75, rel=1e-12)


def test_symmetric_optimum():
    net = build_parallel([Affine(0.0, 1.0), Affine(0.0, 1.0)])
    sol = opt_parallel_marginal(net, 2.0)
    assert sol.flow.path_flows == pytest.approx((1.0, 1.0), rel=1e-9)
    assert sol.cost == pytest.approx(2.0, rel=1e-12)


def test_affine_pair_closed_form():
    # marginals 1 + 2x1 = 2 + 2x2 give x1 - x2 = 1/2
    net = build_parallel([Affine(1.0, 1.0), Affine(2.0, 1.0)])
    sol = opt_parallel_marginal(net, 10.0)
    assert sol.flow.path_flows == pytest.approx((5.25, 4.75), rel=1e-10)
    assert sol.cost == pytest.approx(5.25 * 6.25 + 4.75 * 6.75, rel=1e-12)
    assert sol.cost == pytest.approx(64.875, rel=1e-12)


def test_marginal_rejects_step():
    with pytest.raises(UnsupportedCostError):
        opt_parallel_marginal(step_game(2.0), 5.0)


def test_general_optimum_rejects_a_jumping_marginal_at_once():
    # the pwl marginal jumps at its knots and gradient projection needs
    # continuous costs, so the marginal game of this fork is refused up front
    edges = (Edge("sa", "s", "a"), Edge("at1", "a", "t"), Edge("at2", "a", "t"))
    costs = (Affine(0.0, 1.0), Monomial(1.0, 2.0), PwlSquare(2.0))
    net = Network(("s", "a", "t"), edges, costs, "s", "t")
    start = time.perf_counter()
    with pytest.raises(UnsupportedCostError):
        social_optimum(net, 3.0)
    assert time.perf_counter() - start < 1.0


def test_cost_field_matches_social_cost():
    net = build_parallel([Affine(1.0, 2.0), Monomial(1.0, 2.0), SaturatingLinear()])
    sol = opt_parallel_marginal(net, 7.0)
    assert sol.cost == pytest.approx(social_cost(net, sol.flow), rel=1e-12)


# ---------------------------------------------------------------------------
# step-instance interval decomposition
# ---------------------------------------------------------------------------


def test_step_piecewise_table_a2():
    # the three regime formulas around the period k = 1
    assert opt_parallel_step(2.0, 5.0).cost == pytest.approx(4.0 + 9.0, rel=1e-12)
    assert opt_parallel_step(2.0, 6.0).cost == pytest.approx(4.0 * (6.0 - 1.0), rel=1e-12)
    assert opt_parallel_step(2.0, 7.0).cost == pytest.approx(16.0 + 9.0, rel=1e-12)


def test_step_certificate_winner_in_paper_set():
    rng = np.random.default_rng(7)
    for a in (2.0, 3.0, 5.0):
        for k in (0, 1, 2):
            for _ in range(20):
                M = float(rng.uniform(2.0 * a**k, 2.0 * a ** (k + 1)))
                sol = opt_parallel_step(a, M)
                assert sol.flag is None, (a, k, M)
                rows = certificate(step_game(a), M, sol.method)
                cert_min = min(row["value"] for row in rows)
                paper = min(row["value"] for row in rows if row["j"] in (k - 1, k))
                assert paper == pytest.approx(cert_min, rel=1e-12)


def test_step_optimum_continuous_at_breakpoints():
    for a in (2.0, 3.0):
        for k in (0, 1, 2):
            base = a**k
            for b in (2.0 * base, (1.0 + a / 2.0) * base,
                      (1.0 + a / 2.0 + math.sqrt(a - 1.0)) * base,
                      (1.0 + a) * base, 1.5 * a * base):
                eps = 1e-7 * b
                lo = opt_parallel_step(a, b - eps).cost
                hi = opt_parallel_step(a, b + eps).cost
                slope = 2.0 * a ** (k + 2)  # generous local Lipschitz bound
                assert abs(hi - lo) <= slope * 2.0 * eps + 1e-12


def test_step_tie_takes_the_lower_knot_at_every_scale():
    # at M = 3 * 2^k, y = 2^k and y = 2^(k+1) both score 5 * 4^k exactly; the
    # candidate found first wins, so the answer scales with M (a set's hash
    # order gives the upper one where 2^k and 2^(k+61) hash alike, as at M = 48)
    for k in range(-150, 150):
        sol = opt_parallel_step(2.0, 3.0 * 2.0**k)
        assert sol.flow.path_flows == (2.0 ** (k + 1), 2.0**k), k


def test_step_rejects_bad_a():
    with pytest.raises(DomainError):
        opt_parallel_step(1.5, 4.0)


def _eval_scored_step(a: float, M: float) -> tuple[OptimumSolution, tuple]:
    """opt_parallel_step and its certificate rows as they were when it
    scored every candidate of pieces k - 8 up through StepGeometric.eval,
    a square (M - y)^2 that overflows scoring +inf: the reference for the
    piece-scored one."""
    step = StepGeometric(a)
    k = _period_index(a, M)

    def square(y):
        try:
            return (M - y) ** 2
        except OverflowError:
            return math.inf

    def objective(y):
        return y * step.eval(y) + square(y)

    k0, table = _powers(a)
    certificate, candidates = [], {0.0, M}
    for j in range(k - 8, _piece(a, M)[0]):
        aj, aj1 = table[max(j - k0, 0)], table[max(j + 1 - k0, 0)]
        y_free = M - aj1 / 2.0
        y_proj = min(max(y_free, aj), aj1)
        certificate.append({"j": j, "y_free": y_free, "y": y_proj, "value": aj1 * y_proj + square(y_proj)})
        candidates.update((min(y_proj, M), aj))
    y_star = min(candidates, key=objective)
    cert_best = min(row["value"] for row in certificate)
    paper_set = [row["value"] for row in certificate if row["j"] in (k - 1, k)]
    flag = "optimal interval outside {k-1, k}" if not paper_set or min(paper_set) > cert_best * (1.0 + 1e-12) else None
    return (OptimumSolution(FlowProfile((M - y_star, y_star), M), objective(y_star), "step-interval", flag=flag),
            tuple(certificate))


def _eval_scored_pwl(a: float, M: float) -> tuple[OptimumSolution, tuple]:
    """opt_parallel_pwl_square and its certificate rows as they were when it
    scored every candidate of the four pieces through the one holding M
    through PwlSquare.eval: the reference for the piece-scored one."""
    pwl = PwlSquare(a)

    def objective(y):
        try:
            cube = (M - y) ** 3
        except OverflowError:
            return math.inf
        return cube + y * pwl.eval(y)

    k_anchor = _piece(a, M)[0]
    k0, table = _powers(a)
    candidates, certificate = {0.0, M}, []
    for k in range(k_anchor - 3, k_anchor + 1):
        p, q = table[max(k - 1 - k0, 0)], table[max(k - k0, 0)]
        if q <= M:
            candidates.add(q)
        b = 6.0 * M + 2.0 * (p + q)
        disc = b * b - 12.0 * (3.0 * M * M + p * q)
        if disc >= 0.0:
            root = (b - math.sqrt(disc)) / 6.0
            if p < root < q and 0.0 < root <= M:
                candidates.add(root)
                certificate.append({"k": k, "interior": root, "value": objective(root)})
    certificate += [{"y": y, "value": objective(y)} for y in sorted(candidates)]
    y_star = min(candidates, key=objective)
    best = objective(y_star)
    if best == math.inf:
        raise RangeOverflowError(f"every pwl-square candidate overflows at M={float(M)!r}")
    return OptimumSolution(FlowProfile((M - y_star, y_star), M), best, "pwl-candidates"), tuple(certificate)


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0, 1e10])
def test_piece_scored_optima_match_the_eval_scored_ones(a):
    """The step and pwl optima score each candidate from the piece that made
    it; every answer, flag and error text, and every row of ``certificate``,
    is the one that scoring through eval gives: 3000 log-uniform demands on
    [1e-300, 1e300], every a^k and 2a^k in the float range with its float
    neighbours, and demands near the top of the float range."""
    rng = random.Random(43)
    knots = [v for q in _powers(a)[1][1:] for v in (q, 2.0 * q) if v < math.inf]
    demands = [*(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3000)),
               *(y for v in knots for y in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))),
               1e308, 1.5e308, math.nextafter(sys.float_info.max, 0.0), sys.float_info.max]

    def outcome(solve, M):
        rows = []

        def solution(a, M):  # the solvers' failure contract reads the solution alone
            sol, certificate_rows = solve(a, M)
            rows.extend(certificate_rows)
            return sol

        try:
            return repr(_typed_failures(solution)(a, M)) + repr(rows)
        except Exception as exc:  # noqa: BLE001 - a failure must match too
            return f"{type(exc).__name__}: {exc}"

    for piece_scored, net, eval_scored in ((opt_parallel_step, step_game(a), _eval_scored_step),
                                           (opt_parallel_pwl_square, pwl_game(a), _eval_scored_pwl)):
        def with_rows(a, M):
            sol = piece_scored.__wrapped__(a, M)
            return sol, tuple(certificate(net, M, sol.method))

        for M in demands:
            assert outcome(with_rows, M) == outcome(eval_scored, M), (piece_scored.__name__, M)


# ---------------------------------------------------------------------------
# interpolated-square instance
# ---------------------------------------------------------------------------


def test_pwl_special_demand_value():
    a = 2.0
    b = math.sqrt((2.0 * a * a + a) / 3.0)
    sol = opt_parallel_pwl_square(a, a + b)
    assert sol.cost == pytest.approx(b**3 + a**3, rel=1e-12)
    # optimum parks the interpolated link exactly on the first knot
    assert sol.flow.path_flows[1] == pytest.approx(a, rel=1e-12)
    assert sol.flow.path_flows[0] == pytest.approx(b, rel=1e-12)


def test_pwl_scaling_law():
    a = 2.0
    b = math.sqrt((2.0 * a * a + a) / 3.0)
    base = opt_parallel_pwl_square(a, a + b).cost
    for k in (2, 3, 4):
        scaled = opt_parallel_pwl_square(a, a ** (k - 1) * (a + b)).cost
        assert scaled == pytest.approx(a ** (3 * (k - 1)) * base, rel=1e-9)


def test_pwl_corner_whose_cube_overflows_loses_to_finite_candidates():
    # (M - 0)^3 overflows above about 5.6e102, but the optimum itself is a float
    for M in (5.7e102, 7.356115539774607e102):
        sol = opt_parallel_pwl_square(3.0, M)
        assert math.isfinite(sol.cost) and sol.flow.path_flows[1] > 0.0
        rows = certificate(pwl_game(3.0), M, sol.method)
        assert any(row["value"] == math.inf for row in rows if row.get("y") == 0.0)
    with pytest.raises(RangeOverflowError):
        opt_parallel_pwl_square(3.0, 1e103)


def test_pwl_agrees_with_marginal_engine():
    # the pwl marginal is set-valued but monotone, so level bisection is an
    # independent route to the same optimum
    net = pwl_game(2.0)
    for M in (0.8, 3.0, 3.9, 7.7, 30.0):
        cand = opt_parallel_pwl_square(2.0, M)
        marg = opt_parallel_marginal(net, M)
        assert cand.cost == pytest.approx(marg.cost, rel=1e-10)


def test_pwl_close_to_smoothed_instance_within_chord_gap():
    # replacing the interpolation by x^2 changes the cost by at most the
    # chord gap y*(c2(y) - y^2), bounded on the optimizer's piece
    a = 2.0
    pwl = PwlSquare(a)
    smooth = build_parallel([Monomial(1.0, 2.0), Monomial(1.0, 2.0)])
    for M in (0.9, 1.7, 3.1):
        exact = opt_parallel_pwl_square(a, M)
        smoothed = opt_parallel_marginal(smooth, M)
        ys = np.linspace(0.0, M, 2001)[1:].tolist()
        gap = max(y * (pwl.eval(y) - y * y) for y in ys)
        assert smoothed.cost <= exact.cost + 1e-9
        assert exact.cost - smoothed.cost <= gap + 1e-9


# ---------------------------------------------------------------------------
# exponential instance
# ---------------------------------------------------------------------------


def test_exp_log_unconstrained_candidate_position():
    alphas = AlphaSequence("factorial")
    M = 31.0
    # y_j = M - alpha_{j+1} + ln alpha_{j+1} for the piece holding the optimum
    row = next(r for r in certificate(exp_game(alphas), M, "exp-candidates") if r["j"] == 3)
    assert row["y_free"] == pytest.approx(M - 24.0 + math.log(24.0), rel=1e-12)


def test_exp_log_winner_near_breakpoint_is_middle_case():
    alphas = AlphaSequence("factorial")
    k = 3
    a_k, a_k1 = 6.0, 24.0
    M = (a_k + a_k1) * (1.0 + 1e-6)
    sol = opt_parallel_exp_log(alphas, M)
    assert sol.flag is None
    expected = (a_k1 - math.log(a_k1)) + math.log(1.0 + M - a_k1 + math.log(a_k1))
    assert sol.cost.log_magnitude == pytest.approx(expected, rel=1e-12)


def test_exp_log_small_scale_matches_native_floats():
    alphas = AlphaSequence("explicit", values=(1.0, 3.0, 30.0))
    net = exp_game(alphas)
    for M in (7.0, 8.0, 12.0):
        sol = opt_parallel_exp_log(alphas, M)
        native = opt_bruteforce(net, M)
        assert sol.cost.to_float() == pytest.approx(native.cost, rel=1e-10)


def test_exp_log_validates_bracket():
    # at or below 2 alpha_1 the bracket is k = 0 (alpha_0 = 0); on factorial
    # both links cost e there, so the optimum is the equilibrium's cost
    alphas = AlphaSequence("factorial")
    for M in (1e-300, 0.3, 1.0, 1.5, 2.0):
        opt = opt_parallel_exp_log(alphas, M)
        weq = wardrop_parallel_log(exp_game(alphas), M)
        assert opt.flag is None and weq.residual == 0.0, M
        assert abs(math.exp(weq.cost.log_magnitude - opt.cost.log_magnitude) - 1.0) <= math.ulp(1.0), M
    with pytest.raises(DemandBracketError):  # a one-term sequence has no bracket lattice
        opt_parallel_exp_log(AlphaSequence("explicit", values=(5.0,)), 1.0)


def test_exp_log_cost_matches_log_social_cost():
    alphas = AlphaSequence("factorial")
    net = exp_game(alphas)
    sol = opt_parallel_exp_log(alphas, 200.0)
    again = math.log(social_cost(net, sol.flow))  # e^200 is still a float
    assert sol.cost.log_magnitude == pytest.approx(again, rel=1e-12)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_brute_examples():
    assert opt_bruteforce(pigou(), 1.0).cost == pytest.approx(0.75, abs=1e-6)
    assert opt_bruteforce(step_game(2.0), 6.0).cost == pytest.approx(20.0, abs=1e-5)
    assert opt_bruteforce(pigou(), 0.0).cost == 0.0


@pytest.mark.parametrize("kwargs", [
    {"resolution": 1}, {"resolution": 0}, {"resolution": -3}, {"zoom_rounds": -1},
    {"resolution": 2.5}, {"zoom_rounds": 1.5},
], ids=str)
def test_brute_needs_two_grid_points_and_no_negative_zoom(kwargs):
    # resolution 0 and -3 once raised a bare ValueError, 1 blamed the demand,
    # zoom_rounds = -1 returned an infinite cost, and 2.5 or 1.5 raised a
    # bare TypeError
    with pytest.raises(DomainError, match="resolution >= 2 and zoom_rounds >= 0"):
        opt_bruteforce(pigou(), 1.0, **kwargs)


def test_brute_at_a_million_lattice_flows_stops_where_floats_do():
    # once a bare ZeroDivisionError: the zoom narrowed the cell below the
    # float spacing at 1/2; now the rounds stop where adjacent flows collapse
    sol = opt_bruteforce(pigou(), 1.0, resolution=10**6)
    assert 0.0 < sol.resolution_bound < 1e-9
    assert abs(sol.cost - 0.75) <= sol.resolution_bound


def test_brute_single_link():
    net = build_parallel([Monomial(1.0, 2.0)])
    assert opt_bruteforce(net, 3.0).cost == pytest.approx(27.0)


def test_oracle_dominance_random_instances():
    # >= 200 random demands for each exact-method family (smooth marginal
    # equalization, step interval decomposition, pwl candidates)
    rng = np.random.default_rng(11)
    family_nets = {
        "marginal": [
            pigou(),
            build_parallel([Affine(1.0, 2.0), Polynomial((0.0, 1.0, 3.0))]),
            build_parallel([Affine(0.0, 2.0), Monomial(1.0, 2.0), Constant(25.0)]),
        ],
        "step": [step_game(2.0), step_game(3.0)],
        "pwl": [pwl_game(2.0), pwl_game(3.0)],
    }
    for family, nets in family_nets.items():
        draws = -(-210 // len(nets))  # ceil: >= 200 demands per family
        for net in nets:
            for _ in range(draws):
                M = float(np.exp(rng.uniform(math.log(0.5), math.log(50.0))))
                exact = social_optimum(net, M)
                res = 301 if net.n_edges == 3 else 1201
                brute = opt_bruteforce(net, M, resolution=res, zoom_rounds=2)
                tol = max(brute.resolution_bound, 1e-9 * max(abs(exact.cost), 1.0))
                assert abs(exact.cost - brute.cost) <= tol, (family, net.costs, M)
                # the oracle never does strictly better than an exact optimum
                assert brute.cost >= exact.cost - tol


def test_opt_never_exceeds_equilibrium_cost():
    rng = np.random.default_rng(13)
    for net in (pigou(), step_game(2.0), pwl_game(2.0)):
        for _ in range(10):
            M = float(np.exp(rng.uniform(math.log(0.5), math.log(80.0))))
            weq = wardrop_parallel(net, M)
            opt = social_optimum(net, M)
            assert opt.cost <= weq.cost * (1.0 + 1e-12)


def test_opt_never_exceeds_equilibrium_cost_log_domain():
    alphas = AlphaSequence("factorial")
    for M in (13.0, 31.0, 100.0, 777.0):
        weq = wardrop_parallel_log(exp_game(alphas), M)
        opt = opt_parallel_exp_log(alphas, M)
        assert opt.cost <= weq.cost


def test_router_picks_specialized_methods():
    assert social_optimum(step_game(2.0), 5.0).method == "step-interval"
    assert social_optimum(pwl_game(2.0), 5.0).method == "pwl-candidates"
    assert social_optimum(pigou(), 1.0).method == "marginal"
    assert social_optimum(exp_game(), 31.0).method == "exp-candidates"
    mixed = build_parallel([Affine(1.0, 1.0), StepGeometric(2.0)])
    assert social_optimum(mixed, 5.0).method == "brute-force"
