import math

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
)
from wardrop.errors import DemandBracketError, DomainError, UnsupportedCostError
from wardrop.instances import exp_game, pigou, pwl_game, step_game
from wardrop.network import build_parallel, social_cost, social_cost_log
from wardrop.equilibrium import wardrop_parallel, wardrop_parallel_log
from wardrop.optimum import (
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
                cert_min = min(row["value"] for row in sol.certificate)
                paper = min(
                    row["value"] for row in sol.certificate if row["j"] in (k - 1, k)
                )
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


def test_step_rejects_bad_a():
    with pytest.raises(DomainError):
        opt_parallel_step(1.5, 4.0)


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
        ys = np.linspace(0.0, M, 2001)[1:]
        gap = float(np.max(ys * (pwl.eval_many(ys) - ys**2)))
        assert smoothed.cost <= exact.cost + 1e-9
        assert exact.cost - smoothed.cost <= gap + 1e-9


# ---------------------------------------------------------------------------
# exponential instance
# ---------------------------------------------------------------------------


def test_exp_log_unconstrained_candidate_position():
    alphas = AlphaSequence("factorial")
    M = 31.0
    sol = opt_parallel_exp_log(alphas, M)
    # y_j = M - alpha_{j+1} + ln alpha_{j+1} for the piece holding the optimum
    row = next(r for r in sol.certificate if r["j"] == 3)
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
    alphas = AlphaSequence("factorial")
    with pytest.raises(DemandBracketError):
        opt_parallel_exp_log(alphas, 1.0)


def test_exp_log_cost_matches_log_social_cost():
    alphas = AlphaSequence("factorial")
    net = exp_game(alphas)
    sol = opt_parallel_exp_log(alphas, 200.0)
    again = social_cost_log(net, sol.flow)
    assert sol.cost.log_magnitude == pytest.approx(again.log_magnitude, rel=1e-12)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_brute_examples():
    assert opt_bruteforce(pigou(), 1.0).cost == pytest.approx(0.75, abs=1e-6)
    assert opt_bruteforce(step_game(2.0), 6.0).cost == pytest.approx(20.0, abs=1e-5)
    assert opt_bruteforce(pigou(), 0.0).cost == 0.0


def test_brute_rejects_many_links():
    net = build_parallel([Constant(1.0)] * 4)
    with pytest.raises(UnsupportedCostError):
        opt_bruteforce(net, 1.0)


def test_brute_single_link():
    net = build_parallel([Monomial(1.0, 2.0)])
    assert opt_bruteforce(net, 3.0).cost == pytest.approx(27.0)


def test_brute_deterministic_given_seed():
    net = build_parallel([Affine(1.0, 2.0), Monomial(1.0, 2.0)])
    a = opt_bruteforce(net, 5.0, seed=3)
    b = opt_bruteforce(net, 5.0, seed=3)
    assert a.cost == b.cost and a.flow.path_flows == b.flow.path_flows


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
