"""The failure contract of every exported solver and closed form.

A call on any demand ends in a social cost within the normal floats (a
finite PoA for the closed forms) or a typed ``GameError``: never a bare
Python exception, a NaN, an infinite value, a subnormal value or 0.
"""

import json
import math
import re
import sys

import pytest

import wardrop
from wardrop.asymptotics import (exp_game_poa_near_breakpoint, poa, poa_sweep,
                                 pwl_game_poa_at_special_demand, step_game_closed_form)
from wardrop.cli import main
from wardrop.costs import Affine, AlphaSequence, Constant, Monomial
from wardrop.errors import DomainError, GameError, RangeOverflowError
from wardrop import equilibrium
from wardrop.instances import exp_game, pigou, pwl_game, step_game
from wardrop.logdomain import LogValue
from wardrop.network import Edge, Network, build_parallel, network_to_spec
from wardrop.optimum import opt_bruteforce, opt_parallel_pwl_square, opt_parallel_step, social_optimum


def fork(cost) -> Network:
    """s -> a on one link, then a -> t on two parallel links, all ``cost``."""
    edges = (Edge("sa", "s", "a"), Edge("at1", "a", "t"), Edge("at2", "a", "t"))
    return Network(("s", "a", "t"), edges, (cost, cost, cost), "s", "t")


FIRST_ARGUMENT = {
    "wardrop_equilibrium": pigou(),
    "wardrop_parallel": pigou(),
    "wardrop_general": fork(Affine(0.0, 1.0)),
    "wardrop_parallel_log": exp_game(AlphaSequence("factorial")),
    "opt_parallel_marginal": pigou(),
    "opt_general_marginal": fork(Affine(0.0, 1.0)),
    "opt_parallel_step": 2.0,
    "opt_parallel_pwl_square": 2.0,
    "opt_parallel_exp_log": AlphaSequence("factorial"),
}

DEMANDS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e-200, 1e308]


def test_every_exported_solver_is_probed():
    # a new solver fails here until the probe table covers it; the
    # brute-force oracle is left out because it answers M = 0
    exported = sorted(
        name for name, obj in vars(wardrop).items()
        if name.startswith(("wardrop_", "opt_")) and callable(obj) and name != "opt_bruteforce"
    )
    assert exported == sorted(FIRST_ARGUMENT)


@pytest.mark.parametrize("M", DEMANDS, ids=repr)
@pytest.mark.parametrize("name", sorted(FIRST_ARGUMENT))
def test_any_demand_gives_a_finite_cost_or_a_typed_error(name, M):
    try:
        cost = getattr(wardrop, name)(FIRST_ARGUMENT[name], M).cost
    except GameError:
        return
    if isinstance(cost, LogValue):
        assert cost.is_zero or math.isfinite(cost.log_magnitude), cost
    else:
        assert sys.float_info.min <= cost < math.inf, cost


@pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf, -1.0, 0.0], ids=repr)
@pytest.mark.parametrize("name", sorted(FIRST_ARGUMENT))
def test_a_demand_outside_the_domain_names_the_contract(name, M):
    with pytest.raises(DomainError, match=f"demand must be a finite M > 0, got {M!r}"):
        getattr(wardrop, name)(FIRST_ARGUMENT[name], M)


@pytest.mark.parametrize("solve", [wardrop.wardrop_general, wardrop.opt_general_marginal])
def test_a_steep_cost_on_a_general_network_is_a_range_error(solve):
    # x ** 1e6 raises OverflowError inside Monomial.eval at x = 1.5
    with pytest.raises(RangeOverflowError, match="M=1.5"):
        solve(fork(Monomial(1.0, 1e6)), 1.5)


def test_subnormal_demand_on_the_step_game_is_a_domain_error():
    # M / 2 rounds to 0, whose log is undefined
    for call in (opt_parallel_step, step_game_closed_form):
        with pytest.raises(DomainError, match="below the range native floats resolve"):
            call(2.0, 5e-324)


@pytest.mark.parametrize("call", [lambda M: opt_parallel_step(2.0, M),
                                  lambda M: opt_parallel_pwl_square(2.0, M),
                                  lambda M: wardrop.wardrop_parallel(step_game(2.0), M),
                                  lambda M: poa(step_game(2.0), M)],
                         ids=["opt_parallel_step", "opt_parallel_pwl_square", "wardrop_parallel", "poa"])
@pytest.mark.parametrize("M", [1e-200, 1e-160])
def test_a_social_cost_of_zero_is_a_domain_error(call, M):
    # the cost underflows to exactly 0.0 at both demands, below float_info.min
    with pytest.raises(DomainError, match=re.escape(
            f"division by zero at M={M!r}: the demand is below the range native floats resolve")):
        call(M)


def test_cli_solve_refuses_a_zero_social_cost(capsys):
    code = main(["solve", "--network", "step:2", "--demand", "1e-200"])
    assert code == 3
    assert "division by zero at M=1e-200" in capsys.readouterr().err


FREE_LINK = build_parallel([Constant(0.0), Affine(0.0, 1.0)])
FREE_LINK_MESSAGE = "social cost 0 at M=1.0: the flow is cost-free, so the price of anarchy is 0/0"


@pytest.mark.parametrize("call", [wardrop.wardrop_parallel, wardrop.opt_parallel_marginal, poa])
def test_a_cost_free_flow_is_named_as_such(call):
    # all flow takes the link whose cost is identically 0, at every demand
    with pytest.raises(DomainError, match=re.escape(FREE_LINK_MESSAGE)):
        call(FREE_LINK, 1.0)


def test_cli_solve_names_a_cost_free_flow(tmp_path, capsys):
    net_file = tmp_path / "free.json"
    net_file.write_text(json.dumps(network_to_spec(FREE_LINK)))
    code = main(["solve", "--network", str(net_file), "--demand", "1"])
    assert code == 3
    assert FREE_LINK_MESSAGE in capsys.readouterr().err


CLOSED_FORMS = [
    *(("step_game_closed_form", 2.0, M) for M in [*DEMANDS, 1e-308, 1.8353258673459495e154]),
    *(("pwl_game_poa_at_special_demand", 2.0, k) for k in (-3000, -1000, 1, 1000, 1024, 1030)),
    *(("exp_game_poa_near_breakpoint", AlphaSequence("factorial"), k) for k in (0, 1, 169, 170)),
    ("exp_game_poa_near_breakpoint", AlphaSequence("explicit", values=(1.0, 1e308, 1.7e308)), 2),
]


@pytest.mark.parametrize("name, first, arg", CLOSED_FORMS,
                         ids=[f"{name}-{arg!r}" for name, _, arg in CLOSED_FORMS])
def test_any_input_gives_a_closed_form_a_finite_value_or_a_typed_error(name, first, arg):
    # the second argument is the demand of the step game, and the index k of
    # the special demand or breakpoint of the other two
    try:
        result = getattr(wardrop, name)(first, arg)
    except GameError:
        return
    for value in ("poa", "closed_form", "numeric_poa"):
        if hasattr(result, value):
            assert math.isfinite(getattr(result, value)), result


@pytest.mark.parametrize("M, error", [(1e308, RangeOverflowError),  # a^(2k) overflows
                                      (1.8353258673459495e154, RangeOverflowError),  # a^(2k) a z does
                                      (1e-308, DomainError)])  # a^(2k) underflows to 0
def test_step_closed_form_types_its_float_range(M, error):
    with pytest.raises(error, match=re.escape(f"at M={M!r}:")):
        step_game_closed_form(2.0, M)


@pytest.mark.parametrize("k", [1024, 1030])  # 2^1023 (2 + b) overflows, and 2^1029 itself
def test_pwl_special_demand_types_its_overflow(k):
    with pytest.raises(RangeOverflowError, match=f"overflows at k={k}"):
        pwl_game_poa_at_special_demand(2.0, k)


def test_exp_breakpoint_types_its_overflow():
    # alpha_2 + alpha_3 = 1e308 + 1.7e308 overflows: the breakpoint demand
    # is out of range, not an invalid demand
    with pytest.raises(RangeOverflowError, match="overflows at k=2"):
        exp_game_poa_near_breakpoint(AlphaSequence("explicit", values=(1.0, 1e308, 1.7e308)), 2)


def test_step_closed_form_rejects_a_non_finite_demand():
    with pytest.raises(DomainError, match="finite M > 0"):
        step_game_closed_form(2.0, math.nan)


@pytest.mark.parametrize("solve", [opt_parallel_step, opt_parallel_pwl_square])
def test_exact_optima_reject_a_small_base_through_their_family(solve):
    with pytest.raises(DomainError, match="requires finite a >= 2"):
        solve(1.5, 4.0)


@pytest.mark.parametrize("M_hi", [math.inf, math.nan])
def test_sweep_range_must_be_finite(M_hi):
    with pytest.raises(DomainError, match="M_hi"):
        poa_sweep(pigou(), 1.0, M_hi)


def test_cli_sweep_to_infinity_is_a_usage_error(capsys):
    code = main(["sweep", "--network", "pigou", "--from", "1", "--to", "inf"])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err.lower() and "Traceback" not in err


@pytest.mark.parametrize("M", [math.nan, math.inf, -1.0])
def test_oracle_rejects_a_demand_outside_its_domain(M):
    with pytest.raises(DomainError, match="finite M >= 0"):
        opt_bruteforce(pigou(), M)


def test_brute_route_rejects_zero_demand_like_every_solver(capsys):
    with pytest.raises(DomainError, match="finite M > 0"):
        social_optimum(step_game(2.0), 0.0, method="brute")
    code = main(["opt", "--network", "pigou", "--demand", "0", "--method", "brute"])
    assert code == 3
    assert "finite M > 0, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("net, M", [(pigou(), 3.7), (step_game(2.0), 37.0), (pwl_game(2.0), 37.0),
                                    (exp_game(AlphaSequence("factorial")), 37.0), (fork(Affine(0.0, 1.0)), 3.7)],
                         ids=["pigou", "step", "pwl", "exp", "fork"])
def test_a_solve_passes_one_guard(monkeypatch, net, M):
    # each guard entry checks the demand once: poa makes two solves, and
    # social_optimum's guard covers the method it picks
    checked = []
    monkeypatch.setattr(equilibrium, "_check_demand", checked.append)
    poa(net, M)
    assert checked == [M, M]
    social_optimum(net, M)
    assert checked == [M, M, M]
