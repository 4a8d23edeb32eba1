"""The solvers give the same answer at every scale the floats resolve.

The step and interpolated-square games are homogeneous:
StepGeometric(a)(a x) = a StepGeometric(a)(x) and PwlSquare(a)(a y) =
a^2 PwlSquare(a)(y), so at M = a^k m both social costs are a^(deg k) times
their values at m (deg 2 for the step game, 3 for the interpolated square)
and the price of anarchy is periodic in log M.  That makes the same-phase
demand m in [1, a) a referee at any M.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop.asymptotics import poa, step_game_closed_form
from wardrop.errors import GameError
from wardrop.instances import designated_limit_instances, named_instance, pwl_game, step_game

# a social cost is a native float only inside [float_info.min, float_info.max]
LOG_MIN, LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def _same_phase(a: float, M: float) -> tuple[int, float]:
    """(k, m) with m = M / a^k in [1, a), up to the rounding of a^k."""
    k = math.floor(math.log(M) / math.log(a))
    m = M / a**k
    while m >= a:
        k, m = k + 1, m / a
    while m < 1.0:
        k, m = k - 1, m * a
    return k, m


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
@pytest.mark.parametrize("family, game, deg", [("step", step_game, 2), ("pwl", pwl_game, 3)])
def test_poa_is_periodic_in_log_demand(family, game, deg, a):
    """300 seeded demands log-uniform on [1e-200, 1e200].  Each equals the
    same-phase PoA within 1e-9 (and, on the step game, the closed form) or
    raises a GameError.  An error is allowed only where a social cost,
    a^(deg k) times its same-phase value, leaves [float_info.min,
    float_info.max], or, on the step game, where M^2 does: for M below
    about 1e-154 or above 1e154 on the step game, below 1e-103 or above
    about 8.6e102 on the interpolated square.  (A cost is about M^deg / 4
    there, so it turns subnormal a little before M^deg does.)"""
    net = game(a)
    rng = random.Random(f"{family}:{a}")
    for _ in range(300):
        M = 10.0 ** rng.uniform(-200.0, 200.0)
        k, m = _same_phase(a, M)
        ref = poa(net, m)
        logs = [deg * math.log(M)] if family == "step" else []
        logs += [deg * k * math.log(a) + math.log(s.cost) for s in (ref.equilibrium, ref.optimum)]
        in_range = all(LOG_MIN <= v <= LOG_MAX for v in logs)
        try:
            got = poa(net, M).poa
        except GameError:
            assert not in_range, f"M={M!r} raised inside the float range"
            continue
        assert got == pytest.approx(ref.poa, rel=1e-9), f"M={M!r}"
        if family == "step":
            assert got == pytest.approx(step_game_closed_form(a, M).poa, rel=1e-9), f"M={M!r}"


def _instances() -> dict:
    names = ["pigou", "step:2", "step:3", "step:5", "pwl:2", "pwl:3", "exp:factorial",
             "exp:supergeometric"]
    return {**{n: named_instance(n) for n in names}, **designated_limit_instances()}


INSTANCES = _instances()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(INSTANCES)),
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
)
def test_poa_is_a_finite_ratio_or_a_typed_error(name, M):
    try:
        value = poa(INSTANCES[name], M).poa
    except GameError:
        return
    assert math.isfinite(value) and value >= 1.0 - 1e-9
