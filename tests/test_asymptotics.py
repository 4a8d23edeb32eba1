import collections
import math
import time

import numpy as np
import pytest

from wardrop import asymptotics
from wardrop.cli import auto_breakpoints
from wardrop.costs import Affine, AlphaSequence, Constant, CostFunction, Monomial, PwlSquare
from wardrop.errors import DomainError, GameError, RangeOverflowError
from wardrop.instances import (
    designated_limit_instances,
    exp_game,
    named_instance,
    pigou,
    pwl_game,
    step_breakpoints,
    step_game,
)
from wardrop.network import Edge, Network, build_parallel
from wardrop.asymptotics import (
    PoaCurve,
    PoaSample,
    TrendInstance,
    bounded_path_experiment,
    extremes_estimate,
    poa,
    poa_sweep,
    rv_poa_experiment,
    shift_experiment,
    step_jump_value,
    step_game_closed_form,
    pwl_game_constants,
    pwl_game_poa_at_special_demand,
    exp_game_poa_near_breakpoint,
)

GRID_TO_1E6 = tuple(np.geomspace(10.0, 1e6, 26))


# ---------------------------------------------------------------------------
# point evaluations
# ---------------------------------------------------------------------------


def test_pigou_poa():
    assert poa(pigou(), 1.0).poa == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_symmetric_poa_is_one():
    net = build_parallel([Affine(0.0, 1.0), Affine(0.0, 1.0)])
    assert poa(net, 3.0).poa == pytest.approx(1.0, rel=1e-12)


def test_single_link_poa_is_one():
    net = build_parallel([Monomial(1.0, 2.0)])
    assert poa(net, 5.0).poa == pytest.approx(1.0, rel=1e-12)


def test_poa_needs_positive_demand():
    with pytest.raises(DomainError):
        poa(pigou(), 0.0)


@pytest.mark.parametrize("M", [-1.0, math.nan, math.inf, -math.inf])
def test_poa_needs_finite_demand(M):
    with pytest.raises(DomainError, match="finite M > 0"):
        poa(pigou(), M)


def test_poa_rejects_non_finite_ratio():
    # both social costs overflow to inf here, so WEq/Opt is nan
    net = designated_limit_instances()["polynomial-over-common-rv"]
    with pytest.raises(RangeOverflowError, match="M=1e[+]150"):
        poa(net, 1e150)


def test_poa_turns_float_overflow_into_range_overflow():
    with pytest.raises(RangeOverflowError, match="M=1e[+]300"):
        poa(step_game(2.0), 1e300)


def test_poa_turns_zero_division_into_domain_error():
    with pytest.raises(DomainError, match="M=1e-300"):
        poa(pigou(), 1e-300)


def _braess(rising) -> Network:
    edges = (
        Edge("sa", "s", "a"), Edge("at", "a", "t"), Edge("sb", "s", "b"),
        Edge("bt", "b", "t"), Edge("ab", "a", "b"),
    )
    costs = (rising, Constant(1.0), Constant(1.0), rising, Constant(0.0))
    return Network(("s", "a", "b", "t"), edges, costs, "s", "t")


def braess_poa(M: float) -> float:
    """Braess (x, 1, 1, x, 0) for M >= 1/2: WEq = 2M^2 up to M = 1, then 2M
    up to M = 2; Opt = 2M - 1/2 up to M = 1, then M^2/2 + M; from M = 2 on
    the zigzag is unused in both."""
    if M <= 1.0:
        return 2.0 * M * M / (2.0 * M - 0.5)
    if M <= 2.0:
        return 4.0 / (M + 2.0)
    return 1.0


@pytest.mark.parametrize("M", [0.7, 0.9, 1.0, 1.5, 2.0, 3.0])
def test_braess_poa_matches_closed_form(M):
    start = time.perf_counter()
    r = poa(_braess(Affine(0.0, 1.0)), M)
    assert time.perf_counter() - start < 1.0
    assert r.poa == pytest.approx(braess_poa(M), rel=1e-6)
    assert r.method == "frank-wolfe/marginal-general"


def test_braess_quartic_poa_at_one():
    # WEq = 2 on the zigzag; the optimum routes f = 2*5^(-1/4) - 1 on it
    start = time.perf_counter()
    r = poa(_braess(Monomial(1.0, 4.0)), 1.0)
    assert time.perf_counter() - start < 1.0
    expected = 2.0 / (2.0 * 5.0**-1.25 + 2.0 - 2.0 * 5.0**-0.25)
    assert r.poa == pytest.approx(expected, rel=1e-6)


def test_step_jump_just_after_breakpoint():
    a, k = 2.0, 1
    M = (a**k + a ** (k + 1)) * (1.0 + 1e-9)
    assert poa(step_game(a), M).poa == pytest.approx(step_jump_value(a), rel=1e-6)
    assert step_jump_value(2.0) == pytest.approx(1.2)


# ---------------------------------------------------------------------------
# closed form vs solver
# ---------------------------------------------------------------------------


def test_closed_form_regions():
    a = 2.0
    # flat region before the rise
    assert step_game_closed_form(a, 5.0).poa == pytest.approx(1.0, rel=1e-12)
    # immediately after the jump at z = 1 + a
    just_after = step_game_closed_form(a, 6.0 * (1.0 + 1e-12))
    assert just_after.poa == pytest.approx((4.0 + 4.0 * a) / (4.0 + 3.0 * a), rel=1e-9)
    # back to 1 at the period end z = 2a
    assert step_game_closed_form(a, 8.0).poa == pytest.approx(1.0, rel=1e-12)


def test_closed_form_region_boundaries_continuous_for_opt():
    for a in (2.0, 3.0, 5.0):
        beta = 1.0 + a / 2.0 + math.sqrt(a - 1.0)
        gamma = 1.5 * a
        for z in (beta, gamma):
            lo = step_game_closed_form(a, (z - 1e-11) * a)
            hi = step_game_closed_form(a, (z + 1e-11) * a)
            assert lo.opt == pytest.approx(hi.opt, rel=1e-9)


def test_closed_form_matches_solver_at_random_demands():
    rng = np.random.default_rng(3)
    net = step_game(3.0)
    for _ in range(120):
        M = float(np.exp(rng.uniform(math.log(6.0), math.log(2.0 * 27.0))))
        if _near_any_breakpoint(3.0, M):
            continue
        cf = step_game_closed_form(3.0, M)
        solver = poa(net, M)
        assert cf.poa == pytest.approx(solver.poa, rel=1e-6)


def test_step_poa_just_below_a_period_end_matches_closed_form():
    # the level is the step value 27, and M lies a hair below the top of
    # the aggregate inverse's jump there, [36, 54]
    M = 54.0 * (1.0 - 1e-9)
    assert poa(step_game(3.0), M).poa == pytest.approx(step_game_closed_form(3.0, M).poa, rel=1e-12)


@pytest.mark.parametrize("M", [1e-14, 1e-100])
def test_affine_sandwich_poa_is_one_at_small_demand(M):
    # near 0 the links are 2x + O(x^2) and x, linear with no offset, so the
    # PoA tends to 1
    net = designated_limit_instances()["affine-sandwich"]
    assert poa(net, M).poa == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("M", [1e155, 1e200])
def test_affine_sandwich_beyond_float_range_is_a_range_overflow(M):
    # the social costs (about M^2) leave the float range; the inverse of
    # x + x/(1+x) no longer squares the level on the way
    net = designated_limit_instances()["affine-sandwich"]
    with pytest.raises(RangeOverflowError, match=f"M={M!r}".replace("+", "[+]")):
        poa(net, M)


def _near_any_breakpoint(a, M, collar=1e-8):
    from wardrop.costs import _period_index

    k = _period_index(a, M)
    return any(
        abs(M - b) <= collar * b for b in step_breakpoints(a, k - 1, k + 1)
    )


# ---------------------------------------------------------------------------
# sweeps, periods, extremes
# ---------------------------------------------------------------------------


def _step_curve(a, k_lo, k_hi, per_decade=96):
    hints = step_breakpoints(a, k_lo, k_hi + 1)
    return poa_sweep(
        step_game(a),
        2.0 * a**k_lo,
        2.0 * a ** (k_hi + 1),
        samples_per_decade=per_decade,
        breakpoint_hints=hints,
        period_base=a,
    )


def test_sweep_shape_one_period_a3():
    # rise to the jump at a^k + a^{k+1}, then decay back to 1
    a, k = 3.0, 1
    curve = _step_curve(a, 1, 1, per_decade=256)
    jump_M = a**k + a ** (k + 1)
    before = [s for s in curve.samples if s.M <= jump_M]
    after = [s for s in curve.samples if s.M > jump_M]
    beta = 1.0 + a / 2.0 + math.sqrt(a - 1.0)
    flat = [s for s in before if s.M < beta * a**k * (1.0 - 1e-9)]
    assert all(abs(s.poa - 1.0) <= 1e-9 for s in flat)
    rise = [s for s in before if s.M >= beta * a**k]
    assert all(b.poa >= a_.poa - 1e-9 for a_, b in zip(rise, rise[1:]))
    assert all(b.poa <= a_.poa + 1e-9 for a_, b in zip(after, after[1:]))
    assert max(s.poa for s in curve.samples) == pytest.approx(
        step_jump_value(a), rel=1e-6
    )


def test_sweep_invariants():
    curve = _step_curve(2.0, 1, 3)
    assert all(s.poa >= 1.0 - 1e-9 for s in curve.samples)
    assert all(s.poa == pytest.approx(s.weq / s.opt, rel=1e-12) for s in curve.samples)
    Ms = [s.M for s in curve.samples]
    assert Ms == sorted(Ms)
    assert all(type(M) is float for M in Ms)  # not numpy scalars
    assert not curve.failures


def test_extremes_estimate_a2():
    est = extremes_estimate(_step_curve(2.0, 1, 4))
    assert est.limsup_est == pytest.approx(1.2, abs=1e-3)
    assert est.liminf_est == pytest.approx(1.0, abs=1e-9)
    assert est.accepted


def test_extremes_estimate_a3():
    est = extremes_estimate(_step_curve(3.0, 1, 3))
    assert est.limsup_est == pytest.approx(16.0 / 13.0, abs=1e-3)
    assert est.liminf_est == pytest.approx(1.0, abs=1e-9)


def test_small_demand_periods_same_extrema():
    # periodicity also holds as M -> 0: periods k in {-3, -2, -1}
    est = extremes_estimate(_step_curve(2.0, -3, -1))
    assert est.limsup_est == pytest.approx(1.2, abs=1e-3)
    assert est.liminf_est == pytest.approx(1.0, abs=1e-9)


def test_extremes_requires_enough_periods():
    with pytest.raises(DomainError):
        extremes_estimate(_step_curve(2.0, 1, 2), periods_required=3)


def test_extremes_needs_at_least_one_period():
    # periods_required = 0 on a curve with no full period once hit max() of nothing
    with pytest.raises(DomainError, match="periods_required must be at least 1, got 0"):
        extremes_estimate(PoaCurve((), ()), periods_required=0)


@pytest.mark.parametrize("a", [0.5, 1.0, math.inf, math.nan])
def test_sweep_needs_a_period_base_above_one(a):
    # a = 0.5 once looped forever in the period index (0.5^k < 3 for every k
    # above -2); a = 1 divided by log(1)
    with pytest.raises(DomainError, match="period base must be a finite a > 1"):
        poa_sweep(step_game(2.0), 6.0, 96.0, samples_per_decade=8, period_base=a)


def _no_poa(net, M):
    raise AssertionError(f"a sample was solved at M={M!r}")


@pytest.mark.parametrize("v", [0, -3, 0.5, math.nan, math.inf])
def test_sweep_needs_at_least_one_sample_per_decade(v, monkeypatch):
    # 0, -3 and 0.5 once gave a curve of the two ends; nan raised a bare
    # ValueError and inf a bare OverflowError
    monkeypatch.setattr(asymptotics, "poa", _no_poa)
    with pytest.raises(DomainError, match="samples per decade must be a finite number >= 1"):
        poa_sweep(pigou(), 1.0, 10.0, samples_per_decade=v)


def test_sweep_refuses_a_grid_above_its_bound(monkeypatch):
    # with the bound patched down, no large grid is built on either side of it
    monkeypatch.setattr(asymptotics, "MAX_SWEEP_SAMPLES", 100)
    monkeypatch.setattr(asymptotics, "poa", _no_poa)
    with pytest.raises(DomainError, match="at most 100 grid samples"):
        poa_sweep(pigou(), 1.0, 10.0, samples_per_decade=100)  # 101 samples
    with pytest.raises(AssertionError, match="solved at M=1.0"):
        poa_sweep(pigou(), 1.0, 10.0, samples_per_decade=99)  # 100 samples pass the check


def test_constant_pair_poa_identically_one():
    net = build_parallel([Constant(2.0), Constant(2.0)])
    curve = poa_sweep(net, 1.0, 100.0, samples_per_decade=8)
    assert all(s.poa == pytest.approx(1.0, rel=1e-12) for s in curve.samples)


def test_decade_windows_without_period_base():
    curve = poa_sweep(pigou(), 1.0, 1000.0, samples_per_decade=8)
    assert [p.index for p in curve.periods] == [0, 1, 2]
    # PoA decays toward 1, so later decades have smaller maxima
    maxima = [p.max_poa for p in curve.periods]
    assert maxima == sorted(maxima, reverse=True)


def test_decade_windows_stop_at_the_last_finite_power():
    # the window past 1e308 once raised a bare OverflowError at 10.0 ** 309
    # after every sample was solved
    curve = poa_sweep(pigou(), 1e306, 1.7e308, samples_per_decade=4)
    assert [p.index for p in curve.periods] == [306, 307]


def test_sweep_past_the_last_window_start_keeps_its_samples():
    # the window index of M_lo = 1e305 in base 1e10 once raised a range
    # error after every sample was solved
    curve = poa_sweep(pigou(), 1e305, 1e306, samples_per_decade=64, period_base=1e10)
    assert len(curve.samples) == 65 and not curve.failures
    assert curve.periods == ()


def test_sweep_records_failures_and_continues():
    # demands past 2 alpha_3 = 60 need a fourth term the sequence lacks
    curve = poa_sweep(exp_game(AlphaSequence("explicit", values=(1.0, 3.0, 30.0))), 1.0, 100.0,
                      samples_per_decade=8)
    assert curve.failures
    assert curve.samples  # the solvable demands still went through
    assert all(s.M <= 60.0 for s in curve.samples)


def test_parallel_sweep_matches_serial():
    # each worker solves its own block of demands; the smooth network's
    # optimum is the marginal game's level search
    smooth = designated_limit_instances()["polynomial-over-common-rv"]
    cases = [(step_game(2.0), 4.0, 16.0, 32, step_breakpoints(2.0, 1, 2), 2.0),
             (smooth, 0.1, 1e3, 16, (), None)]
    for net, *args in cases:
        serial = poa_sweep(net, *args, jobs=None)
        assert repr(poa_sweep(net, *args, jobs=2)) == repr(serial)
        assert serial.samples and not serial.failures


def test_sweep_pool_is_bounded_by_the_cpus(monkeypatch):
    """A pool starts every worker at its first task, so ``jobs`` = 10^6 must
    ask for no more workers than there are CPUs.  The pool is a fake that
    maps the blocks in this process: a real one is never started here."""
    import concurrent.futures
    import os

    asked, blocks = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            blocks.extend(items)
            return map(fn, blocks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    net, args = step_game(2.0), (4.0, 16.0, 8, step_breakpoints(2.0, 1, 2), 2.0)
    serial = poa_sweep(net, *args, jobs=None)
    assert repr(poa_sweep(net, *args, jobs=10**6)) == repr(serial)
    assert asked == [3] and len(blocks) == 3
    assert [M for _, block in blocks for M in block] == sorted(s.M for s in serial.samples)


@pytest.mark.parametrize("jobs", [0, -5, 2.0, "2"])
def test_sweep_refuses_jobs_that_is_not_a_positive_int(jobs, monkeypatch):
    solved = []
    monkeypatch.setattr(asymptotics, "_sweep_block", lambda item: solved.append(item) or [])
    with pytest.raises(DomainError, match="jobs"):
        poa_sweep(pigou(), 1.0, 2.0, 4, jobs=jobs)
    assert not solved


_COLD_SWEEPS = {  # name: (M_lo, M_hi, samples per decade, breakpoint hints, demands)
    "pigou": (1e-200, 1e200, 8, False, 3201),
    "step:2": (1e-200, 1e200, 8, False, 3201),
    "step:3": (6.0, 486.0, 16, True, 80),
    "pwl:2": (4.0, 1024.0, 16, True, 72),
    "exp:factorial": (1.0, 1e6, 16, False, 97),
    **{name: (1e-3, 1e9, 16, False, 193) for name in sorted(designated_limit_instances())},
}


@pytest.mark.parametrize("name", _COLD_SWEEPS)
def test_sweep_answers_as_cold_poa(name):
    """A sweep holds no state between demands: each sample is, field by
    field, ``poa`` at its demand, and each failure message is the one
    ``poa`` raises there.  On [1e-200, 1e200] this holds across the
    underflow and overflow failures at the ends of the range."""
    lo, hi, per_decade, hinted, demands = _COLD_SWEEPS[name]
    net = designated_limit_instances().get(name) or named_instance(name)
    curve = poa_sweep(net, lo, hi, per_decade, auto_breakpoints(net, lo, hi) if hinted else ())
    samples, failures = [], []
    for M in sorted([s.M for s in curve.samples] + [M for M, _ in curve.failures]):
        try:
            r = poa(net, M)
            samples.append(PoaSample(M, r.equilibrium.cost, r.optimum.cost, r.poa, r.method, r.flag))
        except GameError as exc:
            failures.append((M, str(exc)))
    assert len(samples) + len(failures) == demands
    assert samples and bool(failures) == (lo == 1e-200)
    assert repr((curve.samples, curve.failures)) == repr((tuple(samples), tuple(failures)))


def _count_inverses(monkeypatch) -> collections.Counter:
    """Counts ``generalized_inverse`` calls by cost class from here on."""
    calls = collections.Counter()

    def families(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from families(sub)

    for cls in set(families(CostFunction)):
        if "generalized_inverse" in vars(cls):
            def counted(self, level, inverse=vars(cls)["generalized_inverse"]):
                calls[type(self).__name__] += 1
                return inverse(self, level)

            monkeypatch.setattr(cls, "generalized_inverse", counted)
    return calls


def test_readme_sweep_bounds_its_step_inverses(monkeypatch):
    # with the jump probes; root's secant steps alone made 31,959
    net = step_game(3.0)
    hints = auto_breakpoints(net, 6.0, 486.0)
    calls = _count_inverses(monkeypatch)
    curve = poa_sweep(net, 6.0, 486.0, 512, hints, jobs=None)
    assert len(curve.samples) == 1027
    assert calls["StepGeometric"] <= 6000


# ---------------------------------------------------------------------------
# interpolated-square constants
# ---------------------------------------------------------------------------


def test_pwl_game_constants_a2():
    c = pwl_game_constants(2.0)
    assert c.b == pytest.approx(math.sqrt(10.0 / 3.0), rel=1e-15)
    assert 1.0 < c.d < 2.0
    assert 1.0055 <= c.poa_at_mk <= 1.0063  # reported value ~1.0059


@pytest.mark.parametrize("a", [5.6e102, 1e103, 1e154, 1e200])
def test_pwl_game_constants_past_the_float_range_are_a_range_overflow(a):
    # these once gave a nan PoA, a bare OverflowError (1e103, 1e200) or a
    # ConvergenceError on a nan knot position
    with pytest.raises(RangeOverflowError, match="overflow native floats"):
        pwl_game_constants(a)


def test_pwl_game_poa_independent_of_k():
    values = [pwl_game_poa_at_special_demand(2.0, k).poa for k in range(1, 6)]
    assert max(values) - min(values) <= 1e-9 * values[0]
    assert values[0] == pytest.approx(pwl_game_constants(2.0).poa_at_mk, rel=1e-9)


def test_pwl_game_matches_brute_force():
    from wardrop.optimum import opt_bruteforce

    consts = pwl_game_constants(2.0)
    exact = pwl_game_poa_at_special_demand(2.0, 1)
    brute_opt = opt_bruteforce(pwl_game(2.0), consts.m1)
    poa_vs_brute = exact.equilibrium.cost / brute_opt.cost
    assert poa_vs_brute == pytest.approx(exact.poa, rel=1e-4)


# ---------------------------------------------------------------------------
# exponential instance
# ---------------------------------------------------------------------------


def test_exp_game_closed_form_value_k4():
    rep = exp_game_poa_near_breakpoint(AlphaSequence("factorial"), 4)
    assert rep.closed_form == pytest.approx(144.0 / (25.0 + math.log(120.0)), rel=1e-12)
    assert rep.closed_form == pytest.approx(4.834, abs=2e-3)


def test_exp_game_monotone_growth():
    al = AlphaSequence("factorial")
    values = [exp_game_poa_near_breakpoint(al, k).closed_form for k in range(3, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_exp_game_numeric_agreement():
    al = AlphaSequence("factorial")
    for k in (3, 4, 5):
        rep = exp_game_poa_near_breakpoint(al, k)
        assert rep.relative_gap <= 1e-2
        assert rep.candidate_flag is None


def test_exp_game_guard_for_small_k():
    # k = 1 precedes the asymptotic regime; the report must still come back
    # with the candidate-set flag surfaced rather than an assertion
    rep = exp_game_poa_near_breakpoint(AlphaSequence("factorial"), 1)
    assert rep.closed_form > 0
    assert rep.numeric_poa >= 1.0 - 1e-9


def test_exp_game_sequence_too_short():
    with pytest.raises(DomainError):
        exp_game_poa_near_breakpoint(AlphaSequence("explicit", values=(1.0, 3.0)), 2)


# ---------------------------------------------------------------------------
# vanishing-inefficiency trend experiments
# ---------------------------------------------------------------------------


def test_bounded_path_pigou_rate():
    grid = tuple(np.geomspace(1.0, 1000.0, 13))
    rep = bounded_path_experiment(pigou(), grid, eps=2e-3)
    assert rep.hypothesis["B"] == 1.0
    assert rep.final_poa - 1.0 <= 2e-3
    assert rep.passed
    # proof-side bound: PoA <= M B / Opt at every sample
    for (M, p), bound in zip(rep.samples, rep.hypothesis["weq_over_opt_bound"]):
        assert p <= bound + 1e-12


def test_decay_exponent_needs_two_distinct_demands():
    # one repeated demand once fed a degenerate fit and reported about 1.09
    rep = bounded_path_experiment(pigou(), (3.0, 3.0), eps=1.0)
    assert rep.decay_exponent is None


def test_bounded_path_constant_only():
    net = build_parallel([Constant(2.0), Constant(3.0)])
    rep = bounded_path_experiment(net, (1.0, 10.0, 100.0))
    assert all(p == pytest.approx(1.0, rel=1e-12) for _, p in rep.samples)


def test_bounded_path_rejects_diverging_instance():
    net = build_parallel([Affine(0.0, 1.0), Monomial(1.0, 2.0)])
    with pytest.raises(DomainError):
        bounded_path_experiment(net, (1.0, 10.0))


def test_bounded_path_on_general_graph():
    # the bounded-limit argument holds on any topology, not just parallel
    from wardrop.network import Edge, Network

    net = Network(
        ("s", "v", "t"),
        (Edge("e1", "s", "v"), Edge("e2", "s", "v"), Edge("e3", "v", "t")),
        (Affine(0.0, 1.0), Constant(5.0), Constant(1.0)),
        "s",
        "t",
    )
    rep = bounded_path_experiment(net, tuple(np.geomspace(1.0, 1000.0, 9)), eps=2e-3)
    assert rep.hypothesis["B"] == 6.0  # cheapest path limit: 5 + 1
    assert rep.passed


def test_shift_experiment_sandwich_and_trend():
    base = build_parallel([Affine(0.0, 1.0), Affine(0.0, 2.0)])
    rep = shift_experiment(base, (1.0, 3.0), GRID_TO_1E6)
    assert rep.sandwich_ok
    assert rep.passed
    assert rep.shifted.final_poa <= 1.01


def test_shift_experiment_zero_shifts_identical():
    base = build_parallel([Affine(0.0, 1.0), Affine(0.0, 2.0)])
    rep = shift_experiment(base, (0.0, 0.0), (1.0, 10.0, 100.0))
    for M, lam, lam_shifted in rep.lambda_pairs:
        assert lam == pytest.approx(lam_shifted, rel=1e-12)
    base_curve = dict(rep.base.samples)
    for M, p in rep.shifted.samples:
        assert p == pytest.approx(base_curve[M], rel=1e-12)


def test_shift_experiment_equal_shifts_exact_lambda_offset():
    base = build_parallel([Affine(0.0, 1.0), Affine(0.0, 2.0)])
    rep = shift_experiment(base, (2.0, 2.0), (1.0, 10.0, 100.0))
    for M, lam, lam_shifted in rep.lambda_pairs:
        assert lam_shifted == pytest.approx(lam + 2.0, rel=1e-9)


def test_shift_experiment_solves_each_demand_once(monkeypatch):
    import wardrop.equilibrium as eq

    calls = []  # the demands of the equilibrium solves, not the optimum's
    solve = eq._parallel_flow
    monkeypatch.setattr(eq, "_parallel_flow", lambda net, M: calls.append(M) or solve(net, M))
    base = build_parallel([Affine(0.0, 1.0), Affine(0.0, 2.0)])
    shift_experiment(base, (1.0, 3.0), (1.0, 10.0, 100.0))
    assert calls == [1.0, 1.0, 10.0, 10.0, 100.0, 100.0]  # the base and the shifted game


def test_shift_experiment_needs_a_parallel_network():
    with pytest.raises(DomainError, match="parallel network"):
        shift_experiment(_braess(Affine(0.0, 1.0)), (0.0,) * 5, (1.0, 10.0))


def test_rv_poa_experiment_instances():
    insts = designated_limit_instances()
    cases = [
        TrendInstance("affine", insts["affine"], "affine"),
        TrendInstance(
            "polynomial-over-common-rv",
            insts["polynomial-over-common-rv"],
            "ratio-to-rv",
            reference=Monomial(1.0, 2.0),
            expected=(1.0, 3.0),
        ),
        TrendInstance(
            "derivative-limit", insts["derivative-limit"], "derivative",
            expected=(2.0, math.inf),
        ),
        TrendInstance(
            "affine-sandwich", insts["affine-sandwich"], "sandwich",
            sandwich=((0.0, 1.0, 1.0), (0.0, 0.0, 1.0)),
        ),
        TrendInstance(
            "one-slope-infinite",
            build_parallel([Affine(0.0, 1.0), Monomial(1.0, 2.0)]),
            "ratio-to-identity",
            expected=(1.0, math.inf),
        ),
    ]
    for case in cases:
        rep = rv_poa_experiment(case, GRID_TO_1E6)
        assert rep.passed, case.name
        assert rep.final_poa <= 1.01
        assert rep.monotone_tail


@pytest.mark.parametrize("kind, match", [("ratio-to-identity", "fails its hypothesis"),
                                         ("alpha", "unknown hypothesis kind")])
def test_rv_poa_experiment_rejects_wrong_hypothesis(kind, match):
    bad = TrendInstance(
        "wrong-expectation",
        build_parallel([Affine(0.0, 1.0), Affine(0.0, 2.0)]),
        kind,
        expected=(1.0, 5.0),  # the true slope is 2
    )
    with pytest.raises(DomainError, match=match):
        rv_poa_experiment(bad, (10.0, 100.0))


def test_derivative_hypothesis_fails_on_a_kink_at_the_probe():
    # PwlSquare(10) kinks at its knot 10^9, where the probe reads the two
    # one-sided slopes: the hypothesis fails there, it does not raise
    assert PwlSquare(10.0).derivative_bounds(1e9) == (1.1e9, 1.1e10)
    kinked = TrendInstance("kinked", build_parallel([Affine(0.0, 1.0), PwlSquare(10.0)]), "derivative",
                           expected=(1.0, math.inf))
    report = asymptotics._verify_hypothesis(kinked)
    assert report["ok"] is False
    assert report["measured"][0] == 1.0 and math.isnan(report["measured"][1])
    with pytest.raises(DomainError, match="fails its hypothesis"):
        rv_poa_experiment(kinked, (10.0, 100.0))
