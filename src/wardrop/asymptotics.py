"""Price-of-anarchy computation, demand sweeps, and asymptotic experiments.

The ratio WEq/Opt is computed by routing each instance to the matching
solvers.  Sweeps sample a geometric demand grid plus breakpoint hints at
+-1e-9 relative offsets (the equilibrium cost jumps there), and report
per-log-period extrema.  Limit statements are never certified: the
estimators return stabilized per-period extrema with a cross-period
stability figure, which is the strongest desk-scale statement available.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field

from .costs import AlphaSequence, CostFunction, _check_base, _index, _period_index, _power_index, _powers
from .errors import ConvergenceError, DomainError, GameError, RangeOverflowError
from .instances import exp_game, pwl_game
from .logdomain import LogValue
from .network import Network, build_parallel
from .equilibrium import EquilibriumSolution, _check_demand, _range_error, wardrop_equilibrium
from .optimum import OptimumSolution, social_optimum

POA_FLOOR_SLACK = 1e-9
DEFAULT_SAMPLES_PER_DECADE = 512
MAX_SWEEP_SAMPLES = 10**6  # grid samples of one sweep, hints not counted
TREND_EPS = 1e-2


@dataclass(frozen=True)
class PoaResult:
    M: float
    equilibrium: EquilibriumSolution
    optimum: OptimumSolution
    poa: float
    method: str
    flag: str | None = None


@dataclass(frozen=True)
class PoaSample:
    M: float
    weq: float | LogValue
    opt: float | LogValue
    poa: float
    method: str
    flag: str | None = None


@dataclass(frozen=True)
class PeriodExtrema:
    index: int
    min_poa: float
    max_poa: float
    argmax_M: float


@dataclass(frozen=True)
class PoaCurve:
    samples: tuple[PoaSample, ...]
    periods: tuple[PeriodExtrema, ...]
    failures: tuple[tuple[float, str], ...] = ()


@dataclass(frozen=True)
class ExtremesReport:
    liminf_est: float
    limsup_est: float
    stability: float
    periods_used: int
    accepted: bool


def poa(net: Network, M: float) -> PoaResult:
    """WEq/Opt with solver routing recorded in the result.

    Both solvers reject a demand that is not a finite M > 0 and turn float
    overflow, division by zero and a social cost below the normal floats
    (0 included) into RangeOverflowError and DomainError naming M.  On a
    general network the optimum's projected Newton steps start from the
    equilibrium's path flows, which the optimum approaches as congestion
    grows, where ``social_optimum`` alone starts them from all flow on one
    path.  Both optima meet the same KKT bound; on the seeded test grids
    (3x3 to 6x6, M from 0.3 to 100) their costs agree to within 5 ulps.
    It keeps no state between calls: each sample of ``poa_sweep`` is this
    call at its demand.
    """
    weq = wardrop_equilibrium(net, M)
    opt = social_optimum(net, M, _start=weq.flow)
    ratio = float(weq.cost / opt.cost)
    return _checked(PoaResult(M, weq, opt, ratio, f"{weq.method}/{opt.method}", opt.flag))


def _checked(result: PoaResult) -> PoaResult:
    if not math.isfinite(result.poa):
        raise RangeOverflowError(
            f"price of anarchy is {result.poa!r} at M={float(result.M)!r}: "
            "a cost left the native float range"
        )
    if result.poa < 1.0 - POA_FLOOR_SLACK:
        raise ConvergenceError(
            f"equilibrium cost fell below the optimum at M={result.M!r}",
            residual=1.0 - result.poa,
        )
    return result


def _sweep_block(args) -> list[tuple[str, object]]:
    """The outcome of ``poa`` at each demand of a block, in order."""
    net, block = args
    outcomes = []
    for M in block:
        try:
            r = poa(net, M)
            outcomes.append(("ok", PoaSample(M, r.equilibrium.cost, r.optimum.cost, r.poa, r.method, r.flag)))
        except GameError as exc:
            outcomes.append(("fail", (M, str(exc))))
    return outcomes


def poa_sweep(
    net: Network,
    M_lo: float,
    M_hi: float,
    samples_per_decade: int = DEFAULT_SAMPLES_PER_DECADE,
    breakpoint_hints=(),
    period_base: float | None = None,
    jobs: int | None = None,
) -> PoaCurve:
    """Sample PoA on a geometric grid plus hinted breakpoints.

    Breakpoints are sampled at both 1e-9-relative offsets because the
    equilibrium cost is discontinuous there.  Failed samples are recorded
    and skipped; the sweep continues.  Each worker (one when serial) solves
    a block of increasing demands, each by a plain ``poa`` call; ``jobs``
    asks for at most min(jobs, samples, CPUs) workers.  Before any is
    solved, ``samples_per_decade`` must be a finite number >= 1, the
    geometric grid at most MAX_SWEEP_SAMPLES samples and ``jobs`` None or
    an int >= 1.
    """
    if not 0 < M_lo < M_hi < math.inf:
        raise DomainError(f"need 0 < M_lo < M_hi < inf, got {M_lo!r}, {M_hi!r}")
    _check_period_base(period_base)
    if not 1 <= samples_per_decade < math.inf:
        raise DomainError(f"samples per decade must be a finite number >= 1, got {samples_per_decade!r}")
    if not (jobs is None or isinstance(jobs, int) and jobs >= 1):
        raise DomainError(f"jobs must be None or an int >= 1, got {jobs!r}")
    lo, hi = math.log10(M_lo), math.log10(M_hi)  # M_hi / M_lo can overflow
    steps = (hi - lo) * samples_per_decade
    if steps + 1 > MAX_SWEEP_SAMPLES:
        raise DomainError(f"a sweep takes at most {MAX_SWEEP_SAMPLES} grid samples, got "
                          f"{samples_per_decade!r} per decade over {hi - lo:.6g} decades")
    n = max(2, int(math.ceil(steps)) + 1)
    step = (hi - lo) / (n - 1)
    # evenly spaced exponents between exact ends; one reaches hi only on steps finer than its ulp
    grid = [M_lo, *(10.0 ** y if y < hi else M_hi for y in (i * step + lo for i in range(1, n - 1))), M_hi]
    for b in breakpoint_hints:
        for off in (b * (1.0 - 1e-9), b * (1.0 + 1e-9)):
            if M_lo <= off <= M_hi:
                grid.append(off)
    grid = sorted(set(grid))

    # the pool starts every worker at once: never more than there are CPUs or samples
    workers = min(jobs or 1, len(grid), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it adds about 1.6 MB of memory and 20 ms to `import wardrop`
        from concurrent.futures import ProcessPoolExecutor

        blocks = [(net, grid[len(grid) * i // workers:len(grid) * (i + 1) // workers]) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for block in pool.map(_sweep_block, blocks) for o in block]
    else:
        outcomes = _sweep_block((net, grid))

    samples, failures = [], []
    for status, payload in outcomes:
        if status == "ok":
            samples.append(payload)
        else:
            failures.append(payload)

    periods = _period_extrema(samples, period_base, M_lo, M_hi)
    return PoaCurve(tuple(samples), tuple(periods), tuple(failures))


def _period_extrema(samples, period_base, M_lo, M_hi) -> list[PeriodExtrema]:
    """Extrema over full windows (2a^k, 2a^{k+1}] (or decades [10^k, 10^{k+1})
    without a), each end read from ``_powers``: the last window ends at the
    last finite power, and there is none where M_lo is past its start."""
    _check_period_base(period_base)
    if not samples:
        return []
    if period_base is None:
        scale, (k0, table), k = 1.0, _powers(10.0), math.ceil(math.log10(M_lo) - 1e-12)
    else:
        scale, (k0, table), k = 2.0, _powers(period_base), _power_index(period_base, M_lo / 2.0)
    out = []
    for i in range(k - k0, len(table) - 1):
        lo, hi = scale * table[i], scale * table[i + 1]
        if hi > M_hi * (1.0 + 1e-12):
            break
        if period_base is None:
            window = [s for s in samples if lo <= s.M < hi]
        else:
            window = [s for s in samples if lo < s.M <= hi]
        if window:
            best = max(window, key=lambda s: s.poa)
            out.append(PeriodExtrema(k0 + i, min(s.poa for s in window), best.poa, best.M))
    return out


def _check_period_base(a: float | None) -> None:
    if a is not None and not 1 < a < math.inf:
        raise DomainError(f"period base must be a finite a > 1, got {a!r}")


def extremes_estimate(curve: PoaCurve, periods_required: int = 3) -> ExtremesReport:
    """Stabilized per-period extrema as conservative liminf/limsup estimates.

    liminf is the *largest* per-period minimum and limsup the *smallest*
    per-period maximum, i.e. inner estimates; stability is the worst
    cross-period relative deviation, accepted at 1e-3.
    """
    if periods_required < 1:
        raise DomainError(f"periods_required must be at least 1, got {periods_required!r}")
    if len(curve.periods) < periods_required:
        raise DomainError(
            f"curve covers {len(curve.periods)} full periods; "
            f"{periods_required} required"
        )
    mins = [p.min_poa for p in curve.periods]
    maxs = [p.max_poa for p in curve.periods]
    liminf_est = max(mins)
    limsup_est = min(maxs)
    stability = max(
        (max(mins) - min(mins)) / max(1.0, abs(liminf_est)),
        (max(maxs) - min(maxs)) / max(1.0, abs(limsup_est)),
    )
    return ExtremesReport(
        liminf_est, limsup_est, stability, len(curve.periods), stability <= 1e-3
    )


# ---------------------------------------------------------------------------
# closed forms for the step game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepClosedForm:
    M: float
    k: int
    z: float
    weq: float
    opt: float
    poa: float
    region: str


def step_game_closed_form(a: float, M: float) -> StepClosedForm:
    """Exact WEq, Opt, and PoA of the step game from the piecewise table.

    With z = M/a^k in (2, 2a], the PoA is 1 on (2, beta), rises as
    (1+(z-1)^2)/(a(z-a/4)) up to z = 1+a, jumps to (4+4a)/(4+3a), then
    decays as z/(z-a/4) and a z/(a^2+(z-a)^2) back to 1 at z = 2a.
    """
    _check_base(a, "step")
    _check_demand(M)
    k = _period_index(a, M)
    try:
        scale = a ** (2 * k)
        z = M / a**k
        beta = 1.0 + a / 2.0 + math.sqrt(a - 1.0)
        gamma = 1.5 * a

        weq = scale * (1.0 + (z - 1.0) ** 2) if z <= 1.0 + a else scale * a * z
        if z < beta:
            opt, region = scale * (1.0 + (z - 1.0) ** 2), "flat"
        elif z <= gamma:
            opt = scale * a * (z - a / 4.0)
            region = "rise" if z <= 1.0 + a else "post-jump"
        else:
            opt, region = scale * (a * a + (z - a) ** 2), "decay"
        ratio = weq / opt
        if not math.isfinite(weq):  # a^(2k) a z overflows where a^(2k) does not
            raise OverflowError("the equilibrium cost left the native float range")
    except (OverflowError, ZeroDivisionError) as exc:
        raise _range_error(M, exc) from exc
    return StepClosedForm(M, k, z, weq, opt, ratio, region)


def step_jump_value(a: float) -> float:
    """PoA immediately after the equilibrium jump at M = a^k + a^{k+1}."""
    _check_base(a, "step")
    return (4.0 + 4.0 * a) / (4.0 + 3.0 * a)


# ---------------------------------------------------------------------------
# interpolated-square game constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PwlConstants:
    a: float
    b: float
    c: float
    d: float
    m1: float  # demand at which the optimum sits exactly on the first knot
    poa_at_mk: float


def pwl_game_constants(a: float) -> PwlConstants:
    """Closed-form constants of the interpolated-square counterexample.

    At the special demands M_k = a^{k-1}(a+b) the optimum parks the step
    link exactly on a knot while the equilibrium sits strictly inside the
    piece (1 < d < a); the PoA there is independent of k.
    """
    _check_base(a, "pwl-square")
    if not 2.0 * a * a * a < math.inf:  # both costs are about 1.55 a^3
        raise RangeOverflowError(f"the costs at M_1 overflow native floats at a={a!r}")
    b = math.sqrt((2.0 * a * a + a) / 3.0)
    c = 0.5 * (math.sqrt((a + 1.0) ** 2 + 4.0 * a * a + 4.0 * (a + 1.0) * b) - (a + 1.0))
    d = a + b - c
    if not (1.0 < d < a):
        raise ConvergenceError(f"equilibrium knot position violated: d={d!r}")
    weq = c**3 + (a + 1.0) * d * d - a * d
    opt = b**3 + a**3
    return PwlConstants(a, b, c, d, a + b, weq / opt)


def pwl_game_poa_at_special_demand(a: float, k: int) -> PoaResult:
    """Solver-side PoA of the interpolated-square game at M_k."""
    consts = pwl_game_constants(a)
    try:
        M_k = a ** (_index(k, "special demand index") - 1) * (a + consts.b)
    except OverflowError:  # a^(k-1) overflows; or the product does, to inf
        M_k = math.inf
    if M_k == math.inf:
        raise RangeOverflowError(f"M_k = a^(k-1) (a + b) overflows at k={k!r}")
    return poa(pwl_game(a), M_k)


# ---------------------------------------------------------------------------
# exponential game closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpBreakpointReport:
    k: int
    closed_form: float
    numeric_poa: float
    relative_gap: float
    candidate_flag: str | None


def exp_game_poa_near_breakpoint(alphas: AlphaSequence, k: int) -> ExpBreakpointReport:
    """PoA just after M = alpha_k + alpha_{k+1} for the exponential game.

    Closed form (alpha_k + alpha_{k+1}) / (1 + alpha_k + ln alpha_{k+1}),
    cross-checked against the log-domain numeric pipeline at
    M = (alpha_k + alpha_{k+1})(1 + 1e-6).
    """
    if _index(k, "breakpoint index") < 1 or k + 1 > alphas.max_index():
        raise DomainError(f"alpha sequence too short for breakpoint index {k}")
    a_k, a_k1 = alphas.alpha(k), alphas.alpha(k + 1)
    M = (a_k + a_k1) * (1.0 + 1e-6)
    if M == math.inf:
        raise RangeOverflowError(f"M = (alpha_k + alpha_(k+1)) (1 + 1e-6) overflows at k={k!r}")
    closed = (a_k + a_k1) / (1.0 + a_k + math.log(a_k1))

    r = poa(exp_game(alphas), M)
    gap = abs(r.poa - closed) / closed
    return ExpBreakpointReport(k, closed, r.poa, gap, r.flag)


# ---------------------------------------------------------------------------
# vanishing-inefficiency trend experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendReport:
    name: str
    samples: tuple[tuple[float, float], ...]  # (M, poa)
    final_poa: float
    eps: float
    decay_exponent: float | None
    monotone_tail: bool
    hypothesis: dict = field(default_factory=dict)
    passed: bool = False


def _trend(name: str, samples, eps: float, hypothesis: dict | None = None,
           monotone: bool = True) -> TrendReport:
    """The report on (M, PoA) samples: it passes when the PoA at the largest
    demand is within eps of 1 and, if ``monotone``, the tail does not rise."""
    final = samples[-1][1]
    tail_ok = _tail_monotone(samples)
    return TrendReport(
        name, tuple(samples), final, eps, _decay_exponent(samples), tail_ok,
        hypothesis={} if hypothesis is None else hypothesis,
        passed=final <= 1.0 + eps and (tail_ok or not monotone),
    )


def _tail_monotone(points) -> bool:
    """Non-increasing over the last sampled decade (tiny slack for roundoff)."""
    hi = points[-1][0]
    tail = [p for p in points if p[0] >= hi / 10.0]
    return all(
        b[1] <= a[1] * (1.0 + 1e-12) + 1e-15 for a, b in zip(tail, tail[1:])
    )


def _decay_exponent(points) -> float | None:
    """Least-squares slope of log(PoA-1) against log M (diagnostic only),
    None unless two distinct demands have PoA - 1 > 1e-14."""
    xs, ys = [], []
    for M, p in points:
        if p - 1.0 > 1e-14:
            xs.append(math.log(M))
            ys.append(math.log(p - 1.0))
    if len(set(xs)) < 2:
        return None
    return -statistics.linear_regression(xs, ys).slope


def bounded_path_experiment(
    net: Network, M_grid, eps: float = TREND_EPS
) -> TrendReport:
    """PoA trend when some path keeps a finite asymptotic cost.

    Reports the limit bound B, the proof-side bound M*B/Opt at each
    sample, and requires PoA at the largest demand to be within eps of 1.
    """
    path_limits = [
        math.fsum(net.costs[e].asymptotic_value() for e in p) for p in net.paths
    ]
    B = min(path_limits)
    if math.isinf(B):
        raise DomainError("every path cost diverges; the bounded-path limit needs finite B")
    samples = []
    bounds = []
    for M in M_grid:
        r = poa(net, M)
        samples.append((M, r.poa))
        opt_cost = r.optimum.cost
        bounds.append(M * B / opt_cost if not isinstance(opt_cost, LogValue) else math.nan)
    return _trend("bounded-path", samples, eps, {"B": B, "weq_over_opt_bound": bounds})


@dataclass(frozen=True)
class ShiftReport:
    base: TrendReport
    shifted: TrendReport
    sandwich_ok: bool
    lambda_pairs: tuple[tuple[float, float, float], ...]  # (M, lam, lam_shifted)
    passed: bool


def shift_experiment(
    net: Network, shifts, M_grid, eps: float = TREND_EPS
) -> ShiftReport:
    """Adding per-link constants preserves the PoA -> 1 trend.

    Verifies the base trend first, then the shifted instance, and checks
    the level sandwich lam_shifted - max(a) <= lam <= lam_shifted - min(a)
    at every sampled demand.
    """
    from .costs import Shifted

    if not net.is_parallel():
        raise DomainError("shift preservation needs a parallel network")
    shifts = tuple(float(s) for s in shifts)
    if len(shifts) != net.n_edges or any(s < 0 for s in shifts):
        raise DomainError("one nonnegative shift per edge is required")
    for c in net.costs:
        if not (c.is_strictly_increasing() and c.is_continuous()):
            raise DomainError("shift preservation needs strictly increasing continuous costs")
        if not math.isinf(c.asymptotic_value()):
            raise DomainError("shift preservation needs diverging costs")

    shifted_net = build_parallel([Shifted(c, s) for c, s in zip(net.costs, shifts)])
    a_lo, a_hi = min(shifts), max(shifts)

    base_pts, shift_pts, pairs = [], [], []
    sandwich_ok = True
    for M in M_grid:
        base, shifted = poa(net, M), poa(shifted_net, M)
        lam, lam_shifted = base.equilibrium.lam, shifted.equilibrium.lam
        slack = 1e-9 * lam_shifted
        if not (lam_shifted - a_hi <= lam + slack and lam <= lam_shifted - a_lo + slack):
            sandwich_ok = False
        pairs.append((M, lam, lam_shifted))
        base_pts.append((M, base.poa))
        shift_pts.append((M, shifted.poa))

    base_report = _trend("shift-base", base_pts, eps, monotone=False)
    shifted_report = _trend("shift-shifted", shift_pts, eps, {"shifts": shifts})
    return ShiftReport(
        base_report,
        shifted_report,
        sandwich_ok,
        tuple(pairs),
        base_report.passed and shifted_report.passed and sandwich_ok,
    )


@dataclass(frozen=True)
class TrendInstance:
    """A game tagged with which asymptotic hypothesis it instantiates."""

    name: str
    net: Network
    kind: str  # ratio-to-identity | derivative | ratio-to-rv | affine | sandwich
    reference: CostFunction | None = None
    expected: tuple[float, ...] = ()
    sandwich: tuple[tuple[float, float, float], ...] = ()  # (lo_add, hi_add, slope)


def rv_poa_experiment(
    instance: TrendInstance, M_grid, eps: float = TREND_EPS
) -> TrendReport:
    """Verify the instance's hypothesis limit numerically, then its PoA trend."""
    hypothesis = _verify_hypothesis(instance)
    if not hypothesis["ok"]:
        raise DomainError(f"instance {instance.name!r} fails its hypothesis: {hypothesis}")
    samples = [(M, poa(instance.net, M).poa) for M in M_grid]
    return _trend(instance.name, samples, eps, hypothesis)


def _verify_hypothesis(instance: TrendInstance) -> dict:
    from .costs import Affine

    x_probe = 1e9  # where each limit is read
    net, kind = instance.net, instance.kind
    measured: list[float] = []
    if kind == "affine":
        ok = all(isinstance(c, Affine) for c in net.costs)
        return {"ok": ok, "kind": kind}
    if kind == "sandwich":
        ok = True
        for c, (lo_add, hi_add, slope) in zip(net.costs, instance.sandwich):
            for x in (x_probe / 100.0, x_probe):
                v = c.eval(x)
                if not (lo_add + slope * x - 1e-9 <= v <= hi_add + slope * x + 1e-9):
                    ok = False
        return {"ok": ok, "kind": kind, "bounds": instance.sandwich}
    for c in net.costs:
        if kind == "ratio-to-identity":
            measured.append(c.eval(x_probe) / x_probe)
        elif kind == "derivative":
            left, right = c.derivative_bounds(x_probe)
            measured.append(left if left == right else math.nan)  # a kink meets no limit
        elif kind == "ratio-to-rv":
            measured.append(c.eval(x_probe) / instance.reference.eval(x_probe))
        else:
            raise DomainError(f"unknown hypothesis kind {kind!r}")
    ok = True
    finite_seen = False
    for m_hat, m in zip(measured, instance.expected):
        if math.isinf(m):
            ok = ok and m_hat >= 100.0  # diverging limit: probe must be far out
        else:
            finite_seen = True
            ok = ok and abs(m_hat - m) <= 0.01 * max(1.0, abs(m))
    return {"ok": ok and finite_seen, "kind": kind, "measured": measured,
            "expected": instance.expected}
