"""Numeric probes for regular variation and its closure properties.

A positive function T is b-regularly varying when T(ax)/T(x) -> a^b for
every a > 0.  A finite grid cannot certify a limit, so every check here
reports residuals on a geometric grid and requires them to decay as the
grid grows; results are "consistent at probe scale", never proofs.
Ratios are measured in log domain so exponential growth cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .costs import CostFunction
from .errors import DomainError, UnsupportedCostError
from .logdomain import log_add

GRID = tuple(10.0**j for j in range(4, 10))
SCALE_FACTORS = (2.0, 3.0, 10.0)
REL_TOL = 1e-3
COMPOSITION_TOL = 1e-2


def _log_of(theta):
    """x -> ln theta(x): a cost family through ``eval_log``, refusing
    ln 0 = -inf; any other callable through ``math.log`` of a value that
    must be a positive finite float."""
    if isinstance(theta, CostFunction):
        def log_at(x: float) -> float:
            t = theta.eval_log(x)
            if t == -math.inf:
                raise DomainError(f"{theta.family} is zero at {x!r}; not a positive function")
            return t
    else:
        def log_at(x: float) -> float:
            v = theta(x)
            if not 0.0 < v < math.inf:
                raise DomainError(f"the probed function must be positive and finite, "
                                  f"got {v!r} at {x!r}")
            return math.log(v)
    return log_at


@dataclass(frozen=True)
class RvIndexReport:
    beta: float
    residuals: tuple[float, ...]  # one per grid point (max over scale factors)
    max_residual: float
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class RvCheckReport:
    name: str
    measured: tuple[float, ...]
    expected: tuple[float, ...]
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


def _ratio_deviation(log_ratio: float, beta: float, log_a: float) -> float:
    d = log_ratio - beta * log_a
    if abs(d) > 700.0:
        return math.inf
    return abs(math.expm1(d))


def rv_index(theta, grid: tuple[float, ...] = GRID) -> RvIndexReport:
    """Estimate the variation index of a cost family or of a callable with
    positive finite values, on a positive, strictly increasing grid.

    beta is the median of log(T(ax)/T(x))/log(a) at the largest grid
    point; a pass additionally requires the per-grid-point residuals to
    decay as x grows (the honest finite surrogate for a limit).
    """
    if not (grid and 0.0 < grid[0] and grid[-1] * max(SCALE_FACTORS) < math.inf
            and all(a < b for a, b in zip(grid, grid[1:]))):
        raise DomainError(f"probe grid must be positive, finite and strictly increasing, "
                          f"got {grid!r}")
    return _index(_log_of(theta), grid)


def _index(log_at, grid) -> RvIndexReport:
    from statistics import median  # imported here, as it adds about 6 ms to `import wardrop`

    logs: dict[float, float] = {}
    for x in grid:
        logs[x] = log_at(x)
        for a in SCALE_FACTORS:
            logs[a * x] = log_at(a * x)

    x_top = grid[-1]
    beta = median((logs[a * x_top] - logs[x_top]) / math.log(a) for a in SCALE_FACTORS)
    residuals = tuple(
        max(_ratio_deviation(logs[a * x] - logs[x], beta, math.log(a)) for a in SCALE_FACTORS)
        for x in grid
    )
    decaying = all(
        r_next <= r * (1.0 + 1e-6) + 1e-12
        for r, r_next in zip(residuals, residuals[1:])
    )
    if residuals[-1] > REL_TOL:
        reason = "not regularly varying at this probe: residual above tolerance"
    else:
        reason = "" if decaying else "residuals do not decay along the grid"
    return RvIndexReport(beta, residuals, max(residuals), not reason, reason)


def numeric_inverse(theta: CostFunction):
    """Pointwise inverse via the generalized inverse (midpoint of the
    interval, which is a single point for strictly increasing families)."""

    def inv(level: float) -> float:
        lo, hi = theta.generalized_inverse(level)
        return 0.5 * (lo + hi)

    return inv


def check_inverse_rv(theta: CostFunction) -> RvCheckReport:
    """Inverse of a b-regularly varying function should be 1/b-varying."""
    _require_invertible(theta)
    direct = rv_index(theta)
    inv_report = rv_index(numeric_inverse(theta))
    expected = 1.0 / direct.beta
    passed = (
        direct.passed
        and inv_report.passed
        and abs(inv_report.beta - expected) <= REL_TOL * max(1.0, abs(expected))
    )
    return RvCheckReport(
        "inverse_rv",
        (inv_report.beta,),
        (expected,),
        REL_TOL,
        passed,
        {"beta_direct": direct.beta, "inverse_residual": inv_report.max_residual},
    )


def check_scaling_identity(theta: CostFunction, gamma: float) -> RvCheckReport:
    """T^{-1}(gamma T(t))/t -> gamma^{1/b} at large t."""
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be a finite gamma > 0, got {gamma!r}")
    _require_invertible(theta)
    direct = rv_index(theta)
    inv = numeric_inverse(theta)
    profile = tuple(inv(gamma * theta.eval(t)) / t for t in GRID)
    target = gamma ** (1.0 / direct.beta)
    passed = direct.passed and abs(profile[-1] - target) <= REL_TOL * max(1.0, target)
    return RvCheckReport(
        "scaling_identity",
        (profile[-1],),
        (target,),
        REL_TOL,
        passed,
        {"gamma": gamma, "profile": profile, "beta": direct.beta},
    )


def check_product_and_integral_rv(theta: CostFunction) -> RvCheckReport:
    """x*T(x) and int_0^x T should both be (1+b)-regularly varying."""
    base = rv_index(theta)
    log_theta = _log_of(theta)
    p_report = _index(lambda x: math.log(x) + log_theta(x), GRID)
    i_report = rv_index(theta.primitive)
    expected = 1.0 + base.beta
    passed = (
        p_report.passed
        and i_report.passed
        and abs(p_report.beta - expected) <= REL_TOL * max(1.0, expected)
        and abs(i_report.beta - expected) <= REL_TOL * max(1.0, expected)
    )
    return RvCheckReport(
        "product_and_integral_rv",
        (p_report.beta, i_report.beta),
        (expected, expected),
        REL_TOL,
        passed,
        {"beta_base": base.beta},
    )


def check_composition_rv(theta_outer: CostFunction, theta_inner: CostFunction) -> RvCheckReport:
    """Composition multiplies variation indices: index(T1 o T2) = b1*b2.

    Evaluated on the subset of the grid where the inner value stays well
    inside float range (the composition itself goes through log domain).
    """
    log_outer = _log_of(theta_outer)
    a_max = max(SCALE_FACTORS)
    usable = [x for x in GRID if theta_inner.eval(a_max * x) <= 1e150]
    if len(usable) < 3:
        usable = [x for x in (10.0**j for j in range(1, 10))
                  if theta_inner.eval(a_max * x) <= 1e150]
    if len(usable) < 3:
        raise DomainError("inner function overflows on every usable grid")
    b1 = rv_index(theta_outer).beta
    b2 = rv_index(theta_inner, usable).beta
    comp_report = _index(lambda x: log_outer(theta_inner.eval(x)), usable)
    expected = b1 * b2
    passed = (comp_report.passed
              and abs(comp_report.beta - expected) <= COMPOSITION_TOL * max(1.0, expected))
    return RvCheckReport(
        "composition_rv",
        (comp_report.beta,),
        (expected,),
        COMPOSITION_TOL,
        passed,
        {"beta_outer": b1, "beta_inner": b2, "grid": tuple(usable)},
    )


def check_sum_rv(theta_1: CostFunction, theta_2: CostFunction) -> RvCheckReport:
    """The sum of two b-regularly varying functions stays b-varying."""
    r1, r2 = rv_index(theta_1), rv_index(theta_2)
    if abs(r1.beta - r2.beta) > REL_TOL * max(1.0, abs(r1.beta)):
        raise DomainError(
            f"summands have different variation indices: {r1.beta} vs {r2.beta}"
        )
    log_1, log_2 = _log_of(theta_1), _log_of(theta_2)

    report = _index(lambda x: log_add(log_1(x), log_2(x)), GRID)
    expected = r1.beta
    passed = (
        r1.passed and r2.passed and report.passed
        and abs(report.beta - expected) <= REL_TOL * max(1.0, abs(expected))
    )
    return RvCheckReport(
        "sum_rv", (report.beta,), (expected,), REL_TOL, passed,
        {"beta_1": r1.beta, "beta_2": r2.beta},
    )


def _require_invertible(theta: CostFunction) -> None:
    if not (theta.is_continuous() and theta.is_strictly_increasing()):
        raise UnsupportedCostError(
            "inverse checks need a continuous, strictly increasing function"
        )


def rv_suite() -> dict:
    """Run the full closure-property battery on the canonical families.

    The canonical battery must pass on {x, 2x, x^2, 3x^2+x, x^3, constant}
    and the non-variation detector must fire on exp(x)/x; asserting both
    directions guards against vacuous passes.
    """
    from .costs import Constant, ExpOverX, Monomial, Polynomial

    identity = Monomial(1.0, 1.0)
    canonical = {
        "x": identity,
        "2x": Monomial(2.0, 1.0),
        "x^2": Monomial(1.0, 2.0),
        "3x^2+x": Polynomial((0.0, 1.0, 3.0)),
        "x^3": Monomial(1.0, 3.0),
        "constant": Constant(5.0),
    }
    expected_beta = {"x": 1, "2x": 1, "x^2": 2, "3x^2+x": 2, "x^3": 3, "constant": 0}

    checks = []
    for name, cost in canonical.items():
        r = rv_index(cost)
        checks.append(
            {
                "check": f"rv_index[{name}]",
                "beta": r.beta,
                "expected_beta": expected_beta[name],
                "residuals": list(r.residuals),
                "passed": bool(
                    r.passed
                    and abs(r.beta - expected_beta[name]) <= REL_TOL
                ),
            }
        )
        if cost.is_strictly_increasing():
            inv = check_inverse_rv(cost)
            checks.append(_check_row(f"inverse[{name}]", inv))
            sc = check_scaling_identity(cost, 4.0)
            checks.append(_check_row(f"scaling[{name}]", sc))
        pi = check_product_and_integral_rv(cost)
        checks.append(_check_row(f"product_integral[{name}]", pi))

    comp = check_composition_rv(canonical["x^2"], canonical["x^3"])
    checks.append(_check_row("composition[x^2 o x^3]", comp))
    s = check_sum_rv(canonical["x^2"], canonical["3x^2+x"])
    checks.append(_check_row("sum[x^2 + 3x^2+x]", s))

    non_rv = rv_index(ExpOverX())
    checks.append(
        {
            "check": "non_rv_detector[exp(x)/x]",
            "beta": non_rv.beta,
            "residuals": [r if math.isfinite(r) else 1e308 for r in non_rv.residuals],
            "passed": bool(not non_rv.passed),
        }
    )
    return {"checks": checks, "all_pass": all(c["passed"] for c in checks)}


def _check_row(name: str, report: RvCheckReport) -> dict:
    return {
        "check": name,
        "measured": list(report.measured),
        "expected": list(report.expected),
        "tolerance": report.tolerance,
        "passed": bool(report.passed),
    }
