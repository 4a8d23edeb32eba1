"""Seeded workloads for the wardrop benchmark, and the gate that checks every answer.

A workload is a list of plain-data ops built from a seed.  The library only
ever sees the networks and demands these ops describe.  Networks are built
through a *kit*: the library's own classes for timed runs, or counting
subclasses of them (see ``tracer.py``) for the traced run, so the solvers'
``isinstance`` routing is the same in both.

Workloads:

* ``paper-sweeps``: the README sweep (``step:3``, 6..486, 512 per decade,
  hints from ``cli.auto_breakpoints``, period base 3) plus four full periods
  of ``step:2`` and ``pwl:2`` whose position the seed picks, each followed by
  ``extremes_estimate``; and ``poa`` at the interpolated-square special
  demands M_k.  Exercises level bisection (``generalized_inverse``) and the
  step/pwl optima; never touches Frank-Wolfe or the log domain.
* ``point-queries``: single ``poa`` calls over 15 parallel instances in equal
  shares, demands stratified log-uniform on [1e-3, 1e9] ((2, 1e300] for the
  exponential game), with a fixed 10% edge slice on [1e-200, 1e200] so the
  library's edge-of-range failures are counted.
* ``general-net``: ``poa`` on non-parallel networks (Braess, a 3x3 grid),
  which runs conditional gradient over ``Network.path_cost`` and bypasses
  level bisection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

import wardrop
from wardrop import (
    AlphaSequence,
    LogValue,
    equilibrium,
    named_instance,
    optimum,
    poa,
    pwl_game_constants,
    step_breakpoints,
    step_game_closed_form,
    step_jump_value,
)
from wardrop.cli import auto_breakpoints
from wardrop.errors import GameError
from wardrop.network import Edge

WORKLOADS = ("paper-sweeps", "point-queries", "general-net")

# Gate tolerances.  POA_SLACK matches the floor ``poa`` itself allows; the
# residual bounds are the ones the solvers state (1e-9 relative for level
# bisection and the log-domain split, 1e-7 for conditional gradient).
POA_SLACK = 1e-9
PARALLEL_RESIDUAL_RTOL = 1e-9
GENERAL_RESIDUAL_RTOL = 1e-7
STEP_CLOSED_FORM_RTOL = 1e-6
STEP_COLLAR = 1e-8
PWL_MK_RTOL = 1e-9
EXP_BREAKPOINT_RTOL = 1e-2
EXP_BREAKPOINT_OFFSET = 1e-6
CLOSED_FORM_RTOL = 1e-9
BRAESS_RTOL = 1e-6

# Outcomes that mean the library returned a wrong number as an answer (the
# run is then not ``correct``); every other failure is an exception or an
# invalid value the caller can see.
WRONG_ANSWERS = ("RefMismatch", "ResidualAboveBound")
INVALID_VALUES = ("NaN", "BelowOne")
GAME_ERRORS = (
    "ConvergenceError",
    "DemandBracketError",
    "DomainError",
    "KinkError",
    "RangeOverflowError",
    "UnsupportedCostError",
    "GameError",
)
BARE_ERRORS = ("OverflowError", "ZeroDivisionError", "ValueError", "OtherException")
FAIL_CLASSES = GAME_ERRORS + BARE_ERRORS + INVALID_VALUES + WRONG_ANSWERS


def fail_class(exc: BaseException) -> str:
    """Failure bucket of an exception: its own name when listed, else the
    nearest listed family (``GameError`` subclasses apart from bare errors)."""
    name = type(exc).__name__
    if name in FAIL_CLASSES:
        return name
    return "GameError" if isinstance(exc, GameError) else "OtherException"


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoaOp:
    """One ``poa(net, M)`` call; ``check`` names its reference.

    ``edge`` marks the point-queries edge slice: demands outside the range
    the library is known to handle.  Every failure there counts in
    ``failed``; a wrong answer there does not make the run incorrect.
    """

    id: str
    instance: str
    M: float
    check: str = "none"
    edge: bool = False


@dataclass(frozen=True)
class SweepOp:
    """``poa_sweep`` over [lo, hi] followed by ``extremes_estimate``."""

    id: str
    instance: str
    lo: float
    hi: float
    per_decade: int
    hints: tuple[float, ...]
    period_base: float
    check: str


def build_ops(workload: str, seed: int) -> list:
    """The op list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper-sweeps":
        return _paper_sweeps(rng)
    if workload == "point-queries":
        return _point_queries(rng)
    if workload == "general-net":
        return _general_net(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep(op_id: str, instance: str, a: float, lo: float, hi: float) -> SweepOp:
    hints = tuple(auto_breakpoints(named_instance(instance), lo, hi))
    check = "step" if instance.startswith("step") else "pwl"
    return SweepOp(op_id, instance, lo, hi, 512, hints, a, check)


# Periods of the seeded step:2 and pwl:2 sweeps start at 2*2^k, k in this
# range (M up to about 4e6), where time per sample is flat in k.
SWEEP_K_RANGE = (9, 15)


def _paper_sweeps(rng: random.Random) -> list:
    ops = [_sweep("readme:step:3", "step:3", 3.0, 6.0, 486.0)]
    for instance in ("step:2", "pwl:2"):
        k = rng.randint(*SWEEP_K_RANGE)
        ops.append(_sweep(f"sweep:{instance}:k{k}", instance, 2.0, 2.0 * 2.0**k, 2.0 * 2.0 ** (k + 4)))
    pwl = ops[-1]
    b = pwl_game_constants(2.0).b
    for j in range(-40, 80):
        M_j = 2.0 ** (j - 1) * (2.0 + b)
        if pwl.lo < M_j <= pwl.hi:
            ops.append(PoaOp(f"pwl-mk:{j}", "pwl:2", M_j, "pwl_mk"))
    return ops


POINT_INSTANCES = (
    "pigou",
    "step:2",
    "step:3",
    "step:5",
    "pwl:2",
    "pwl:3",
    "exp:factorial",
    "bounded-path",
    "shifted-affine",
    "affine",
    "polynomial-over-common-rv",
    "derivative-limit",
    "affine-sandwich",
    "three-link-oracle",
    "saturating-vs-affine",
)
OPS_PER_INSTANCE = 140
EDGE_OPS = 14  # the fixed 10% edge slice of every instance
EXP_BREAKPOINT_OPS = 14
# The breakpoint closed form is compared at M = (a_k + a_{k+1})(1 + 1e-6);
# beyond k = 10 that relative offset is no longer "just after" the jump.
EXP_BREAKPOINT_K = (2, 10)

POINT_CHECKS = {
    "pigou": "pigou",
    "bounded-path": "pigou",
    "step:2": "step",
    "step:3": "step",
    "step:5": "step",
    "affine": "affine",
    "shifted-affine": "affine",
}


def _stratified_log(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n demands log-uniform on (lo, hi], one per equal log-stratum.

    Stratifying keeps the share of demands that land in a failing region of
    the range nearly fixed from seed to seed.
    """
    a, b = math.log(lo), math.log(hi)
    return [min(hi, math.exp(a + (i + 1.0 - rng.random()) * (b - a) / n)) for i in range(n)]


def _point_queries(rng: random.Random) -> list:
    ops = []
    for name in POINT_INSTANCES:
        check = POINT_CHECKS.get(name, "none")
        demands = [(M, check, True) for M in _stratified_log(rng, EDGE_OPS, 1e-200, 1e200)]
        if name == "exp:factorial":
            for _ in range(EXP_BREAKPOINT_OPS):
                k = rng.randint(*EXP_BREAKPOINT_K)
                M = (math.factorial(k) + math.factorial(k + 1)) * (1.0 + EXP_BREAKPOINT_OFFSET)
                demands.append((M, "exp_breakpoint", False))
            n_main = OPS_PER_INSTANCE - EDGE_OPS - EXP_BREAKPOINT_OPS
            demands += [(M, check, False) for M in _stratified_log(rng, n_main, 2.0, 1e300)]
        else:
            n_main = OPS_PER_INSTANCE - EDGE_OPS
            demands += [(M, check, False) for M in _stratified_log(rng, n_main, 1e-3, 1e9)]
        ops += [PoaOp(f"{name}#{i}", name, M, c, edge) for i, (M, c, edge) in enumerate(demands)]
    rng.shuffle(ops)
    return ops


GENERAL_OPS = (
    ("braess-affine", 0.9, "braess_affine"),
    ("braess-affine", 1.0, "braess_affine"),
    ("braess-quartic", 1.0, "braess_quartic"),
    ("grid-affine", 1.0, "none"),
    ("grid-affine", 10.0, "none"),
    ("grid-bpr", 3.0, "none"),
    ("grid-bpr", 10.0, "none"),
)


def _general_net(rng: random.Random) -> list:
    ops = [PoaOp(f"{name}@{M:g}", name, M, check) for name, M, check in GENERAL_OPS]
    rng.shuffle(ops)
    return ops


def grid_layout(seed: int) -> tuple[list[str], list[int]]:
    """Vertex names and edge order of the 3x3 grid for one seed.

    The seed relabels the vertices and reorders the edge list, which changes
    the order paths are enumerated in; the costs stay fixed.  Conditional
    gradient's iteration count swings 4x between random cost draws within
    +-10% of each other, which would swamp any change under test.
    """
    rng = random.Random(f"grid:{seed}")
    names = [f"v{i}" for i in range(9)]
    rng.shuffle(names)
    order = list(range(12))
    rng.shuffle(order)
    return names, order


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

PLAIN_KIT = SimpleNamespace(
    Network=wardrop.Network,
    **{name: getattr(wardrop, name) for name in (
        "Affine", "Constant", "Monomial", "Polynomial", "SaturatingLinear",
        "StepGeometric", "PwlSquare", "ExpOverX", "StepExp", "Shifted",
    )},
)


@dataclass(frozen=True)
class Instance:
    """A network plus the equilibrium and optimum calls ``poa`` routes it to."""

    net: wardrop.Network
    route: str  # step | pwl | exp | marginal | general
    param: object = None  # a for step/pwl, the alpha sequence for exp


def _parallel(kit, costs) -> wardrop.Network:
    edges = tuple(Edge(f"e{i + 1}", "s", "t") for i in range(len(costs)))
    return kit.Network(("s", "t"), edges, tuple(costs), "s", "t")


def _braess(kit, rising) -> wardrop.Network:
    edges = (
        Edge("sa", "s", "a"), Edge("at", "a", "t"), Edge("sb", "s", "b"),
        Edge("bt", "b", "t"), Edge("ab", "a", "b"),
    )
    costs = (rising(), kit.Constant(1.0), kit.Constant(1.0), rising(), kit.Constant(0.0))
    return kit.Network(("s", "a", "b", "t"), edges, costs, "s", "t")


def _grid(kit, cost_of, seed: int) -> wardrop.Network:
    """3x3 grid, edges rightward and downward, corner to corner: 6 paths."""
    names, order = grid_layout(seed)
    cells = []
    for i in range(3):
        for j in range(3):
            if j + 1 < 3:
                cells.append((3 * i + j, 3 * i + j + 1))
            if i + 1 < 3:
                cells.append((3 * i + j, 3 * (i + 1) + j))
    # one fixed draw within 10% of 1 (grid_layout says why the seed does not change it)
    draw = random.Random("grid-costs")
    params = [(draw.uniform(0.9, 1.1), draw.uniform(0.9, 1.1)) for _ in cells]
    edges = tuple(
        Edge(f"{names[cells[e][0]]}-{names[cells[e][1]]}", names[cells[e][0]], names[cells[e][1]])
        for e in order
    )
    costs = tuple(cost_of(kit, *params[e]) for e in order)
    return kit.Network(tuple(names), edges, costs, names[0], names[8])


def _bpr(kit, t0: float, _unused: float):
    """BPR-style t0 (1 + 0.15 x^4)."""
    return kit.Polynomial((t0, 0.0, 0.0, 0.0, 0.15 * t0))


def build_instances(k, workload: str, seed: int = 0) -> dict[str, Instance]:
    """Every instance a workload's ops name, built from the kit ``k``."""
    if workload == "general-net":
        return {
            "braess-affine": Instance(_braess(k, lambda: k.Affine(0.0, 1.0)), "general"),
            "braess-quartic": Instance(_braess(k, lambda: k.Monomial(1.0, 4.0)), "general"),
            "grid-affine": Instance(_grid(k, lambda kit, a, b: kit.Affine(a, b), seed), "general"),
            "grid-bpr": Instance(_grid(k, _bpr, seed), "general"),
        }
    alphas = AlphaSequence("factorial")
    plain = PLAIN_KIT  # inner costs of Shifted stay plain so a call is counted once
    parallel = {
        "pigou": [k.Affine(0.0, 1.0), k.Constant(1.0)],
        "bounded-path": [k.Affine(0.0, 1.0), k.Constant(1.0)],
        "shifted-affine": [
            k.Shifted(plain.Affine(0.0, 1.0), 1.0),
            k.Shifted(plain.Affine(0.0, 2.0), 3.0),
        ],
        "affine": [k.Affine(1.0, 1.0), k.Affine(2.0, 3.0)],
        "polynomial-over-common-rv": [k.Monomial(1.0, 2.0), k.Polynomial((0.0, 1.0, 3.0))],
        "derivative-limit": [k.Affine(0.0, 2.0), k.Monomial(1.0, 2.0)],
        "affine-sandwich": [k.SaturatingLinear(), k.Affine(0.0, 1.0)],
        "three-link-oracle": [k.Affine(1.0, 2.0), k.Monomial(1.0, 2.0), k.Constant(30.0)],
        "saturating-vs-affine": [k.SaturatingLinear(), k.Affine(0.5, 1.0)],
    }
    out = {name: Instance(_parallel(k, costs), "marginal") for name, costs in parallel.items()}
    for a in (2.0, 3.0, 5.0):
        out[f"step:{a:g}"] = Instance(
            _parallel(k, [k.Affine(0.0, 1.0), k.StepGeometric(a)]), "step", a
        )
    for a in (2.0, 3.0):
        out[f"pwl:{a:g}"] = Instance(
            _parallel(k, [k.Monomial(1.0, 2.0), k.PwlSquare(a)]), "pwl", a
        )
    out["exp:factorial"] = Instance(
        _parallel(k, [k.ExpOverX(), k.StepExp(alphas)]), "exp", alphas
    )
    return out


def replay(inst: Instance, M: float):
    """The equilibrium and optimum calls ``poa`` makes for this instance,
    as two (span name, thunk) pairs."""
    net, a = inst.net, inst.param
    if inst.route == "exp":
        return (
            ("equilibrium.wardrop_parallel_log", lambda: equilibrium.wardrop_parallel_log(net, M)),
            ("optimum.opt_parallel_exp_log", lambda: optimum.opt_parallel_exp_log(a, M)),
        )
    if inst.route == "general":
        return (
            ("equilibrium.wardrop_general", lambda: equilibrium.wardrop_general(net, M)),
            ("optimum.opt_general_marginal", lambda: optimum.opt_general_marginal(net, M)),
        )
    eq = ("equilibrium.wardrop_parallel", lambda: equilibrium.wardrop_parallel(net, M))
    if inst.route == "step":
        return eq, ("optimum.opt_parallel_step", lambda: optimum.opt_parallel_step(a, M))
    if inst.route == "pwl":
        return eq, ("optimum.opt_parallel_pwl_square", lambda: optimum.opt_parallel_pwl_square(a, M))
    return eq, ("optimum.opt_parallel_marginal", lambda: optimum.opt_parallel_marginal(net, M))


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def pigou_poa(M: float) -> float:
    """PoA of c1 = x, c2 = 1: 1 up to M = 1/2, then M^2/(M - 1/4), then M/(M - 1/4)."""
    if M <= 0.5:
        return 1.0
    if M <= 1.0:
        return M * M / (M - 0.25)
    return M / (M - 0.25)


def affine_parallel_poa(links: list[tuple[float, float]], M: float) -> float:
    """PoA of parallel links a_i + b_i x (b_i > 0) by water-filling.

    The equilibrium equalizes a_i + b_i x_i and the optimum a_i + 2 b_i x_i;
    the active links are the cheapest j whose common level clears a_j.
    """

    def cost(factor: float) -> float:
        ordered = sorted(links)
        for j in range(len(ordered), 0, -1):
            active = ordered[:j]
            level = (M + sum(a / (factor * b) for a, b in active)) / sum(
                1.0 / (factor * b) for _, b in active
            )
            if level >= active[-1][0]:
                break
        if j == 1:  # one link carries everything; avoid cancellation in level - a
            flows = [M if i == links.index(ordered[0]) else 0.0 for i in range(len(links))]
        else:
            flows = [max(0.0, (level - a) / (factor * b)) for a, b in links]
        return math.fsum(x * (a + b * x) for x, (a, b) in zip(flows, links))

    return cost(1.0) / cost(2.0)


AFFINE_LINKS = {
    "affine": [(1.0, 1.0), (2.0, 3.0)],
    "shifted-affine": [(1.0, 1.0), (3.0, 2.0)],
}


def braess_affine_poa(M: float) -> float:
    """Braess (x, 1, 1, x, 0) for 1/2 <= M <= 1: WEq = 2M^2, Opt = 2M - 1/2."""
    return 2.0 * M * M / (2.0 * M - 0.5)


def braess_quartic_poa() -> float:
    """Braess (x^4, 1, 1, x^4, 0) at M = 1: WEq = 2; the optimum routes
    f = 2*5^(-1/4) - 1 on the zigzag, Opt = 2*5^(-5/4) + 2 - 2*5^(-1/4)."""
    return 2.0 / (2.0 * 5.0**-1.25 + 2.0 - 2.0 * 5.0**-0.25)


def exp_breakpoint_poa(M: float) -> float:
    """(a_k + a_{k+1}) / (1 + a_k + ln a_{k+1}) for the breakpoint M sits just after."""
    for k in range(EXP_BREAKPOINT_K[0], EXP_BREAKPOINT_K[1] + 1):
        a_k, a_k1 = math.factorial(k), math.factorial(k + 1)
        if math.isclose(M, (a_k + a_k1) * (1.0 + EXP_BREAKPOINT_OFFSET), rel_tol=1e-12):
            return (a_k + a_k1) / (1.0 + a_k + math.log(a_k1))
    raise ValueError(f"{M!r} is not an exponential-game breakpoint demand")


def _rel_miss(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) > rtol * abs(ref)


def _step_reference(a: float, M: float) -> float | None:
    """Closed-form PoA, or None inside the breakpoint collar or out of float range."""
    try:
        cf = step_game_closed_form(a, M)
    except (ArithmeticError, GameError):
        return None
    if not math.isfinite(cf.poa):
        return None
    for b in step_breakpoints(a, cf.k, cf.k + 1):
        if abs(M - b) <= STEP_COLLAR * b:
            return None
    return cf.poa


def reference_poa(op: PoaOp) -> float | None:
    """Reference PoA for an op, or None when it has none at this demand."""
    try:
        if op.check == "pigou":
            ref = pigou_poa(op.M)
        elif op.check == "affine":
            ref = affine_parallel_poa(AFFINE_LINKS[op.instance], op.M)
        elif op.check == "step":
            ref = _step_reference(float(op.instance.split(":")[1]), op.M)
        elif op.check == "pwl_mk":
            ref = pwl_game_constants(float(op.instance.split(":")[1])).poa_at_mk
        elif op.check == "exp_breakpoint":
            ref = exp_breakpoint_poa(op.M)
        elif op.check == "braess_affine":
            ref = braess_affine_poa(op.M)
        elif op.check == "braess_quartic":
            ref = braess_quartic_poa()
        else:
            ref = None
    except (ArithmeticError, ValueError):
        return None
    return ref if ref is not None and math.isfinite(ref) and ref > 0 else None


REFERENCE_RTOL = {
    "pigou": CLOSED_FORM_RTOL,
    "affine": CLOSED_FORM_RTOL,
    "step": STEP_CLOSED_FORM_RTOL,
    "pwl_mk": PWL_MK_RTOL,
    "exp_breakpoint": EXP_BREAKPOINT_RTOL,
    "braess_affine": BRAESS_RTOL,
    "braess_quartic": BRAESS_RTOL,
}


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def check_value(poa_value: float, ref: float | None = None, rtol: float = 0.0) -> str | None:
    """Failure class of one returned PoA, or None when it passes."""
    if not math.isfinite(poa_value):
        return "NaN"
    if poa_value < 1.0 - POA_SLACK:
        return "BelowOne"
    if ref is not None and _rel_miss(poa_value, ref, rtol):
        return "RefMismatch"
    return None


def check_poa(op: PoaOp, inst: Instance, result) -> str | None:
    """Gate for one ``poa`` result: valid value, residual bound, reference."""
    bad = check_value(result.poa)
    if bad:
        return bad
    eq = result.equilibrium
    lam = 1.0 if isinstance(eq.lam, LogValue) else eq.lam  # log-domain residuals are relative
    rtol = GENERAL_RESIDUAL_RTOL if inst.route == "general" else PARALLEL_RESIDUAL_RTOL
    if not eq.residual <= rtol * max(lam, 1.0):
        return "ResidualAboveBound"
    ref = reference_poa(op)
    return check_value(result.poa, ref, REFERENCE_RTOL.get(op.check, 0.0))


def check_sweep(op: SweepOp, net, curve, report) -> tuple[list[str | None], str | None]:
    """Gate for a sweep: one outcome per sample and one for the extremes.

    Failed samples are run again through ``poa`` (untimed) to learn their
    exception class, since the curve keeps only the message.
    """
    a = op.period_base
    outcomes = []
    for s in curve.samples:
        ref = _step_reference(a, s.M) if op.check == "step" else None
        outcomes.append(check_value(s.poa, ref, STEP_CLOSED_FORM_RTOL))
    for M, _message in curve.failures:
        try:
            poa(net, M)
            outcomes.append("OtherException")  # failed in the sweep, passes alone
        except Exception as exc:  # noqa: BLE001 - every failure is counted by class
            outcomes.append(fail_class(exc))

    if report is None:
        return outcomes, None
    ok = (
        bool(report.accepted)
        and abs(report.liminf_est - 1.0) <= POA_SLACK
        and report.limsup_est >= 1.0
        and all(abs(p.min_poa - 1.0) <= POA_SLACK for p in curve.periods)
    )
    if op.check == "step":
        jump = step_jump_value(a)
        ok = ok and not _rel_miss(report.limsup_est, jump, STEP_CLOSED_FORM_RTOL) and all(
            not _rel_miss(p.max_poa, jump, STEP_CLOSED_FORM_RTOL) for p in curve.periods
        )
    return outcomes, None if ok else "RefMismatch"
