"""Command-line front end.

Subcommands: solve, opt, poa, sweep, extremes, repro.  Networks are
given either as JSON files or as built-in names (pigou, step:A, pwl:A,
exp:factorial).  Outputs are byte-deterministic for identical invocations:
JSON is emitted with sorted keys and CSV numbers carry 17 significant
digits so downstream comparisons are exact at double precision.

Exit codes: 0 success, 1 usage, 2 input, 3 numeric/convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import asymptotics as asy
from .costs import AlphaSequence
from .errors import DomainError, GameError
from .instances import classify, named_instance, step_breakpoints
from .logdomain import LogValue
from .network import Network, load_network
from .equilibrium import wardrop_equilibrium
from .optimum import _period_index, social_optimum
from .rv import rv_suite

USAGE_ERROR, INPUT_ERROR, NUMERIC_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _float17(x: float) -> str:
    return f"{x:.17g}"


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True)
    if out:
        with open(_resolve_out(out), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _resolve_out(path: str) -> str:
    base = os.environ.get("WARDROP_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


class _InputError(Exception):
    """Bad input file contents (distinct from solver failures)."""


def _load(name_or_path: str) -> Network:
    if os.path.exists(name_or_path):
        try:
            return load_network(name_or_path)
        except DomainError as exc:
            raise _InputError(str(exc)) from None
    try:
        return named_instance(name_or_path)
    except DomainError:
        raise FileNotFoundError(f"no such network file or named instance: {name_or_path!r}")


def _cost_value(v: float | LogValue) -> dict:
    if isinstance(v, LogValue):
        return {"log": v.log_magnitude, "zero": v.is_zero}
    return {"value": v}


def auto_breakpoints(net: Network, M_lo: float, M_hi: float) -> list[float]:
    """Demand values where this instance's equilibrium cost may jump."""
    kind = classify(net)
    a = kind.period_base
    if a is not None:
        k_lo = _period_index(a, M_lo) - 1
        k_hi = _period_index(a, M_hi) + 2
        return [b for b in step_breakpoints(a, k_lo, k_hi) if M_lo <= b <= M_hi]
    if kind.name == "exp":
        alphas = kind.param
        out = []
        for k in range(1, alphas.max_index()):
            try:
                points = (2.0 * alphas.alpha(k), alphas.alpha(k) + alphas.alpha(k + 1))
            except GameError:
                break
            out.extend(p for p in points if M_lo <= p <= M_hi)
            if alphas.alpha(k) > M_hi:
                break
        return sorted(out)
    return []


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    sol = wardrop_equilibrium(_load(args.network), args.demand)
    payload = {
        "demand": args.demand,
        "flows": list(sol.flow.path_flows),
        "lambda": _cost_value(sol.lam),
        "weq": _cost_value(sol.cost),
        "residual": sol.residual,
    }
    _emit(payload, args.out)
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    net = _load(args.network)
    kwargs = {}
    if args.method == "brute":
        kwargs = {"resolution": args.resolution, "seed": args.seed}
    sol = social_optimum(net, args.demand, method=args.method, **kwargs)
    payload = {
        "demand": args.demand,
        "flow": list(sol.flow.path_flows),
        "cost": _cost_value(sol.cost),
        "method": sol.method,
        "certificate": [dict(row) for row in sol.certificate],
        "flag": sol.flag,
    }
    if sol.resolution_bound is not None:
        payload["resolution_bound"] = sol.resolution_bound
    _emit(payload, args.out)
    return 0


def _cmd_poa(args: argparse.Namespace) -> int:
    net = _load(args.network)
    r = asy.poa(net, args.demand)
    payload = {
        "demand": args.demand,
        "weq": _cost_value(r.equilibrium.cost),
        "opt": _cost_value(r.optimum.cost),
        "poa": r.poa,
        "method": r.method,
        "flag": r.flag,
    }
    _emit(payload, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    net = _load(args.network)
    hints = [] if args.no_breakpoint_hints else auto_breakpoints(net, args.demand_lo, args.demand_hi)
    curve = asy.poa_sweep(
        net,
        args.demand_lo,
        args.demand_hi,
        samples_per_decade=args.samples_per_decade,
        breakpoint_hints=hints,
        jobs=args.jobs,
    )
    log_domain = any(isinstance(s.weq, LogValue) for s in curve.samples)
    path = _resolve_out(args.out) if args.out else None
    fh = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        if log_domain:
            writer.writerow(["M", "log_weq", "log_opt", "poa", "method", "flag"])
        else:
            writer.writerow(["M", "weq", "opt", "poa", "method", "flag"])
        for s in curve.samples:
            if log_domain:
                w = s.weq.log_magnitude if isinstance(s.weq, LogValue) else math.log(s.weq)
                o = s.opt.log_magnitude if isinstance(s.opt, LogValue) else math.log(s.opt)
            else:
                w, o = s.weq, s.opt
            writer.writerow(
                [_float17(s.M), _float17(w), _float17(o), _float17(s.poa),
                 s.method, s.flag or ""]
            )
    finally:
        if path:
            fh.close()
    if curve.failures:
        sys.stderr.write(f"{len(curve.failures)} samples failed:\n")
        for M, msg in curve.failures:
            sys.stderr.write(f"  M={_float17(M)}: {msg}\n")
    return 0


def _cmd_extremes(args: argparse.Namespace) -> int:
    samples = []
    with open(args.curve, "r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            samples.append(
                asy.PoaSample(float(row["M"]), 0.0, 0.0, float(row["poa"]), row.get("method", ""))
            )
    if not samples:
        raise DomainError(f"curve file {args.curve!r} holds no samples")
    Ms = [s.M for s in samples]
    periods = asy._period_extrema(samples, args.period_base, min(Ms), max(Ms))
    curve = asy.PoaCurve(tuple(samples), args.period_base, tuple(periods), ())
    est = asy.extremes_estimate(curve, args.periods_required)
    _emit(
        {
            "liminf_estimate": est.liminf_est,
            "limsup_estimate": est.limsup_est,
            "stability": est.stability,
            "periods_used": est.periods_used,
            "accepted": bool(est.accepted),
        },
        args.out,
    )
    return 0


# --- reproduction reports ---


def _assertion(name: str, ok: bool, detail) -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _repro_step_game(a: float, samples_per_decade: int, jobs: int | None) -> dict:
    import numpy as np

    expected = asy.step_jump_value(a)
    net = named_instance(f"step:{a}")
    M_lo, M_hi = 2.0 * a, 2.0 * a**5
    hints = auto_breakpoints(net, M_lo, M_hi)
    curve = asy.poa_sweep(
        net, M_lo, M_hi, samples_per_decade=samples_per_decade,
        breakpoint_hints=hints, period_base=a, jobs=jobs,
    )
    est = asy.extremes_estimate(curve, periods_required=3)
    assertions = [
        _assertion(
            "per-period max equals (4+4a)/(4+3a) within 1e-3",
            all(abs(p.max_poa - expected) <= 1e-3 * expected for p in curve.periods),
            {"expected": expected, "per_period_max": [p.max_poa for p in curve.periods]},
        ),
        _assertion(
            "per-period min equals 1 within 1e-9",
            all(abs(p.min_poa - 1.0) <= 1e-9 for p in curve.periods),
            {"per_period_min": [p.min_poa for p in curve.periods]},
        ),
        _assertion("cross-period stability accepted", est.accepted, est.stability),
    ]
    # jump at M = a^k + a^{k+1}: equilibrium jumps, optimum does not
    k = 2
    B = a**k + a ** (k + 1)
    lo_r = asy.poa(net, B * (1.0 - 1e-9))
    hi_r = asy.poa(net, B * (1.0 + 1e-9))
    d_opt = abs(hi_r.optimum.cost - lo_r.optimum.cost) / lo_r.optimum.cost
    assertions.append(
        _assertion(
            "equilibrium jumps to (4+4a)/(4+3a) while optimum stays continuous",
            abs(hi_r.poa - expected) <= 1e-6 * expected and d_opt <= 1e-6,
            {"poa_minus": lo_r.poa, "poa_plus": hi_r.poa, "opt_rel_change": d_opt},
        )
    )
    rng = np.random.default_rng(5)
    Ms = np.exp(rng.uniform(math.log(2.0 * a), math.log(2.0 * a**3), 200))
    worst = 0.0
    for M in Ms:
        cf = asy.step_game_closed_form(a, float(M))
        if _near_breakpoint(a, float(M)):
            continue
        solver = asy.poa(net, float(M))
        worst = max(worst, abs(cf.poa - solver.poa) / cf.poa)
    assertions.append(
        _assertion("closed form matches solver within 1e-6 (200 random demands)",
                    worst <= 1e-6, {"worst_rel_diff": worst})
    )
    return {
        "a": a,
        "limsup_estimate": est.limsup_est,
        "liminf_estimate": est.liminf_est,
        "expected_limsup": expected,
        "assertions": assertions,
        "pass": all(x["pass"] for x in assertions),
    }


def _near_breakpoint(a: float, M: float, collar: float = 1e-8) -> bool:
    k = _period_index(a, M)
    for b in step_breakpoints(a, k, k + 1):
        if abs(M - b) <= collar * b:
            return True
    return False


def _repro_pwl_game(a: float) -> dict:
    consts = asy.pwl_game_constants(a)
    values = [asy.pwl_game_poa_at_special_demand(a, k).poa for k in range(1, 6)]
    spread = (max(values) - min(values)) / values[0]
    from .optimum import opt_bruteforce, opt_parallel_pwl_square

    net = named_instance(f"pwl:{a}")
    M1 = consts.m1
    brute = opt_bruteforce(net, M1)
    exact = opt_parallel_pwl_square(a, M1)
    brute_gap = abs(exact.cost - brute.cost) / exact.cost
    assertions = [
        _assertion("equilibrium knot position satisfies 1 < d < a", 1.0 < consts.d < a,
                    {"d": consts.d}),
        _assertion("PoA at the special demands is k-independent to 1e-9",
                    spread <= 1e-9, {"values": values, "spread": spread}),
        _assertion("closed form matches the numeric pipeline to 1e-9",
                    abs(values[0] - consts.poa_at_mk) <= 1e-9 * consts.poa_at_mk,
                    {"closed": consts.poa_at_mk, "numeric": values[0]}),
        _assertion("optimum at M_1 matches the brute-force oracle to 1e-4",
                    brute_gap <= 1e-4, {"relative_gap": brute_gap}),
    ]
    if a == 2.0:
        assertions.append(
            _assertion("PoA at M_k lies in the reported band [1.0055, 1.0063]",
                        1.0055 <= consts.poa_at_mk <= 1.0063, consts.poa_at_mk)
        )
    return {
        "a": a,
        "constants": {"b": consts.b, "c": consts.c, "d": consts.d, "M1": consts.m1},
        "poa_at_mk": consts.poa_at_mk,
        "assertions": assertions,
        "pass": all(x["pass"] for x in assertions),
    }


def _repro_exp_game(preset: str, k_index: int | None) -> dict:
    alphas = AlphaSequence(preset) if preset != "supergeometric" else AlphaSequence(
        "supergeometric", base=2.0
    )
    reports = {k: asy.exp_game_poa_near_breakpoint(alphas, k) for k in range(3, 9)}
    closed = [reports[k].closed_form for k in range(3, 9)]
    growth_ok = all(b > a for a, b in zip(closed, closed[1:]))
    gaps = {k: reports[k].relative_gap for k in range(3, 6)}
    threshold = 3
    while asy.exp_game_poa_near_breakpoint(alphas, threshold).closed_form <= 10.0:
        threshold += 1
    assertions = [
        _assertion("closed-form PoA strictly increases over k = 3..8", growth_ok,
                    {"values": closed}),
        _assertion("log-domain pipeline agrees with the closed form within 1% for k <= 5",
                    all(g <= 1e-2 for g in gaps.values()), gaps),
        _assertion("closed-form PoA exceeds 10 at the computed threshold index",
                    asy.exp_game_poa_near_breakpoint(alphas, threshold).closed_form > 10.0,
                    {"first_k_above_10": threshold}),
    ]
    if k_index is not None:
        rep = asy.exp_game_poa_near_breakpoint(alphas, k_index)
        assertions.append(
            _assertion(f"report for requested k={k_index}", True,
                        {"closed": rep.closed_form, "numeric": rep.numeric_poa,
                         "flag": rep.candidate_flag})
        )
    return {
        "alpha": preset,
        "closed_form_by_k": {str(k): reports[k].closed_form for k in reports},
        "first_k_above_10": threshold,
        "assertions": assertions,
        "pass": all(x["pass"] for x in assertions),
    }


def _cmd_repro(args: argparse.Namespace) -> int:
    if args.repro_target == "thm5":
        payload = _repro_step_game(args.a_param, args.samples_per_decade, args.jobs)
    elif args.repro_target == "thm6":
        payload = _repro_pwl_game(args.a_param)
    elif args.repro_target == "thm7":
        payload = _repro_exp_game(args.alpha_preset, args.k_index)
    elif args.repro_target == "rv":
        payload = rv_suite()
    else:
        raise DomainError(f"unknown reproduction target {args.repro_target!r}")
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="wardrop", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_network(sp):
        sp.add_argument("--network", required=True,
                        help="JSON network file or named instance (pigou, step:A, pwl:A, exp:factorial)")

    sp = sub.add_parser("solve", help="Wardrop equilibrium at one demand")
    add_network(sp)
    sp.add_argument("--demand", type=float, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("opt", help="social optimum at one demand")
    add_network(sp)
    sp.add_argument("--demand", type=float, required=True)
    sp.add_argument("--method", default="auto",
                    choices=["auto", "marginal", "step", "pwl", "exp", "brute"])
    sp.add_argument("--resolution", type=int, default=4001)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")

    sp = sub.add_parser("poa", help="price of anarchy at one demand")
    add_network(sp)
    sp.add_argument("--demand", type=float, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("sweep", help="PoA curve over a demand range (CSV)")
    add_network(sp)
    sp.add_argument("--from", dest="demand_lo", type=float, required=True)
    sp.add_argument("--to", dest="demand_hi", type=float, required=True)
    sp.add_argument("--per-decade", dest="samples_per_decade", type=int,
                    default=asy.DEFAULT_SAMPLES_PER_DECADE)
    sp.add_argument("--no-breakpoint-hints", action="store_true")
    sp.add_argument("--jobs", type=int, default=os.cpu_count())
    sp.add_argument("--out")

    sp = sub.add_parser("extremes", help="liminf/limsup estimates from a curve CSV")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--period-base", type=float, required=True)
    sp.add_argument("--periods-required", type=int, default=3)
    sp.add_argument("--out")

    sp = sub.add_parser(
        "repro",
        help="reproduce a counterexample analysis: thm5 = step-game periodicity, "
             "thm6 = interpolated-square PoA band, thm7 = exponential divergence, "
             "rv = variation checks",
    )
    sp.add_argument("repro_target", choices=["thm5", "thm6", "thm7", "rv"])
    sp.add_argument("--a", dest="a_param", type=float, default=2.0)
    sp.add_argument("--alpha", dest="alpha_preset", default="factorial",
                    choices=["factorial", "supergeometric"])
    sp.add_argument("--k", dest="k_index", type=int)
    sp.add_argument("--per-decade", dest="samples_per_decade", type=int, default=256)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out")
    return p


_HANDLERS = {
    "solve": _cmd_solve,
    "opt": _cmd_opt,
    "poa": _cmd_poa,
    "sweep": _cmd_sweep,
    "extremes": _cmd_extremes,
    "repro": _cmd_repro,
}


def run(args: argparse.Namespace) -> int:
    if args.subcommand == "sweep" and not 0 < args.demand_lo < args.demand_hi:
        sys.stderr.write("usage error: sweep requires 0 < --from < --to\n")
        return USAGE_ERROR
    try:
        return _HANDLERS[args.subcommand](args)
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            f"input error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}\n"
        )
        return INPUT_ERROR
    except (_InputError, FileNotFoundError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return INPUT_ERROR
    except GameError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return NUMERIC_ERROR


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
