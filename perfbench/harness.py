"""Closed-loop runner, gate bookkeeping and metrics of the wardrop benchmark.

One serial client runs a workload's op list; each op starts when the
previous one has returned.  Every op is timed on its own and checked after
its timer stops.  A raising op is caught, counted by class and never aborts
the pass.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wardrop import extremes_estimate, poa, poa_sweep, verify_equilibrium

import tracer as tr
from speed import SpeedSampler
from workloads import (
    FAIL_CLASSES,
    WRONG_ANSWERS,
    SweepOp,
    check_poa,
    check_sweep,
    fail_class,
    replay,
)

README_SWEEP = ["sweep", "--network", "step:3", "--from", "6", "--to", "486", "--per-decade", "512"]
CLI_REPEATS = 3
IMPORT_REPEATS = 3
MIN_PASSES = 3


@dataclass(frozen=True)
class Record:
    """Outcome of one PoA value, or of one ``extremes_estimate`` call."""

    op: str  # key of the timed call in ``PassResult.op_times``
    outcome: str | None  # None when the gate passed it
    is_value: bool = True
    share: float = 1.0  # a sweep sample carries 1/n of its sweep's time
    edge: bool = False  # from the edge slice: counted, but never makes a run incorrect


@dataclass
class PassResult:
    op_times: dict[str, float] = field(default_factory=dict)  # seconds per library call
    records: list[Record] = field(default_factory=list)
    op_windows: dict[str, tuple[float, float]] = field(default_factory=dict)  # perf_counter start, end
    # op key -> CALIB_NOMINAL_S / the kernel's time around the call; 1 when not calibrated
    op_scale: dict[str, float] = field(default_factory=dict)

    def scaled(self, key: str) -> float:
        return self.op_times[key] * self.op_scale.get(key, 1.0)

    @property
    def op_time_s(self) -> float:
        return sum(self.op_times.values())

    @property
    def failed(self) -> int:
        return sum(r.outcome is not None for r in self.records)

    @property
    def wrong(self) -> int:
        return sum(r.outcome in WRONG_ANSWERS and not r.edge for r in self.records)


def _call(tracer, name: str, op_id: str, fn, *args):
    """(seconds, result, exception, (start, end)) of one library call; the
    seconds leave out time spent in the SpeedSampler's handler."""
    sampler = SpeedSampler.active
    stolen = sampler.stolen if sampler else 0.0
    start = time.perf_counter()
    try:
        result = tracer.span(name, op_id, fn, *args) if tracer else fn(*args)
        exc = None
    except Exception as err:  # noqa: BLE001 - every failure is counted by class
        result, exc = None, err
    end = time.perf_counter()
    stolen = sampler.stolen - stolen if sampler else 0.0
    return end - start - stolen, result, exc, (start, end)


def _replay(tracer, op_id: str, inst, M: float) -> None:
    """The equilibrium, verification and optimum calls ``poa`` made, again."""
    (eq_name, eq_fn), (opt_name, opt_fn) = replay(inst, M)
    _, eq, _, _ = _call(tracer, eq_name, op_id, eq_fn)
    if eq is not None and inst.route != "exp":  # exp flows overflow native path costs
        _call(tracer, "equilibrium.verify_equilibrium", op_id, verify_equilibrium, inst.net, eq.flow)
    _call(tracer, opt_name, op_id, opt_fn)


def _poa_op(op, inst, out: PassResult, tracer) -> None:
    dt, result, exc, out.op_windows[op.id] = _call(tracer, "asymptotics.poa", op.id, poa, inst.net, op.M)
    out.op_times[op.id] = dt
    outcome = fail_class(exc) if exc else check_poa(op, inst, result)
    out.records.append(Record(op.id, outcome, edge=op.edge))
    if tracer and exc is None:
        _replay(tracer, op.id, inst, op.M)


def _sweep_op(op: SweepOp, inst, out: PassResult, tracer) -> None:
    dt, curve, exc, out.op_windows[op.id] = _call(
        tracer, "asymptotics.poa_sweep", op.id,
        lambda: poa_sweep(inst.net, op.lo, op.hi, samples_per_decade=op.per_decade,
                          breakpoint_hints=op.hints, period_base=op.period_base),
    )
    out.op_times[op.id] = dt
    if exc is not None:  # the whole sweep aborted: one failed op
        out.records.append(Record(op.id, fail_class(exc)))
        return
    extremes_id = f"{op.id}:extremes"
    dt_x, report, exc_x, out.op_windows[extremes_id] = _call(
        tracer, "asymptotics.extremes_estimate", op.id, extremes_estimate, curve)
    out.op_times[extremes_id] = dt_x
    outcomes, report_outcome = check_sweep(op, inst.net, curve, report)
    out.records += [Record(op.id, o, share=1.0 / len(outcomes)) for o in outcomes]
    out.records.append(Record(extremes_id, fail_class(exc_x) if exc_x else report_outcome, False))
    if tracer:
        grid = sorted([s.M for s in curve.samples] + [M for M, _ in curve.failures])
        for i, M in enumerate(grid):
            sample_id = f"{op.id}/{i}"
            exc = _call(tracer, "asymptotics.poa", sample_id, poa, inst.net, M)[2]
            if exc is None:
                _replay(tracer, sample_id, inst, M)


def run_pass(ops, instances, tracer=None) -> PassResult:
    """One pass of the op list; with a tracer, each op is followed by
    untimed replays of the layers below it on the same input."""
    out = PassResult()
    for op in ops:
        inst = instances[op.instance]
        if isinstance(op, SweepOp):
            _sweep_op(op, inst, out, tracer)
        else:
            _poa_op(op, inst, out, tracer)
    return out


def run_closed_loop(ops, instances, seconds: float) -> list[PassResult]:
    """Passes of the op list until ``seconds`` have elapsed and at least
    MIN_PASSES have run, with the SpeedSampler on.  The first pass runs
    every op; an op that alone took more than a quarter of ``seconds`` is
    not repeated after it."""
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        passes = [run_pass(ops, instances)]
        repeat = [op for op in ops if passes[0].op_times[op.id] <= seconds / 4]
        while repeat and (len(passes) < MIN_PASSES or time.perf_counter() - start < seconds):
            passes.append(run_pass(repeat, instances))
    for p in passes:
        p.op_scale = {key: sampler.scale(*window) for key, window in p.op_windows.items()}
    return passes


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def failed_outcomes(passes: list[PassResult]) -> list[str | None]:
    """Outcome of each record of the first pass, the only one that runs
    every op: its own, or the first failure the same record had in a later
    pass.  Later passes repeat the first pass's ops, so the counts do not
    depend on how many passes fit in the run."""
    later: dict[tuple[str, int], str] = {}
    for p in passes[1:]:
        seen: dict[str, int] = {}
        for r in p.records:
            i = seen[r.op] = seen.get(r.op, -1) + 1
            if r.outcome is not None:
                later.setdefault((r.op, i), r.outcome)
    outcomes, seen = [], {}
    for r in passes[0].records:
        i = seen[r.op] = seen.get(r.op, -1) + 1
        outcomes.append(r.outcome or later.get((r.op, i)))
    return outcomes


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count).

    Each library call is timed in every pass; its time, scaled to the
    reference machine speed (see SpeedSampler), is the median over the passes.
    Set-up is the median of the ``setup`` times, already scaled.  Counts
    come from ``failed_outcomes``.
    """
    first = passes[0]
    times: dict[str, list[float]] = {}
    for p in passes:
        for key in p.op_times:
            times.setdefault(key, []).append(p.scaled(key))
    typical = {key: statistics.median(ts) for key, ts in times.items()}
    outcomes = failed_outcomes(passes)
    values = [(r, o) for r, o in zip(first.records, outcomes) if r.is_value]
    latency = [typical[r.op] * r.share for r, _ in values]
    solved = [typical[r.op] * r.share for r, o in values if o is None]
    wall = sum(typical.values())
    failed = sum(o is not None for o in outcomes)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (wall, "s", len(passes)),
        "fail_frac": (failed / len(first.records), "ratio", len(first.records)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "samples_per_s": (len(values) / wall, "1/s", len(values)),
        "query_p50_us": (float(np.percentile(latency, 50)) * 1e6, "us", len(latency)),
        "query_p99_us": (float(np.percentile(latency, 99)) * 1e6, "us", len(latency)),
        "solve_p50_ms": (statistics.median(solved) * 1e3 if solved else math.nan, "ms", len(solved)),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run
# ---------------------------------------------------------------------------

# metric -> (span name, unit); the value is the mean self time per call
SELF_TIME = {
    "equilibrium.parallel_us": ("equilibrium.wardrop_parallel", "us"),
    "equilibrium.verify_us": ("equilibrium.verify_equilibrium", "us"),
    "equilibrium.parallel_log_us": ("equilibrium.wardrop_parallel_log", "us"),
    "equilibrium.general_ms": ("equilibrium.wardrop_general", "ms"),
    "optimum.general_ms": ("optimum.opt_general_marginal", "ms"),
    "optimum.exp_log_us": ("optimum.opt_parallel_exp_log", "us"),
    "optimum.marginal_us": ("optimum.opt_parallel_marginal", "us"),
    "optimum.step_us": ("optimum.opt_parallel_step", "us"),
    "optimum.pwl_us": ("optimum.opt_parallel_pwl_square", "us"),
    "asymptotics.extremes_us": ("asymptotics.extremes_estimate", "us"),
}
# metric -> leaf name; the value is the mean time per call in microseconds
LEAF_TIME = {
    "costs.ginv_us": tr.GINV,
    "costs.marginal_ginv_us": tr.MARGINAL_GINV,
    "costs.eval_log_us": tr.EVAL_LOG,
    "network.path_cost_us": tr.PATH_COST,
}
_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}

# every per-layer metric: name -> unit (BENCHMARK.json lists the same)
PER_LAYER_UNITS = {
    **{m: "us" for m in LEAF_TIME},
    "costs.ginv_calls_per_value": "count",
    "costs.eval_calls_per_solve": "count",
    **{m: unit for m, (_, unit) in SELF_TIME.items()},
    "asymptotics.poa_self_us": "us",
    "asymptotics.poa_us": "us",
    "asymptotics.sweep_self_frac": "ratio",
    **{f"asymptotics.fail_by_class.{c}": "count" for c in FAIL_CLASSES},
    "asymptotics.pool_speedup": "ratio",
    "cli.readme_sweep_s": "s",
    "cli.import_s": "s",
    "bench.trace_overhead_s": "s",
}


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(tracer: tr.Tracer, untraced: PassResult, traced: PassResult,
              cli: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Layer metrics; a layer the workload never calls reads 0."""
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    m: dict[str, tuple[float, str]] = {}

    for metric, leaf in LEAF_TIME.items():
        calls = ns = 0
        for s in spans + [tracer.loose]:
            c, t = s.leaves.get(leaf, (0, 0))
            calls, ns = calls + c, ns + t
        m[metric] = (ns / calls * 1e-3 if calls else 0.0, "us")

    poas = by_name.get("asymptotics.poa", [])
    ginv_in_poa = sum(s.leaves.get(tr.GINV, (0, 0))[0] for s in poas)
    m["costs.ginv_calls_per_value"] = (ginv_in_poa / len(poas) if poas else 0.0, "count")
    m["costs.eval_calls_per_solve"] = (_mean(s.evals for s in poas), "count")

    for metric, (name, unit) in SELF_TIME.items():
        m[metric] = (_mean(s.self_ns for s in by_name.get(name, [])) * _SCALE[unit], unit)

    # poa minus the equilibrium and optimum calls it makes on the same input
    by_op: dict[str, dict[str, object]] = {}
    for s in spans:
        by_op.setdefault(s.op, {})[s.name] = s
    poa_self = []
    for group in by_op.values():
        p = group.get("asymptotics.poa")
        eq = [s for n, s in group.items() if n.startswith("equilibrium.wardrop_")]
        opt = [s for n, s in group.items() if n.startswith("optimum.")]
        if p is not None and eq and opt:
            poa_self.append(p.duration_ns - eq[0].duration_ns - opt[0].duration_ns)
    m["asymptotics.poa_self_us"] = (_mean(poa_self) * 1e-3, "us")
    m["asymptotics.poa_us"] = (_mean(s.duration_ns for s in poas) * 1e-3, "us")

    sweeps = by_name.get("asymptotics.poa_sweep", [])
    sweep_ns = sum(s.duration_ns for s in sweeps)
    inner_ns = sum(p.duration_ns for s in sweeps for p in poas if p.op.startswith(s.op + "/"))
    m["asymptotics.sweep_self_frac"] = ((sweep_ns - inner_ns) / sweep_ns if sweep_ns else 0.0, "ratio")

    counts = {c: 0 for c in FAIL_CLASSES}
    for r in traced.records:
        if r.outcome is not None:
            counts[r.outcome] += 1
    for c, n in counts.items():
        m[f"asymptotics.fail_by_class.{c}"] = (float(n), "count")

    m["asymptotics.pool_speedup"] = (cli["pool_speedup"], "ratio")
    m["cli.readme_sweep_s"] = (cli["readme_sweep_s"], "s")
    m["cli.import_s"] = (cli["import_s"], "s")
    overhead = sum(traced.op_times[key] for key in untraced.op_times) - untraced.op_time_s
    m["bench.trace_overhead_s"] = (overhead, "s")
    return m


def cli_timings(root: Path, out_dir: Path) -> dict[str, float]:
    """The README sweep through ``cli.main``: default ``--jobs`` (the CPU
    count) against ``--jobs 1``; and ``import wardrop`` in a fresh interpreter."""
    from wardrop import cli

    argv = README_SWEEP + ["--out", str(out_dir / "readme_curve.csv")]
    pool, serial = [], []
    with contextlib.redirect_stderr(io.StringIO()):  # the sweep lists its failed sample
        for _ in range(CLI_REPEATS):
            for argv_i, times in ((argv, pool), (argv + ["--jobs", "1"], serial)):
                start = time.perf_counter()
                rc = cli.main(argv_i)
                times.append(time.perf_counter() - start)
                if rc != 0:
                    raise RuntimeError(f"wardrop {' '.join(argv_i)} exited {rc}")

    code = "import time; t = time.perf_counter(); import wardrop; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    imports = [
        float(subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return {
        "readme_sweep_s": statistics.median(pool),
        "pool_speedup": statistics.median(serial) / statistics.median(pool),
        "import_s": statistics.median(imports),
    }
