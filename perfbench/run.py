#!/usr/bin/env python3
"""Benchmark of the wardrop library, run from the root of a source checkout.

    python3 perfbench/run.py --workload paper-sweeps --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` from fresh
interpreters, then passes of the workload's op list in a closed loop (one
serial client) for about ``--seconds``.  ``--trace 1`` runs one pass with spans
and counting cost subclasses, then the shorter ops again untraced, and
reports the per-layer metrics; the spans go to ``.perfbench/`` in the checkout.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
OUT_DIR = ".perfbench"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_times(workload: str, seed: int, root: Path) -> list[float]:
    """Fresh interpreter to ready (``import wardrop`` plus building the
    inputs), measured SETUP_REPEATS times from this process.  The
    SpeedSampler runs here meanwhile, on the other CPU, and scales each
    time by the kernel samples taken while it ran: a fresh interpreter runs
    cold and partly on two threads, so the speed of the loop that follows
    does not track it through the machine's fast swings."""
    from speed import SpeedSampler

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                end = time.perf_counter()
                proc.stdout.read()
                rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {rc} after {line!r}")
        times.append((end - start) * sampler.scale(start, end))
    return times


def _setup_probe(workload: str, seed: int) -> int:
    """The child side of ``_setup_times``."""
    import workloads

    workloads.build_ops(workload, seed)
    workloads.build_instances(workloads.PLAIN_KIT, workload, seed)
    print("ready", flush=True)
    return 0


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v[0]), "unit": v[1]} for name, v in metrics.items()},
    }))


def _fail_summary(outcomes) -> str:
    counts: dict[str, int] = {}
    for o in outcomes:
        if o is not None:
            counts[o] = counts.get(o, 0) + 1
    return ", ".join(f"{c}={n}" for c, n in sorted(counts.items())) or "none"


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "wardrop" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no wardrop sources under {root / 'src'}; "
                         "run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    setup = [] if args.trace else _setup_times(args.workload, args.seed, root)
    import harness

    ops = workloads.build_ops(args.workload, args.seed)
    instances = workloads.build_instances(workloads.PLAIN_KIT, args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, one serial client, closed loop")

    if not args.trace:
        passes = harness.run_closed_loop(ops, instances, args.seconds)
        outcomes = harness.failed_outcomes(passes)
        metrics = harness.end_to_end(passes, setup)
        print(f"  {len(passes)} passes; times scaled to the reference speed, median over passes; "
              "n = samples")
        for name, (value, unit, n) in metrics.items():
            print(f"  {name:16s} {value:14.6g} {unit:6s} n={n}")
        print(f"  failures: {_fail_summary(outcomes)}")
        _emit(sum(p.wrong for p in passes) == 0, len(outcomes),
              sum(o is not None for o in outcomes), {k: v[:2] for k, v in metrics.items()})
        return 0

    import tracer

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    t = tracer.Tracer()
    traced_instances = workloads.build_instances(tracer.counting_kit(t), args.workload, args.seed)
    traced = harness.run_pass(ops, traced_instances, t)
    # the overhead is measured on the ops a timed run repeats; the others run once
    untraced = harness.run_pass([op for op in ops if traced.op_times[op.id] <= args.seconds / 4], instances)
    cli = harness.cli_timings(root, out_dir)
    t.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = harness.per_layer(t, untraced, traced, cli)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  spans: {len(t.spans)}; traced pass {traced.op_time_s:.4g} s; "
          f"failures: {_fail_summary(r.outcome for r in traced.records)}")
    _emit(traced.wrong == 0, len(traced.records), traced.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
