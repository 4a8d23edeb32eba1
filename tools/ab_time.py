"""Time one benchmark workload's ops on two checkouts in one process, interleaved op by op.

    python tools/ab_time.py A B [--workload general-net] [--seed 71] [--seconds 10]

It copies ``A/src/wardrop`` and ``B/src/wardrop`` into a temporary directory
as the packages ``wardrop_a`` and ``wardrop_b``, and builds the workload's
instances for each side from that side's own classes: ``perfbench/workloads.py``
of the checkout holding this script is loaded once per side with ``wardrop``
bound to that side's package, and its ``build_instances`` is given that
side's ``PLAIN_KIT``.  Each op makes one call, as in
``tools/outcome_digest.py``: ``poa(net, M)`` for a point op, ``poa_sweep``
for a sweep op.

First every op must give the same outcome on both sides: the ``repr`` of its
result, or its error's type name and text, with the package name stripped.
The script exits 1 naming the first op that differs.  Then each op runs in
A, B pairs (the side that goes first alternates) for its share of
``--seconds``, and the script prints, op by op, the least time of each side
in microseconds and the ratio B/A, then the sums over the ops.  Both sides
share the process, the interpreter and the machine's state at each moment,
so the ratio does not carry the drift between separate runs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SIDES = ("wardrop_a", "wardrop_b")


def load_side(tmp: Path, checkout: Path, name: str):
    """(package, workloads module) of one side: ``checkout``'s package
    copied as ``name``, and perfbench's workloads with ``wardrop`` bound to it."""
    shutil.copytree(checkout / "src" / "wardrop", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    pkg = importlib.import_module(name)
    for path in sorted((tmp / name).glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{name}.{path.stem}")
    saved = {k: m for k, m in sys.modules.items() if k == "wardrop" or k.startswith("wardrop.")}
    aliases = {"wardrop" + k[len(name):]: m for k, m in sys.modules.items() if k == name or k.startswith(name + ".")}
    for k in saved:
        del sys.modules[k]
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{name}", HERE / "perfbench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(workloads)
    finally:
        for k in aliases:
            del sys.modules[k]
        sys.modules.update(saved)
    return pkg, workloads


def op_call(pkg, workloads, instances, op):
    """The op's one call on one side, as a function of no arguments."""
    net = instances[op.instance].net
    if isinstance(op, workloads.SweepOp):
        return lambda: pkg.poa_sweep(net, op.lo, op.hi, samples_per_decade=op.per_decade,
                                     breakpoint_hints=op.hints, period_base=op.period_base)
    return lambda: pkg.poa(net, op.M)


def outcome(call, name: str) -> str:
    try:
        text = repr(call())
    except Exception as exc:  # an error is an outcome too
        text = f"{type(exc).__name__}: {exc}"
    return text.replace(name, "wardrop")


def least_times(calls, seconds: float) -> list[float]:
    """The least time in seconds of each call over alternating rounds, at
    least one, until ``seconds`` have passed; a call that raises is timed
    to its error."""
    best = [float("inf")] * len(calls)
    end, rounds = time.perf_counter() + seconds, 0
    while rounds == 0 or time.perf_counter() < end:
        for i in (range(len(calls)) if rounds % 2 == 0 else reversed(range(len(calls)))):
            t0 = time.perf_counter()
            try:
                calls[i]()
            except Exception:  # a failed op is an outcome, timed like an answer
                pass
            best[i] = min(best[i], time.perf_counter() - t0)
        rounds += 1
    return best


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="checkout A (its src/wardrop)")
    p.add_argument("b", type=Path, help="checkout B (its src/wardrop)")
    p.add_argument("--workload", default="general-net")
    p.add_argument("--seed", type=int, default=71)
    p.add_argument("--seconds", type=float, default=10.0, help="timing budget, shared evenly by the ops")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [load_side(Path(tmp), checkout.resolve(), name) for checkout, name in zip((args.a, args.b), SIDES)]
        finally:
            sys.path.remove(tmp)
    calls = []
    for pkg, workloads in sides:  # each side's ops, of its own classes
        ops = workloads.build_ops(args.workload, args.seed)
        instances = workloads.build_instances(workloads.PLAIN_KIT, args.workload, args.seed)
        calls.append([op_call(pkg, workloads, instances, op) for op in ops])
    for op, a, b in zip(ops, *calls):
        if outcome(a, SIDES[0]) != outcome(b, SIDES[1]):
            print(f"{op.id}: the outcomes differ", file=sys.stderr)
            return 1

    print(f"A = {args.a}\nB = {args.b}\n{args.workload} seed {args.seed}: least time per op over alternating A, B calls")
    print(f"{'op':<24}{'A us':>12}{'B us':>12}{'B/A':>8}")
    totals = [0.0, 0.0]
    for op, a, b in zip(ops, *calls):
        ta, tb = least_times([a, b], args.seconds / len(ops))
        totals[0] += ta
        totals[1] += tb
        print(f"{op.id:<24}{ta * 1e6:>12.1f}{tb * 1e6:>12.1f}{tb / ta:>8.3f}")
    print(f"{'total':<24}{totals[0] * 1e6:>12.1f}{totals[1] * 1e6:>12.1f}{totals[1] / totals[0]:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
