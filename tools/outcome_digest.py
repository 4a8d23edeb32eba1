"""Print one sha256 over every ``poa`` and ``poa_sweep`` outcome on the benchmark's ops.

    python tools/outcome_digest.py [--root CHECKOUT] [--ops WORKLOAD:SEED ...] [--lines]

It imports ``wardrop`` from ``CHECKOUT/src`` and the op lists and networks
from ``CHECKOUT/perfbench/workloads.py``, which it only reads; CHECKOUT is
the checkout holding this script unless given.  Each op makes one call, as
the benchmark's timed runs make it: ``poa(net, M)`` for a point op,
``poa_sweep(net, lo, hi, ...)`` for a sweep op.  Its outcome is the ``repr``
of the result, or the error's type name and text.  The digest is taken over
one line per op, its id and its outcome, in op order, so two checkouts that
print the same digest give every op the same answer to the last bit, or
fail it with the same error.

The default ops are point-queries at seeds 71, 72 and 73, paper-sweeps at 71
and general-net at 71: 6314 outcomes.  Only the digest goes to standard
output, as one line of 64 hex digits; the outcome count goes to standard
error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

DEFAULT_OPS = ("point-queries:71", "point-queries:72", "point-queries:73", "paper-sweeps:71", "general-net:71")


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # an error is an outcome too
        return f"{type(exc).__name__}: {exc}"


def outcome_lines(ops: list[str]):
    """One line per op of each WORKLOAD:SEED, its id and its outcome, in op order."""
    import workloads
    from wardrop import poa, poa_sweep

    for spec in ops:
        workload, seed = spec.rsplit(":", 1)
        instances = workloads.build_instances(workloads.PLAIN_KIT, workload, int(seed))
        for op in workloads.build_ops(workload, int(seed)):
            net = instances[op.instance].net
            if isinstance(op, workloads.SweepOp):
                outcome = _outcome(lambda: poa_sweep(net, op.lo, op.hi, samples_per_decade=op.per_decade,
                                                     breakpoint_hints=op.hints, period_base=op.period_base))
            else:
                outcome = _outcome(lambda: poa(net, op.M))
            yield f"{spec}/{op.id}\t{outcome}\n"


def digest(ops: list[str]) -> tuple[str, int]:
    """The sha256 over the outcomes of every op of each WORKLOAD:SEED, and their count."""
    h, count = hashlib.sha256(), 0
    for line in outcome_lines(ops):
        h.update(line.encode())
        count += 1
    return h.hexdigest(), count


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="the checkout whose src/ and perfbench/ to import")
    p.add_argument("--ops", nargs="+", default=list(DEFAULT_OPS), metavar="WORKLOAD:SEED")
    p.add_argument("--lines", action="store_true", help="print the lines the digest hashes instead of the digest")
    args = p.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    if args.lines:
        count = 0
        for line in outcome_lines(args.ops):
            sys.stdout.write(line)
            count += 1
    else:
        value, count = digest(args.ops)
        print(value)
    print(f"{count} outcomes from {Path(sys.modules['wardrop'].__file__).parent}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
