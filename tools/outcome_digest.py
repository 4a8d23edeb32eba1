"""Print one sha256 over every ``poa`` and ``poa_sweep`` outcome on the benchmark's ops.

    python tools/outcome_digest.py [--root CHECKOUT] [--ops WORKLOAD:SEED ...] [--lines]
    python tools/outcome_digest.py --families [--root CHECKOUT] [--lines]
    python tools/outcome_digest.py --general [--root CHECKOUT] [--lines]

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

With ``--families`` the digest is taken over the cost families instead: one
line per call of ``eval``, ``eval_right``, ``eval_log``, ``derivative_bounds``,
``generalized_inverse`` and ``primitive`` at a point, and of ``jump_levels`` and
``breakpoints_within`` on an interval, for every public family and each
one's ``marginal_function()``.  The points and the interval ends are seeded
log-uniform floats and a few fixed ones; for ``StepGeometric``, ``PwlSquare``
and the marginal of ``PwlSquare`` at a in {2, 3, 5, 1e10} they add every knot
a^k up to the last finite one, and for ``StepExp`` (factorial,
supergeometric at bases 2 and 1.01, and one explicit sequence) every knot
alpha_k up to the last finite one; then each knot's ``eval`` and
``eval_right`` (for ``StepExp`` the finite step values), and the float
neighbours of each of those.  Only the public API is called, so a
checkout whose families answer every call alike prints the same digest.

With ``--general`` the digest is taken over the general solver instead: one
line per call of ``poa``, ``wardrop_general`` and ``social_optimum`` on the
n x n grids of ``tests/test_equilibrium.py`` (n = 3..6, affine and BPR
costs, seeds 0-2, built by ``grid``) and on the braess, fork and smooth3
networks of ``CHECKOUT/tests/golden``, each at ``GENERAL_DEMANDS``: 729
outcomes, about 7 s.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
from pathlib import Path

DEFAULT_OPS = ("point-queries:71", "point-queries:72", "point-queries:73", "paper-sweeps:71", "general-net:71")
LATTICE_BASES = (2.0, 3.0, 5.0, 1e10)
POINT_METHODS = ("eval", "eval_right", "eval_log", "derivative_bounds", "generalized_inverse", "primitive")
INTERVAL_METHODS = ("jump_levels", "breakpoints_within")
GENERAL_DEMANDS = (0.3, 1.0, 3.0, 10.0, 100.0, 0.9, 1e-3, 1e3, 1e6)  # the tests' GRID_DEMANDS, then four more
GENERAL_GOLDENS = ("braess", "fork", "smooth3")


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


def _public_families():
    """(name, cost, knots) for one or more instances of every public family,
    each followed by its marginal where it has one; knots are the a^k of
    ``StepGeometric``, ``PwlSquare`` and the marginal of ``PwlSquare`` and
    the alpha_k (k >= 1) of ``StepExp``, else empty."""
    import wardrop as w

    costs = [
        w.Affine(1.0, 2.0), w.Affine(0.0, 1.0), w.Constant(3.0), w.Monomial(2.0, 3.0), w.Monomial(1.0, 0.5),
        w.Polynomial((1.0, 0.5, 2.0)), w.Polynomial((1.0, 0.0, 0.0, 0.0, 0.15)),
        # degree 1 and 2: the designated link, c1 = 0, an affine one, a signed zero, huge and tiny terms
        *(w.Polynomial(c) for c in ((0.0, 1.0, 3.0), (0.0, 0.0, 3.0), (2.0, 5.0), (0.0, -0.0, 1e-300),
                                    (1e300, 1.0, 1e-300))),
        w.SaturatingLinear(),
        w.ExpOverX(), w.StepExp(w.AlphaSequence("factorial")),
        w.StepExp(w.AlphaSequence("supergeometric", 2.0)), w.StepExp(w.AlphaSequence("supergeometric", 1.01)),
        w.StepExp(w.AlphaSequence("explicit", values=(0.5, 2.0, 2.5, 1e9, 1e300))),
        w.Shifted(w.Monomial(1.0, 2.0), 1.5), w.Shifted(w.StepGeometric(2.0), 1.0),
        *(family(a) for a in LATTICE_BASES for family in (w.StepGeometric, w.PwlSquare)),
    ]
    for cost in costs:
        knots = (_powers(cost.a) if isinstance(cost, (w.StepGeometric, w.PwlSquare))
                 else cost.alphas.knots_through(math.inf)[1:] if isinstance(cost, w.StepExp) else ())
        yield repr(cost), cost, knots
        try:
            yield f"{cost!r}.marginal", cost.marginal_function(), knots
        except w.UnsupportedCostError:
            pass


def _powers(a: float) -> list[float]:
    """Every power a^k that is a positive float."""
    knots, k = [], 0
    while (v := a**k) > 0.0:  # a**k for k < 0 down to the last that does not round to 0
        knots.append(v)
        k -= 1
    k = 1
    while True:
        try:
            knots.append(a**k)
        except OverflowError:
            break
        k += 1
    return knots


def _knot_points(cost, knots) -> list[float]:
    """The knots, each knot's ``eval`` and ``eval_right``, and the float
    neighbours of each of those."""
    values = []
    for q in knots:
        for method in (cost.eval, cost.eval_right):
            try:
                values.append(method(q))
            except Exception:  # past the float range: no value to probe
                pass
    return sorted({y for x in (*knots, *values) for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))})


def family_lines():
    """One line per call, naming the family, the method and its arguments, and the outcome."""
    rng = random.Random(38)
    seeded = [0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, math.e, 3.0, 10.0, 1e300, sys.float_info.max, math.inf,
              *(2.0 ** rng.uniform(-1074.0, 1024.0) for _ in range(2000))]
    intervals = [(0.0, math.inf), (0.0, sys.float_info.max), (1.0, 64.0), (3.0, 8.9),
                 *(tuple(sorted((2.0 ** rng.uniform(-1074.0, 1024.0), 2.0 ** rng.uniform(-1074.0, 1024.0))))
                   for _ in range(200)),
                 *((10.0**e, 10.0 ** (e + 10)) for e in range(-320, 300, 10))]
    for name, cost, knots in _public_families():
        points = seeded + _knot_points(cost, knots)
        for method in POINT_METHODS:
            for x in points:
                yield f"{name}.{method}({x!r})\t{_outcome(lambda: getattr(cost, method)(x))}\n"
        for method in INTERVAL_METHODS:
            for lo, hi in intervals:
                yield f"{name}.{method}({lo!r}, {hi!r})\t{_outcome(lambda: getattr(cost, method)(lo, hi))}\n"


def grid(n: int, cost: str, seed: int):
    """The n x n grid of ``tests/test_equilibrium.py::grid``: edges rightward
    and downward, corner to corner, cost parameters drawn within 10% of 1
    (``cost`` "affine" a + b x, or "bpr" t0 (1 + 0.15 x^4)), edge order shuffled."""
    from wardrop import Affine, Network, Polynomial
    from wardrop.network import Edge

    cells = [(n * i + j, n * i + j + d) for i in range(n) for j in range(n)
             for d, inside in ((1, j + 1 < n), (n, i + 1 < n)) if inside]
    draw = random.Random(seed)
    params = [(draw.uniform(0.9, 1.1), draw.uniform(0.9, 1.1)) for _ in cells]
    order = list(range(len(cells)))
    draw.shuffle(order)
    names = tuple(f"v{k}" for k in range(n * n))
    edges = tuple(Edge(f"e{e}", names[cells[e][0]], names[cells[e][1]]) for e in order)
    costs = tuple(Affine(*params[e]) if cost == "affine" else Polynomial((params[e][0], 0.0, 0.0, 0.0, 0.15 * params[e][0]))
                  for e in order)
    return Network(names, edges, costs, names[0], names[-1])


def general_lines(root: Path):
    """One line per general-solver call, naming the network, the demand and
    the solver, and the outcome."""
    from wardrop import poa, social_optimum, wardrop_general
    from wardrop.network import load_network

    nets = [(f"grid{n}-{cost}-{seed}", grid(n, cost, seed))
            for n in (3, 4, 5, 6) for cost in ("affine", "bpr") for seed in (0, 1, 2)]
    nets += [(name, load_network(str(root / "tests" / "golden" / f"{name}.json"))) for name in GENERAL_GOLDENS]
    for name, net in nets:
        for M in GENERAL_DEMANDS:
            for solve in (poa, wardrop_general, social_optimum):
                yield f"{name}@{M!r}/{solve.__name__}\t{_outcome(lambda: solve(net, M))}\n"


def digest(lines) -> tuple[str, int]:
    """The sha256 over ``lines``, and their count."""
    h, count = hashlib.sha256(), 0
    for line in lines:
        h.update(line.encode())
        count += 1
    return h.hexdigest(), count


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="the checkout whose src/ and perfbench/ to import")
    p.add_argument("--ops", nargs="+", default=list(DEFAULT_OPS), metavar="WORKLOAD:SEED")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--families", action="store_true",
                       help="digest the cost families' answers instead of the ops' outcomes")
    which.add_argument("--general", action="store_true",
                       help="digest the general solver's answers on grids and goldens instead")
    p.add_argument("--lines", action="store_true", help="print the lines the digest hashes instead of the digest")
    args = p.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    lines = family_lines() if args.families else general_lines(args.root) if args.general else outcome_lines(args.ops)
    if args.lines:
        count = 0
        for line in lines:
            sys.stdout.write(line)
            count += 1
    else:
        value, count = digest(lines)
        print(value)
    print(f"{count} outcomes from {Path(sys.modules['wardrop'].__file__).parent}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
