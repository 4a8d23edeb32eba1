"""Games where the price of anarchy drains away as demand grows.

Six instance classes where PoA -> 1 at large demand: a bounded-cost path,
a constant-shifted affine game, plain affine costs, costs asymptotically
proportional to a common power law, costs with converging derivatives,
and a cost sandwiched between two parallel affine lines.  Each trend is
verified together with its hypothesis (the measured limit that puts the
instance in its class).
"""

import math

from wardrop import (
    Affine,
    TrendInstance,
    Monomial,
    bounded_path_experiment,
    build_parallel,
    designated_limit_instances,
    rv_poa_experiment,
    shift_experiment,
)

grid = tuple(10.0 ** (1.0 + 0.2 * i) for i in range(26))
insts = designated_limit_instances()


def show(name, rep):
    decay = f"{rep.decay_exponent:.2f}" if rep.decay_exponent else "n/a"
    print(f"  {name:28s} PoA(1e6) = {rep.final_poa:.8f}   "
          f"decay exponent ~{decay}   monotone tail: {rep.monotone_tail}")


print("PoA at the largest sampled demand (all must be <= 1.01):\n")

rep = bounded_path_experiment(insts["bounded-path"], grid)
print(f"  bounded-path: B = {rep.hypothesis['B']} (the flat road caps the equilibrium)")
show("bounded-path", rep)

shift = shift_experiment(build_parallel([Affine(0, 1), Affine(0, 2)]), (1.0, 3.0), grid)
print(f"\n  shifted-affine: level sandwich held at all demands: {shift.sandwich_ok}")
show("shifted-affine", shift.shifted)

cases = [
    TrendInstance("affine", insts["affine"], "affine"),
    TrendInstance("polynomial-over-common-rv", insts["polynomial-over-common-rv"],
                      "ratio-to-rv", reference=Monomial(1, 2), expected=(1.0, 3.0)),
    TrendInstance("derivative-limit", insts["derivative-limit"], "derivative",
                      expected=(2.0, math.inf)),
    TrendInstance("affine-sandwich", insts["affine-sandwich"], "sandwich",
                      sandwich=((0.0, 1.0, 1.0), (0.0, 0.0, 1.0))),
]
print()
for case in cases:
    rep = rv_poa_experiment(case, grid)
    show(case.name, rep)
    if "measured" in rep.hypothesis:
        measured = ["inf" if m > 100 else f"{m:.4f}" for m in rep.hypothesis["measured"]]
        print(f"      measured limits: {measured}")
