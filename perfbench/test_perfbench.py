"""Tests of the benchmark itself: op lists, the gate, the runner and the tracer.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import wardrop  # noqa: E402
from wardrop.network import network_to_spec  # noqa: E402

import harness  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _mix(ops):
    return Counter((type(op).__name__, op.instance, op.check, getattr(op, "edge", False)) for op in ops)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_op_list(workload):
    assert wl.build_ops(workload, 7) == wl.build_ops(workload, 7)


def test_new_seed_same_mix_different_demands():
    a, b = wl.build_ops("point-queries", 1), wl.build_ops("point-queries", 2)
    assert _mix(a) == _mix(b)
    assert sorted(op.M for op in a) != sorted(op.M for op in b)
    assert Counter(op.instance for op in a) == Counter({n: wl.OPS_PER_INSTANCE for n in wl.POINT_INSTANCES})
    assert sum(op.edge for op in a) == len(a) // 10

    sweeps = {seed: wl.build_ops("paper-sweeps", seed) for seed in range(6)}
    assert len({tuple(op.lo for op in ops[:3]) for ops in sweeps.values()}) > 1
    assert all(ops[0] == sweeps[0][0] for ops in sweeps.values())  # the README sweep is fixed

    assert _mix(wl.build_ops("general-net", 1)) == _mix(wl.build_ops("general-net", 2))
    assert wl.grid_layout(1) != wl.grid_layout(2)


def test_instances_match_the_library():
    plain = wl.build_instances(wl.PLAIN_KIT, "point-queries")
    library = dict(wardrop.designated_limit_instances())
    library.update({
        "pigou": wardrop.pigou(),
        "step:2": wardrop.step_game(2.0),
        "pwl:3": wardrop.pwl_game(3.0),
        "exp:factorial": wardrop.exp_game(wardrop.AlphaSequence("factorial")),
    })
    for name, net in library.items():
        assert network_to_spec(plain[name].net) == network_to_spec(net), name


def test_grids_are_isomorphic_across_seeds():
    grids = [wl.build_instances(wl.PLAIN_KIT, "general-net", seed)["grid-affine"].net for seed in (1, 2)]
    assert grids[0].n_paths == grids[1].n_paths == 6
    costs = [sorted(network_to_spec(g)["edges"], key=lambda e: sorted(e["cost"].items())) for g in grids]
    assert [e["cost"] for e in costs[0]] == [e["cost"] for e in costs[1]]


@pytest.mark.parametrize("op", [
    wl.PoaOp("p", "pigou", 0.8, "pigou"),
    wl.PoaOp("s", "step:3", 20.0, "step"),
    wl.PoaOp("a", "affine", 5.0, "affine"),
    wl.PoaOp("e", "exp:factorial", (24.0 + 120.0) * (1.0 + wl.EXP_BREAKPOINT_OFFSET), "exp_breakpoint"),
])
def test_gate_flags_planted_errors(op):
    inst = wl.build_instances(wl.PLAIN_KIT, "point-queries")[op.instance]
    result = wardrop.poa(inst.net, op.M)
    assert wl.check_poa(op, inst, result) is None
    off = dataclasses.replace(result, poa=result.poa * (1.0 + 1e-3) if op.check != "exp_breakpoint" else result.poa * 1.02)
    assert wl.check_poa(op, inst, off) == "RefMismatch"
    assert wl.check_poa(op, inst, dataclasses.replace(result, poa=math.nan)) == "NaN"
    assert wl.check_poa(op, inst, dataclasses.replace(result, poa=0.5)) == "BelowOne"


def test_gate_flags_a_residual_above_its_bound():
    op = wl.PoaOp("x", "pigou", 3.0, "pigou")
    inst = wl.build_instances(wl.PLAIN_KIT, "point-queries")["pigou"]
    result = wardrop.poa(inst.net, op.M)
    eq = dataclasses.replace(result.equilibrium, residual=1e-6)
    assert wl.check_poa(op, inst, dataclasses.replace(result, equilibrium=eq)) == "ResidualAboveBound"


def test_references_match_the_closed_forms_they_restate():
    assert wl.pigou_poa(1.0) == pytest.approx(4.0 / 3.0)
    assert wl.braess_affine_poa(1.0) == pytest.approx(4.0 / 3.0)
    assert wl.affine_parallel_poa([(0.0, 1.0), (0.0, 1.0)], 3.0) == pytest.approx(1.0)
    report = wardrop.exp_game_poa_near_breakpoint(wardrop.AlphaSequence("factorial"), 4)
    M = (24.0 + 120.0) * (1.0 + wl.EXP_BREAKPOINT_OFFSET)
    assert wl.exp_breakpoint_poa(M) == pytest.approx(report.closed_form)


def test_raising_op_is_counted_not_propagated():
    instances = wl.build_instances(wl.PLAIN_KIT, "point-queries")
    instances["broken"] = wl.Instance(net=object(), route="marginal")
    ops = [
        wl.PoaOp("bad", "broken", 1.0),
        wl.PoaOp("neg", "pigou", -1.0),
        wl.PoaOp("good", "pigou", 2.0, "pigou"),
    ]
    result = harness.run_pass(ops, instances)
    assert [r.outcome for r in result.records] == ["OtherException", "DomainError", None]
    assert result.failed == 2 and result.wrong == 0


def test_edge_wrong_answers_are_failures_but_keep_the_run_correct():
    records = [harness.Record("a", "RefMismatch", edge=True), harness.Record("b", None)]
    assert harness.PassResult({}, records).failed == 1
    assert harness.PassResult({}, records).wrong == 0
    assert harness.PassResult({}, [harness.Record("c", "RefMismatch")]).wrong == 1


def test_counting_kit_keeps_routing_and_answers():
    t = tracer.Tracer()
    traced = wl.build_instances(tracer.counting_kit(t), "point-queries")
    plain = wl.build_instances(wl.PLAIN_KIT, "point-queries")
    for name in wl.POINT_INSTANCES:
        M = 40.0 if name == "exp:factorial" else 3.7
        a, b = wardrop.poa(plain[name].net, M), t.span("asymptotics.poa", name, wardrop.poa, traced[name].net, M)
        assert (a.method, a.poa) == (b.method, b.poa), name
    assert sum(s.leaves.get(tracer.GINV, (0, 0))[0] for s in t.spans) > 0
    assert sum(s.leaves.get(tracer.EVAL_LOG, (0, 0))[0] for s in t.spans) > 0
    assert sum(s.leaves.get(tracer.MARGINAL_GINV, (0, 0))[0] for s in t.spans) > 0
    assert sum(s.evals for s in t.spans) > 0


def test_self_time_subtracts_children_and_leaves():
    t = tracer.Tracer()

    def inner():
        return t.leaf("costs.generalized_inverse", sum, range(1000))

    t.span("outer", "op", lambda: (t.span("child", "op", inner), t.leaf("x", sum, range(10))))
    outer, child = t.spans
    assert child.parent == 0 and outer.children_ns == child.duration_ns
    assert outer.self_ns == outer.duration_ns - child.duration_ns - outer.leaves["x"][1]
    assert child.leaves["costs.generalized_inverse"][0] == 1
    assert child.self_ns == child.duration_ns - child.leaves["costs.generalized_inverse"][1]


def test_per_layer_reports_every_metric_and_adds_up():
    ops = wl.build_ops("paper-sweeps", 3)
    ops = [op for op in ops if op.instance == "pwl:2"]
    instances = wl.build_instances(wl.PLAIN_KIT, "paper-sweeps")
    untraced = harness.run_pass(ops, instances)
    t = tracer.Tracer()
    traced = harness.run_pass(ops, wl.build_instances(tracer.counting_kit(t), "paper-sweeps"), t)
    cli = {"readme_sweep_s": 1.0, "pool_speedup": 1.0, "import_s": 1.0}
    m = harness.per_layer(t, untraced, traced, cli)
    assert set(m) == set(harness.PER_LAYER_UNITS)
    assert m["costs.ginv_calls_per_value"][0] > 0 and m["optimum.pwl_us"][0] > 0
    assert m["asymptotics.sweep_self_frac"][0] < 1.0  # a small difference of two timings
    # poa = its equilibrium and optimum calls + its own self time, op by op
    poa_ns = [s.duration_ns for s in t.spans if s.name == "asymptotics.poa"]
    assert m["asymptotics.poa_us"][0] == pytest.approx(sum(poa_ns) / len(poa_ns) * 1e-3)


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = harness.PassResult({"a": 0.5, "b": 0.5}, [harness.Record("a", None), harness.Record("b", "NaN")])
    reported = {name: unit for name, (_, unit, _) in harness.end_to_end([fake], [0.1]).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == reported
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_closed_loop_repeats_short_ops_and_keeps_the_median_scaled_time():
    instances = wl.build_instances(wl.PLAIN_KIT, "point-queries")
    ops = [wl.PoaOp("a", "pigou", 2.0, "pigou"), wl.PoaOp("b", "step:2", 5.0, "step")]
    passes = harness.run_closed_loop(ops, instances, seconds=0.05)
    assert len(passes) >= harness.MIN_PASSES
    assert all(set(p.op_times) == set(p.op_scale) == {"a", "b"} for p in passes)
    m = harness.end_to_end(passes, [0.1, 0.3, 0.2])
    typical = sum(statistics.median(p.scaled(k) for p in passes) for k in ("a", "b"))
    assert m["wall_s"][0] == pytest.approx(typical)
    assert m["setup_s"][0] == 0.2
    assert m["fail_frac"][0] == 0.0
    # an op slower than a quarter of the budget runs once
    assert len(harness.run_closed_loop(ops, instances, seconds=0.0)) == 1


def test_speed_sampler_scales_a_call_by_the_kernel_times_around_and_during_it():
    sampler = speed.SpeedSampler()
    nominal = speed.CALIB_NOMINAL_S
    sampler.samples = [(1.0, nominal), (2.0, 2.0 * nominal), (3.0, 4.0 * nominal), (4.0, nominal)]
    # a short call between two samples: the one before and the one after
    assert sampler.scale(2.1, 2.2) == pytest.approx(1.0 / 3.0)
    # a long call: every sample during it, and the nearest on each side
    assert sampler.scale(1.5, 3.5) == pytest.approx(4.0 / 8.0)
    assert sampler.scale() == pytest.approx(4.0 / 8.0)


def test_speed_sampler_samples_inside_a_long_call_and_leaves_its_time_out():
    def spin():  # 0.15 s of Python bytecode, so the handler gets to run
        stop = time.perf_counter() + 0.15
        while time.perf_counter() < stop:
            pass

    with speed.SpeedSampler() as sampler:
        dt, _, _, (start, end) = harness._call(None, "", "", spin)
    kernels = [k for t, k in sampler.samples if start < t < end]
    assert len(kernels) >= 3
    assert dt <= end - start - sum(kernels)
    assert speed.SpeedSampler.active is None


def test_failure_count_does_not_depend_on_the_number_of_passes():
    first = harness.PassResult({"a": 1.0, "b": 1.0}, [
        harness.Record("a", None, share=0.5), harness.Record("a", "NaN", share=0.5), harness.Record("b", None),
    ])
    later = harness.PassResult({"a": 1.0}, [harness.Record("a", "NaN", share=0.5), harness.Record("a", None, share=0.5)])
    assert harness.failed_outcomes([first]) == [None, "NaN", None]
    # a failure only a later pass saw counts once, at its record of the first pass
    assert harness.failed_outcomes([first, later, later]) == ["NaN", "NaN", None]


def test_sweep_gate_flags_planted_errors():
    op = next(op for op in wl.build_ops("paper-sweeps", 1) if op.instance == "step:2")
    net = wl.build_instances(wl.PLAIN_KIT, "paper-sweeps")[op.instance].net
    curve = wardrop.poa_sweep(net, op.lo, op.hi, samples_per_decade=op.per_decade,
                              breakpoint_hints=op.hints, period_base=op.period_base)
    report = wardrop.extremes_estimate(curve)
    outcomes, verdict = wl.check_sweep(op, net, curve, report)
    assert verdict is None and set(outcomes) == {None} and len(outcomes) == len(curve.samples)
    off = dataclasses.replace(report, limsup_est=report.limsup_est * (1.0 + 1e-3))
    assert wl.check_sweep(op, net, curve, off)[1] == "RefMismatch"
    samples = list(curve.samples)
    i = len(samples) // 3
    j = next(j for j in range(i + 1, len(samples)) if wl._step_reference(2.0, samples[j].M))
    samples[i] = dataclasses.replace(samples[i], poa=math.nan)
    samples[j] = dataclasses.replace(samples[j], poa=samples[j].poa * (1.0 + 1e-3))
    bad = wl.check_sweep(op, net, dataclasses.replace(curve, samples=tuple(samples)), report)[0]
    assert (bad[i], bad[j]) == ("NaN", "RefMismatch")
