import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import wardrop
from wardrop.cli import main
from wardrop.network import load_network, network_to_spec
from wardrop.instances import pigou

from test_golden_cli import _refuse_constant


PIGOU_SPEC = {
    "vertices": ["s", "t"],
    "edges": [
        {"id": "e1", "tail": "s", "head": "t", "cost": {"family": "affine", "a": 0, "b": 1}},
        {"id": "e2", "tail": "s", "head": "t", "cost": {"family": "constant", "value": "1"}},
    ],
    "source": "s",
    "sink": "t",
}


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_pigou_from_file(tmp_path, capsys):
    net_file = tmp_path / "pigou.json"
    net_file.write_text(json.dumps(PIGOU_SPEC))
    code, out, _ = _run(["solve", "--network", str(net_file), "--demand", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["flows"] == [1.0, 0.0]
    assert payload["lambda"]["value"] == 1.0


def _pigou_with(cost: dict) -> dict:
    """PIGOU_SPEC with ``cost`` on its first link."""
    spec = json.loads(json.dumps(PIGOU_SPEC))
    spec["edges"][0]["cost"] = cost
    return spec


@pytest.mark.parametrize("cost", [
    {"family": "affine", "a": True, "b": False},
    {"family": "polynomial", "coefficients": [False, True]},
    {"family": "step_exp", "alpha": {"values": [True, 3, 30]}},
], ids=["affine", "polynomial", "alpha"])
def test_json_booleans_are_not_numbers(cost, tmp_path, capsys):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(_pigou_with(cost)))
    code, out, err = _run(["poa", "--network", str(net_file), "--demand", "1"], capsys)
    assert (code, out) == (2, "")
    assert "got True" in err or "got False" in err


@pytest.mark.parametrize("token, shown", [("abc", "'abc'"), ("1e309", "'1e309'"), (True, "True"), ([], "[]")])
def test_a_bad_number_is_named_on_stderr(token, shown, tmp_path, capsys):
    # every constructor refuses a non-finite parameter too, but only the
    # parser sees the token the file holds
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(_pigou_with({"family": "affine", "a": token, "b": 1})))
    code, out, err = _run(["poa", "--network", str(net_file), "--demand", "1"], capsys)
    assert (code, out) == (2, "")
    assert f"got {shown}" in err and "Traceback" not in err


def test_solve_named_instance(capsys):
    code, out, _ = _run(["solve", "--network", "step:2", "--demand", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["flows"] == pytest.approx([3.0, 2.0], abs=1e-9)
    assert payload["weq"]["value"] == pytest.approx(13.0)


def test_solve_log_domain(capsys):
    code, out, _ = _run(["solve", "--network", "exp:factorial", "--demand", "31"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["weq"]["log"] == pytest.approx(math.log(31) + 24 - math.log(24))


FORK = str(Path(__file__).resolve().parent / "golden" / "fork.json")


@pytest.mark.parametrize("network, demand", [
    ("pigou", "1"), ("step:2", "5"), ("pwl:2", "5"),
    ("exp:factorial", "31"), ("exp:factorial", "1000"), (FORK, "3"),
])
def test_solve_and_poa_print_the_same_equilibrium_cost(network, demand, capsys):
    code, solved, _ = _run(["solve", "--network", network, "--demand", demand], capsys)
    assert code == 0
    code, poa, _ = _run(["poa", "--network", network, "--demand", demand], capsys)
    assert code == 0
    assert json.loads(solved)["weq"] == json.loads(poa)["weq"]


@pytest.mark.parametrize("argv", [
    ["solve", "--network", "exp:factorial", "--demand", "31", "--log-domain"],
    ["sweep", "--network", "step:2", "--from", "4", "--to", "64", "--period-base", "7"],
])
def test_removed_options_are_usage_errors(argv, capsys):
    # the solver is chosen from the network, and sweep never prints periods
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_opt_methods(capsys):
    code, out, _ = _run(["opt", "--network", "step:2", "--demand", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"]["value"] == pytest.approx(20.0)
    assert payload["method"] == "step-interval"
    code, out, _ = _run(
        ["opt", "--network", "pigou", "--demand", "1", "--method", "brute",
         "--resolution", "801"],
        capsys,
    )
    payload = json.loads(out)
    assert payload["cost"]["value"] == pytest.approx(0.75, abs=1e-6)


def test_poa_pigou(capsys):
    code, out, _ = _run(["poa", "--network", "pigou", "--demand", "1"], capsys)
    assert code == 0
    assert json.loads(out)["poa"] == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_sweep_csv_and_extremes(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, _, _ = _run(
        ["sweep", "--network", "step:2", "--from", "4", "--to", "64",
         "--per-decade", "48", "--jobs", "1", "--out", str(curve)],
        capsys,
    )
    assert code == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "M,weq,opt,poa,method,flag"
    assert len(lines) > 40
    code, out, _ = _run(
        ["extremes", "--curve", str(curve), "--period-base", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["limsup_estimate"] == pytest.approx(1.2, abs=1e-3)
    assert payload["liminf_estimate"] == pytest.approx(1.0, abs=1e-9)


# the README sweep's CSV as each demand's cold level searches wrote it
README_SWEEP_SHA256 = "4eb653883a7093e8da9c49194562e75efc0a355adf89ffc2b3767a8b28d823e0"


@pytest.mark.parametrize("jobs", [["--jobs", "1"], [], ["--jobs", "2"]], ids=["jobs-1", "default-jobs", "jobs-2"])
def test_readme_sweep_csv_is_pinned(jobs, tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, _, _ = _run(["sweep", "--network", "step:3", "--from", "6", "--to", "486",
                       "--per-decade", "512", *jobs, "--out", str(curve)], capsys)
    assert code == 0
    assert hashlib.sha256(curve.read_bytes()).hexdigest() == README_SWEEP_SHA256


@pytest.mark.parametrize("jobs, expected", [([], 1), (["--jobs", "2"], 2)], ids=["default", "jobs-2"])
def test_sweep_runs_serially_unless_given_jobs(jobs, expected, monkeypatch, capsys):
    # a pool of cpu_count() workers was slower than one process on the README sweep
    from wardrop import asymptotics

    seen, sweep = [], asymptotics.poa_sweep
    monkeypatch.setattr(asymptotics, "poa_sweep", lambda *a, **kw: seen.append(kw["jobs"]) or sweep(*a, **kw))
    code, _, _ = _run(["sweep", "--network", "pigou", "--from", "1", "--to", "2", "--per-decade", "4", *jobs], capsys)
    assert code == 0 and seen == [expected]


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_refuses_jobs_below_one(jobs, capsys):
    # both once exited 0 after a serial sweep
    code, out, err = _run(["sweep", "--network", "pigou", "--from", "1", "--to", "2", "--per-decade", "4",
                           "--jobs", jobs], capsys)
    assert code == 3 and not out and "jobs must be None or an int >= 1" in err


@pytest.mark.parametrize("M", ["-1", "0", "nan", "inf", "-inf"])
def test_extremes_rejects_a_curve_demand_outside_the_domain(tmp_path, capsys, M):
    # a negative M once reached log() in the period index as a traceback,
    # and M = 0 was reported as an underflow
    curve = tmp_path / "curve.csv"
    curve.write_text(f"M,weq,opt,poa,method,flag\n{M},1,1,1.0,bisection,\n8,1,1,1.0,bisection,\n")
    code, _, err = _run(["extremes", "--curve", str(curve), "--period-base", "2"], capsys)
    assert code == 3
    assert f"demand must be a finite M > 0, got {float(M)!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("base", ["0.5", "1", "inf", "nan"])
def test_extremes_rejects_a_period_base_outside_the_domain(tmp_path, base):
    # 0.5 once looped forever in the period index, hence a child with a timeout;
    # 1 was a ZeroDivisionError traceback
    curve = tmp_path / "curve.csv"
    curve.write_text("M,weq,opt,poa,method,flag\n5,1,1,1.0,bisection,\n9,1,1,1.0,bisection,\n")
    run = _run_child(["extremes", "--curve", str(curve), "--period-base", base], timeout=60)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == f"solver error: period base must be a finite a > 1, got {float(base)!r}\n"


def test_extremes_needs_at_least_one_period(tmp_path, capsys):
    # a curve with no full period once gave "max() arg is an empty sequence"
    curve = tmp_path / "curve.csv"
    curve.write_text("M,weq,opt,poa,method,flag\n5,1,1,1.0,bisection,\n6,1,1,1.0,bisection,\n")
    code, out, err = _run(["extremes", "--curve", str(curve), "--period-base", "2",
                           "--periods-required", "0"], capsys)
    assert (code, out) == (3, "")
    assert err == "solver error: periods_required must be at least 1, got 0\n"


def test_extremes_past_the_last_window_start_covers_no_period(tmp_path, capsys):
    # the window index of M_lo = 1e305 in base 1e10 was once a range error
    curve = tmp_path / "curve.csv"
    curve.write_text("M,weq,opt,poa,method,flag\n1e305,1,1,1.0,bisection,\n1e306,1,1,1.0,bisection,\n")
    code, out, err = _run(["extremes", "--curve", str(curve), "--period-base", "1e10"], capsys)
    assert (code, out) == (3, "")
    assert err == "solver error: curve covers 0 full periods; 3 required\n"


def test_brute_force_at_a_million_lattice_flows(capsys):
    # once "division by zero ... the demand is below the range native floats resolve"
    code, out, err = _run(["opt", "--network", "pigou", "--demand", "1", "--method", "brute",
                           "--resolution", "1000000"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert abs(payload["cost"]["value"] - 0.75) <= payload["resolution_bound"] < 1e-9


@pytest.mark.parametrize("resolution", ["1", "0", "-3"])
def test_brute_force_needs_two_grid_points(resolution, capsys):
    # 0 and -3 once were ValueError tracebacks, and 1 blamed the demand
    code, out, err = _run(["opt", "--network", "pigou", "--demand", "1", "--method", "brute",
                           "--resolution", resolution], capsys)
    assert (code, out) == (3, "")
    assert err == ("solver error: brute force needs resolution >= 2 and zoom_rounds >= 0, "
                   f"got {resolution} and 3\n")


def test_sweep_log_domain_columns(tmp_path, capsys):
    curve = tmp_path / "log_curve.csv"
    code, _, _ = _run(
        ["sweep", "--network", "exp:factorial", "--from", "13", "--to", "1000",
         "--per-decade", "12", "--jobs", "1", "--out", str(curve)],
        capsys,
    )
    assert code == 0
    header = curve.read_text().splitlines()[0]
    assert header == "M,log_weq,log_opt,poa,method,flag"


def test_sweep_usage_error(capsys):
    code, _, err = _run(
        ["sweep", "--network", "pigou", "--from", "10", "--to", "1"], capsys
    )
    assert code == 1
    assert "usage" in err.lower()


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [,]}')
    code, _, err = _run(["solve", "--network", str(bad), "--demand", "1"], capsys)
    assert code == 2
    assert "line 1" in err and "column" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = _run(["solve", "--network", "nope.json", "--demand", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("name", ["step:abc", "pwl:x", "exp:supergeometric:zz"])
def test_malformed_named_instance_is_input_error(name, capsys):
    # a bare float() on the parameter once ended in a ValueError traceback
    code, out, err = _run(["poa", "--network", name, "--demand", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: no such network file or named instance: {name!r}\n"


@pytest.mark.parametrize("spec", [
    {"vertices": ["s"], "edges": [], "source": "s", "sink": "s"},
    {"vertices": ["s", "t"], "edges": [{"id": "e1", "tail": "s", "head": "t", "cost": {"family": "affine", "a": 0, "b": 1}}],
     "source": "s", "sink": "s"},
], ids=["no-edges", "one-edge"])
def test_source_equal_to_sink_is_an_input_error(spec, tmp_path, capsys):
    # once a ValueError traceback from the level search (no edges) or a 0/0
    # social cost at solve time (one edge): its only path is the empty one
    path = tmp_path / "st.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(["poa", "--network", str(path), "--demand", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: source and sink must differ, both are 's'\n"


def test_sweep_with_no_samples_per_decade_is_refused(capsys):
    # it once exited 0 with the two ends as its whole curve
    code, out, err = _run(["sweep", "--network", "pigou", "--from", "1", "--to", "10", "--per-decade", "0"], capsys)
    assert (code, out) == (3, "")
    assert err == "solver error: samples per decade must be a finite number >= 1, got 0\n"


def test_solver_error_exit_code(capsys):
    # demand past the factorial bracket lattice, 2 * 170! = 1.5e307, is a numeric-domain error
    code, _, err = _run(["solve", "--network", "exp:factorial", "--demand", "1e308"], capsys)
    assert code == 3
    assert "solver error" in err


@pytest.mark.parametrize("demand", ["1e300", "1e-300"])
def test_out_of_range_poa_is_a_solver_error(demand, capsys):
    network = "step:2" if demand == "1e300" else "pigou"
    code, out, err = _run(["poa", "--network", network, "--demand", demand], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("solver error:") and "Traceback" not in err
    assert f"M={float(demand)!r}" in err


@pytest.mark.parametrize("argv", [
    ["opt", "--network", "step:2", "--demand", "1e300"],
    ["solve", "--network", "step:2", "--demand", "1e300"],
    ["solve", "--network", "pigou", "--demand", "inf"],
    ["opt", "--network", "pigou", "--demand", "inf"],
    ["solve", "--network", "pigou", "--demand", "nan"],
    ["opt", "--network", "pigou", "--demand", "nan"],
], ids=" ".join)
def test_out_of_range_demand_is_a_solver_error_everywhere(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("solver error:") and "Traceback" not in err
    assert "Infinity" not in out + err
    demand = float(argv[-1])
    if math.isfinite(demand):
        assert f"float overflow at M={demand!r}" in err
    else:
        assert f"finite M > 0, got {demand!r}" in err


def test_sweep_records_overflowing_samples(capsys):
    code, out, err = _run(
        ["sweep", "--network", "step:2", "--from", "1e290", "--to", "1e300",
         "--per-decade", "4", "--jobs", "1"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "M,weq,opt,poa,method,flag"
    assert "samples failed:" in err and "Traceback" not in err
    assert "float overflow at M=" in err


def test_overflowing_sweep_fails_like_scalar_poa(capsys):
    # the sweep hands poa Python floats, so numpy scalar overflow neither
    # warns nor becomes a nan PoA: each sample fails as a scalar poa would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(
            ["sweep", "--network", "step:2", "--from", "1e290", "--to", "1e300",
             "--per-decade", "16", "--jobs", "1"],
            capsys,
        )
    assert code == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    header, *failures = err.splitlines()
    assert header.endswith("samples failed:") and len(failures) == int(header.split()[0])
    for line in failures:
        M = float(line.split(":")[0].strip().removeprefix("M="))
        assert line.endswith(
            f"float overflow at M={M!r}: the demand is above the range native floats resolve"
        )


@pytest.mark.parametrize("argv", [
    ["sweep", "--network", "pigou", "--from", "1e306", "--to", "1.7e308", "--per-decade", "4"],
    ["extremes", "--curve", "CURVE", "--period-base", "1e10", "--periods-required", "1"],
    ["sweep", "--network", "step:2", "--from", "1e307", "--to", "1.7e308", "--per-decade", "4"],
    ["sweep", "--network", "pwl:1e10", "--from", "1e290", "--to", "1e300", "--per-decade", "1"],
    ["repro", "thm5", "--a", "1e100"],
    ["repro", "thm6", "--a", "1e200"],
], ids=["sweep-pigou-decades", "extremes-a1e10", "sweep-step2-hints", "sweep-pwl1e10-hints",
        "repro-thm5", "repro-thm6"])
def test_the_top_of_the_float_range_answers_or_refuses(argv, tmp_path, capsys):
    # each once raised a bare OverflowError from a power past the float range:
    # a period window, a breakpoint hint, 2 a^5 or the pwl constants
    curve = tmp_path / "curve.csv"
    curve.write_text("M,weq,opt,poa,method,flag\n1e290,1,1,1.0,bisection,\n"
                     "1e300,1,1,1.0,bisection,\n1e308,1,1,1.0,bisection,\n")
    code, _, err = _run([str(curve) if arg == "CURVE" else arg for arg in argv], capsys)
    assert code in (0, 3) and "Traceback" not in err
    assert code == 0 or err.startswith("solver error:")


def test_values_past_the_float_range_print_as_null(capsys):
    # the step optimum's certificate squares y past the float range on some
    # pieces: those values print as null, and the output is strict JSON
    code, out, _ = _run(["opt", "--network", "step:2", "--demand", "1.6e154"], capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert [row["j"] for row in payload["certificate"] if row["value"] is None] == [*range(503, 509), 512]
    assert math.isfinite(payload["cost"]["value"])


def _run_child(argv, timeout=None):
    env = dict(os.environ, PYTHONPATH=_child_pythonpath())
    return subprocess.run(
        [sys.executable, "-m", "wardrop", *argv], capture_output=True, text=True, cwd="/", env=env,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "spec",
    [
        {"vertices": ["s", "t"], "edges": 5, "source": "s", "sink": "t"},
        [1, 2],
        {
            "vertices": ["s", "t"],
            "edges": [{"id": "e1", "tail": "s", "head": "t", "cost": "x"}],
            "source": "s",
            "sink": "t",
        },
    ],
    ids=["edges-not-a-list", "not-an-object", "cost-not-an-object"],
)
def test_malformed_network_spec_is_an_input_error(spec, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    run = _run_child(["poa", "--network", str(path), "--demand", "1"])
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("input error: malformed network spec:")
    assert "Traceback" not in run.stderr


def test_a_supergeometric_base_past_the_term_cap_is_an_input_error():
    # its table would hold about 1.8e9 terms; the sequence refuses the base
    run = _run_child(["poa", "--network", "exp:supergeometric:1.0000000000000002", "--demand", "1e300"], timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("input error:") and "Traceback" not in run.stderr


def test_rv_subcommand_is_gone():
    # the suite lives on as `wardrop repro rv`
    with pytest.raises(SystemExit) as exc:
        main(["rv"])
    assert exc.value.code == 1


def test_usage_error_exit_code_for_bad_flags():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--demand", "1"])  # --network missing
    assert exc.value.code == 1


def test_repro_step_target_reports_limsup(capsys):
    code, out, _ = _run(
        ["repro", "thm5", "--a", "2", "--per-decade", "64"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["limsup_estimate"] == pytest.approx(1.2, abs=1e-3)


def test_repro_pwl_target_passes(capsys):
    code, out, _ = _run(["repro", "thm6", "--a", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert 1.0055 <= payload["poa_at_mk"] <= 1.0063


def test_repro_rv_passes(capsys):
    code, out, _ = _run(["repro", "rv"], capsys)
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def _child_pythonpath():
    # The child runs from "/", so every entry must be absolute; the package the
    # suite imported goes first, so the child runs the code under test whether
    # or not it is installed.
    entries = [str(Path(wardrop.__file__).resolve().parent.parent)]
    caller = os.environ.get("PYTHONPATH", "")
    entries += [os.path.abspath(p) for p in caller.split(os.pathsep) if p]
    return os.pathsep.join(entries)


_EVERY_FAMILY = (
    "w = wardrop\n"
    "families = [w.Affine(1.0, 2.0), w.Constant(3.0), w.Monomial(1.0, 2.0), w.Polynomial((1.0, 0.5, 2.0)),\n"
    "            w.SaturatingLinear(), w.StepGeometric(2.0), w.PwlSquare(2.0), w.ExpOverX(),\n"
    "            w.StepExp(w.AlphaSequence('factorial')), w.Shifted(w.StepGeometric(2.0), 1.0)]\n"
    "for c in families:\n"
    "    for x in (0.5, 3.0):\n"
    "        c.eval(x), c.eval_right(x), c.eval_log(x), c.generalized_inverse(x), c.derivative_bounds(x)\n"
    "        try:\n"
    "            c.primitive(x)\n"
    "        except w.UnsupportedCostError:  # ExpOverX: the exponential integral\n"
    "            pass\n"
    "assert 'numpy' not in sys.modules"
)


@pytest.mark.parametrize("call", [
    'assert wardrop.cli.main(["poa", "--network", "pigou", "--demand", "1"]) == 0\n'
    'assert "numpy" not in sys.modules',
    _EVERY_FAMILY,
    'net = wardrop.build_parallel([wardrop.Affine(1.0, 1.0), wardrop.StepGeometric(2.0), wardrop.PwlSquare(3.0)])\n'
    'assert wardrop.opt_bruteforce(net, 5.0).resolution_bound < 1e-6\n'
    'assert "numpy" not in sys.modules',
    'curve = wardrop.poa_sweep(wardrop.named_instance("step:2"), 4.0, 8.0, samples_per_decade=8)\n'
    'assert curve.samples and not curve.failures',
], ids=["cli-poa", "point-methods", "opt_bruteforce", "poa_sweep"])
def test_numpy_is_loaded_only_where_arrays_are_used(call):
    # a fresh interpreter: the suite's own numpy would hide an import at load time
    script = f"import sys\nimport wardrop, wardrop.cli\nassert 'numpy' not in sys.modules\n{call}\n"
    env = dict(os.environ, PYTHONPATH=_child_pythonpath())
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd="/",
                         env=env)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("call", [
    'curve = wardrop.poa_sweep(wardrop.named_instance("step:2"), 4.0, 64.0, samples_per_decade=8, period_base=2.0)\n'
    'assert [p.index for p in curve.periods] == [1, 2, 3, 4]',
    'rep = wardrop.bounded_path_experiment(wardrop.pigou(), (10.0, 100.0, 1000.0))\n'
    'assert rep.passed and rep.decay_exponent > 0',
    'assert wardrop.cli.main(["sweep", "--network", "step:2", "--from", "4", "--to", "64", "--per-decade", "8"]) == 0',
    'assert wardrop.cli.main(["repro", "thm5", "--per-decade", "32"]) == 0',
], ids=["poa_sweep-period_base", "bounded_path_experiment", "cli-sweep", "cli-repro-thm5"])
def test_the_package_runs_with_numpy_blocked(call):
    # a fresh interpreter where `import numpy` fails: the library needs only
    # the standard library, so any numpy import under src/ fails this test
    script = f"import sys\nsys.modules['numpy'] = None\nimport wardrop, wardrop.cli\n{call}\n"
    env = dict(os.environ, PYTHONPATH=_child_pythonpath())
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd="/",
                         env=env)
    assert run.returncode == 0, run.stderr


def test_byte_determinism():
    cmd = [sys.executable, "-m", "wardrop", "poa", "--network", "step:3", "--demand", "17"]
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=_child_pythonpath(), PYTHONHASHSEED=seed)
        run = subprocess.run(cmd, capture_output=True, cwd="/", env=env)
        assert run.returncode == 0 and run.stderr == b"", run.stderr.decode(errors="replace")
        outs.append(run.stdout)
    a, b = outs
    assert a == b and a


def test_network_round_trip_same_solver_output(tmp_path, capsys):
    spec = network_to_spec(pigou())
    path = tmp_path / "round.json"
    path.write_text(json.dumps(spec))
    again = load_network(str(path))
    assert network_to_spec(again) == spec
    code, out, _ = _run(["poa", "--network", str(path), "--demand", "1"], capsys)
    assert json.loads(out)["poa"] == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_csv_seventeen_significant_digits(tmp_path, capsys):
    curve = tmp_path / "digits.csv"
    _run(
        ["sweep", "--network", "pigou", "--from", "1", "--to", "10",
         "--per-decade", "4", "--jobs", "1", "--out", str(curve)],
        capsys,
    )
    row = curve.read_text().splitlines()[2].split(",")
    # re-parsing the printed M must reproduce the double exactly
    assert float(row[0]) == float(f"{float(row[0]):.17g}")
    assert "." in row[0] or "e" in row[0] or row[0].isdigit()


def test_out_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WARDROP_OUT_DIR", str(tmp_path / "outputs"))
    code, _, _ = _run(
        ["poa", "--network", "pigou", "--demand", "1", "--out", "result.json"], capsys
    )
    assert code == 0
    assert (tmp_path / "outputs" / "result.json").exists()
