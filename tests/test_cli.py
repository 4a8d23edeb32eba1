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


def test_solver_error_exit_code(capsys):
    # demand below the exponential bracket lattice is a numeric-domain error
    code, _, err = _run(["solve", "--network", "exp:factorial", "--demand", "1"], capsys)
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


def _run_child(argv):
    env = dict(os.environ, PYTHONPATH=_child_pythonpath())
    return subprocess.run(
        [sys.executable, "-m", "wardrop", *argv], capture_output=True, text=True, cwd="/", env=env
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
