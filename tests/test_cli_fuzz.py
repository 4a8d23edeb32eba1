"""Random network files through ``wardrop poa``, and random argv through
every subcommand: whatever the input, the command exits 0, 1 (usage), 2
(input) or 3 (numeric), never with a traceback, and on 0 it prints strict
JSON, or the sweep's CSV.  The specs mix good and bad values for every
field: self loops, unknown vertices, missing and extra fields, and every
cost family with parameters drawn from good values and a pool of bad atoms.
Random cost specs alone load or are input errors, and each loaded cost
answers at points across the float range."""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop.cli import main
from wardrop.costs import cost_from_spec
from wardrop.errors import DomainError, GameError
from wardrop.network import network_from_spec

ATOMS = st.sampled_from([0, -0.0, 5e-324, 1e-300, 1, 1e300, 1.7e308, -1, "-1", "2.5", "abc", "nan", "inf", "1e309",
                         True, False, None, [], [2, 3], {}])
PARAMETERS = {"affine": ("a", "b"), "monomial": ("coef", "degree"), "polynomial": ("coefficients",),
              "constant": ("value",), "step_geometric": ("a",), "pwl_square": ("a",), "exp_over_x": (),
              "step_exp": ("alpha",), "saturating_linear": (), "shifted": ("base", "shift")}


def _mostly(good, bad=ATOMS):
    """``good``, or one time in sixteen ``bad``, so that many specs get as
    far as a solver.  Bad is the last choice, as hypothesis leans to the first."""
    return st.integers(0, 15).flatmap(lambda i: bad if i == 15 else good)


NUMBERS = _mostly(st.sampled_from([2, 3, 0.5, 1, "2.5"]))
VALUES = {
    "coefficients": _mostly(st.lists(NUMBERS, min_size=1, max_size=4)),
    "alpha": _mostly(st.one_of(
        st.sampled_from([{"preset": "factorial"}, {"preset": "no_such_preset"}]),
        st.fixed_dictionaries({"preset": st.just("supergeometric"), "base": NUMBERS}),
        st.fixed_dictionaries({"values": st.lists(NUMBERS, max_size=4)}),
    )),
}


@st.composite
def _tampered(draw, spec: dict):
    """``spec``, one time in sixteen less one of its fields, one time in sixteen with an extra one."""
    i = draw(st.integers(0, 15))
    if i == 15 and spec:
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif i == 14:
        spec["extra"] = draw(ATOMS)
    return spec


@st.composite
def _costs(draw, depth: int = 0):
    family = draw(_mostly(st.sampled_from([*PARAMETERS, "no_such_family"])))
    spec = {"family": family}
    for name in PARAMETERS.get(family, ()) if isinstance(family, str) else ():
        if name == "base":
            spec[name] = draw(_costs(depth + 1)) if depth == 0 else draw(ATOMS)
        else:
            spec[name] = draw(VALUES.get(name, NUMBERS))
    return draw(_tampered(spec))


@st.composite
def _networks(draw):
    """Mostly s-t networks of 1-4 edges, with self loops, unknown vertices
    ("zz") and bad atoms in every field."""
    edges = []
    for i in range(draw(st.integers(1, 4))):
        tail, head = draw(_mostly(st.sampled_from([("s", "t"), ("s", "a"), ("a", "t"), ("a", "a")]),
                                  st.tuples(st.sampled_from(["t", "zz", 1, None]), st.sampled_from(["s", "zz"]))))
        edges.append(draw(_tampered({"id": f"e{i}", "tail": tail, "head": head, "cost": draw(_costs())})))
    return draw(_mostly(_tampered({
        "vertices": draw(_mostly(st.sampled_from([["s", "a", "t"], ["s", "t"], ["t", "a", "s", "s"]]))),
        "edges": draw(_mostly(st.just(edges))),
        "source": draw(_mostly(st.just("s"))),
        "sink": draw(_mostly(st.just("t"))),
    })))


NETWORKS = _networks()
DEMANDS = st.sampled_from(["1", "1e-300", "1e300", "nan", "-1", "0"])


def _strict(constant):
    raise ValueError(f"not strict JSON: {constant}")


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "net.json"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(NETWORKS, DEMANDS)
def test_poa_on_any_network_file_exits_cleanly(spec_file, spec, demand):
    spec_file.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["poa", "--network", str(spec_file), "--demand", demand])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_strict)


# ---------------------------------------------------------------------------
# the argv of every subcommand
# ---------------------------------------------------------------------------

# Each option draws from a pool of good tokens, or one time in sixteen from
# one of bad ones.  Sweeps stay small (at most 8 per decade over at most
# four decades) and --jobs is never above 1, as more starts worker processes.
NETWORKS_ARG = (["pigou", "step:2", "step:3", "pwl:2", "pwl:1e10", "exp:factorial", "exp:supergeometric:2",
                 "braess", "{file}"], ["step:1", "step:abc", "pwl:inf", "no_such_instance", "{bad_json}", "{missing}"])
DEMANDS_ARG = (["1", "3.5", "1e-3", "1e300"], ["0", "-1", "nan", "inf", "abc", ""])
SUBCOMMANDS = {
    "solve": {"--network": NETWORKS_ARG, "--demand": DEMANDS_ARG},
    "opt": {"--network": NETWORKS_ARG, "--demand": DEMANDS_ARG,
            "--method": (["auto", "marginal", "step", "pwl", "exp", "brute"], ["nope"]),
            "--resolution": (["2", "17", "65"], ["1", "0", "-5", "abc"])},
    "poa": {"--network": NETWORKS_ARG, "--demand": DEMANDS_ARG},
    "sweep": {"--network": NETWORKS_ARG, "--from": (["0.5", "1", "3"], ["0", "-2", "nan", "inf", "abc"]),
              "--to": (["10", "1000"], ["0.1", "nan", "inf", "abc"]),
              "--per-decade": (["1", "4", "8"], ["0", "-3", "2.5", "abc"]), "--jobs": (["1"], ["0", "-1", "abc"])},
    "extremes": {"--curve": (["{curve}"], ["{bad_curve}", "{empty_curve}", "{missing}"]),
                 "--period-base": (["2", "3", "1e10"], ["1", "0", "nan", "inf", "abc"]),
                 "--periods-required": (["1", "3"], ["0", "-1", "2.5", "abc"])},
    "repro": {"target": (["thm5", "thm6", "thm7", "rv"], ["thm9"]), "--a": (["2", "3", "1e10"], ["1.5", "nan", "abc"]),
              "--alpha": (["factorial", "supergeometric"], ["nope"]), "--k": (["1", "3", "30"], ["0", "-1", "abc"]),
              "--per-decade": (["1", "4", "8"], ["0", "abc"]), "--jobs": (["1"], ["0", "abc"])},
}
REQUIRED = {"--network", "--demand", "--from", "--to", "--curve", "--period-base", "target"}


@st.composite
def _argv(draw):
    """A subcommand with each optional option left out or drawn, and each
    required one left out one time in sixteen."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for option, (good, bad) in SUBCOMMANDS[name].items():
        if draw(st.integers(0, 15)) == 15 if option in REQUIRED else draw(st.booleans()):
            continue
        token = draw(_mostly(st.sampled_from(good), st.sampled_from(bad)))
        argv += [token] if option == "target" else [option, token]
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The files a drawn token names: a network, malformed JSON, curve CSVs."""
    root = tmp_path_factory.mktemp("argv")
    files = {"file": root / "net.json", "bad_json": root / "bad.json", "missing": root / "missing.json",
             "curve": root / "curve.csv", "bad_curve": root / "bad.csv", "empty_curve": root / "empty.csv"}
    files["file"].write_text(json.dumps({
        "vertices": ["s", "t"], "source": "s", "sink": "t",
        "edges": [{"id": "e1", "tail": "s", "head": "t", "cost": {"family": "affine", "a": 0, "b": 1}},
                  {"id": "e2", "tail": "s", "head": "t", "cost": {"family": "step_geometric", "a": 2}}]}))
    files["bad_json"].write_text('{"vertices": ["s", "t"],')
    with contextlib.redirect_stdout(io.StringIO()):
        main(["sweep", "--network", "step:2", "--from", "2", "--to", "2000", "--per-decade", "8",
              "--out", str(files["curve"])])
    files["bad_curve"].write_text("M,weq,opt,poa,method,flag\n-1,1,1,1,x,\nnan,abc,1,1,x,\n5\n")
    files["empty_curve"].write_text("")
    return {f"{{{key}}}": str(path) for key, path in files.items()}


def _is_sweep_csv(text: str) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    return bool(rows) and rows[0][0] == "M" and all(
        len(row) == len(rows[0]) and all(math.isfinite(float(v)) for v in row[:4]) for row in rows[1:])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_every_subcommand_on_any_argv_exits_cleanly(argv_files, argv):
    argv = [argv_files.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusals, with the usage code 1
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        if argv[0] == "sweep":
            assert _is_sweep_csv(out.getvalue()), argv
        else:
            json.loads(out.getvalue(), parse_constant=_strict)


# ---------------------------------------------------------------------------
# cost specs
# ---------------------------------------------------------------------------

# Each field of a cost spec is good or, one time in four, a bad atom; the
# good numbers span the float range, so that families meet its ends.
COST_NUMBERS = st.sampled_from([0, 0.5, 1, 2, 3, "2.5", 1e10, 1e-300, 1e300])
COST_FIELDS = {
    "coefficients": st.lists(COST_NUMBERS, min_size=1, max_size=5),
    "alpha": st.one_of(
        st.sampled_from([{"preset": "factorial"}, {"preset": "supergeometric"}]),
        st.fixed_dictionaries({"preset": st.just("supergeometric"), "base": COST_NUMBERS}),
        st.fixed_dictionaries({"values": st.lists(COST_NUMBERS, min_size=1, max_size=4)}),
    ),
}
COST_POINTS = [0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, math.e, 3.0, 10.0, 1e10, 1e300, 1.7976931348623157e308, math.inf]


@st.composite
def _cost_specs(draw, depth: int = 0):
    """A cost spec of a family, now and then an unknown one, each field good
    or a bad atom, now and then less a field or with an extra one; a shifted
    spec nests another up to two levels deep."""
    family = draw(_mostly(st.sampled_from([*PARAMETERS, "no_such_family"])))
    spec = {"family": family}
    for name in PARAMETERS.get(family, ()) if isinstance(family, str) else ():
        good = _cost_specs(depth + 1) if name == "base" and depth < 2 else COST_FIELDS.get(name, COST_NUMBERS)
        spec[name] = draw(st.integers(0, 3).flatmap(lambda i: ATOMS if i == 3 else good))
    return draw(_tampered(spec))


def _answers(call, x) -> None:
    """``call(x)`` returns a value or a pair with no NaN, or raises a GameError."""
    try:
        out = call(x)
    except GameError:
        return
    assert not any(math.isnan(v) for v in (out if isinstance(out, tuple) else (out,))), (call, x, out)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_cost_specs())
def test_any_cost_spec_loads_or_is_an_input_error_and_answers_every_point(spec):
    """A cost spec, read by ``cost_from_spec`` and as the one link of a
    network file, loads as the same cost both ways or is a DomainError both
    ways (exit 2); a loaded cost answers ``eval``, ``eval_right`` and
    ``generalized_inverse`` at every point of a pool spanning the float
    range with a number that is not NaN, or a GameError; its marginal, where
    it has one, likewise."""
    try:
        direct = cost_from_spec(spec)
    except DomainError:
        direct = None
    try:
        cost = network_from_spec({"vertices": ["s", "t"], "source": "s", "sink": "t",
                                  "edges": [{"id": "e", "tail": "s", "head": "t", "cost": spec}]}).costs[0]
    except DomainError:
        assert direct is None, spec
        return
    assert cost == direct, spec
    try:
        costs = [cost, cost.marginal_function()]
    except GameError:  # no marginal, or its parameters leave the float range
        costs = [cost]
    for c in costs:
        for call in (c.eval, c.eval_right, c.generalized_inverse):
            for x in COST_POINTS:
                _answers(call, x)
