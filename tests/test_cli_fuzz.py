"""Random network files through ``wardrop poa``: whatever the file holds,
the command exits 0, 2 or 3, never with a traceback, and on 0 it prints
strict JSON.  The specs mix good and bad values for every field: self
loops, unknown vertices, missing and extra fields, and every cost family
with parameters drawn from good values and a pool of bad atoms."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop.cli import main

ATOMS = st.sampled_from([0, -0.0, 5e-324, 1, 1e300, -1, "nan", "inf", "1e309", True, None, [], {}])
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
