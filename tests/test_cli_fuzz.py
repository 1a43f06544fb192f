"""CLI fuzzing: a mutated input file gives a clean exit, never a traceback.

Each case takes a valid fixture file, mutates its bytes and runs the file
through the command that reads it.  Whatever the bytes, the command exits
0, 1 or 2 through ``sys.exit`` (``CliRunner`` keeps a traceback out of the
output, so the exception itself is checked), and a JSON report on stdout
is strict JSON: no ``NaN`` or ``Infinity``.  A second set of cases puts
any JSON value where the network and scenario files hold an id.
"""

import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wdsres.cli import main
from wdsres.hydraulics import save_series
from wdsres.network import Junction, Source

from .conftest import make_network, make_pipe, make_series

NETWORK = make_network(
    junctions=[Junction("J1", 0.0, 0.01, 30.0), Junction("J2", 0.0, 0.01, 30.0),
               Junction("J3", 0.0, 0.01, 30.0)],
    sources=[Source("R1", 100.0, 0.05)],
    pipes=[make_pipe("p1", "R1", "J1"), make_pipe("p2", "J1", "J2", capacity=0.015),
           make_pipe("p3", "J2", "J3"), make_pipe("p4", "J3", "R1")],
)
SCENARIO = {
    "events": [
        {"kind": "pipe_failure", "onset": 1, "repair": 2, "ids": ["p1"]},
        {"kind": "demand_scale", "onset": 0, "repair": 3, "ids": ["J2"], "factor": 1.5},
    ],
    "seed": 7,
    "horizon": 3,
}
SERIES = make_series(("J1", "J2"), [[0.01, 0.005], [0.008, 0.01]], [[0.01, 0.01], [0.01, 0.01]])
INDICATORS = "name,raw,max_observed,weight\nservice,0.5,1.0,1\nquality,3,4,0.5\n"
CHECKLIST = {"categories": {
    "supply": [{"name": "storage", "tags": ["redundancy"]}],
    "governance": [{"name": "plan", "tags": ["anticipate", "recovery"]}],
}}
ANSWERS = {"storage": True, "plan": False}

# what a mutation writes: values that reach the field checks, and syntax
VALUES = [b"nan", b"inf", b"-1", b"0", b"1e-300", b"1e308", b"1e999", b"7", b"2.5",
          b"true", b"null", b'""', b'"J1"', b"[]", b"{}", b"[1]", b"J2", b"p2", b"R1"]
SYNTAX = [b",", b'"', b"\n", b"[", b"{", b"}", b"-", b".", b"\xff"]
TOKEN = re.compile(rb"[\w.+-]+")


@st.composite
def mutations(draw, seed: bytes) -> bytes:
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("token", "token", "token", "insert", "delete")))
        if op == "token":  # keep the syntax, change one value or name
            spans = [m.span() for m in TOKEN.finditer(data)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                data[start:end] = draw(st.sampled_from(VALUES))
                continue
        pos = draw(st.integers(0, len(data)))
        if op == "delete":
            del data[pos:pos + draw(st.integers(1, 6))]
        else:
            data[pos:pos] = draw(st.sampled_from(SYNTAX) | st.binary(min_size=1, max_size=3))
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The valid fixture files, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / name for name in
             ("network.json", "scenario.json", "series.csv", "indicators.csv",
              "checklist.json", "answers.json")}
    paths["network.json"].write_text(json.dumps(NETWORK.to_dict(), indent=1))
    paths["scenario.json"].write_text(json.dumps(SCENARIO, indent=1))
    save_series(SERIES, paths["series.csv"])
    paths["indicators.csv"].write_text(INDICATORS)
    paths["checklist.json"].write_text(json.dumps(CHECKLIST, indent=1))
    paths["answers.json"].write_text(json.dumps(ANSWERS))
    paths["mutant"] = root / "mutant"
    return paths


# mutated file -> the command that reads it; "{}" is the mutant's path
CASES = {
    "network.json": ["metric", "buffering", "--network", "{}", "--threshold", "0.9"],
    "scenario.json": ["scenario", "run", "--network", "network.json", "--spec", "{}"],
    "series.csv": ["metric", "hashimoto", "--series", "{}", "--threshold", "0.9"],
    "indicators.csv": ["metric", "balaei", "--indicators", "{}"],
    "checklist.json": ["metric", "wpr", "--checklist", "{}", "--answers", "answers.json"],
    "answers.json": ["metric", "wpr", "--checklist", "checklist.json", "--answers", "{}"],
}


def _strict_json(text: str):
    def reject(constant):
        raise AssertionError(f"report holds {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mutated_input_exits_cleanly(files, name):
    seed = files[name].read_bytes()
    argv = [str(files["mutant"]) if a == "{}" else str(files.get(a, a)) for a in CASES[name]]
    runner = CliRunner()

    @given(data=mutations(seed))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def run(data):
        files["mutant"].write_bytes(data)
        result = runner.invoke(main, argv)
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            repr(result.exception)
        )
        if result.exit_code != 0:
            assert "error:" in result.output
        elif argv[0] == "metric":
            _strict_json(result.stdout)
        else:
            assert "nan" not in result.stdout

    run()


# any JSON value where a file holds an id: null, a bool, a number, a string,
# a list or an object
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(width=32)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=3)


def _network_with(draw, value) -> tuple[dict, bool]:
    """The network document with one id, one endpoint or one node's id and
    every endpoint naming it replaced by ``value``, and whether it was the node."""
    doc = NETWORK.to_dict()
    where = draw(st.sampled_from(("id", "endpoint", "node")))
    if where == "id":
        section = draw(st.sampled_from(("junctions", "sources", "pipes")))
        draw(st.sampled_from(doc[section]))["id"] = value
    elif where == "endpoint":
        draw(st.sampled_from(doc["pipes"]))["endpoints"][draw(st.integers(0, 1))] = value
    else:
        node = draw(st.sampled_from(doc["junctions"] + doc["sources"]))
        for pipe in doc["pipes"]:
            pipe["endpoints"] = [value if end == node["id"] else end
                                 for end in pipe["endpoints"]]
        node["id"] = value
    return doc, where == "node"


def _scenario_with(draw, value) -> tuple[dict, bool]:
    """The scenario document with one member of one event's ids replaced by ``value``."""
    doc = json.loads(json.dumps(SCENARIO))
    ids = draw(st.sampled_from(doc["events"]))["ids"]
    ids[draw(st.integers(0, len(ids) - 1))] = value
    return doc, False


@pytest.mark.parametrize("name", ["network.json", "scenario.json"])
def test_any_json_value_as_an_id_exits_cleanly(files, name):
    argv = [str(files["mutant"]) if a == "{}" else str(files.get(a, a)) for a in CASES[name]]
    runner = CliRunner()
    build = _network_with if name == "network.json" else _scenario_with

    @given(data=st.data(), value=JSON_VALUES)
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def run(data, value):
        doc, renamed = build(data.draw, value)
        files["mutant"].write_text(json.dumps(doc))
        result = runner.invoke(main, argv)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            repr(result.exception)
        )
        assert result.exit_code in (0, 1), result.output
        if result.exit_code == 1:
            assert result.output.startswith("error: ") and result.output.count("\n") == 1, (
                result.output)
        # only a string is an id, and in a network file a number, which becomes its string
        if not (type(value) is str or name == "network.json" and type(value) in (int, float)):
            assert result.exit_code == 1, result.output
        elif renamed and type(value) in (int, float):
            # a numeric node id loads as its string, as do the endpoints naming it
            assert result.exit_code == 0, result.output

    run()
