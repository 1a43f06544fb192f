"""CLI fuzzing: a mutated input file gives a clean exit, never a traceback.

Each case takes a valid fixture file, mutates its bytes and runs the file
through the command that reads it.  Whatever the bytes, the command exits
0, 1 or 2 through ``sys.exit`` (``CliRunner`` keeps a traceback out of the
output, so the exception itself is checked), and a JSON report on stdout
is strict JSON: no ``NaN`` or ``Infinity``.
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
