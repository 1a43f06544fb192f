"""The input boundary: every loader turns an unreadable file into exit 1."""

import dataclasses
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from wdsres.catalog import CLUSTER_FEATURES, load_catalog, ward_clustering
from wdsres.cli import main
from wdsres.errors import ValidationError
from wdsres.graphmetrics import (WeightedPath, demand_weighted_index, k_shortest_paths,
                                 node_resilience_index)
from wdsres.hydraulics import (HydraulicSeries, allocate_flows, load_series,
                               surrogate_allocation)
from wdsres.inputs import check_integer, is_integer, read_csv
from wdsres.network import Junction, Source, is_finite_number, load_network, network_from_dict
from wdsres.scenario import Event, ScenarioSpec, load_scenario, monte_carlo
from wdsres.wardclust import cut_clusters, ward_linkage
from wdsres.scoremetrics import load_answers, load_checklist, load_indicators

JSON_LOADERS = (load_network, load_scenario, load_checklist, load_answers)
CSV_LOADERS = (load_series, load_catalog, load_indicators)

NOT_UTF8 = b"\xff\xfe\x00"
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
LONG_INT = b"1" * 5000  # beyond the digit limit of int()
BIG_CELL = b"a" * 200_000 + b"\n"


def _write(tmp_path, case):
    """Path of the input for ``case``: absent, a directory or a file of bytes."""
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_bytes({"not-utf8": NOT_UTF8, "empty": b"",
                          "deep": DEEP_JSON, "long-int": LONG_INT, "big-cell": BIG_CELL}[case])
    return path


COMMON = ("missing", "directory", "not-utf8", "empty")
BOUNDARY_CASES = [
    *((loader, case) for loader in JSON_LOADERS for case in (*COMMON, "deep", "long-int")),
    *((loader, case) for loader in CSV_LOADERS for case in (*COMMON, "big-cell")),
]


@pytest.mark.parametrize(
    "loader, case", BOUNDARY_CASES, ids=[f"{f.__name__}-{c}" for f, c in BOUNDARY_CASES]
)
def test_unreadable_input_raises_validation_error(tmp_path, loader, case):
    with pytest.raises(ValidationError):
        loader(_write(tmp_path, case))


@pytest.mark.parametrize("argv, case", [
    (["metric", "buffering", "--network"], "directory"),
    (["metric", "buffering", "--network"], "not-utf8"),
    (["metric", "buffering", "--network"], "deep"),
    (["metric", "zhuang", "--series"], "directory"),
    (["metric", "zhuang", "--series"], "not-utf8"),
    (["metric", "zhuang", "--series"], "big-cell"),
    (["metric", "wpr", "--answers", "unused.json", "--checklist"], "directory"),
    (["metric", "wpr", "--answers", "unused.json", "--checklist"], "not-utf8"),
    (["metric", "wpr", "--answers", "unused.json", "--checklist"], "deep"),
])
def test_cli_exits_one_on_unreadable_input(tmp_path, argv, case):
    result = CliRunner().invoke(main, [*argv, str(_write(tmp_path, case))])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output


class TestReadCsv:
    HEADER = ("a", "b")
    TYPES = (str, str)

    def test_rows_with_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" a , b\n1,2\n\n , \n3,\"x\r\ny\"\n")
        assert list(read_csv(path, self.HEADER, "test", self.TYPES)) == [
            (2, ["1", "2"]), (5, ["3", "x\r\ny"])]

    def test_header_and_column_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,c\n1,2\n")
        with pytest.raises(ValidationError, match="header must be a,b"):
            read_csv(path, self.HEADER, "test", self.TYPES)
        path.write_text("a,b\n1,2,3\n")
        with pytest.raises(ValidationError, match=r"t.csv:2: expected 2 columns"):
            read_csv(path, self.HEADER, "test", self.TYPES)

    def test_indicator_header_is_stripped(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text(" name , raw , max_observed , weight \na,1,2,1\n")
        assert [i.name for i in load_indicators(path)] == ["a"]


SERIES_HEADER = "t,node_id,delivered_m3s,demand_m3s,head_m,required_head_m\n"
CATALOG_HEADER = "metric,citation,M,R,L,A,TI,TD,GT,PB,SB,CM,BF,RD,RC,CL\n"
INDICATOR_HEADER = "name,raw,max_observed,weight\n"
FLOAT_ERROR = "could not convert string to float: 'x'"
INT_ERROR = "invalid literal for int() with base 10: 'x'"

# loader, its file with an unconvertible cell on line 2, the conversion's message
CONVERSION_CASES = {
    "series-t": (load_series, SERIES_HEADER + "x,J1,1,1,1,1\n", INT_ERROR),
    "series-value": (load_series, SERIES_HEADER + "0,J1,1,1,x,1\n", FLOAT_ERROR),
    "catalog-flag": (load_catalog, CATALOG_HEADER + "m,c,1,0,0,0,0,0,x,0,0,0,0,0,0,1\n",
                     INT_ERROR),
    "catalog-cluster": (load_catalog, CATALOG_HEADER + "m,c,1,0,0,0,0,0,1,0,0,0,0,0,0,x\n",
                        INT_ERROR),
    "indicator": (load_indicators, INDICATOR_HEADER + "a,0.5,x,1\n", FLOAT_ERROR),
}

# loader, a line 2 that fails the loader's own check, and that check's message
ROW_CHECK_CASES = {
    "series": (load_series, SERIES_HEADER + "0,J1,nan,1,1,1\n",
               "{path}:2: values must be finite numbers"),
    "catalog": (load_catalog, CATALOG_HEADER + "m,c,1,0,0,0,0,0,2,0,0,0,0,0,0,1\n",
                "record 'm': flags must be 0 or 1"),
    "indicator": (load_indicators, INDICATOR_HEADER + "a,0.5,0,1\n",
                  "indicator 'a': max_observed must be > 0"),
}


@pytest.mark.parametrize("case", sorted(CONVERSION_CASES))
def test_a_cell_that_does_not_convert_names_its_line(tmp_path, case):
    loader, text, message = CONVERSION_CASES[case]
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        loader(path)
    assert str(info.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("case", sorted(ROW_CHECK_CASES))
def test_a_row_check_comes_before_a_later_rows_conversion(tmp_path, case):
    loader, text, message = ROW_CHECK_CASES[case]
    path = tmp_path / "input.csv"
    # line 3's bad cell is read only after line 2 has been checked
    path.write_text(text + text.splitlines()[1].replace("0", "x") + "\n")
    with pytest.raises(ValidationError) as info:
        loader(path)
    assert str(info.value) == message.format(path=path)


def test_finite_number_helper_still_importable_from_network():
    assert is_finite_number(1.5) and not is_finite_number(float("nan"))


@pytest.mark.parametrize("value, expected", [
    (3, True), (0, True), (-2, True), (np.int64(4), True),
    (True, False), (False, False), (2.0, False), (2.5, False), ("3", False), (None, False),
    (2**100, True), (np.int32(-1), True), (np.uint8(7), True), (IntEnum("E", "A").A, True),
    (np.bool_(True), False), (np.float64(3.0), False), (Fraction(3), False),
    (Fraction(1, 2), False),
], ids=repr)
def test_an_integer_is_an_integral_that_is_not_a_bool(value, expected):
    assert is_integer(value) is expected


@pytest.mark.parametrize("value, least, message", [
    (2.0, None, "n must be an integer, got 2.0"),
    (True, 0, "n must be an integer, got True"),
    (None, 1, "n must be an integer, got None"),
    (0, 1, "n must be >= 1"),
    (-1, 0, "n must be >= 0"),
], ids=repr)
def test_check_integer_refuses(value, least, message):
    with pytest.raises(ValidationError) as info:
        check_integer(value, "n", least)
    assert str(info.value) == message


@pytest.mark.parametrize("value, least", [(0, None), (-5, None), (0, 0), (1, 1), (np.int64(3), 1)])
def test_check_integer_accepts(value, least):
    assert check_integer(value, "n", least) is None


def _mc(n):
    return lambda net: monte_carlo(
        net, ScenarioSpec((Event("pipe_failure", 0, 2, count=1),), seed=1, horizon=2),
        n, "zhuang")


def _ward(k):
    return lambda net: ward_clustering(load_catalog(), k)


def _cut(k):
    def run(net):
        records = load_catalog()
        merges = ward_linkage([[float(r.flag(c)) for c in CLUSTER_FEATURES] for r in records])
        return cut_clusters(merges, k)
    return run


# before, n=True ran one replicate, k=True gave one cluster whose k was True,
# and the floats raised a raw TypeError
@pytest.mark.parametrize("run, message", [
    (_mc(True), "replicate count must be an integer, got True"),
    (_mc(2.5), "replicate count must be an integer, got 2.5"),
    (_mc(2.0), "replicate count must be an integer, got 2.0"),
    (_ward(True), "cluster count must be an integer, got True"),
    (_ward(2.5), "cluster count must be an integer, got 2.5"),
    (_ward(60.5), "cluster count must be an integer, got 60.5"),
    (_cut(2.0), "cluster count must be an integer, got 2.0"),
    (_cut(False), "cluster count must be an integer, got False"),
    (_cut(0), "cannot cut 59 records into 0 clusters"),
], ids=["mc-true", "mc-2.5", "mc-2.0", "ward-true", "ward-2.5", "ward-60.5", "cut-2.0",
        "cut-false", "cut-0"])
def test_counts_must_be_integers_before_their_range(ring_network, run, message):
    with pytest.raises(ValidationError) as info:
        run(ring_network)
    assert str(info.value) == message


# junctions "a" and "b" fed by source "S" through pipes "a" (S-a) and "b"
# (a-b), so that "ab" names two nodes, and two pipes, of the network; and a
# pump "P", whose id no other element refers to
AB_DOC = {
    "junctions": [{"id": i, "elevation": 0.0, "design_demand": 0.01, "required_head": 30.0}
                  for i in ("a", "b")],
    "sources": [{"id": "S", "total_head": 100.0, "outflow": 0.05}],
    "pipes": [{"id": i, "endpoints": ends, "length": 100.0, "diameter": 0.1,
               "friction_factor": 0.02, "repair_rate": 0.0, "capacity": 1.0}
              for i, ends in (("a", ["S", "a"]), ("b", ["a", "b"]))],
    "pumps": [{"id": "P", "power": 1.0}],
}


def _with(section, field, value):
    """The network document of AB_DOC with one field of its first row changed."""
    rows = [dict(AB_DOC[section][0], **{field: value}), *AB_DOC[section][1:]]
    return network_from_dict(AB_DOC | {section: rows})


# every entry that takes ids -> a call that puts the value where they go,
# and the message of its error
ID_ENTRIES = {
    "event ids": (lambda net, v: Event("pipe_failure", 0, 1, ids=v),
                  "event ids must be a list of id strings, got "),
    "series node ids": (lambda net, v: HydraulicSeries(v, *np.ones((4, 1, 2))),
                        "node ids must be a list of id strings, got "),
    "pipe endpoints": (lambda net, v: dataclasses.replace(net.pipe("a"), endpoints=v),
                       "pipe 'a': endpoints must name two nodes"),
    "pipe endpoints from a file": (lambda net, v: _with("pipes", "endpoints", v),
                                   "pipe 'a': endpoints must be a pair of node ids"),
    "allocate_flows": (lambda net, v: allocate_flows(net, v),
                       "failed pipes must be a list of id strings, got "),
    "surrogate_allocation": (lambda net, v: surrogate_allocation(net, v),
                             "failed pipes must be a list of id strings, got "),
    "reachable_from_sources": (lambda net, v: net.reachable_from_sources(v),
                               "failed pipes must be a list of id strings, got "),
    "path pipes": (lambda net, v: WeightedPath(v, 1.0),
                   "path pipes must be a list of id strings, got "),
    "element id": (lambda net, v: Junction(v, 0.0, 0.01, 30.0), "junction "),
    "element id from a file": (lambda net, v: _with("pumps", "id", v), "pump "),
    "element id in a network": (lambda net, v: dataclasses.replace(
        net, junctions=(*net.junctions, Junction(v, 0.0, 0.01, 30.0))), "junction "),
}

# a string of two valid ids, a set that mixes a number with a string, and None;
# "ab" is one valid id of an element, so it is left out there
ID_VALUES = {"string": "ab", "mixed-set": {5, "x"}, "none": None}
ID_CASES = [(entry, name) for entry in ID_ENTRIES for name in ID_VALUES
            if not (name == "string" and entry.startswith("element id"))]


@pytest.mark.parametrize("entry, value", [(e, ID_VALUES[n]) for e, n in ID_CASES],
                         ids=[f"{e}-{n}" for e, n in ID_CASES])
def test_every_entry_that_takes_ids_refuses_what_is_not_its_ids(entry, value):
    call, message = ID_ENTRIES[entry]
    net = network_from_dict(AB_DOC)
    with pytest.raises(ValidationError) as info:
        call(net, value)
    if entry.startswith("element id"):
        message += f"{value!r}: id must be a string"
    assert str(info.value).startswith(message)


# an unhashable id or name: each is unknown, as any other id that is not there
@pytest.mark.parametrize("call, message", [
    (lambda net: net.junction(["a"]), "unknown junction ['a']"),
    (lambda net: net.pipe(["a"]), "unknown pipe ['a']"),
    (lambda net: net.incident_pipes(["a"]), "unknown node ['a']"),
    (lambda net: node_resilience_index(net, ["a"]), "unknown node ['a']"),
    (lambda net: demand_weighted_index(net, ["a"]), "unknown junction ['a']"),
    (lambda net: k_shortest_paths(net, ["a"], "S"), "unknown node ['a']"),
    (lambda net: k_shortest_paths(net, "a", {"S": 1}), "unknown node {'S': 1}"),
    (lambda net: monte_carlo(net, ScenarioSpec(horizon=1), 1, ["zhuang"]),
     "unknown metric ['zhuang']; choose from ['hashimoto', 'zhuang']"),
], ids=["junction", "pipe", "incident_pipes", "node_resilience_index", "demand_weighted_index",
        "k_shortest_paths start", "k_shortest_paths goal", "monte_carlo metric"])
def test_an_unhashable_id_or_name_is_unknown(call, message):
    net = network_from_dict(AB_DOC)
    assert net.is_node(["a"]) is False
    with pytest.raises(ValidationError) as info:
        call(net)
    assert str(info.value) == message
