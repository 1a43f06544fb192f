"""Network model: loading, validation, degrees and connectivity."""

import builtins
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from wdsres import network
from wdsres.errors import ValidationError
from wdsres.graphmetrics import node_index_table
from wdsres.network import (
    Junction,
    Pump,
    Source,
    load_network,
    network_from_dict,
    save_network,
)

from .conftest import make_network, make_pipe

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import netgen  # noqa: E402


def minimal_doc():
    return {
        "units": "m3s",
        "junctions": [
            {"id": "J1", "elevation": 0.0, "design_demand": 0.01, "required_head": 30.0}
        ],
        "sources": [{"id": "R1", "total_head": 100.0, "outflow": 0.05}],
        "pumps": [],
        "pipes": [
            {
                "id": "p1",
                "endpoints": ["R1", "J1"],
                "length": 100.0,
                "diameter": 0.1,
                "friction_factor": 0.02,
                "repair_rate": 0.0,
                "capacity": 1.0,
            }
        ],
    }


class TestLoadNetwork:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(minimal_doc()))
        net = load_network(path)
        assert net.n_junctions == 1
        assert net.n_sources == 1
        assert net.pumps == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_network(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="cannot parse"):
            load_network(path)

    def test_unknown_endpoint(self):
        doc = minimal_doc()
        doc["pipes"][0]["endpoints"] = ["R1", "X"]
        with pytest.raises(ValidationError, match="unknown node 'X'"):
            network_from_dict(doc)

    def test_duplicate_node_id(self):
        doc = minimal_doc()
        doc["sources"].append({"id": "J1", "total_head": 50.0, "outflow": 0.01})
        with pytest.raises(ValidationError, match="duplicate node id"):
            network_from_dict(doc)

    def test_nonpositive_length(self):
        doc = minimal_doc()
        doc["pipes"][0]["length"] = 0.0
        with pytest.raises(ValidationError, match="length must be > 0"):
            network_from_dict(doc)

    def test_nonpositive_diameter(self):
        doc = minimal_doc()
        doc["pipes"][0]["diameter"] = -1.0
        with pytest.raises(ValidationError, match="diameter must be > 0"):
            network_from_dict(doc)

    def test_self_loop_rejected(self):
        doc = minimal_doc()
        doc["pipes"][0]["endpoints"] = ["J1", "J1"]
        with pytest.raises(ValidationError, match="self-loops"):
            network_from_dict(doc)

    def test_missing_field(self):
        doc = minimal_doc()
        del doc["pipes"][0]["capacity"]
        with pytest.raises(ValidationError, match="missing field 'capacity'"):
            network_from_dict(doc)

    @pytest.mark.parametrize("section", ["junctions", "sources", "pumps", "pipes"])
    @pytest.mark.parametrize("row", [5, "p1", None, ["id", "x"]])
    def test_non_object_row(self, section, row):
        doc = minimal_doc()
        doc[section].append(row)
        with pytest.raises(ValidationError, match=rf"{section}\[\d\] must be an object"):
            network_from_dict(doc)

    @pytest.mark.parametrize("section", ["junctions", "pipes"])
    def test_section_must_be_a_list(self, section):
        doc = minimal_doc()
        doc[section] = {"id": "x"}
        with pytest.raises(ValidationError, match=f"'{section}' must be a list"):
            network_from_dict(doc)

    @pytest.mark.parametrize("section, field", [
        ("pipes", "capacity"),
        ("junctions", "design_demand"),
        ("sources", "outflow"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_number(self, section, field, value):
        doc = minimal_doc()
        doc[section][0][field] = value
        with pytest.raises(ValidationError, match=f"'{field}' must be a finite number"):
            network_from_dict(doc)

    def test_lps_units_convert_flows(self):
        doc = minimal_doc()
        doc["units"] = "lps"
        doc["junctions"][0]["design_demand"] = 10.0
        doc["sources"][0]["outflow"] = 50.0
        doc["pipes"][0]["capacity"] = 1000.0
        net = network_from_dict(doc)
        assert net.junction("J1").design_demand == pytest.approx(0.01)
        assert net.source("R1").outflow == pytest.approx(0.05)
        assert net.pipe("p1").capacity == pytest.approx(1.0)
        # heads are not flow quantities and stay as given
        assert net.source("R1").total_head == 100.0

    def test_needs_a_source(self):
        doc = minimal_doc()
        doc["sources"] = []
        doc["pipes"] = []
        with pytest.raises(ValidationError, match="at least one source"):
            network_from_dict(doc)

    def test_ring_fixture_shape(self, ring_network):
        assert len(ring_network.pipes) == 4
        assert "J2" in ring_network.reachable_from_sources()


# every numeric field of each section, in file order, with the kind the
# messages name
NUMERIC_FIELDS = {
    "junctions": ("junction", ("elevation", "design_demand", "required_head")),
    "sources": ("source", ("total_head", "outflow")),
    "pumps": ("pump", ("power",)),
    "pipes": ("pipe", ("length", "diameter", "friction_factor", "repair_rate", "capacity")),
}
FIELD_CASES = [(section, field) for section, (_, fields) in NUMERIC_FIELDS.items()
               for field in fields]


def doc_with_pump():
    doc = minimal_doc()
    doc["pumps"] = [{"id": "b1", "power": 100.0}]
    return doc


class TestIngestMessages:
    """The exact message for each malformed field of each section."""

    @pytest.mark.parametrize("section, field", FIELD_CASES)
    def test_missing_field(self, section, field):
        doc = doc_with_pump()
        row = doc[section][0]
        del row[field]
        kind = NUMERIC_FIELDS[section][0]
        with pytest.raises(ValidationError) as info:
            network_from_dict(doc)
        assert str(info.value) == f"{kind} {row['id']!r}: missing field {field!r}"

    @pytest.mark.parametrize("value", [float("nan"), True, "1.0"], ids=["nan", "bool", "str"])
    @pytest.mark.parametrize("section, field", FIELD_CASES)
    def test_not_a_finite_number(self, section, field, value):
        doc = doc_with_pump()
        row = doc[section][0]
        row[field] = value
        kind = NUMERIC_FIELDS[section][0]
        with pytest.raises(ValidationError) as info:
            network_from_dict(doc)
        assert str(info.value) == f"{kind} {row['id']!r}: field {field!r} must be a finite number"

    @pytest.mark.parametrize("section", sorted(NUMERIC_FIELDS))
    def test_missing_id(self, section):
        doc = doc_with_pump()
        del doc[section][0]["id"]
        kind = NUMERIC_FIELDS[section][0]
        with pytest.raises(ValidationError) as info:
            network_from_dict(doc)
        # a pipe checks its endpoints first, and they are present here
        assert str(info.value) == f"{kind} '?': missing field 'id'"

    @pytest.mark.parametrize("section", sorted(NUMERIC_FIELDS))
    def test_fields_are_checked_in_file_order(self, section):
        doc = doc_with_pump()
        kind, fields = NUMERIC_FIELDS[section]
        row = {"id": "x"}
        if section == "pipes":
            row["endpoints"] = ["R1", "J1"]
        doc[section][0] = row
        with pytest.raises(ValidationError) as info:
            network_from_dict(doc)
        assert str(info.value) == f"{kind} 'x': missing field {fields[0]!r}"

    def test_pipe_with_neither_id_nor_endpoints(self):
        doc = minimal_doc()
        del doc["pipes"][0]["id"]
        del doc["pipes"][0]["endpoints"]
        with pytest.raises(ValidationError) as info:
            network_from_dict(doc)
        assert str(info.value) == "pipe '?': missing field 'endpoints'"

    @pytest.mark.parametrize("endpoints", ["R1", ["R1"], ["R1", "J1", "J1"], {"R1": "J1"}, 5])
    def test_malformed_endpoints(self, endpoints):
        doc = minimal_doc()
        doc["pipes"][0]["endpoints"] = endpoints
        # checked before the id: a pipe without one gives the same message
        del doc["pipes"][0]["id"]
        with pytest.raises(ValidationError) as info:
            network_from_dict(doc)
        assert str(info.value) == "pipe '?': endpoints must be a pair of node ids"

    def test_numeric_ids_become_strings(self):
        doc = doc_with_pump()
        doc["junctions"][0]["id"] = 5
        doc["pipes"][0]["id"] = 7
        doc["pipes"][0]["endpoints"] = ["R1", 5]
        doc["pumps"][0]["id"] = 9.5
        net = network_from_dict(doc)
        assert net.junction_ids == ("5",)
        assert net.pipe("7").endpoints == ("R1", "5")
        assert net.pump("9.5").power == 100.0


# one valid element of each section, which a test rebuilds with one field changed
ELEMENTS = {
    "junctions": Junction("J1", 0.0, 0.01, 30.0),
    "sources": Source("R1", 100.0, 0.05),
    "pumps": Pump("b1", 100.0),
    "pipes": make_pipe("p1", "R1", "J1"),
}

# every range-checked field, a value just outside its range, and its rule
RANGE_CASES = [
    ("junctions", "design_demand", -1.0, ">= 0"),
    ("junctions", "required_head", -1.0, ">= 0"),
    ("sources", "total_head", 0.0, "> 0"),
    ("sources", "outflow", -1.0, ">= 0"),
    ("pumps", "power", -1.0, ">= 0"),
    ("pipes", "length", 0.0, "> 0"),
    ("pipes", "diameter", 0.0, "> 0"),
    ("pipes", "friction_factor", 0.0, "> 0"),
    ("pipes", "repair_rate", -1.0, ">= 0"),
    ("pipes", "capacity", -1.0, ">= 0"),
]


class TestElementConstructors:
    """The checks an element makes when it is built directly, not from a file."""

    # a string, None and a complex number do not compare with numbers at all,
    # and a bool compares as one but is refused, as the file path refuses it
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "x", None, 1j,
                                       True, False],
                             ids=["nan", "inf", "-inf", "str", "none", "complex", "true",
                                  "false"])
    @pytest.mark.parametrize("section, field", FIELD_CASES)
    def test_non_finite_number(self, section, field, value):
        element = ELEMENTS[section]
        kind = NUMERIC_FIELDS[section][0]
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(element, **{field: value})
        assert str(info.value) == (
            f"{kind} {element.id!r}: field {field!r} must be a finite number")

    @pytest.mark.parametrize("section, field, value, rule", RANGE_CASES)
    def test_out_of_range(self, section, field, value, rule):
        element = ELEMENTS[section]
        kind = NUMERIC_FIELDS[section][0]
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(element, **{field: value})
        assert str(info.value) == f"{kind} {element.id!r}: {field} must be {rule}"

    def test_the_first_field_that_is_not_a_number_is_named(self):
        with pytest.raises(ValidationError) as info:
            Junction("J1", 0.0, None, "x")
        assert str(info.value) == "junction 'J1': field 'design_demand' must be a finite number"
        with pytest.raises(ValidationError) as info:
            Junction("J", True, 0.01, 30.0)
        assert str(info.value) == "junction 'J': field 'elevation' must be a finite number"
        # a bool after a value out of range: the checks name the first field
        # that is not a finite number, so the bool is named before the range
        with pytest.raises(ValidationError) as info:
            make_pipe("p1", "R1", "J1", length=-1.0, capacity=True)
        assert str(info.value) == "pipe 'p1': field 'capacity' must be a finite number"

    def test_a_string_after_a_value_out_of_range_is_named(self):
        with pytest.raises(ValidationError) as info:
            Junction("J1", 0.0, -1.0, "x")
        assert str(info.value) == "junction 'J1': field 'required_head' must be a finite number"

    # a two-character string would otherwise name the nodes "A" and "B"
    @pytest.mark.parametrize("endpoints", [("R1",), ("R1", "J1", "J2"), "AB", 5])
    def test_pipe_endpoints_not_a_pair(self, endpoints):
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(ELEMENTS["pipes"], endpoints=endpoints)
        assert str(info.value) == "pipe 'p1': endpoints must name two nodes"


# a float in range, one out of range, 0.0, nan, +-inf, a bool, an int, a string and None
GRID_VALUES = (2.5, -1.0, 0.0, float("nan"), float("inf"), float("-inf"), True, 2, "x", None)


def _outcome(build):
    """What ``build`` returns, or the message of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("section", list(NUMERIC_FIELDS))
def test_file_rows_and_constructors_agree(section):
    """Every row of a grid of field values gives the same element, or the
    same message, read from a file as built directly."""
    element = ELEMENTS[section]
    fields = NUMERIC_FIELDS[section][1]
    doc = minimal_doc()
    row = {"id": element.id}
    if section == "pipes":
        row["endpoints"] = list(element.endpoints)
    disagree = []
    for values in itertools.product(GRID_VALUES, repeat=len(fields)):
        numbers = dict(zip(fields, values))
        doc[section] = [row | numbers]
        from_file = _outcome(lambda: getattr(network_from_dict(doc), section)[0])
        direct = _outcome(lambda: dataclasses.replace(element, **numbers))
        if from_file != direct:
            disagree.append((values, from_file, direct))
    assert disagree == []


def _network(**changes):
    """The network of ``ELEMENTS`` with some sections replaced."""
    sections = {section: [element] for section, element in ELEMENTS.items()} | changes
    return make_network(**sections)


@pytest.mark.parametrize("build, message", [
    (lambda: _network(junctions=[]), "network needs at least one junction"),
    (lambda: _network(pumps=[Pump("b1", 1.0), Pump("b1", 2.0)]), "duplicate pump id"),
    (lambda: _network(pipes=[make_pipe("p1", "R1", "J1"), make_pipe("p1", "J1", "R1")]),
     "duplicate pipe id"),
    (lambda: network_from_dict([minimal_doc()]), "network document must be a JSON object"),
], ids=["no-junction", "duplicate-pump", "duplicate-pipe", "non-object-document"])
def test_network_checks(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def lps_network_doc():
    """Pumps, a parallel pair and flows in L/s whose conversion is inexact."""
    pipe = {"length": 120.5, "diameter": 0.15, "friction_factor": 0.021,
            "repair_rate": 0.002}
    return {
        "units": "lps",
        "junctions": [
            {"id": "B", "elevation": 3.5, "design_demand": 12.3, "required_head": 25.0},
            {"id": "A", "elevation": 1.25, "design_demand": 7.7, "required_head": 20.0},
        ],
        "sources": [{"id": "R", "total_head": 80.0, "outflow": 33.3}],
        "pumps": [{"id": "u2", "power": 1500.0}, {"id": "u1", "power": 750.5}],
        "pipes": [
            {"id": "p3", "endpoints": ["A", "B"], **pipe, "capacity": 9.9},
            {"id": "p1", "endpoints": ["R", "A"], **pipe, "capacity": 21.1},
            {"id": "p2", "endpoints": ["A", "R"], **pipe, "capacity": 0.7},
        ],
    }


class TestSavedBytes:
    """sha256 of the ``save_network`` bytes: key order, sort order and float bits."""

    def test_grid(self, tmp_path):
        path = tmp_path / "grid.json"
        save_network(network_from_dict(netgen.grid_network(30, 30, 0)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f541e48a6439bc152fedc96fa665917dc25d072d4e70a8b4537a79703a610aa3"
        )

    def test_pumps_parallel_pipes_and_lps(self, tmp_path):
        source = tmp_path / "lps.json"
        source.write_text(json.dumps(lps_network_doc()))
        path = tmp_path / "saved.json"
        save_network(load_network(source), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "576545a9edfedb36c7213fb420d8b09b0a9a4e28acd9befdf06ff0a24f39f269"
        )


class TestSaveRoundTrip:
    def test_canonical_round_trip_is_byte_identical(self, ring_network, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_network(ring_network, first)
        save_network(load_network(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_digest_stable_under_reload(self, ring_network, tmp_path):
        path = tmp_path / "net.json"
        save_network(ring_network, path)
        assert load_network(path).digest() == ring_network.digest()


class TestNodeDegree:
    def test_isolated_junction(self):
        net = make_network(
            junctions=[Junction("J1", 0.0, 0.01, 30.0), Junction("J9", 0.0, 0.0, 0.0)],
            sources=[Source("R1", 100.0, 0.05)],
            pipes=[make_pipe("p1", "R1", "J1")],
        )
        assert net.node_degree("J9") == 0

    def test_ring_junctions_have_degree_two(self, ring_network):
        for node in ("J1", "J2", "J3", "R1"):
            assert ring_network.node_degree(node) == 2

    def test_parallel_pipes_count_individually(self):
        net = make_network(
            junctions=[Junction("J1", 0.0, 0.01, 30.0)],
            sources=[Source("R1", 100.0, 0.05)],
            pipes=[make_pipe("p1", "R1", "J1"), make_pipe("p2", "R1", "J1")],
        )
        assert net.node_degree("J1") == 2

    def test_unknown_node(self, ring_network):
        with pytest.raises(ValidationError, match="unknown node"):
            ring_network.node_degree("nope")

    def test_incident_pipes_ascending_with_parallels(self, mesh_network):
        assert mesh_network.incident_pipes("A") == ("p1", "p2", "p3", "p6")

    def test_degree_sum_is_twice_pipe_count(self, ring_network, tree_network):
        for net in (ring_network, tree_network):
            total = sum(net.node_degree(n) for n in net.node_ids)
            assert total == 2 * len(net.pipes)


class TestTotalDesignDemand:
    def test_summed_once_per_network(self, mesh_network, monkeypatch):
        sums = []

        def counted(values):
            sums.append(1)
            return builtins.sum(values)

        # a global of the module shadows the builtin in the module's calls
        monkeypatch.setattr(network, "sum", counted, raising=False)
        net = dataclasses.replace(mesh_network)
        assert len(sums) == 1
        node_index_table(net, k=2)  # weights every junction by the total
        total = net.total_design_demand()
        assert len(sums) == 1
        # summed left to right in the network's junction order
        expected = 0.0
        for junction in net.junctions:
            expected += junction.design_demand
        assert total == expected


class TestConnectivity:
    def test_intact_network_connected(self, ring_network):
        assert "J2" in ring_network.reachable_from_sources(set())

    def test_bridge_failure_disconnects_leaf(self, tree_network):
        assert "J2" not in tree_network.reachable_from_sources({"p2"})
        assert "J1" in tree_network.reachable_from_sources({"p2"})

    def test_ring_survives_any_single_failure(self, ring_network):
        for pipe in ring_network.pipe_ids:
            for junction in ring_network.junction_ids:
                assert junction in ring_network.reachable_from_sources({pipe})

    def test_source_is_trivially_connected(self, ring_network):
        assert "R1" in ring_network.reachable_from_sources(set(ring_network.pipe_ids))

    def test_unknown_failed_pipe(self, ring_network):
        with pytest.raises(ValidationError, match="unknown pipe ids"):
            ring_network.reachable_from_sources({"zz"})

    def test_monotone_in_failure_set(self, ring_network):
        # growing the failure set can never reconnect a node
        pipes = ring_network.pipe_ids
        for r in range(len(pipes) + 1):
            for failed in itertools.combinations(pipes, r):
                for extra in set(pipes) - set(failed):
                    for junction in ring_network.junction_ids:
                        before = junction in ring_network.reachable_from_sources(failed)
                        after = junction in ring_network.reachable_from_sources(
                            set(failed) | {extra}
                        )
                        assert before or not after


class TestComponentNamespace:
    def test_pipe_pump_id_collision_rejected(self):
        from wdsres.network import Pump

        with pytest.raises(ValidationError, match="must not collide"):
            make_network(
                junctions=[Junction("J1", 0.0, 0.01, 30.0)],
                sources=[Source("R1", 100.0, 0.05)],
                pipes=[make_pipe("p1", "R1", "J1")],
                pumps=[Pump("p1", 100.0)],
            )
