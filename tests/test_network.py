"""Network model: loading, validation, degrees and connectivity."""

import itertools
import json

import pytest

from wdsres.errors import ValidationError
from wdsres.network import (
    Junction,
    Source,
    load_network,
    network_from_dict,
    save_network,
)

from .conftest import make_network, make_pipe


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
        assert net.n_pumps == 0

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

    def test_units_override_beats_file_key(self):
        doc = minimal_doc()
        net = network_from_dict(doc, units="lps")
        assert net.junction("J1").design_demand == pytest.approx(1e-5)

    def test_needs_a_source(self):
        doc = minimal_doc()
        doc["sources"] = []
        doc["pipes"] = []
        with pytest.raises(ValidationError, match="at least one source"):
            network_from_dict(doc)

    def test_ring_fixture_shape(self, ring_network):
        assert len(ring_network.pipes) == 4
        assert ring_network.is_connected_to_source("J2")


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

    def test_degree_sum_is_twice_pipe_count(self, ring_network, tree_network):
        for net in (ring_network, tree_network):
            total = sum(net.node_degree(n) for n in net.node_ids)
            assert total == 2 * len(net.pipes)


class TestConnectivity:
    def test_intact_network_connected(self, ring_network):
        assert ring_network.is_connected_to_source("J2", set())

    def test_bridge_failure_disconnects_leaf(self, tree_network):
        assert not tree_network.is_connected_to_source("J2", {"p2"})
        assert tree_network.is_connected_to_source("J1", {"p2"})

    def test_ring_survives_any_single_failure(self, ring_network):
        for pipe in ring_network.pipe_ids:
            for junction in ring_network.junction_ids:
                assert ring_network.is_connected_to_source(junction, {pipe})

    def test_source_is_trivially_connected(self, ring_network):
        assert ring_network.is_connected_to_source("R1", set(ring_network.pipe_ids))

    def test_unknown_failed_pipe(self, ring_network):
        with pytest.raises(ValidationError, match="unknown pipe ids"):
            ring_network.is_connected_to_source("J1", {"zz"})

    def test_monotone_in_failure_set(self, ring_network):
        # growing the failure set can never reconnect a node
        pipes = ring_network.pipe_ids
        for r in range(len(pipes) + 1):
            for failed in itertools.combinations(pipes, r):
                for extra in set(pipes) - set(failed):
                    for junction in ring_network.junction_ids:
                        before = ring_network.is_connected_to_source(junction, set(failed))
                        after = ring_network.is_connected_to_source(
                            junction, set(failed) | {extra}
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
