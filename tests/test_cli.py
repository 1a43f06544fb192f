"""CLI surface: exit codes, report content and byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import wdsres
from wdsres.catalog import FLAG_COLUMNS
from wdsres.cli import main
from wdsres.hydraulics import load_series, save_series
from wdsres.inputs import bundled
from wdsres.network import Junction, Source, save_network
from wdsres.performance import todini_index
from wdsres.scoremetrics import load_checklist

from .conftest import make_network, make_pipe, make_series, torus_network


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def net_path(ring_network, tmp_path):
    path = tmp_path / "ring.json"
    save_network(ring_network, path)
    return path


@pytest.fixture
def state_path(ring_network, tmp_path):
    series = make_series(
        ("J1", "J2", "J3"),
        [[0.01, 0.01, 0.01]],
        [[0.01, 0.01, 0.01]],
        head=[[40.0, 40.0, 40.0]],
    )
    path = tmp_path / "state.csv"
    save_series(series, path)
    return path


class TestMetricCommand:
    def test_todini_matches_library(self, runner, ring_network, net_path, state_path, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["metric", "todini", "--network", str(net_path),
             "--series", str(state_path), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        expected = todini_index(ring_network, load_series(state_path))
        assert report["value"] == pytest.approx(expected.value)
        assert report["name"] == "todini_index"

    def test_unknown_metric_exits_one_and_lists_names(self, runner):
        result = runner.invoke(main, ["metric", "bogus"])
        assert result.exit_code == 1
        assert "todini" in result.output
        assert "zhuang" in result.output

    def test_missing_file_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main, ["metric", "zhuang", "--series", str(tmp_path / "none.csv")]
        )
        assert result.exit_code == 1
        assert "not found" in result.output

    def test_missing_required_flag_exits_one(self, runner, state_path):
        result = runner.invoke(main, ["metric", "todini", "--series", str(state_path)])
        assert result.exit_code == 1
        assert "--network" in result.output

    def test_infeasible_todini_exits_two(self, runner, tmp_path):
        net_doc = {
            "units": "m3s",
            "junctions": [
                {"id": "J1", "elevation": 0.0, "design_demand": 0.01, "required_head": 30.0}
            ],
            "sources": [{"id": "R1", "total_head": 10.0, "outflow": 0.01}],
            "pumps": [],
            "pipes": [
                {"id": "p1", "endpoints": ["R1", "J1"], "length": 100.0,
                 "diameter": 0.1, "friction_factor": 0.02, "repair_rate": 0.0,
                 "capacity": 1.0}
            ],
        }
        net_file = tmp_path / "weak.json"
        net_file.write_text(json.dumps(net_doc))
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[30.0]])
        state_file = tmp_path / "state.csv"
        save_series(series, state_file)
        result = runner.invoke(
            main,
            ["metric", "todini", "--network", str(net_file), "--series", str(state_file)],
        )
        assert result.exit_code == 2
        assert "power" in result.output

    def test_zhuang_stdout_json(self, runner, tmp_path, zhuang_series):
        path = tmp_path / "series.csv"
        save_series(zhuang_series, path)
        result = runner.invoke(main, ["metric", "zhuang", "--series", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == pytest.approx(0.825)

    def test_hashimoto_includes_states(self, runner, tmp_path, hashimoto_series):
        path = tmp_path / "series.csv"
        save_series(hashimoto_series, path)
        result = runner.invoke(
            main, ["metric", "hashimoto", "--series", str(path), "--threshold", "0.9"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["states"] == "SSFSSFFSSS"
        assert report["value"] == pytest.approx(20 / 27)

    def test_per_node_states_differ_from_system_states(self, runner, tmp_path, zhuang_series):
        # n1 gets 50% and 80% of its demand; the system gets 75% and 90%
        path = tmp_path / "series.csv"
        save_series(zhuang_series, path)
        states = {}
        for mode in ([], ["--per-node"]):
            result = runner.invoke(
                main, ["metric", "hashimoto", "--series", str(path), "--threshold", "0.9", *mode]
            )
            assert result.exit_code == 0, result.output
            states[bool(mode)] = json.loads(result.output)["states"]
        assert states == {False: "FS", True: "FF"}

    def test_hashimoto_rejects_nan_series_cell(self, runner, tmp_path, hashimoto_series):
        path = tmp_path / "series.csv"
        save_series(hashimoto_series, path)
        lines = path.read_text().splitlines()
        t, node, _, *rest = lines[3].split(",")
        lines[3] = ",".join([t, node, "nan", *rest])
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["metric", "hashimoto", "--series", str(path)])
        assert result.exit_code == 1
        assert "series.csv:4: values must be finite" in result.output
        assert '"value"' not in result.output

    def test_herrera_writes_node_table(self, runner, net_path, tmp_path):
        nodes_csv = tmp_path / "nodes.csv"
        result = runner.invoke(
            main,
            ["metric", "herrera", "--network", str(net_path), "--K", "2",
             "--nodes-out", str(nodes_csv)],
        )
        assert result.exit_code == 0
        lines = nodes_csv.read_text().strip().splitlines()
        assert lines[0] == "node_id,I,weighted_I"
        assert len(lines) == 4

    @pytest.mark.parametrize("name", ["zhuang", "todini", "buffering", "wpr"])
    def test_nodes_out_on_another_metric_exits_one_before_any_work(
        self, runner, net_path, state_path, tmp_path, monkeypatch, name
    ):
        from wdsres import cli

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read before --nodes-out was checked")

        monkeypatch.setattr(cli, "load_network", refuse)
        monkeypatch.setattr(cli, "load_series", refuse)
        nodes_csv = tmp_path / "nodes.csv"
        result = runner.invoke(
            main,
            ["metric", name, "--network", str(net_path), "--series", str(state_path),
             "--nodes-out", str(nodes_csv)],
        )
        assert result.exit_code == 1
        assert result.output == "error: --nodes-out applies to the herrera metric only\n"
        assert not nodes_csv.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--trim", "0.7", "error: trim_fraction must lie in [0, 0.5)"),
        ("--K", "0", "error: k must be >= 1"),
    ])
    def test_herrera_rejects_bad_options_before_the_search(
        self, runner, net_path, tmp_path, monkeypatch, option, value, message
    ):
        from wdsres import graphmetrics

        def refuse(*args, **kwargs):
            raise AssertionError("the path search ran")

        # both the index and k_shortest_paths search through it
        monkeypatch.setattr(graphmetrics, "_cheapest_routes", refuse)
        nodes_csv = tmp_path / "nodes.csv"
        result = runner.invoke(
            main,
            ["metric", "herrera", "--network", str(net_path), option, value,
             "--nodes-out", str(nodes_csv)],
        )
        assert result.exit_code == 1
        assert message in result.output
        assert not nodes_csv.exists()

    def test_herrera_subnormal_resistance_exits_two_without_report(
        self, runner, ring_network, tmp_path
    ):
        doc = ring_network.to_dict()
        doc["pipes"][0]["length"] = 1e-320  # resistance subnormal, its inverse inf
        net_file = tmp_path / "tiny.json"
        net_file.write_text(json.dumps(doc))
        out, nodes_csv = tmp_path / "report.json", tmp_path / "nodes.csv"
        result = runner.invoke(
            main,
            ["metric", "herrera", "--network", str(net_file), "--out", str(out),
             "--nodes-out", str(nodes_csv)],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output and "not a finite number" in result.output
        assert "Infinity" not in result.output
        assert not out.exists() and not nodes_csv.exists()

    def test_herrera_overflowing_aggregate_writes_no_node_table(self, runner, tmp_path):
        # each junction's index is 1 / 1e-308 = 1e308, finite; their sum is not
        net = make_network(
            [Junction("J1", 0.0, 0.01, 30.0), Junction("J2", 0.0, 0.01, 30.0)],
            [Source("S0", 100.0, 0.05)],
            [make_pipe(pid, "S0", jid, length=1e-308, diameter=1.0, friction=1.0)
             for pid, jid in (("p1", "J1"), ("p2", "J2"))],
        )
        net_file, out, nodes_csv = (tmp_path / name for name in
                                    ("net.json", "report.json", "nodes.csv"))
        save_network(net, net_file)
        result = runner.invoke(
            main,
            ["metric", "herrera", "--network", str(net_file), "--K", "1", "--trim", "0",
             "--out", str(out), "--nodes-out", str(nodes_csv)],
        )
        assert result.exit_code == 2
        assert "error: trimmed mean index is inf" in result.output
        assert not out.exists() and not nodes_csv.exists()

    def test_buffering_on_ring(self, runner, net_path):
        result = runner.invoke(main, ["metric", "buffering", "--network", str(net_path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == 1

    def test_connectivity_buffering_never_enumerates(self, runner, net_path, monkeypatch):
        from wdsres import performance

        def refuse(*args, **kwargs):
            raise AssertionError("the connectivity path enumerated failure sets")

        monkeypatch.setattr(performance, "buffering_capacity", refuse)
        monkeypatch.setattr(performance, "connectivity_feasibility", refuse)
        result = runner.invoke(
            main, ["metric", "buffering", "--network", str(net_path), "--max-k", "3"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["value"] == 1
        assert report["feasibility"] == "all junctions connected to a source"

    def test_supply_buffering_never_enumerates(self, runner, net_path, monkeypatch):
        from wdsres import performance

        def refuse(*args, **kwargs):
            raise AssertionError("the supply path enumerated failure sets")

        monkeypatch.setattr(performance, "buffering_capacity", refuse)
        monkeypatch.setattr(performance, "supply_feasibility", refuse)
        result = runner.invoke(
            main, ["metric", "buffering", "--network", str(net_path), "--threshold", "0.5",
                   "--max-k", "3"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["value"] == 1
        assert report["feasibility"] == "supply ratio >= 0.5"

    @pytest.mark.parametrize("threshold, max_k, message", [
        ("0", "-1", "error: threshold must lie in (0, 1]"),
        ("1.5", "2", "error: threshold must lie in (0, 1]"),
        ("0.5", "-1", "error: max_k must be >= 0"),
        ("0.5", "5", "error: max_k=5 exceeds the 4 failable components"),
    ])
    def test_supply_buffering_errors(self, runner, net_path, threshold, max_k, message):
        result = runner.invoke(
            main, ["metric", "buffering", "--network", str(net_path), "--threshold", threshold,
                   "--max-k", max_k]
        )
        assert result.exit_code == 1
        assert result.output.strip() == message

    @pytest.mark.parametrize("max_k, code, message", [
        ("-1", 1, "error: max_k must be >= 0"),
        ("5", 1, "error: max_k=5 exceeds the 4 failable components"),
    ])
    def test_connectivity_buffering_errors(self, runner, net_path, max_k, code, message):
        result = runner.invoke(
            main, ["metric", "buffering", "--network", str(net_path), "--max-k", max_k]
        )
        assert result.exit_code == code
        assert result.output.strip() == message

    def test_connectivity_buffering_infeasible_baseline(self, runner, ring_network, tmp_path):
        doc = ring_network.to_dict()
        doc["junctions"].append(
            {"id": "J9", "elevation": 0.0, "design_demand": 0.0, "required_head": 1.0}
        )
        net_file = tmp_path / "isolated.json"
        net_file.write_text(json.dumps(doc))
        result = runner.invoke(main, ["metric", "buffering", "--network", str(net_file)])
        assert result.exit_code == 2
        assert result.output.strip() == (
            "error: the intact system already fails the feasibility check"
        )

    def test_wpr_roundtrip(self, runner, tmp_path):
        checklist = load_checklist()
        answers = tmp_path / "answers.json"
        answers.write_text(json.dumps({name: True for name in checklist.names()}))
        result = runner.invoke(main, ["metric", "wpr", "--answers", str(answers)])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == 36

    def test_balaei_from_csv(self, runner, tmp_path):
        indicators = tmp_path / "ind.csv"
        indicators.write_text(
            "name,raw,max_observed,weight\na,0.5,1.0,1\nb,1.0,1.0,1\n"
        )
        result = runner.invoke(main, ["metric", "balaei", "--indicators", str(indicators)])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == pytest.approx(0.625)

    def test_balaei_strips_indicator_names(self, runner, tmp_path):
        indicators = tmp_path / "ind.csv"
        indicators.write_text("name,raw,max_observed,weight\n a ,0.5,1.0,1\nb,1.0,1.0,1\n")
        result = runner.invoke(main, ["metric", "balaei", "--indicators", str(indicators)])
        assert result.exit_code == 0
        assert json.loads(result.output)["indicators"] == ["a", "b"]

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_balaei_rejects_non_finite_weight(self, runner, tmp_path, weight):
        indicators = tmp_path / "ind.csv"
        indicators.write_text(f"name,raw,max_observed,weight\na,0.5,1.0,1\nb,1.0,1.0,{weight}\n")
        result = runner.invoke(main, ["metric", "balaei", "--indicators", str(indicators)])
        assert result.exit_code == 1
        assert "error:" in result.output
        assert "NaN" not in result.output

    @pytest.mark.parametrize("doc", [
        [1],
        {"categories": {"supply": [5]}},
        {"categories": {"supply": [{"name": {}, "tags": ["react"]}]}},
    ])
    def test_wpr_rejects_malformed_checklist(self, runner, tmp_path, doc):
        checklist = tmp_path / "cl.json"
        checklist.write_text(json.dumps(doc))
        answers = tmp_path / "answers.json"
        answers.write_text("{}")
        result = runner.invoke(main, ["metric", "wpr", "--checklist", str(checklist),
                                      "--answers", str(answers)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output

    def test_lps_units_accepted(self, runner, ring_network, net_path, tmp_path, state_path):
        doc = ring_network.to_dict()
        doc["units"] = "lps"
        for junction in doc["junctions"]:
            junction["design_demand"] *= 1000.0
        for source in doc["sources"]:
            source["outflow"] *= 1000.0
        for pipe in doc["pipes"]:
            pipe["capacity"] *= 1000.0
        lps_file = tmp_path / "ring_lps.json"
        lps_file.write_text(json.dumps(doc))
        a = runner.invoke(main, ["metric", "todini", "--network", str(lps_file),
                                 "--series", str(state_path)])
        b = runner.invoke(main, ["metric", "todini", "--network", str(net_path),
                                 "--series", str(state_path)])
        assert a.exit_code == 0 and b.exit_code == 0
        assert json.loads(a.output)["value"] == pytest.approx(json.loads(b.output)["value"])


class TestScenarioCommands:
    def spec_file(self, tmp_path, events=(), seed=3, horizon=4):
        doc = {"events": list(events), "seed": seed, "horizon": horizon}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_empty_scenario_full_supply(self, runner, net_path, tmp_path):
        spec = self.spec_file(tmp_path)
        result = runner.invoke(
            main, ["scenario", "run", "--network", str(net_path), "--spec", str(spec)]
        )
        assert result.exit_code == 0
        assert result.output.count("ratio=1") == 4

    def test_run_writes_series_and_is_deterministic(self, runner, net_path, tmp_path):
        spec = self.spec_file(
            tmp_path,
            events=[{"kind": "pipe_failure", "onset": 1, "repair": 3, "count": 1}],
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            result = runner.invoke(
                main,
                ["scenario", "run", "--network", str(net_path), "--spec", str(spec),
                 "--out", str(out)],
            )
            assert result.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_mc_report_and_replicates(self, runner, ring_network, net_path, tmp_path):
        from wdsres.performance import zhuang_availability
        from wdsres.scenario import Event, ScenarioSpec, apply_scenario

        spec = self.spec_file(
            tmp_path,
            events=[{"kind": "pipe_failure", "onset": 0, "repair": 4, "count": 1}],
        )
        out = tmp_path / "mc.json"
        reps = tmp_path / "reps.csv"
        result = runner.invoke(
            main,
            ["scenario", "mc", "--network", str(net_path), "--spec", str(spec),
             "--n", "4", "--metric", "zhuang", "--exhaustive",
             "--out", str(out), "--replicates-csv", str(reps)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["n"] == 4
        assert len(report["values"]) == 4
        assert len(reps.read_text().strip().splitlines()) == 5
        # one replicate per pipe, so the report equals direct evaluation
        expected = [
            zhuang_availability(
                apply_scenario(
                    ring_network,
                    ScenarioSpec((Event("pipe_failure", 0, 4, ids=(pid,)),), seed=3, horizon=4),
                )
            ).value
            for pid in sorted(ring_network.pipe_ids)
        ]
        assert report["values"] == pytest.approx(expected)
        assert report["summary"]["mean"] == pytest.approx(sum(expected) / 4)

    @pytest.mark.parametrize("event", [
        {"kind": "demand_scale", "onset": 0, "repair": 2, "factor": float("nan")},
        {"kind": "supply_scale", "onset": 0, "repair": 2, "factor": float("inf")},
        {"kind": "pipe_failure", "onset": 0, "repair": 2, "count": "1"},
        {"kind": "pipe_failure", "onset": 0, "repair": 2, "count": 1.0},
        {"kind": "pipe_failure", "onset": "x", "repair": 2, "ids": ["p1"]},
        {"kind": "pipe_failure", "onset": 0.5, "repair": 2, "ids": ["p1"]},
        {"kind": "pipe_failure", "onset": 0, "repair": 2, "ids": "p1"},
        5,
    ])
    def test_run_rejects_malformed_event_without_traceback(
        self, runner, net_path, tmp_path, event
    ):
        spec = self.spec_file(tmp_path, events=[event])  # json writes NaN and Infinity
        result = runner.invoke(
            main, ["scenario", "run", "--network", str(net_path), "--spec", str(spec)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output
        assert "Traceback" not in result.output
        assert "ratio=" not in result.output  # no series was printed

    @pytest.mark.parametrize("command", [["run"], ["mc", "--n", "2", "--metric", "zhuang"]])
    def test_an_id_listed_twice_exits_one(self, runner, tmp_path, command):
        # applied once per listing, the factor 2 would double J0_0's demand twice
        net_file = tmp_path / "torus.json"
        save_network(torus_network(3, 3), net_file)
        spec = self.spec_file(tmp_path, events=[
            {"kind": "demand_scale", "onset": 0, "repair": 2, "ids": ["J0_0", "J0_0"],
             "factor": 2.0},
        ])
        result = runner.invoke(
            main, ["scenario", *command, "--network", str(net_file), "--spec", str(spec)]
        )
        assert result.exit_code == 1
        assert "error: demand_scale lists ids more than once: ['J0_0']" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("field, value", [
        ("horizon", "x"), ("horizon", True), ("seed", "x"), ("events", 5),
    ])
    def test_run_rejects_malformed_spec_without_traceback(
        self, runner, net_path, tmp_path, field, value
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"events": [], "seed": 3, "horizon": 4, field: value}))
        result = runner.invoke(
            main, ["scenario", "run", "--network", str(net_path), "--spec", str(spec)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("section, field", [
        ("junctions", "design_demand"), ("pipes", "capacity"),
    ])
    def test_run_rejects_non_finite_network_number(
        self, runner, ring_network, tmp_path, section, field
    ):
        doc = ring_network.to_dict()
        doc[section][0][field] = float("inf")
        net_file = tmp_path / "inf.json"
        net_file.write_text(json.dumps(doc))  # json writes Infinity
        spec = self.spec_file(tmp_path)
        result = runner.invoke(
            main, ["scenario", "run", "--network", str(net_file), "--spec", str(spec)]
        )
        assert result.exit_code == 1
        assert "must be a finite number" in result.output
        assert "nan" not in result.output

    @pytest.mark.parametrize("demands, events", [
        # 1.7e308 is finite, 1.5 times it is not
        ((0.01, 1.7e308, 0.01),
         [{"kind": "demand_scale", "onset": 0, "repair": 2, "factor": 1.5}]),
        # every demand is finite, their sum is not
        ((1e308, 1e308, 1e308), []),
    ])
    def test_run_rejects_overflowing_demands_without_traceback(
        self, runner, ring_network, tmp_path, demands, events
    ):
        doc = ring_network.to_dict()
        for row, demand in zip(doc["junctions"], demands):
            row["design_demand"] = demand
        net_file = tmp_path / "huge.json"
        net_file.write_text(json.dumps(doc))
        spec = self.spec_file(tmp_path, events=events)
        result = runner.invoke(
            main, ["scenario", "run", "--network", str(net_file), "--spec", str(spec)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output and "must stay finite" in result.output
        assert "Traceback" not in result.output
        assert "ratio=" not in result.output

    def test_pipe_capacity_overflowing_when_doubled(self, runner, ring_network, tmp_path):
        doc = ring_network.to_dict()
        doc["pipes"][0]["capacity"] = 1.5e308
        net_file = tmp_path / "wide.json"
        net_file.write_text(json.dumps(doc))
        spec = self.spec_file(tmp_path)
        result = runner.invoke(
            main, ["scenario", "run", "--network", str(net_file), "--spec", str(spec)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: pipe capacities must stay finite when doubled" in result.output
        assert "ratio=" not in result.output
        # connectivity buffering ignores capacities, so it still runs
        result = runner.invoke(main, ["metric", "buffering", "--network", str(net_file)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["value"] == 1

    def test_mc_same_seed_byte_identical(self, runner, net_path, tmp_path):
        spec = self.spec_file(
            tmp_path,
            events=[{"kind": "pipe_failure", "onset": 0, "repair": 4, "count": 2}],
        )
        outputs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["scenario", "mc", "--network", str(net_path), "--spec", str(spec),
                 "--n", "6", "--metric", "zhuang", "--out", str(out)],
            )
            assert result.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_run_horizon_overrides_the_spec(self, runner, net_path, tmp_path):
        spec = self.spec_file(tmp_path, horizon=4)
        result = runner.invoke(main, ["scenario", "run", "--network", str(net_path),
                                      "--spec", str(spec), "--horizon", "2"])
        assert result.exit_code == 0, result.output
        assert [line.split()[0] for line in result.output.splitlines()] == ["t=0", "t=1"]

    def test_mc_seed_and_horizon_override_the_spec(self, runner, ring_network, net_path,
                                                   tmp_path):
        from dataclasses import replace

        from wdsres.scenario import load_scenario, monte_carlo

        spec = self.spec_file(
            tmp_path, events=[{"kind": "pipe_failure", "onset": 1, "repair": 5, "count": 1}],
            horizon=4,
        )
        result = runner.invoke(main, ["scenario", "mc", "--network", str(net_path), "--spec",
                                      str(spec), "--n", "3", "--metric", "zhuang",
                                      "--seed", "11", "--horizon", "6"])
        assert result.exit_code == 0, result.output
        expected = monte_carlo(
            ring_network, replace(load_scenario(spec), seed=11, horizon=6), 3, "zhuang"
        )
        assert json.loads(result.output) == expected.to_dict()

    @pytest.mark.parametrize("command", [["run"], ["mc", "--n", "2", "--metric", "zhuang"]],
                             ids=["run", "mc"])
    def test_horizon_zero_exits_one(self, runner, net_path, tmp_path, command):
        spec = self.spec_file(tmp_path)
        result = runner.invoke(main, ["scenario", command[0], "--network", str(net_path),
                                      "--spec", str(spec), *command[1:], "--horizon", "0"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "horizon" in lines[0]

    @pytest.mark.parametrize("horizon, override", [(4, None), (8, "5"), (8, "6")],
                             ids=["spec", "override", "override-at-onset"])
    @pytest.mark.parametrize("command", [["run"], ["mc", "--n", "2", "--metric", "hashimoto"]],
                             ids=["run", "mc"])
    def test_event_starting_at_or_after_the_horizon_exits_one(
        self, runner, net_path, tmp_path, command, horizon, override
    ):
        event = {"kind": "pipe_failure", "onset": 6, "repair": 9, "count": 2}
        spec = self.spec_file(tmp_path, events=[event], horizon=horizon)
        cut = ["--horizon", override] if override else []
        result = runner.invoke(main, ["scenario", command[0], "--network", str(net_path),
                                      "--spec", str(spec), *command[1:], *cut])
        assert result.exit_code == 1
        steps = int(override or horizon)
        assert result.output == ("error: pipe_failure event starts at step 6, "
                                 f"past the last step ({steps - 1}) of the horizon\n")

    @pytest.mark.parametrize("command", [["run"], ["mc", "--n", "2", "--metric", "zhuang"]],
                             ids=["run", "mc"])
    def test_event_starting_on_the_last_step_runs(self, runner, net_path, tmp_path, command):
        spec = self.spec_file(
            tmp_path, events=[{"kind": "pipe_failure", "onset": 3, "repair": 9, "count": 1}],
            horizon=4,
        )
        result = runner.invoke(main, ["scenario", command[0], "--network", str(net_path),
                                      "--spec", str(spec), *command[1:]])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_mc_workers_below_one_exits_one(self, runner, net_path, tmp_path, workers):
        spec = self.spec_file(tmp_path)
        out = tmp_path / "mc.json"
        result = runner.invoke(
            main,
            ["scenario", "mc", "--network", str(net_path), "--spec", str(spec), "--n", "2",
             "--metric", "zhuang", "--workers", workers, "--out", str(out)],
        )
        assert result.exit_code == 1
        assert result.output == "error: workers must be >= 1\n"
        assert not out.exists()


class TestCatalogCommands:
    def test_counts_prints_reference_numbers(self, runner):
        result = runner.invoke(main, ["catalog", "counts"])
        assert result.exit_code == 0
        assert "records: 59" in result.output
        assert "PB:  46" in result.output
        assert "TI:  34" in result.output

    def test_counts_json_out(self, runner, tmp_path):
        out = tmp_path / "counts.json"
        result = runner.invoke(main, ["catalog", "counts", "--out", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["flag_counts"]["TD"] == 25

    def test_correlate_writes_13x13(self, runner, tmp_path):
        out = tmp_path / "matrix.csv"
        result = runner.invoke(main, ["catalog", "correlate", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 14
        assert len(lines[1].split(",")) == 14

    def test_cluster_reports_perfect_agreement(self, runner, tmp_path):
        out = tmp_path / "labels.csv"
        result = runner.invoke(main, ["catalog", "cluster", "--k", "5", "--out", str(out)])
        assert result.exit_code == 0
        assert "agreement with reference labels: 1.0000" in result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 60

    def test_dendrogram_export(self, runner, tmp_path):
        out = tmp_path / "tree.json"
        result = runner.invoke(main, ["catalog", "dendrogram", "--out", str(out)])
        assert result.exit_code == 0
        tree = json.loads(out.read_text())
        assert len(tree["merges"]) == 58

    def test_dendrogram_text_is_utf8_in_a_c_locale(self, tmp_path):
        # before, the .txt was written in the locale's encoding: under C, a
        # non-ASCII name raised UnicodeEncodeError and left an empty file
        lines = bundled("catalog.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(lines[0] + "résilience 抵抗" + lines[1][lines[1].index(","):]
                           + "".join(lines[2:]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(wdsres.__file__).parents[1])}
        texts = []
        for name, locale in (("utf8", {"PYTHONUTF8": "1"}),
                             ("c", {"LC_ALL": "C", "PYTHONUTF8": "0",
                                    "PYTHONCOERCECLOCALE": "0"})):
            out = tmp_path / f"{name}.json"
            run = subprocess.run(
                [sys.executable, "-m", "wdsres.cli", "catalog", "dendrogram",
                 "--catalog", str(catalog), "--out", str(out), "--text"],
                capture_output=True, env=env | locale)
            assert run.returncode == 0, run.stderr
            texts.append(out.with_suffix(".txt").read_bytes())
        assert "- résilience 抵抗 [cluster".encode() in texts[0]
        assert texts[1] == texts[0]

    def test_correlate_prints_what_out_writes(self, runner, tmp_path):
        out = tmp_path / "matrix.csv"
        runner.invoke(main, ["catalog", "correlate", "--out", str(out)])
        result = runner.invoke(main, ["catalog", "correlate"])
        assert result.exit_code == 0
        assert result.stdout == out.read_text()

    def test_cluster_prints_what_out_writes(self, runner, tmp_path):
        out = tmp_path / "labels.csv"
        runner.invoke(main, ["catalog", "cluster", "--out", str(out)])
        result = runner.invoke(main, ["catalog", "cluster"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert result.stdout.splitlines() == [
            *(f"{label}  {name}" for name, _, label, _ in rows),
            "agreement with reference labels: 1.0000",
        ]

    def test_zero_variance_warning(self, runner, tmp_path):
        path = tmp_path / "catalog.csv"
        flags = ",".join(FLAG_COLUMNS)
        path.write_text(f"metric,citation,{flags},CL\n"
                        "a,x,1,0,0,1,1,0,1,0,0,0,1,0,0,1\n"
                        "b,x,0,1,0,0,0,1,0,1,0,0,0,1,0,2\n"
                        "c,x,1,1,0,0,1,0,0,1,0,0,1,1,0,3\n")
        result = runner.invoke(main, ["catalog", "correlate", "--catalog", str(path)])
        assert result.exit_code == 0
        assert result.stderr == "warning: zero-variance columns ['CM', 'L', 'RC', 'SB']\n"

    # --k 6 labels more clusters than the reference's five, so the agreement
    # matching swaps its sides; it matches at most 8 labels per side
    @pytest.mark.parametrize("k, code, last_line", [
        ("6", 0, "agreement with reference labels: 0.8305"),
        ("9", 1, "error: agreement matching supports at most 8 labels per side"),
    ])
    def test_cluster_k(self, runner, k, code, last_line):
        result = runner.invoke(main, ["catalog", "cluster", "--k", k])
        assert result.exit_code == code
        assert result.output.splitlines()[-1] == last_line

    def test_missing_catalog_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main, ["catalog", "counts", "--catalog", str(tmp_path / "no.csv")]
        )
        assert result.exit_code == 1


# every command line that writes a file; {target} is the path it writes
WRITERS = {
    "metric --out": ["metric", "todini", "--network", "{net}", "--series", "{state}",
                     "--out", "{target}"],
    "metric --nodes-out": ["metric", "herrera", "--network", "{net}",
                           "--nodes-out", "{target}"],
    "scenario run --out": ["scenario", "run", "--network", "{net}", "--spec", "{spec}",
                           "--out", "{target}"],
    "scenario mc --out": ["scenario", "mc", "--network", "{net}", "--spec", "{spec}",
                          "--n", "2", "--metric", "zhuang", "--out", "{target}"],
    "scenario mc --replicates-csv": ["scenario", "mc", "--network", "{net}", "--spec",
                                     "{spec}", "--n", "2", "--metric", "zhuang",
                                     "--replicates-csv", "{target}"],
    "catalog counts --out": ["catalog", "counts", "--out", "{target}"],
    "catalog correlate --out": ["catalog", "correlate", "--out", "{target}"],
    "catalog cluster --out": ["catalog", "cluster", "--out", "{target}"],
    "catalog dendrogram --out": ["catalog", "dendrogram", "--text", "--out", "{target}"],
}


class TestUnwritableOutput:
    @pytest.fixture
    def inputs(self, tmp_path, net_path, state_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"events": [], "seed": 1, "horizon": 2}))
        return {"net": net_path, "state": state_path, "spec": spec}

    def check_error(self, result, target):
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"error: cannot write {target}: " in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("kind", ["directory", "missing parent"])
    def test_exits_one_with_error_line(self, runner, tmp_path, inputs, writer, kind):
        if kind == "directory":
            target = tmp_path / "taken"
            target.mkdir()
        else:
            target = tmp_path / "missing" / "out"
        args = [a.format(target=target, **inputs) for a in WRITERS[writer]]
        self.check_error(runner.invoke(main, args), target)

    def test_dendrogram_text_render_path_is_a_directory(self, runner, tmp_path):
        out = tmp_path / "tree.json"
        (tmp_path / "tree.txt").mkdir()
        result = runner.invoke(main, ["catalog", "dendrogram", "--out", str(out), "--text"])
        self.check_error(result, tmp_path / "tree.txt")

    def test_dendrogram_writes_no_json_before_a_bad_text_path(self, runner, tmp_path):
        out = tmp_path / "tree.json"
        (tmp_path / "tree.txt").mkdir()
        runner.invoke(main, ["catalog", "dendrogram", "--out", str(out), "--text"])
        assert not out.exists()

    def test_catalog_counts_prints_nothing_before_the_error(self, runner, tmp_path):
        target = tmp_path / "missing" / "c.json"
        result = runner.invoke(main, ["catalog", "counts", "--out", str(target)])
        self.check_error(result, target)
        assert result.stdout == ""

    def test_parent_that_is_a_file(self, runner, tmp_path):
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "c.json"
        result = runner.invoke(main, ["catalog", "counts", "--out", str(target)])
        self.check_error(result, target)
        assert "Not a directory" in result.output

    def test_scenario_mc_writes_no_replicates_before_a_bad_out(self, runner, tmp_path, inputs,
                                                             monkeypatch):
        from wdsres import cli

        def refuse(*args, **kwargs):
            raise AssertionError("replicates ran before the output paths were checked")

        monkeypatch.setattr(cli, "monte_carlo", refuse)
        target, replicates = tmp_path / "missing" / "mc.json", tmp_path / "reps.csv"
        result = runner.invoke(main, [
            "scenario", "mc", "--network", str(inputs["net"]), "--spec", str(inputs["spec"]),
            "--n", "2", "--metric", "zhuang", "--replicates-csv", str(replicates),
            "--out", str(target),
        ])
        self.check_error(result, target)
        assert not replicates.exists()

    # {target} and {alias} name one file, the second through a "sub/.." detour
    @pytest.mark.parametrize("args", [
        ["metric", "herrera", "--network", "{net}", "--out", "{target}",
         "--nodes-out", "{alias}"],
        ["scenario", "mc", "--network", "{net}", "--spec", "{spec}", "--n", "2",
         "--metric", "zhuang", "--out", "{target}", "--replicates-csv", "{alias}"],
        # the text render goes to the --out path with suffix .txt
        ["catalog", "dendrogram", "--out", "{target}", "--text"],
    ], ids=["metric herrera", "scenario mc", "catalog dendrogram"])
    def test_two_outputs_naming_one_file_exit_one_before_any_work(self, runner, tmp_path,
                                                                  inputs, args):
        target = tmp_path / "out.txt"
        (tmp_path / "sub").mkdir()
        alias = tmp_path / "sub" / ".." / "out.txt"
        result = runner.invoke(main, [a.format(target=target, alias=alias, **inputs)
                                      for a in args])
        assert result.exit_code == 1
        assert result.output.startswith("error: two outputs name the same file: ")
        assert "Traceback" not in result.output
        assert not target.exists()

    # each output names one of the command's own input files
    @pytest.mark.parametrize("args", [
        ["metric", "herrera", "--network", "{net}", "--nodes-out", "{net}"],
        ["metric", "todini", "--network", "{net}", "--series", "{state}", "--out", "{state}"],
        ["metric", "balaei", "--indicators", "{indicators}", "--out", "{indicators}"],
        ["metric", "wpr", "--checklist", "{checklist}", "--answers", "{answers}",
         "--out", "{checklist}"],
        ["metric", "wpr", "--answers", "{answers}", "--out", "{answers}"],
        ["scenario", "run", "--network", "{net}", "--spec", "{spec}", "--out", "{spec}"],
        ["scenario", "mc", "--network", "{net}", "--spec", "{spec}", "--n", "2",
         "--metric", "zhuang", "--replicates-csv", "{net}"],
        ["catalog", "counts", "--catalog", "{catalog}", "--out", "{catalog}"],
        ["catalog", "dendrogram", "--catalog", "{catalog}", "--out", "{catalog}"],
    ], ids=["metric --nodes-out", "metric --out series", "metric --out indicators",
            "metric --out checklist", "metric --out answers", "scenario run --out",
            "scenario mc --replicates-csv", "catalog counts --out", "catalog dendrogram --out"])
    def test_output_naming_an_input_exits_one_and_leaves_it(self, runner, tmp_path, inputs,
                                                            args):
        from wdsres.inputs import bundled

        files = dict(inputs, indicators=tmp_path / "ind.csv", answers=tmp_path / "ans.json",
                     checklist=tmp_path / "checklist.json", catalog=tmp_path / "catalog.csv")
        files["indicators"].write_text("name,raw,max_observed,weight\na,0.5,1.0,1\n")
        files["answers"].write_text("{}")
        files["checklist"].write_bytes(bundled("wpr_checklist.json").read_bytes())
        files["catalog"].write_bytes(bundled("catalog.csv").read_bytes())
        before = {name: path.read_bytes() for name, path in files.items()}
        result = runner.invoke(main, [a.format(**files) for a in args])
        assert result.exit_code == 1
        assert result.output.startswith("error: an output names an input file: ")
        assert {name: path.read_bytes() for name, path in files.items()} == before

    # each output names the bundled file that the command reads by default,
    # which lies in the package's data directory, where no output may go
    @pytest.mark.parametrize("args", [
        ["catalog", "counts", "--out", "{catalog}"],
        ["catalog", "correlate", "--out", "{catalog}"],
        ["catalog", "cluster", "--out", "{catalog}"],
        ["catalog", "dendrogram", "--out", "{catalog}"],
        ["metric", "wpr", "--answers", "{answers}", "--out", "{checklist}"],
    ], ids=lambda args: " ".join(args[:2]))
    def test_output_naming_a_bundled_default_exits_one_and_leaves_it(self, runner, tmp_path,
                                                                     args):
        from wdsres.inputs import bundled

        answers = tmp_path / "answers.json"
        answers.write_text("{}")
        defaults = {"catalog": bundled("catalog.csv"),
                    "checklist": bundled("wpr_checklist.json")}
        before = {name: path.read_bytes() for name, path in defaults.items()}
        try:
            result = runner.invoke(main, [a.format(answers=answers, **defaults) for a in args])
            assert result.exit_code == 1
            assert result.output.startswith("error: an output names a bundled data file: ")
            assert {name: path.read_bytes() for name, path in defaults.items()} == before
        finally:
            for name, path in defaults.items():
                path.write_bytes(before[name])

    def test_output_in_the_package_data_exits_one_and_leaves_it(self, runner):
        from wdsres.inputs import bundled

        # catalog cluster does not read the checklist, but metric wpr does by default
        checklist = bundled("wpr_checklist.json")
        before = checklist.read_bytes()
        try:
            result = runner.invoke(main, ["catalog", "cluster", "--out", str(checklist)])
            assert result.exit_code == 1
            assert result.output.startswith("error: an output names a bundled data file: ")
            assert checklist.read_bytes() == before
        finally:
            checklist.write_bytes(before)


# every command line that reads --threshold; {net}, {state} and {spec} are inputs
THRESHOLD_READERS = {
    "scenario mc": ["scenario", "mc", "--network", "{net}", "--spec", "{spec}", "--n", "2",
                    "--metric", "zhuang"],
    "metric zhuang": ["metric", "zhuang", "--series", "{state}"],
    "metric user_severity": ["metric", "user_severity", "--series", "{state}", "--node", "J1"],
    "metric herrera": ["metric", "herrera", "--network", "{net}"],
    "metric hashimoto": ["metric", "hashimoto", "--series", "{state}"],
    "metric buffering": ["metric", "buffering", "--network", "{net}"],
}


class TestThresholdRange:
    @pytest.mark.parametrize("command", sorted(THRESHOLD_READERS))
    @pytest.mark.parametrize("threshold", ["nan", "5", "-1", "0"])
    def test_out_of_range_exits_one_before_any_work(self, runner, tmp_path, net_path,
                                                    state_path, monkeypatch, command,
                                                    threshold):
        from wdsres import cli

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read before the threshold was checked")

        monkeypatch.setattr(cli, "load_network", refuse)
        monkeypatch.setattr(cli, "load_series", refuse)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"events": [], "seed": 1, "horizon": 2}))
        args = [a.format(net=net_path, state=state_path, spec=spec)
                for a in THRESHOLD_READERS[command]]
        result = runner.invoke(main, [*args, "--threshold", threshold])
        assert result.exit_code == 1
        assert result.output == "error: threshold must lie in (0, 1]\n"


# each command's options, read from the click objects, as tests/test_api.py
# pins the public names: adding or deleting a flag is a visible diff here
OPTIONS = {
    "catalog cluster": ["--catalog", "--k", "--out"],
    "catalog correlate": ["--catalog", "--out"],
    "catalog counts": ["--catalog", "--out"],
    "catalog dendrogram": ["--catalog", "--k", "--out", "--text"],
    "list-metrics": ["--catalog"],
    "metric": ["--K", "--answers", "--checklist", "--indicators", "--max-k", "--network",
               "--node", "--nodes-out", "--out", "--per-node", "--series", "--threshold",
               "--trim"],
    "scenario mc": ["--exhaustive", "--horizon", "--metric", "--n", "--network", "--out",
                    "--replicates-csv", "--seed", "--spec", "--threshold", "--workers"],
    "scenario run": ["--horizon", "--network", "--out", "--seed", "--spec"],
}


def _commands(group, prefix=()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _commands(command, (*prefix, name))
        else:
            yield " ".join((*prefix, name)), command


class TestOptions:
    def test_command_options(self):
        assert {
            name: sorted(flag for param in command.params if isinstance(param, click.Option)
                         for flag in param.opts)
            for name, command in _commands(main)
        } == OPTIONS

    # a network file's own units key is the one source of its flow units
    @pytest.mark.parametrize("args", [
        ["metric", "buffering", "--network", "{net}"],
        ["scenario", "run", "--network", "{net}", "--spec", "{spec}"],
        ["scenario", "mc", "--network", "{net}", "--spec", "{spec}", "--n", "2",
         "--metric", "zhuang"],
    ], ids=lambda args: " ".join(args[:2]))
    def test_units_is_a_usage_error(self, runner, tmp_path, net_path, args):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"events": [], "seed": 1, "horizon": 2}))
        result = runner.invoke(main, [*(a.format(net=net_path, spec=spec) for a in args),
                                      "--units", "lps"])
        assert result.exit_code == 2
        assert "No such option '--units'" in result.output


class TestListMetrics:
    def test_lists_implemented_metrics_with_flags(self, runner):
        result = runner.invoke(main, ["list-metrics"])
        assert result.exit_code == 0
        assert "todini" in result.output
        assert "Todini 2000" in result.output
        assert "cluster 3" in result.output
        for name in ("zhuang", "hashimoto", "herrera", "wpr", "buffering"):
            assert name in result.output


# a fresh interpreter runs one command, then prints which of the comma-separated
# modules were ever loaded; "load_network" stands for a library caller instead
# of the CLI
_PROBE = (
    "import sys\n"
    "import wdsres\n"
    "modules, args = sys.argv[1].split(','), sys.argv[2:]\n"
    "if args[0] == 'load_network':\n"
    "    wdsres.load_network(args[1])\n"
    "else:\n"
    "    from wdsres.cli import main\n"
    "    try:\n"
    "        main(args)\n"
    "    except SystemExit as exc:\n"
    "        assert not exc.code, exc.code\n"
    "print([m for m in modules if m in sys.modules])\n"
)

# case -> (argv, modules that must stay unloaded, {output: text it must hold});
# numpy costs more to import than a structural metric takes to run, and
# numpy.ma more than a small Monte Carlo run; a library caller that only
# loads a network, and a command that reads no catalog, import nothing more
STARTUP_CASES = {
    "import wdsres, load_network": (
        ["load_network", "{net}"],
        ("numpy", "wdsres.hydraulics", "wdsres.catalog", "hashlib", "logging"), {}),
    "metric herrera --nodes-out": (
        ["metric", "herrera", "--network", "{net}", "--nodes-out", "{tmp}/nodes.csv",
         "--out", "{tmp}/report.json"],
        ("numpy",), {"report.json": '"name": "herrera_trimmed_index"', "nodes.csv": "\nJ3,"}),
    "metric buffering": (
        ["metric", "buffering", "--network", "{net}", "--out", "{tmp}/report.json"],
        ("numpy", "wdsres.catalog", "wdsres.wardclust", "logging"),
        {"report.json": '"feasibility": "all junctions connected to a source"'}),
    "metric buffering --threshold": (
        ["metric", "buffering", "--network", "{net}", "--threshold", "0.99",
         "--out", "{tmp}/report.json"],
        ("numpy",), {"report.json": '"feasibility": "supply ratio >= 0.99"'}),
    "metric wpr": (
        ["metric", "wpr", "--answers", "{answers}", "--out", "{tmp}/report.json"],
        ("numpy",), {"report.json": '"value": 36'}),
    "metric balaei": (
        ["metric", "balaei", "--indicators", "{indicators}", "--out", "{tmp}/report.json"],
        ("numpy",), {"report.json": '"value": 0.625'}),
    "catalog counts": (["catalog", "counts", "--out", "{tmp}/report.json"],
                       ("numpy",), {"report.json": '"total": 59'}),
    "catalog cluster": (["catalog", "cluster", "--out", "{tmp}/labels.csv"],
                        ("numpy",), {"labels.csv": "\nmeasure of performance (MOP),"}),
    "catalog dendrogram --text": (
        ["catalog", "dendrogram", "--out", "{tmp}/tree.json", "--text"],
        ("numpy",), {"tree.json": '"k": 5',
                     "tree.txt": "- measure of performance (MOP) [cluster 1]"}),
    "--help": (["--help"], ("numpy",), {"stdout": "Usage:"}),
    "scenario mc": (
        ["scenario", "mc", "--network", "{net}", "--spec", "{spec}", "--n", "3",
         "--metric", "zhuang", "--out", "{tmp}/report.json"],
        ("numpy.ma", "wdsres.catalog", "logging"), {"report.json": '"n": 3'}),
}


class TestStartUp:
    @pytest.mark.parametrize("case", list(STARTUP_CASES))
    def test_command_leaves_module_unloaded(self, net_path, tmp_path, case):
        argv, modules, want = STARTUP_CASES[case]
        answers = tmp_path / "answers.json"
        answers.write_text(json.dumps({name: True for name in load_checklist().names()}))
        indicators = tmp_path / "ind.csv"
        indicators.write_text("name,raw,max_observed,weight\na,0.5,1.0,1\nb,1.0,1.0,1\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"events": [{"kind": "pipe_failure", "onset": 0,
                                                "repair": 3, "count": 1}],
                                    "seed": 3, "horizon": 3}))
        args = [a.format(net=net_path, tmp=tmp_path, answers=answers,
                         indicators=indicators, spec=spec) for a in argv]
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, ",".join(modules), *args],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(wdsres.__file__).parents[1])},
        )
        for name, text in want.items():
            got = out.stdout if name == "stdout" else (tmp_path / name).read_text()
            assert text in got, name
        assert out.stdout.splitlines()[-1] == "[]"
