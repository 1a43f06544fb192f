"""CLI surface: exit codes, report content and byte-level determinism."""

import json

import pytest
from click.testing import CliRunner

from wdsres.cli import main
from wdsres.hydraulics import load_series, save_series
from wdsres.network import save_network
from wdsres.performance import todini_index
from wdsres.scoremetrics import load_checklist

from .conftest import make_series


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

    def test_buffering_on_ring(self, runner, net_path):
        result = runner.invoke(main, ["metric", "buffering", "--network", str(net_path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == 1

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
                    ScenarioSpec((Event("pipe_failure", 0, 4, ids=(pid,)),), seed=3),
                    horizon=4,
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

    def test_missing_catalog_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main, ["catalog", "counts", "--catalog", str(tmp_path / "no.csv")]
        )
        assert result.exit_code == 1


class TestListMetrics:
    def test_lists_implemented_metrics_with_flags(self, runner):
        result = runner.invoke(main, ["list-metrics"])
        assert result.exit_code == 0
        assert "todini" in result.output
        assert "Todini 2000" in result.output
        assert "cluster 3" in result.output
        for name in ("zhuang", "hashimoto", "herrera", "wpr", "buffering"):
            assert name in result.output
