"""Tests of the benchmark itself: generator, trace wrappers and tiny runs of each workload."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import netgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import wdsres  # noqa: E402

TINY = (4, 4)


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, networks={stem: TINY for stem in workload.networks})


def test_generator_is_deterministic_and_seed_changes_only_values():
    a = netgen.network_bytes(5, 6, seed=3)
    assert a == netgen.network_bytes(5, 6, seed=3)
    b = netgen.network_bytes(5, 6, seed=4)
    assert a != b
    doc_a, doc_b = json.loads(a), json.loads(b)
    assert [p["endpoints"] for p in doc_a["pipes"]] == [p["endpoints"] for p in doc_b["pipes"]]
    assert [j["id"] for j in doc_a["junctions"]] == [j["id"] for j in doc_b["junctions"]]


def test_generated_grid_wraps_around_and_meets_its_design_demand():
    net = wdsres.network_from_dict(netgen.grid_network(5, 6, seed=1))
    assert net.n_junctions == 30 and net.n_sources == 2
    assert {net.node_degree(j) for j in net.junction_ids} <= {4, 5}
    alloc = wdsres.allocate_flows(net)
    assert alloc.total_delivered == pytest.approx(alloc.total_demand, rel=1e-12)


def test_wrappers_trace_calls_and_restore_every_binding():
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name == "wdsres" or name.startswith("wdsres.")}
    methods = (wdsres.Network.__dict__["reachable_from_sources"],
               wdsres.HydraulicSeries.__dict__["__post_init__"])
    net = wdsres.network_from_dict(netgen.grid_network(*TINY, seed=0))
    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    try:
        original = modules["wdsres.scenario"]["surrogate_allocation"]
        assert wdsres.scenario.surrogate_allocation is not original
        assert wdsres.performance.supply_feasibility(net, 0.99)(frozenset())
        wdsres.scenario.surrogate_allocation(net)
    finally:
        installed.remove()

    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[key] is value for key, value in before.items()), name
    assert wdsres.Network.__dict__["reachable_from_sources"] is methods[0]
    assert wdsres.HydraulicSeries.__dict__["__post_init__"] is methods[1]

    names = [s.name for s in recorder.spans]
    assert names.count("performance.feasibility") == 1
    assert names.count("hydraulics.alloc") == 2
    assert len(recorder.keys["hydraulics.alloc"]) == 1  # both solves had the intact state
    surrogate = names.index("hydraulics.surrogate")
    children = {s.name for s in recorder.spans if s.parent == surrogate}
    assert children == {"hydraulics.alloc", "hydraulics.series"}


def test_self_time_subtracts_direct_children():
    spans = [tracing.Span("a", 0.0, 10.0, -1), tracing.Span("b", 1.0, 4.0, 0),
             tracing.Span("c", 2.0, 3.0, 1), tracing.Span("b", 5.0, 6.0, 0)]
    assert tracing.self_time(spans, "a") == pytest.approx(6.0)
    assert tracing.self_time(spans, "b") == pytest.approx(3.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_through_the_cli_and_passes_its_checks(name, tmp_path):
    workload = tiny(name)
    workload.write_inputs(tmp_path, seed=7)
    loop = run.Loop(workload, tmp_path)
    for workers in (2, 1):
        loop.once(workers)
    assert loop.problems == [] and (loop.attempted, loop.failed) == (2, 0)


def test_broken_report_counts_as_a_failed_run(tmp_path):
    workload = tiny("supply-buffering")
    workload.write_inputs(tmp_path, seed=7)
    loop = run.Loop(workload, tmp_path)
    loop.once(workers=1)
    report = tmp_path / "supply-report.json"
    report.write_text(report.read_text().replace('"value": 2', '"value": 3'))
    assert workload.verify(tmp_path)[0]
    (tmp_path / "supply.json").write_text("{}")
    loop.once(workers=1)
    assert (loop.attempted, loop.failed) == (2, 1)


def test_untimed_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_SETUP_PROBES", 1)
    loop = run.Loop(tiny("mc-sweep"), tmp_path)
    metrics, problems = run.measure(loop, seed=7, seconds=0)
    assert problems == [] and loop.problems == []
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["success_rate"] == 1.0 and loop.attempted == 3  # warm-up, sample, workers 1
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0 and metrics["peak_rss_mb"] > 0


def test_host_scaled_divides_by_the_reference_loops_around_the_sample(monkeypatch):
    loops = iter([0.03, 0.05])
    monkeypatch.setattr(run, "reference_loop", lambda: next(loops))
    seconds, rescaled = run.host_scaled(lambda: 0.8)
    assert seconds == 0.8
    assert rescaled == pytest.approx(0.8 * run.REFERENCE_S / 0.04)


def test_reference_run_counts_as_a_run_and_is_compared_byte_for_byte(tmp_path):
    loop = run.Loop(tiny("structural"), tmp_path / "run")
    expected = {"structural": "0" * 64, "catalog": "0" * 64}
    assert run.reference_check(loop, tmp_path / "ref", expected) == [
        "catalog: reports differ from expected.json"]
    assert (loop.attempted, loop.failed) == (1, 1)


@pytest.mark.parametrize("name, expected", [
    ("mc-sweep", {"hydraulics.alloc_calls": 48, "hydraulics.alloc_distinct_states": 6,
                  "hydraulics.series_builds": 50, "scenario.apply_calls": 2}),
    ("supply-buffering", {"hydraulics.alloc_useful_ratio": 1.0}),
    ("structural", {"hydraulics.alloc_calls": 0, "graphmetrics.node_index_useful_ratio": 0.5}),
])
def test_traced_run_reports_every_layer_metric(name, expected, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    loop = run.Loop(tiny(name), tmp_path / "run")
    metrics, problems = run.measure_layers(loop, seed=7, seconds=0)
    assert problems == [] and loop.problems == []
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert {key: metrics[key] for key in expected} == expected


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_runner_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
