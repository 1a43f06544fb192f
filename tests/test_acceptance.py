"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and enforces the stated runtime budget.  Golden values are
hand-derived or produced by the independent oracles defined alongside the
module tests; none are outputs of the code under test.
"""

import itertools
import json
import math
import random
import time

import pytest
from click.testing import CliRunner

from wdsres.catalog import (
    load_catalog,
    pearson_matrix,
    reference_agreement,
    summary_counts,
    ward_clustering,
)
from wdsres.cli import main
from wdsres.errors import InfeasibleDesignError
from wdsres.graphmetrics import (
    k_shortest_paths,
    node_resilience_index,
    trimmed_mean_index,
)
from wdsres.hydraulics import allocate_flows, classify_states
from wdsres.network import Junction, Network, Pipe, Pump, Source, save_network
from wdsres.performance import (
    buffering_capacity,
    connectivity_buffering,
    connectivity_feasibility,
    flow_based_resilience,
    hashimoto_recovery,
    pipe_fragility,
    todini_index,
    zhuang_availability,
)
from wdsres.scenario import Event, ScenarioSpec
from wdsres.scoremetrics import Indicator, balaei_aggregate, load_checklist, wpr_score

from .conftest import make_network, make_pipe, make_series
from .test_graphmetrics import all_simple_paths
from .test_hydraulics import exhaustive_min_cut


class _Criterion:
    """Prints the per-criterion verdict line whatever the outcome."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"\ncriterion {self.number}: {status} - {self.description} "
            f"[{self.elapsed:.2f}s]"
        )
        return False


def test_criterion_1_catalog_fidelity():
    with _Criterion(1, "catalog counts match the dataset reference totals") as crit:
        summary = summary_counts(load_catalog())
        assert summary.total == 59
        assert summary.flag_counts["TI"] == 34
        assert summary.flag_counts["TD"] == 25
        assert summary.flag_counts["GT"] == 9
        assert summary.flag_counts["SB"] == 4
        assert summary.flag_counts["CM"] == 15
        assert summary.flag_counts["BF"] == 20
        assert summary.flag_counts["RD"] == 18
        assert summary.flag_counts["RC"] == 21
        assert summary.flag_counts["A"] == 34
        assert summary.flag_counts["R"] == 26
        assert summary.flag_counts["M"] == 1
        assert summary.flag_counts["L"] == 1
        # one row carries no quantification flag, hence the +-1 band
        assert abs(summary.flag_counts["PB"] - 46) <= 1
        assert crit.elapsed < 1.0


def test_criterion_2_clustering_reproduction():
    with _Criterion(2, "Ward 5-cluster partition matches the reference labels") as crit:
        records = load_catalog()
        result = ward_clustering(records, k=5)
        agreement = reference_agreement(records, result)
        if agreement < 1.0:
            mismatches = [
                (r.name, got, r.cluster)
                for r, got in zip(records, result.labels)
                if got != r.cluster
            ]
            print("cluster mismatches:", mismatches)
            assert agreement >= 57 / 59
        else:
            assert agreement == 1.0
        assert crit.elapsed < 1.0


def test_criterion_3_correlation_signs():
    with _Criterion(3, "category correlations show the expected sign structure"):
        matrix = pearson_matrix(load_catalog())
        assert matrix.entry("R", "TD") > 0.6
        assert matrix.entry("A", "TI") > 0.6
        assert matrix.entry("RC", "TD") > 0.6
        assert matrix.entry("RD", "GT") > 0.3
        # golden values frozen from an independent scipy.stats recomputation
        assert matrix.entry("R", "TD") == pytest.approx(0.8969653425430084, abs=1e-12)
        assert matrix.entry("A", "TI") == pytest.approx(0.8611764705882354, abs=1e-12)
        assert matrix.entry("RC", "TD") == pytest.approx(0.7236613053081086, abs=1e-12)
        assert matrix.entry("RD", "GT") == pytest.approx(0.5379318465051985, abs=1e-12)


def test_criterion_4_metric_golden_values(hashimoto_series, zhuang_series,
                                          two_route_network, pump_network):
    with _Criterion(4, "metric golden values at 1e-9"):
        tol = 1e-9
        gamma = hashimoto_recovery(classify_states(hashimoto_series, 0.9)).value
        assert gamma == pytest.approx(20 / 27, abs=tol)

        assert zhuang_availability(zhuang_series).value == pytest.approx(0.825, abs=tol)

        pipe = make_pipe("p", "a", "b", length=100.0, repair_rate=0.005)
        assert pipe_fragility(pipe) == pytest.approx(1 - math.exp(-0.5), abs=tol)

        single = make_network(
            junctions=[Junction("J1", 0.0, 0.01, 30.0)],
            sources=[Source("R1", 100.0, 0.05)],
            pipes=[make_pipe("p1", "R1", "J1")],
        )
        state = make_series(("J1",), [[0.01]], [[0.01]], head=[[40.0]])
        assert flow_based_resilience(single, state).value == pytest.approx(1 / 12, abs=tol)

        lean = make_network(
            junctions=[Junction("J1", 0.0, 0.01, 30.0)],
            sources=[Source("R1", 100.0, 0.01)],
            pipes=[make_pipe("p1", "R1", "J1")],
        )
        assert todini_index(lean, state).value == pytest.approx(1 / 7, abs=tol)
        assert todini_index(pump_network, state).value == pytest.approx(0.1, abs=tol)

        assert node_resilience_index(two_route_network, "A", 2) == pytest.approx(
            0.01875, abs=tol
        )

        assert trimmed_mean_index([1, 2, 3, 4, 100], 0.2) == pytest.approx(3.0, abs=tol)

        indicators = [Indicator("a", 0.5, 1.0, 1.0), Indicator("b", 1.0, 1.0, 1.0)]
        assert balaei_aggregate(indicators) == pytest.approx(0.625, abs=tol)

        checklist = load_checklist()
        assert wpr_score(checklist, {n: True for n in checklist.names()}) == 36
        assert wpr_score(checklist, {n: False for n in checklist.names()}) == 0


def test_criterion_5_oracle_equivalence(ring_network, tree_network, minimal_network,
                                        two_route_network, mesh_network, tight_ring):
    suite = [ring_network, tree_network, minimal_network, two_route_network,
             mesh_network, tight_ring]
    assert all(len(net.node_ids) <= 8 for net in suite)
    with _Criterion(5, "library results equal exhaustive oracles on all fixtures") as crit:
        # k-shortest paths vs full simple-path enumeration
        for net in suite:
            for start in net.node_ids:
                for goal in net.node_ids:
                    if start == goal:
                        continue
                    oracle = all_simple_paths(net, start, goal)
                    for k in (1, 3, len(oracle) + 1):
                        got = k_shortest_paths(net, start, goal, k)
                        assert [(p.resistance, p.pipes) for p in got] == [
                            (pytest.approx(c), pipes) for c, pipes in oracle[:k]
                        ]

        # buffering capacity, enumerated and by Menger's theorem, vs independent subset scan
        for net in (ring_network, tree_network, mesh_network):
            oracle = connectivity_feasibility(net)
            components = sorted((*net.pipe_ids, *net.pump_ids))
            expected = 0
            for size in (1, 2):
                if all(
                    oracle(frozenset(sub))
                    for sub in itertools.combinations(components, size)
                ):
                    expected = size
                else:
                    break
            assert buffering_capacity(net, oracle, max_k=2) == expected
            assert connectivity_buffering(net, max_k=2) == expected

        # allocator totals vs min-cut enumeration (strong duality)
        for net in suite:
            for r in range(3):
                for failed in itertools.combinations(net.pipe_ids, r):
                    got = allocate_flows(net, failed_pipes=set(failed)).total_delivered
                    want = exhaustive_min_cut(net, failed_pipes=set(failed))
                    assert got == pytest.approx(want, abs=1e-12)
        assert crit.elapsed < 10.0


def test_criterion_6_property_suites():
    cases = 1000
    with _Criterion(6, f"randomised invariants, {cases} cases each") as crit:
        rng = random.Random(2024)

        # Zhuang availability: monotone in every delivered entry, [0, 1]
        # whenever delivery never exceeds demand
        for _ in range(cases):
            steps = rng.randint(1, 3)
            nodes = rng.randint(1, 3)
            ids = tuple(f"n{i}" for i in range(nodes))
            demand = [[rng.uniform(0.001, 0.05) for _ in ids] for _ in range(steps)]
            delivered = [[rng.uniform(0.0, d) for d in row] for row in demand]
            series = make_series(ids, delivered, demand)
            base = zhuang_availability(series).value
            assert 0.0 <= base <= 1.0
            t = rng.randrange(steps)
            i = rng.randrange(nodes)
            bumped = [row[:] for row in delivered]
            bumped[t][i] += rng.uniform(1e-6, 0.01)
            higher = zhuang_availability(make_series(ids, bumped, demand)).value
            assert higher > base

        # pipe fragility strictly increasing in repair_rate * length
        for _ in range(cases):
            a = rng.uniform(0.0, 20.0)
            b = rng.uniform(1e-4, 10.0)
            lo = make_pipe("p", "x", "y", length=1.0, repair_rate=a)
            hi = make_pipe("q", "x", "y", length=1.0, repair_rate=a + b)
            assert 0.0 <= pipe_fragility(lo) < pipe_fragility(hi) < 1.0

        # energy-balance index: node relabeling and two-group scaling
        checked = 0
        while checked < cases:
            net, series = _random_net_state(rng)
            try:
                base = todini_index(net, series).value
            except InfeasibleDesignError:
                continue
            relabeled_net, relabeled_series = _relabel(net, series)
            assert math.isclose(
                todini_index(relabeled_net, relabeled_series).value,
                base, rel_tol=1e-9, abs_tol=1e-12,
            )
            c = rng.uniform(0.1, 10.0)
            d = rng.uniform(0.1, 10.0)
            scaled_net, scaled_series = _scale_groups(net, series, c, d)
            assert math.isclose(
                todini_index(scaled_net, scaled_series).value,
                base, rel_tol=1e-9, abs_tol=1e-12,
            )
            checked += 1

        # checklist score moves by exactly one per flipped answer
        checklist = load_checklist()
        names = checklist.names()
        for _ in range(cases):
            answers = {n: rng.random() < 0.5 for n in names}
            base = wpr_score(checklist, answers)
            name = rng.choice(names)
            answers[name] = not answers[name]
            assert wpr_score(checklist, answers) - base == (1 if answers[name] else -1)

        assert crit.elapsed < 30.0


def test_criterion_7_monte_carlo_determinism(ring_network, tmp_path):
    with _Criterion(7, "Monte Carlo is byte-identical across runs and worker counts"):
        spec = ScenarioSpec(
            (
                Event("pipe_failure", 0, 3, count=1),
                Event("demand_scale", 1, 4, factor=1.5),
            ),
            seed=99,
            horizon=4,
        )
        net_path, spec_path = tmp_path / "ring.json", tmp_path / "spec.json"
        save_network(ring_network, net_path)
        spec_path.write_text(json.dumps(spec.to_dict()))
        blobs = []
        # the worker count is a CLI option only
        for i, workers in enumerate((1, 1, 4, 7)):
            out = tmp_path / f"mc{i}.json"
            result = CliRunner().invoke(main, [
                "scenario", "mc", "--network", str(net_path), "--spec", str(spec_path),
                "--n", "12", "--metric", "zhuang", "--workers", str(workers), "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


def _random_net_state(rng):
    """Random small network and matching single-step series."""
    n_junctions = rng.randint(1, 4)
    junctions = [
        Junction(f"J{i}", 0.0, rng.uniform(0.001, 0.02), rng.uniform(5.0, 40.0))
        for i in range(n_junctions)
    ]
    sources = [Source("R0", rng.uniform(80.0, 200.0), rng.uniform(0.02, 0.2))]
    pumps = [Pump("b0", rng.uniform(0.0, 2000.0))] if rng.random() < 0.5 else []
    nodes = [sources[0].id] + [j.id for j in junctions]
    pipes = [
        make_pipe(f"p{i}", rng.choice(nodes[: i + 1]), junctions[i].id)
        for i in range(n_junctions)
    ]
    net = make_network(junctions, sources, pipes, pumps)
    ids = tuple(sorted(j.id for j in junctions))
    series = make_series(
        ids,
        [[rng.uniform(0.0, 0.02) for _ in ids]],
        [[net.junction(n).design_demand for n in ids]],
        head=[[rng.uniform(10.0, 60.0) for _ in ids]],
        required_head=[[net.junction(n).required_head for n in ids]],
    )
    return net, series


def _relabel(net, series):
    """Rename nodes, reorder elements, permute series columns."""
    rename = {nid: f"q_{nid[::-1]}" for nid in net.node_ids}
    junctions = sorted(
        (Junction(rename[j.id], j.elevation, j.design_demand, j.required_head)
         for j in net.junctions),
        key=lambda j: j.id,
    )
    sources = [Source(rename[s.id], s.total_head, s.outflow) for s in net.sources]
    pipes = [
        Pipe(p.id, (rename[p.endpoints[0]], rename[p.endpoints[1]]), p.length,
             p.diameter, p.friction_factor, p.repair_rate, p.capacity)
        for p in reversed(net.pipes)
    ]
    mapped = Network(tuple(junctions), tuple(sources), tuple(net.pumps), tuple(pipes))
    order = [
        series.node_ids.index(old)
        for old in sorted(series.node_ids, key=lambda n: rename[n])
    ]
    mapped_series = make_series(
        tuple(sorted(rename[n] for n in series.node_ids)),
        series.delivered[:, order], series.demand[:, order],
        series.head[:, order], series.required_head[:, order],
    )
    return mapped, mapped_series


def _scale_groups(net, series, c, d):
    """Scale flows by c, heads by d, pump power by c*d."""
    junctions = [
        Junction(j.id, j.elevation, j.design_demand * c, j.required_head * d)
        for j in net.junctions
    ]
    sources = [Source(s.id, s.total_head * d, s.outflow * c) for s in net.sources]
    pumps = [Pump(p.id, p.power * c * d) for p in net.pumps]
    scaled_net = Network(tuple(junctions), tuple(sources), tuple(pumps), net.pipes)
    scaled_series = make_series(
        series.node_ids,
        series.delivered * c, series.demand * c,
        series.head * d, series.required_head * d,
    )
    return scaled_net, scaled_series
