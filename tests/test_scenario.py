"""Scenario application and Monte Carlo determinism."""

import itertools
import json
import tracemalloc
from math import comb

import numpy as np
import pytest

from wdsres.errors import ValidationError
from wdsres.network import Junction, Source
from wdsres.performance import zhuang_availability
from wdsres.scenario import (
    Event,
    ScenarioSpec,
    apply_scenario,
    load_scenario,
    monte_carlo,
    scenario_from_dict,
)
from .conftest import make_network, make_pipe


class TestEventValidation:
    def test_repair_after_onset(self):
        with pytest.raises(ValidationError, match="repair"):
            Event("pipe_failure", onset=3, repair=3, ids=("p1",))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown event kind"):
            Event("meteor", onset=0, repair=1, ids=("p1",))

    def test_scaling_needs_positive_factor(self):
        with pytest.raises(ValidationError, match="factor"):
            Event("demand_scale", onset=0, repair=1, factor=0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), float("-inf"), "2", True])
    @pytest.mark.parametrize("kind", ["demand_scale", "supply_scale"])
    def test_scaling_rejects_non_finite_or_non_numeric_factor(self, kind, factor):
        with pytest.raises(ValidationError, match="finite factor"):
            Event(kind, onset=0, repair=1, factor=factor)

    @pytest.mark.parametrize("count", ["1", 1.0, True])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(ValidationError, match="count must be an integer"):
            Event("pipe_failure", onset=0, repair=1, count=count)

    @pytest.mark.parametrize("field", ["onset", "repair"])
    @pytest.mark.parametrize("value", ["x", "1", 0.5, 2.0, True, None])
    def test_onset_and_repair_must_be_integers(self, field, value):
        times = {"onset": 0, "repair": 3, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            Event("pipe_failure", ids=("p1",), **times)

    @pytest.mark.parametrize("ids", ["p1", ("p1", 2), 5, {"p1": 1}])
    def test_ids_must_be_a_list_of_strings(self, ids):
        with pytest.raises(ValidationError, match="ids must be a list of id strings"):
            Event("pipe_failure", onset=0, repair=1, ids=ids)

    @pytest.mark.parametrize("seed", ["x", 1.5, True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            ScenarioSpec((), seed=seed)

    @pytest.mark.parametrize("horizon", ["x", 2.5, True])
    def test_horizon_must_be_an_integer(self, horizon):
        with pytest.raises(ValidationError, match="horizon must be an integer"):
            ScenarioSpec((), horizon=horizon)

    def test_pipe_failure_needs_ids_or_count(self):
        with pytest.raises(ValidationError, match="ids or a random count"):
            Event("pipe_failure", onset=0, repair=1)
        with pytest.raises(ValidationError, match="ids or a random count"):
            Event("pipe_failure", onset=0, repair=1, ids=("p1",), count=1)

    def test_unknown_ids_caught_at_apply(self, ring_network):
        spec = ScenarioSpec((Event("pipe_failure", 0, 1, ids=("zz",)),), horizon=1)
        with pytest.raises(ValidationError, match="unknown pipe"):
            apply_scenario(ring_network, spec)


class TestApplyScenario:
    def test_empty_events_equal_intact_allocation(self, ring_network):
        series = apply_scenario(ring_network, ScenarioSpec((), seed=1), horizon=4)
        assert series.n_steps == 4
        np.testing.assert_allclose(series.delivered, 0.01)
        np.testing.assert_allclose(series.demand, 0.01)

    def test_identity_demand_scale(self, ring_network):
        scaled = apply_scenario(
            ring_network,
            ScenarioSpec((Event("demand_scale", 0, 4, factor=1.0),), seed=1),
            horizon=4,
        )
        plain = apply_scenario(ring_network, ScenarioSpec((), seed=1), horizon=4)
        np.testing.assert_array_equal(scaled.delivered, plain.delivered)
        np.testing.assert_array_equal(scaled.demand, plain.demand)

    def test_bridge_failure_window(self, tree_network):
        spec = ScenarioSpec((Event("pipe_failure", 2, 5, ids=("p2",)),), seed=0)
        series = apply_scenario(tree_network, spec, horizon=6)
        j2 = series.node_index("J2")
        for t in range(6):
            expected_connected = tree_network.is_connected_to_source(
                "J2", {"p2"} if 2 <= t < 5 else set()
            )
            delivered = series.delivered[t, j2]
            assert (delivered > 0) == expected_connected, t
        # failure is active exactly on steps 2-4
        np.testing.assert_allclose(series.delivered[[0, 1, 5], j2], 0.01)
        np.testing.assert_allclose(series.delivered[[2, 3, 4], j2], 0.0)

    def test_demand_scaling_applies_inside_window(self, ring_network):
        spec = ScenarioSpec(
            (Event("demand_scale", 1, 2, factor=2.0, ids=("J1",)),), seed=0
        )
        series = apply_scenario(ring_network, spec, horizon=3)
        j1 = series.node_index("J1")
        assert series.demand[0, j1] == pytest.approx(0.01)
        assert series.demand[1, j1] == pytest.approx(0.02)
        assert series.demand[2, j1] == pytest.approx(0.01)

    def test_supply_scaling_limits_sources(self, ring_network):
        spec = ScenarioSpec(
            (Event("supply_scale", 0, 2, factor=0.2),), seed=0
        )
        series = apply_scenario(ring_network, spec, horizon=2)
        # source cap 0.05 * 0.2 = 0.01 cannot cover 0.03 of demand
        assert float(series.delivered[0].sum()) == pytest.approx(0.01)

    def test_overlapping_scalings_multiply(self, ring_network):
        spec = ScenarioSpec(
            (
                Event("demand_scale", 0, 2, factor=2.0, ids=("J1",)),
                Event("demand_scale", 0, 2, factor=3.0, ids=("J1",)),
            ),
            seed=0,
        )
        series = apply_scenario(ring_network, spec, horizon=1)
        assert series.demand[0, series.node_index("J1")] == pytest.approx(0.06)

    def test_horizon_required(self, ring_network):
        with pytest.raises(ValidationError, match="horizon"):
            apply_scenario(ring_network, ScenarioSpec((), seed=1))

    def test_random_failure_resolved_from_seed(self, ring_network):
        spec = ScenarioSpec((Event("pipe_failure", 0, 2, count=1),), seed=11)
        a = apply_scenario(ring_network, spec, horizon=2)
        b = apply_scenario(ring_network, spec, horizon=2)
        np.testing.assert_array_equal(a.delivered, b.delivered)

    def test_json_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            (
                Event("pipe_failure", 2, 5, ids=("p2",)),
                Event("demand_scale", 0, 3, factor=1.5, ids=("J1",)),
                Event("pipe_failure", 1, 2, count=2),
            ),
            seed=9,
            horizon=6,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_scenario(path) == spec


class TestMonteCarlo:
    def single_failure_spec(self, seed=3):
        return ScenarioSpec(
            (Event("pipe_failure", 0, 3, count=1),), seed=seed, horizon=3
        )

    def test_single_replicate_summary(self, ring_network):
        result = monte_carlo(ring_network, self.single_failure_spec(), 1, "zhuang")
        assert result.n == 1
        assert result.summary["mean"] == result.values[0]
        assert result.summary["min"] == result.values[0]

    def test_same_seed_bit_identical(self, ring_network):
        a = monte_carlo(ring_network, self.single_failure_spec(), 8, "zhuang")
        b = monte_carlo(ring_network, self.single_failure_spec(), 8, "zhuang")
        assert a.values == b.values
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_worker_count_does_not_change_results(self, ring_network):
        serial = monte_carlo(ring_network, self.single_failure_spec(), 8, "zhuang", workers=1)
        threaded = monte_carlo(ring_network, self.single_failure_spec(), 8, "zhuang", workers=4)
        assert serial.values == threaded.values

    @pytest.mark.parametrize("fixture", ["tree_network", "ring_network"])
    def test_exhaustive_matches_per_pipe_evaluation(self, fixture, request):
        net = request.getfixturevalue(fixture)
        n = len(net.pipe_ids)
        spec = ScenarioSpec(
            (Event("pipe_failure", 0, 2, count=1),), seed=5, horizon=2
        )
        result = monte_carlo(net, spec, n, "zhuang", exhaustive=True)
        expected = []
        for pid in sorted(net.pipe_ids):
            series = apply_scenario(
                net,
                ScenarioSpec((Event("pipe_failure", 0, 2, ids=(pid,)),), seed=5),
                horizon=2,
            )
            expected.append(zhuang_availability(series).value)
        assert list(result.values) == pytest.approx(expected)
        assert result.summary["mean"] == pytest.approx(sum(expected) / n)

    @pytest.mark.parametrize(
        "fixture", ["tree_network", "ring_network", "tight_ring", "mesh_network"]
    )
    @pytest.mark.parametrize("count", [1, 2])
    def test_exhaustive_takes_the_first_n_combinations(self, fixture, count, request):
        net = request.getfixturevalue(fixture)
        pool = sorted(net.pipe_ids)
        n = max(1, comb(len(pool), count) - 1)
        spec = ScenarioSpec((Event("pipe_failure", 0, 2, count=count),), seed=5, horizon=2)
        result = monte_carlo(net, spec, n, "zhuang", exhaustive=True)
        expected = [
            zhuang_availability(apply_scenario(
                net, ScenarioSpec((Event("pipe_failure", 0, 2, ids=ids),), seed=5), horizon=2,
            )).value
            for ids in list(itertools.combinations(pool, count))[:n]
        ]
        assert list(result.values) == expected

    def test_exhaustive_does_not_materialise_every_combination(self):
        # a 183-pipe ring has about 1M three-pipe failure sets
        size = 183
        ring = make_network(
            junctions=[Junction(f"J{i:03d}", 0.0, 0.001, 30.0) for i in range(1, size)],
            sources=[Source("R", 100.0, 1.0)],
            pipes=[
                make_pipe(f"p{i:03d}", "R" if i == 0 else f"J{i:03d}",
                          "R" if i == size - 1 else f"J{i + 1:03d}")
                for i in range(size)
            ],
        )
        assert comb(size, 3) > 1_000_000
        spec = ScenarioSpec((Event("pipe_failure", 0, 1, count=3),), seed=5, horizon=1)
        tracemalloc.start()
        try:
            monte_carlo(ring, spec, 2, "zhuang", exhaustive=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_exhaustive_needs_single_random_event(self, ring_network):
        spec = ScenarioSpec((Event("pipe_failure", 0, 2, ids=("p1",)),), seed=5, horizon=2)
        with pytest.raises(ValidationError, match="exactly one random event"):
            monte_carlo(ring_network, spec, 2, "zhuang", exhaustive=True)

    def test_exhaustive_replicates_capped(self, ring_network):
        spec = ScenarioSpec((Event("pipe_failure", 0, 2, count=1),), seed=5, horizon=2)
        with pytest.raises(ValidationError, match="failure sets exist"):
            monte_carlo(ring_network, spec, 10, "zhuang", exhaustive=True)

    def test_unknown_metric(self, ring_network):
        with pytest.raises(ValidationError, match="unknown metric"):
            monte_carlo(ring_network, self.single_failure_spec(), 2, "nope")

    def test_summary_recomputable_from_values(self, ring_network):
        from wdsres.scenario import summarize

        result = monte_carlo(ring_network, self.single_failure_spec(), 6, "zhuang")
        assert result.summary == summarize(result.values)

    def test_extra_failure_never_improves_zhuang(self, ring_network):
        # monotonicity inherited from the allocator
        for ids in itertools.combinations(ring_network.pipe_ids, 1):
            base_spec = ScenarioSpec(
                (Event("pipe_failure", 0, 2, ids=ids),), seed=1, horizon=2
            )
            base = zhuang_availability(apply_scenario(ring_network, base_spec)).value
            for extra in set(ring_network.pipe_ids) - set(ids):
                worse_spec = ScenarioSpec(
                    (
                        Event("pipe_failure", 0, 2, ids=ids),
                        Event("pipe_failure", 0, 2, ids=(extra,)),
                    ),
                    seed=1,
                    horizon=2,
                )
                worse = zhuang_availability(apply_scenario(ring_network, worse_spec)).value
                assert worse <= base + 1e-12

    def test_hashimoto_metric_available(self, tree_network):
        from wdsres.hydraulics import classify_states
        from wdsres.performance import hashimoto_recovery

        spec = ScenarioSpec(
            (Event("pipe_failure", 1, 2, ids=("p2",)),), seed=0, horizon=3
        )
        result = monte_carlo(tree_network, spec, 1, "hashimoto", threshold=0.9)
        series = apply_scenario(tree_network, spec)
        expected = hashimoto_recovery(classify_states(series, 0.9)).value
        # the one-step failure yields S,F,S whose estimate is 1.5 (flagged raw)
        assert result.values[0] == pytest.approx(expected)
        assert result.values[0] == pytest.approx(1.5)


class TestScenarioParsing:
    def test_dict_round_trip_preserves_random_events(self):
        spec = scenario_from_dict(
            {
                "events": [
                    {"kind": "pipe_failure", "onset": 0, "repair": 4, "count": 2},
                    {"kind": "supply_scale", "onset": 1, "repair": 3, "factor": 0.5},
                ],
                "seed": 17,
                "horizon": 5,
            }
        )
        assert spec.events[0].count == 2
        assert spec.events[1].factor == 0.5
        assert spec.seed == 17
        assert spec.horizon == 5

    @pytest.mark.parametrize("doc, message", [
        ({"events": 5}, "'events' must be a list"),
        ({"events": {"kind": "pipe_failure"}}, "'events' must be a list"),
        ({"events": [5]}, r"events\[0\] must be an object"),
        ({"events": [["pipe_failure", 0, 1]]}, r"events\[0\] must be an object"),
        ({"events": [{"kind": "pipe_failure", "onset": "x", "repair": 2, "ids": ["p1"]}]},
         "onset must be an integer"),
        ({"events": [{"kind": "pipe_failure", "onset": 0.5, "repair": 2, "ids": ["p1"]}]},
         "onset must be an integer"),
        ({"events": [{"kind": "pipe_failure", "onset": 0, "repair": 2, "ids": "p1"}]},
         "ids must be a list of id strings"),
        ({"seed": "x"}, "seed must be an integer"),
        ({"horizon": "x"}, "horizon must be an integer"),
        ({"horizon": True}, "horizon must be an integer"),
    ])
    def test_malformed_document_rejected(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(doc)
