"""Scenario application and Monte Carlo determinism."""

import itertools
import json
import random
import tracemalloc
from math import comb, copysign

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdsres import hydraulics, scenario
from wdsres.errors import ValidationError
from wdsres.network import Junction, Source
from wdsres.performance import zhuang_availability
from wdsres.scenario import (
    MC_METRICS,
    Event,
    ScenarioSpec,
    apply_scenario,
    load_scenario,
    monte_carlo,
    scenario_from_dict,
)
from .conftest import make_network, make_pipe, torus_network


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

    @pytest.mark.parametrize("kind, extra", [
        ("pipe_failure", {}), ("pump_failure", {}),
        ("demand_scale", {"factor": 2.0}), ("supply_scale", {"factor": 2.0}),
    ])
    def test_an_id_listed_twice_is_rejected(self, kind, extra):
        with pytest.raises(ValidationError, match=r"lists ids more than once: \['a'\]"):
            Event(kind, onset=0, repair=1, ids=("a", "b", "a"), **extra)

    def test_pipe_failure_needs_ids_or_count(self):
        with pytest.raises(ValidationError, match="ids or a random count"):
            Event("pipe_failure", onset=0, repair=1)
        with pytest.raises(ValidationError, match="ids or a random count"):
            Event("pipe_failure", onset=0, repair=1, ids=("p1",), count=1)

    @pytest.mark.parametrize("kind, extra, message", [
        ("demand_scale", {"factor": 2.0, "count": 1}, "demand_scale does not take a count"),
        ("pipe_failure", {"ids": ("p1",), "factor": 2.0}, "pipe_failure does not take a factor"),
        ("pipe_failure", {"count": 0}, "pipe_failure count must be >= 1"),
        ("pump_failure", {"ids": ("b1",), "count": 1}, "pump_failure takes explicit ids only"),
        ("pump_failure", {}, "pump_failure needs ids"),
    ])
    def test_kind_rules(self, kind, extra, message):
        with pytest.raises(ValidationError) as info:
            Event(kind, onset=0, repair=1, **extra)
        assert str(info.value) == message

    def test_unknown_ids_caught_at_apply(self, ring_network):
        spec = ScenarioSpec((Event("pipe_failure", 0, 1, ids=("zz",)),), horizon=1)
        with pytest.raises(ValidationError, match="unknown pipe"):
            apply_scenario(ring_network, spec)


@pytest.mark.parametrize("run, message", [
    (lambda net: apply_scenario(net, ScenarioSpec((Event("pipe_failure", 0, 1, count=9),),
                                                  horizon=1)),
     "cannot fail 9 of 4 pipes"),
    (lambda net: monte_carlo(net, ScenarioSpec(horizon=1), 0, "zhuang"),
     "replicate count must be >= 1"),
    (lambda net: scenario_from_dict([{"kind": "pipe_failure"}]),
     "scenario document must be a JSON object"),
], ids=["count-above-pipes", "no-replicates", "non-object-document"])
def test_run_checks(ring_network, run, message):
    with pytest.raises(ValidationError) as info:
        run(ring_network)
    assert str(info.value) == message


class TestApplyScenario:
    def test_empty_events_equal_intact_allocation(self, ring_network):
        series = apply_scenario(ring_network, ScenarioSpec((), seed=1, horizon=4))
        assert series.n_steps == 4
        np.testing.assert_allclose(series.delivered, 0.01)
        np.testing.assert_allclose(series.demand, 0.01)

    def test_identity_demand_scale(self, ring_network):
        scaled = apply_scenario(
            ring_network,
            ScenarioSpec((Event("demand_scale", 0, 4, factor=1.0),), seed=1, horizon=4),
        )
        plain = apply_scenario(ring_network, ScenarioSpec((), seed=1, horizon=4))
        np.testing.assert_array_equal(scaled.delivered, plain.delivered)
        np.testing.assert_array_equal(scaled.demand, plain.demand)

    def test_pump_failure_changes_no_step(self, pump_network):
        # the surrogate has no pump model, so a failed pump routes as an intact one
        failed = apply_scenario(
            pump_network, ScenarioSpec((Event("pump_failure", 0, 2, ids=("b1",)),), horizon=3)
        )
        intact = apply_scenario(pump_network, ScenarioSpec((), horizon=3))
        assert failed.digest() == intact.digest()

    def test_unknown_pump_rejected_even_if_never_active(self, pump_network):
        spec = ScenarioSpec((Event("pump_failure", 5, 6, ids=("nope",)),), horizon=2)
        with pytest.raises(ValidationError, match="unknown pump"):
            apply_scenario(pump_network, spec)

    @pytest.mark.parametrize("onset", [2, 3])
    def test_event_that_never_acts_is_rejected(self, ring_network, onset):
        events = (Event("demand_scale", 0, 2, factor=1.5),
                  Event("pipe_failure", onset, 5, ids=("p2",)))
        spec = ScenarioSpec(events, horizon=2)
        with pytest.raises(ValidationError, match=f"starts at step {onset}, past the last step"):
            apply_scenario(ring_network, spec)

    def test_bridge_failure_window(self, tree_network):
        spec = ScenarioSpec((Event("pipe_failure", 2, 5, ids=("p2",)),), seed=0, horizon=6)
        series = apply_scenario(tree_network, spec)
        j2 = series.node_index("J2")
        for t in range(6):
            expected_connected = "J2" in tree_network.reachable_from_sources(
                {"p2"} if 2 <= t < 5 else set()
            )
            delivered = series.delivered[t, j2]
            assert (delivered > 0) == expected_connected, t
        # failure is active exactly on steps 2-4
        np.testing.assert_allclose(series.delivered[[0, 1, 5], j2], 0.01)
        np.testing.assert_allclose(series.delivered[[2, 3, 4], j2], 0.0)

    def test_demand_scaling_applies_inside_window(self, ring_network):
        spec = ScenarioSpec(
            (Event("demand_scale", 1, 2, factor=2.0, ids=("J1",)),), seed=0, horizon=3
        )
        series = apply_scenario(ring_network, spec)
        j1 = series.node_index("J1")
        assert series.demand[0, j1] == pytest.approx(0.01)
        assert series.demand[1, j1] == pytest.approx(0.02)
        assert series.demand[2, j1] == pytest.approx(0.01)

    def test_supply_scaling_limits_sources(self, ring_network):
        spec = ScenarioSpec(
            (Event("supply_scale", 0, 2, factor=0.2),), seed=0, horizon=2
        )
        series = apply_scenario(ring_network, spec)
        # source cap 0.05 * 0.2 = 0.01 cannot cover 0.03 of demand
        assert float(series.delivered[0].sum()) == pytest.approx(0.01)

    def test_overlapping_scalings_multiply(self, ring_network):
        spec = ScenarioSpec(
            (
                Event("demand_scale", 0, 2, factor=2.0, ids=("J1",)),
                Event("demand_scale", 0, 2, factor=3.0, ids=("J1",)),
            ),
            seed=0,
            horizon=1,
        )
        series = apply_scenario(ring_network, spec)
        assert series.demand[0, series.node_index("J1")] == pytest.approx(0.06)

    def test_horizon_required(self, ring_network):
        with pytest.raises(ValidationError, match="horizon"):
            apply_scenario(ring_network, ScenarioSpec((), seed=1))

    def test_random_failure_resolved_from_seed(self, ring_network):
        spec = ScenarioSpec((Event("pipe_failure", 0, 2, count=1),), seed=11, horizon=2)
        a = apply_scenario(ring_network, spec)
        b = apply_scenario(ring_network, spec)
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
                ScenarioSpec((Event("pipe_failure", 0, 2, ids=(pid,)),), seed=5, horizon=2),
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
                net, ScenarioSpec((Event("pipe_failure", 0, 2, ids=ids),), seed=5, horizon=2),
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

    @pytest.mark.parametrize("metric", sorted(MC_METRICS))
    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, 1.5])
    def test_threshold_checked_before_any_replicate(self, metric, threshold, monkeypatch):
        # zhuang has no threshold, but a bad one is still an error, not ignored
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran before the threshold was checked")

        monkeypatch.setattr(scenario, "apply_scenario", refuse)
        with pytest.raises(ValidationError, match=r"threshold must lie in \(0, 1\]"):
            monte_carlo(torus_network(3, 3), self.single_failure_spec(), 2, metric,
                        threshold=threshold)

    def test_kernel_runs_follow_state_changes(self, monkeypatch):
        # the benchmark's mc-sweep events: three random pipe failures and a
        # surge the sources cannot meet, overlapping on steps 10-13
        net = torus_network(6, 6)
        spec = ScenarioSpec((Event("pipe_failure", 6, 14, count=3),
                             Event("demand_scale", 10, 18, factor=2.5)), seed=4, horizon=24)
        replicates = [scenario.resolve_events(net, spec, random.Random(spec.seed ^ r))
                      for r in range(2)]
        states = [scenario._step_state(events, net, t) for events in replicates for t in range(24)]
        changes = sum(i == 0 or state != states[i - 1] for i, state in enumerate(states))
        runs = []
        kernel = hydraulics._edmonds_karp

        def counted(*args):
            runs.append(args)
            return kernel(*args)

        monkeypatch.setattr(hydraulics, "_edmonds_karp", counted)
        monte_carlo(net, spec, 2, "zhuang")
        assert len(runs) == changes
        # intact, failed, failed and surged, surged, intact again; the second
        # replicate starts intact, as the first ended
        assert changes == 9

    def test_summary_recomputable_from_values(self, ring_network):
        from wdsres.scenario import summarize

        result = monte_carlo(ring_network, self.single_failure_spec(), 6, "zhuang")
        assert result.summary == summarize(result.values)

    @given(values=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324]),
                  st.floats(min_value=-1e300, max_value=1e300)),
        min_size=1, max_size=30))
    @example(values=[0.7])
    @example(values=[-0.0, -0.0, 1.0, 1.0])
    @example(values=[0.0, -0.0, -0.0, -1.0])
    @settings(max_examples=1000)
    def test_summary_quantiles_equal_numpy_bit_for_bit(self, values):
        from wdsres.scenario import summarize

        summary = summarize(tuple(values))
        # numpy's partition keeps no order among equal values, so with zeros
        # of both signs the sign of a zero quantile is numpy's choice
        signs = {copysign(1.0, v) for v in values if v == 0.0}
        for q, key in ((0.05, "p05"), (0.25, "p25"), (0.5, "p50"), (0.75, "p75"),
                       (0.95, "p95")):
            want = float(np.quantile(np.asarray(values, dtype=float), q))
            if len(signs) == 2:
                assert summary[key] == want, key
            else:
                assert summary[key].hex() == want.hex(), key

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
        ({"events": [{"ids": ["p1"]}]}, r"events\[0\]: missing field 'kind'"),
        ({"events": [{"kind": "pipe_failure", "ids": ["p1"]}]},
         r"events\[0\]: missing field 'onset'"),
        ({"events": [{"kind": "pipe_failure", "onset": 0, "repair": 2, "ids": ["p1"]},
                     {"kind": "pipe_failure", "onset": 0, "ids": ["p1"]}]},
         r"events\[1\]: missing field 'repair'"),
        ({"seed": "x"}, "seed must be an integer"),
        ({"horizon": "x"}, "horizon must be an integer"),
        ({"horizon": True}, "horizon must be an integer"),
    ])
    def test_malformed_document_rejected(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(doc)
