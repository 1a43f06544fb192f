"""Series handling, state classification and the surrogate allocator."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdsres import hydraulics
from wdsres.errors import ValidationError
from wdsres.hydraulics import (
    BinaryStateSeries,
    allocate_flows,
    classify_states,
    load_series,
    save_series,
    surrogate_allocation,
)
from wdsres.network import Junction, Source, load_network, save_network
from wdsres.performance import buffering_capacity, supply_feasibility
from wdsres.scenario import Event, ScenarioSpec, apply_scenario, monte_carlo
from .conftest import make_network, make_pipe, make_series
from .reference_flow import reference_allocate_flows


def exhaustive_min_cut(net, demand_scale=1.0, failed_pipes=frozenset()):
    """Independent max-flow value via enumeration of all source/sink cuts.

    By strong duality the smallest cut capacity equals the maximum flow, so
    this is an oracle for the allocator's total delivered flow.
    """
    nodes = sorted(net.node_ids)
    demands = {j.id: j.design_demand * demand_scale for j in net.junctions}
    pipes = [p for p in net.pipes if p.id not in failed_pipes]
    best = float("inf")
    for bits in itertools.product((0, 1), repeat=len(nodes)):
        side = {n for n, b in zip(nodes, bits) if b}  # source side
        cut = 0.0
        for s in net.sources:
            if s.id not in side:
                cut += s.outflow
        for j in net.junctions:
            if j.id in side:
                cut += demands[j.id]
        for pipe in pipes:
            a, b = pipe.endpoints
            if (a in side) != (b in side):
                cut += pipe.capacity
        best = min(best, cut)
    return best


class TestLoadSeries:
    def test_round_trip(self, zhuang_series, tmp_path):
        path = tmp_path / "series.csv"
        save_series(zhuang_series, path)
        loaded = load_series(path)
        assert loaded.node_ids == zhuang_series.node_ids
        np.testing.assert_array_equal(loaded.delivered, zhuang_series.delivered)
        assert loaded.n_steps == 2

    def test_header_required(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("0,n1,1,1,40,30\n")
        with pytest.raises(ValidationError, match="header"):
            load_series(path)

    def test_negative_flow_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "t,node_id,delivered_m3s,demand_m3s,head_m,required_head_m\n"
            "0,n1,-0.5,1.0,40,30\n"
        )
        with pytest.raises(ValidationError, match=">= 0"):
            load_series(path)

    def test_inconsistent_node_sets(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "t,node_id,delivered_m3s,demand_m3s,head_m,required_head_m\n"
            "0,n1,1,1,40,30\n"
            "1,n2,1,1,40,30\n"
        )
        with pytest.raises(ValidationError, match="node set"):
            load_series(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        path = tmp_path / "series.csv"
        path.write_text(
            "t,node_id,delivered_m3s,demand_m3s,head_m,required_head_m\n"
            f"0,n1,{cell},1.0,40,30\n"
        )
        with pytest.raises(ValidationError, match=":2: values must be finite"):
            load_series(path)

    def test_two_by_two_shape(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "t,node_id,delivered_m3s,demand_m3s,head_m,required_head_m\n"
            "0,n1,1,1,40,30\n"
            "0,n2,1,1,40,30\n"
            "1,n1,1,1,40,30\n"
            "1,n2,1,1,40,30\n"
        )
        series = load_series(path)
        assert series.n_nodes == 2
        assert series.n_steps == 2


class TestClassifyStates:
    def test_threshold_examples(self):
        series = make_series(
            ("n1",), [[1.0], [0.85], [0.95]], [[1.0], [1.0], [1.0]]
        )
        assert classify_states(series, 0.9).states == ("S", "F", "S")

    def test_full_supply_all_satisfactory(self, zhuang_series):
        full = make_series(("n1",), [[1.0], [1.0]], [[1.0], [1.0]])
        assert classify_states(full, 1.0).states == ("S", "S")

    def test_fixture_produces_hashimoto_pattern(self, hashimoto_series):
        states = classify_states(hashimoto_series, 0.9)
        assert "".join(states.states) == "SSFSSFFSSS"

    def test_zero_demand_step_is_satisfactory(self):
        series = make_series(("n1",), [[0.0]], [[0.0]])
        assert classify_states(series, 0.5).states == ("S",)

    def test_per_node_mode_is_stricter(self):
        # system ratio 0.75 passes 0.7, but node n2 individually fails
        series = make_series(("n1", "n2"), [[1.0, 0.5]], [[1.0, 1.0]])
        assert classify_states(series, 0.7).states == ("S",)
        assert classify_states(series, 0.7, per_node=True).states == ("F",)

    def test_threshold_bounds(self, zhuang_series):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError, match="threshold"):
                classify_states(zhuang_series, bad)

    @given(
        ratios=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=12),
        low=st.floats(0.05, 1.0),
        high=st.floats(0.05, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_threshold(self, ratios, low, high):
        low, high = sorted((low, high))
        series = make_series(
            ("n1",), [[r] for r in ratios], [[1.0]] * len(ratios)
        )
        strict = classify_states(series, high).states
        lax = classify_states(series, low).states
        for a, b in zip(lax, strict):
            # raising the threshold can only turn S into F
            assert not (a == "F" and b == "S")


class TestBinaryStateSeries:
    def test_rejects_other_symbols(self):
        with pytest.raises(ValidationError, match="'S' or 'F'"):
            BinaryStateSeries(("S", "x"), 0.9)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            BinaryStateSeries((), 0.9)


class TestAllocation:
    def test_intact_ample_capacity_fully_supplies(self, ring_network):
        alloc = allocate_flows(ring_network)
        for junction in ring_network.junctions:
            assert alloc.delivered[junction.id] == pytest.approx(junction.design_demand)

    def test_bridge_failure_zeroes_downstream(self, tree_network):
        alloc = allocate_flows(tree_network, failed_pipes={"p2"})
        assert alloc.delivered["J2"] == 0.0
        assert alloc.delivered["J1"] == pytest.approx(0.01)

    def test_total_matches_min_cut_on_fixtures(self, ring_network, tree_network, tight_ring):
        for net in (ring_network, tree_network, tight_ring):
            for r in range(3):
                for failed in itertools.combinations(net.pipe_ids, r):
                    got = allocate_flows(net, failed_pipes=set(failed)).total_delivered
                    want = exhaustive_min_cut(net, failed_pipes=set(failed))
                    assert got == pytest.approx(want, abs=1e-12), (net, failed)

    def test_feasibility_invariants(self, tight_ring):
        alloc = allocate_flows(tight_ring, failed_pipes={"p2"})
        # pipe flows never exceed capacity
        for pid, flow in alloc.pipe_flows.items():
            assert abs(flow) <= tight_ring.pipe(pid).capacity + 1e-12
        # sources never exceed their outflow
        for sid, out in alloc.source_outflows.items():
            assert -1e-12 <= out <= tight_ring.source(sid).outflow + 1e-12
        # conservation: net inflow at each junction equals what it consumes
        for junction in tight_ring.junctions:
            inflow = 0.0
            for pid, flow in alloc.pipe_flows.items():
                a, b = tight_ring.pipe(pid).endpoints
                if a == junction.id:
                    inflow -= flow
                elif b == junction.id:
                    inflow += flow
            assert inflow == pytest.approx(alloc.delivered[junction.id], abs=1e-12)

    def test_failing_more_never_delivers_more(self, tight_ring):
        pipes = tight_ring.pipe_ids
        for r in range(len(pipes)):
            for failed in itertools.combinations(pipes, r):
                base = allocate_flows(tight_ring, failed_pipes=set(failed)).total_delivered
                for extra in set(pipes) - set(failed):
                    worse = allocate_flows(
                        tight_ring, failed_pipes=set(failed) | {extra}
                    ).total_delivered
                    assert worse <= base + 1e-12

    def test_deterministic(self, tight_ring):
        a = allocate_flows(tight_ring, failed_pipes={"p3"})
        b = allocate_flows(tight_ring, failed_pipes={"p3"})
        assert a.delivered == b.delivered
        assert a.pipe_flows == b.pipe_flows

    def test_unknown_failed_pump(self, ring_network):
        with pytest.raises(ValidationError, match="unknown pump"):
            allocate_flows(ring_network, failed_pumps={"nope"})

    def test_demand_scale_must_be_positive(self, ring_network):
        with pytest.raises(ValidationError, match="demand_scale"):
            allocate_flows(ring_network, demand_scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_demand_scale_must_be_finite(self, ring_network, scale):
        with pytest.raises(ValidationError, match="demand_scale must be finite"):
            allocate_flows(ring_network, demand_scale=scale)

    @pytest.mark.parametrize("factor", [0.0, -1.0, -0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("argument", ["demand_factors", "supply_factors"])
    def test_factors_must_be_finite_and_positive(self, ring_network, argument, factor):
        target = "J1" if argument == "demand_factors" else "R1"
        with pytest.raises(ValidationError, match="finite and > 0"):
            allocate_flows(ring_network, **{argument: {target: factor}})


_flows = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False, allow_infinity=False),
)


def allocation_arguments(net):
    """One allocation call's keyword arguments on ``net``."""
    factors = st.floats(min_value=0.1, max_value=3.0)
    return st.fixed_dictionaries({
        "demand_scale": factors,
        "failed_pipes": st.sets(st.sampled_from(net.pipe_ids)) if net.pipes else st.just(set()),
        "demand_factors": st.dictionaries(st.sampled_from(net.junction_ids), factors),
        "supply_factors": st.dictionaries(st.sampled_from(net.source_ids), factors),
    })


@st.composite
def flow_problems(draw):
    """A small network plus a sequence of allocation calls' arguments.

    Endpoints are drawn freely, so parallel pipes, isolated nodes,
    zero-capacity pipes and zero-demand junctions all occur.  The calls
    draw from at most three states, so a state often repeats the one
    before it or comes back after another.
    """
    n_sources = draw(st.integers(1, 2))
    n_junctions = draw(st.integers(1, 5))
    sources = [Source(f"S{i}", 100.0, draw(_flows)) for i in range(n_sources)]
    junctions = [Junction(f"J{i}", 0.0, draw(_flows), 30.0) for i in range(n_junctions)]
    node_ids = [node.id for node in (*sources, *junctions)]
    pipes = []
    for k in range(draw(st.integers(0, 9))):
        a, b = draw(st.lists(st.sampled_from(node_ids), min_size=2, max_size=2, unique=True))
        pipes.append(make_pipe(f"p{k}", a, b, capacity=draw(_flows)))
    net = make_network(junctions, sources, pipes)
    states = draw(st.lists(allocation_arguments(net), min_size=1, max_size=3))
    order = draw(st.lists(st.integers(0, len(states) - 1), min_size=1, max_size=8))
    return net, [states[i] for i in order]


class TestCompiledModel:
    @settings(max_examples=300, deadline=None)
    @given(problem=flow_problems())
    def test_matches_arc_list_reference_exactly(self, problem):
        net, calls = problem
        for kwargs in calls:  # later solves reuse the compiled model and the last solve
            want = reference_allocate_flows(net, **kwargs)
            got = allocate_flows(net, **kwargs)
            for name in ("delivered", "demands", "pipe_flows", "source_outflows"):
                assert getattr(got, name) == getattr(want, name), name
                assert list(getattr(got, name)) == list(getattr(want, name)), name
                # the caller owns the maps: changing them must not reach the next call
                getattr(got, name)["J0"] = -1.0

    def test_reference_agrees_across_failure_sets_on_fixtures(self, mesh_network, tight_ring):
        for net in (mesh_network, tight_ring):
            for r in range(3):
                for failed in itertools.combinations(sorted(net.pipe_ids), r):
                    got = allocate_flows(net, failed_pipes=set(failed))
                    want = reference_allocate_flows(net, failed_pipes=set(failed))
                    assert got == want, failed

    def test_compiled_lazily_once_per_network(self, mesh_network, tmp_path):
        path = tmp_path / "mesh.json"
        save_network(mesh_network, path)
        net = load_network(path)
        assert net._flow_model is None
        allocate_flows(net)
        model = net._flow_model
        assert model is not None
        allocate_flows(net, failed_pipes={"p3"}, demand_scale=2.0)
        assert net._flow_model is model
        # the model is private state: equality with a fresh load is unchanged
        assert net == load_network(path)


@pytest.fixture
def kernel_runs(monkeypatch):
    """A list that grows by one on each run of the max-flow kernel."""
    runs = []
    kernel = hydraulics._edmonds_karp

    def counted(*args):
        runs.append(args)
        return kernel(*args)

    monkeypatch.setattr(hydraulics, "_edmonds_karp", counted)
    return runs


class TestLastSolveMemo:
    def test_failure_window_runs_the_kernel_once_per_change_of_state(
        self, mesh_network, kernel_runs
    ):
        spec = ScenarioSpec((Event("pipe_failure", 6, 14, ids=("p3",)),))
        series = apply_scenario(mesh_network, spec, horizon=24)
        assert len(kernel_runs) == 3  # intact, failed, intact again
        np.testing.assert_array_equal(series.delivered[:6], series.delivered[14:20])

    def test_monte_carlo_sweep_runs_the_kernel_nine_times(self, mesh_network, kernel_runs):
        spec = ScenarioSpec(
            (
                Event("pipe_failure", 6, 14, count=3),
                Event("demand_scale", 10, 18, factor=2.5),
            ),
            seed=7,
        )
        monte_carlo(mesh_network, spec, n=2, metric="zhuang", horizon=24)
        # five states per replicate; the second starts intact, as the first ended
        assert len(kernel_runs) == 5 + 4

    def test_supply_buffering_runs_the_kernel_once_per_failure_set(
        self, mesh_network, kernel_runs
    ):
        feasible = supply_feasibility(mesh_network, 0.2)
        checked = []

        def counted(failed):
            checked.append(failed)
            return feasible(failed)

        assert buffering_capacity(mesh_network, counted, max_k=2) == 2
        assert len(checked) == 1 + 8 + comb(8, 2)
        assert len(kernel_runs) == len(checked)


class TestSurrogateSeries:
    def test_supplied_nodes_get_required_head(self, ring_network):
        series = surrogate_allocation(ring_network)
        np.testing.assert_array_equal(series.head, series.required_head)

    def test_unsupplied_nodes_get_zero_head(self, tree_network):
        series = surrogate_allocation(tree_network, failed_pipes={"p2"})
        i = series.node_index("J2")
        assert series.head[0, i] == 0.0
        assert series.delivered[0, i] == 0.0

    def test_single_timestep(self, ring_network):
        assert surrogate_allocation(ring_network).n_steps == 1
