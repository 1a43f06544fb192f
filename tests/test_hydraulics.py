"""Series handling, state classification and the surrogate allocator."""

import collections
import dataclasses
import itertools
from math import comb, inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdsres import hydraulics
from wdsres.errors import ResilienceError, ValidationError
from wdsres.graphmetrics import node_index_table
from wdsres.hydraulics import (
    BinaryStateSeries,
    HydraulicSeries,
    allocate_flows,
    classify_states,
    load_series,
    save_series,
    surrogate_allocation,
)
from wdsres.network import Junction, Source, load_network, save_network
from wdsres.performance import (
    buffering_capacity,
    connectivity_buffering,
    supply_buffering,
    supply_feasibility,
)
from wdsres.scenario import Event, ScenarioSpec, apply_scenario, monte_carlo
from .conftest import make_network, make_pipe, make_series, torus_network
from .reference_flow import reference_allocate_flows, restarting_edmonds_karp, restarting_push


def surged(net, factor, **kwargs):
    """``allocate_flows`` with every junction's demand scaled by ``factor``."""
    return allocate_flows(net, demand_factors=dict.fromkeys(net.junction_ids, factor), **kwargs)


def exhaustive_min_cut(net, failed_pipes=frozenset()):
    """Independent max-flow value via enumeration of all source/sink cuts.

    By strong duality the smallest cut capacity equals the maximum flow, so
    this is an oracle for the allocator's total delivered flow.
    """
    nodes = sorted(net.node_ids)
    demands = {j.id: j.design_demand for j in net.junctions}
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

    @pytest.mark.parametrize("rows, message", [
        ("0,n1,1,1,40,30\n0,n1,1,1,40,30\n", ":3: duplicate (t=0, node='n1') row"),
        ("\n", ": no data rows"),
        ("0,n1,1,1,40,30\n2,n1,1,1,40,30\n", ": timesteps must be contiguous from 0, got [0, 2]"),
    ], ids=["duplicate-row", "no-rows", "gap"])
    def test_row_checks(self, tmp_path, rows, message):
        path = tmp_path / "series.csv"
        path.write_text("t,node_id,delivered_m3s,demand_m3s,head_m,required_head_m\n" + rows)
        with pytest.raises(ValidationError) as info:
            load_series(path)
        assert str(info.value) == f"{path}{message}"

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
        assert len(series.node_ids) == 2
        assert series.n_steps == 2


class TestHydraulicSeries:
    @pytest.mark.parametrize("name", ["delivered", "demand", "head", "required_head"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected(self, zhuang_series, name, value):
        arrays = {n: getattr(zhuang_series, n).copy()
                  for n in ("delivered", "demand", "head", "required_head")}
        arrays[name][1, 0] = value
        with pytest.raises(ValidationError, match=f"{name} must hold finite numbers"):
            HydraulicSeries(zhuang_series.node_ids, **arrays)

    @pytest.mark.parametrize("node_ids, changes, message", [
        (("n1", "n2"), {"head": np.full(2, 40.0)}, "head must be a 2-d array (steps x nodes)"),
        (("n1", "n2"), dict.fromkeys(("delivered", "demand", "head", "required_head"),
                                     np.empty((0, 2))),
         "series must contain at least one timestep"),
        (("n1",), {}, "array width does not match number of node ids"),
        (("n1", "n1"), {}, "duplicate node ids in series"),
        (("n1", "n2"), {"required_head": np.full((3, 2), 30.0)},
         "all series arrays must share one shape"),
    ], ids=["not-2d", "no-steps", "width", "duplicate-ids", "shapes"])
    def test_shape_checks(self, zhuang_series, node_ids, changes, message):
        arrays = {n: getattr(zhuang_series, n)
                  for n in ("delivered", "demand", "head", "required_head")} | changes
        with pytest.raises(ValidationError) as info:
            HydraulicSeries(node_ids, **arrays)
        assert str(info.value) == message

    def test_node_ids_must_not_be_a_string(self, zhuang_series):
        arrays = {n: getattr(zhuang_series, n)
                  for n in ("delivered", "demand", "head", "required_head")}
        assert len(zhuang_series.node_ids) == 2  # so "ab" would pass as ("a", "b")
        with pytest.raises(ValidationError) as info:
            HydraulicSeries("ab", **arrays)
        assert str(info.value) == "node ids must be a sequence of ids, not a string"

    def test_node_index(self, zhuang_series):
        assert zhuang_series.node_index("n2") == 1
        with pytest.raises(ValidationError, match="unknown node 'n3' in series"):
            zhuang_series.node_index("n3")


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
        # True once passed as 1.0, and a string raised a raw TypeError
        for bad in (0.0, -0.1, 1.5, True, "0.5", None, float("nan"), float("inf")):
            with pytest.raises(ValidationError) as info:
                classify_states(zhuang_series, bad)
            assert str(info.value) == "threshold must lie in (0, 1]"

    @given(
        ratios=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=12),
        low=st.floats(0.05, 1.0),
        high=st.floats(0.05, 1.0),
    )
    @settings(max_examples=200)
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

    @pytest.mark.parametrize("factor", [0.0, -1.0, -0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("argument", ["demand_factors", "supply_factors"])
    def test_factors_must_be_finite_and_positive(self, ring_network, argument, factor):
        target = "J1" if argument == "demand_factors" else "R1"
        with pytest.raises(ValidationError, match="finite and > 0"):
            allocate_flows(ring_network, **{argument: {target: factor}})

    @pytest.mark.parametrize("argument, factors, unknown", [
        ("demand_factors", {"J1": 2.0, "X2": 2.0, "X1": 2.0}, "junction 'X2'"),
        ("demand_factors", {"J1": 2.0, "R1": 2.0, "X1": 2.0}, "junction 'R1'"),
        ("supply_factors", {"R1": 2.0, "X2": 2.0, "X1": 2.0}, "source 'X2'"),
        ("supply_factors", {"R1": 2.0, "J1": 2.0, "X1": 2.0}, "source 'J1'"),
        # ids are checked before the factors
        ("demand_factors", {"J1": float("nan"), "X2": 2.0}, "junction 'X2'"),
    ])
    def test_the_first_unknown_factor_id_is_named(self, ring_network, argument, factors,
                                                  unknown):
        with pytest.raises(ValidationError, match=f"^unknown {unknown}$"):
            allocate_flows(ring_network, **{argument: factors})

    @pytest.mark.parametrize("demands, kwargs", [
        ((0.01, 1.7e308, 0.01), {"demand_factors": {"J2": 1.5}}),  # one scaled demand overflows
        ((1e308, 1e308, 1e308), {}),  # each demand is finite, their sum is not
    ])
    def test_overflowing_demands_rejected(self, demands, kwargs):
        net = make_network(
            [Junction(f"J{i}", 0.0, d, 30.0) for i, d in enumerate(demands, 1)],
            [Source("R1", 100.0, 0.05)],
            [make_pipe("p1", "R1", "J1"), make_pipe("p2", "J1", "J2"),
             make_pipe("p3", "J2", "J3")],
        )
        with pytest.raises(ValidationError, match="must stay finite"):
            allocate_flows(net, **kwargs)

    def test_overflowing_source_outflow_rejected(self, ring_network):
        net = make_network(ring_network.junctions, [Source("R1", 100.0, 1e308)],
                           ring_network.pipes)
        assert allocate_flows(net).total_delivered == pytest.approx(0.03)
        with pytest.raises(ValidationError, match="must stay finite"):
            allocate_flows(net, supply_factors={"R1": 2.0})

    @pytest.mark.parametrize("capacity, accepted", [(8.9e307, True), (1.5e308, False)])
    def test_pipe_capacity_must_stay_finite_when_doubled(self, capacity, accepted):
        # pushing 8e307 adds it to the reverse residual, which starts at the capacity
        net = make_network([Junction("J1", 0.0, 8e307, 30.0)], [Source("R1", 100.0, 8e307)],
                           [make_pipe("p1", "R1", "J1", capacity=capacity)])
        if accepted:
            assert allocate_flows(net).pipe_flows == {"p1": 8e307}
        else:
            with pytest.raises(ValidationError, match=r"finite when doubled: \['p1'\]"):
                allocate_flows(net)
        # connectivity flows use unit capacities on the same compiled model
        assert connectivity_buffering(net, max_k=1) == 0


_flows = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False, allow_infinity=False),
)


def allocation_arguments(net):
    """One allocation call's keyword arguments on ``net``."""
    factors = st.floats(min_value=0.1, max_value=3.0)
    return st.fixed_dictionaries({
        "failed_pipes": st.sets(st.sampled_from(net.pipe_ids)) if net.pipes else st.just(set()),
        "demand_factors": st.dictionaries(st.sampled_from(net.junction_ids), factors),
        "supply_factors": st.dictionaries(st.sampled_from(net.source_ids), factors),
    })


@st.composite
def flow_networks(draw):
    """A small network whose endpoints are drawn freely, so parallel pipes,
    isolated nodes, zero-capacity pipes and zero-demand junctions all occur."""
    n_sources = draw(st.integers(1, 2))
    n_junctions = draw(st.integers(1, 5))
    sources = [Source(f"S{i}", 100.0, draw(_flows)) for i in range(n_sources)]
    junctions = [Junction(f"J{i}", 0.0, draw(_flows), 30.0) for i in range(n_junctions)]
    node_ids = [node.id for node in (*sources, *junctions)]
    pipes = []
    for k in range(draw(st.integers(0, 9))):
        a, b = draw(st.lists(st.sampled_from(node_ids), min_size=2, max_size=2, unique=True))
        pipes.append(make_pipe(f"p{k}", a, b, capacity=draw(_flows)))
    return make_network(junctions, sources, pipes)


@st.composite
def flow_problems(draw):
    """A small network plus a sequence of allocation calls' arguments.

    The calls draw from at most three states, so a state often repeats the
    one before it or comes back after another.
    """
    net = draw(flow_networks())
    states = draw(st.lists(allocation_arguments(net), min_size=1, max_size=3))
    order = draw(st.lists(st.integers(0, len(states) - 1), min_size=1, max_size=8))
    return net, [states[i] for i in order]


def _two_sources_and_a_closed_pipe():
    """Two sources, two junctions and a zero-capacity pipe between two others."""
    return make_network(
        [Junction("J0", 0.0, 0.02, 30.0), Junction("J1", 0.0, 0.01, 30.0)],
        [Source("S0", 100.0, 0.02), Source("S1", 100.0, 0.02)],
        [make_pipe("p0", "S0", "J0"), make_pipe("p1", "J0", "J1", capacity=0.0),
         make_pipe("p2", "S1", "J1")],
    )


class TestCompiledModel:
    @settings(max_examples=300)
    @given(problem=flow_problems())
    # failing a zero-capacity pipe leaves the capacities equal, so the memo
    # hits, but the failed pipe has no flow entry
    @example(problem=(_two_sources_and_a_closed_pipe(), [{}, {"failed_pipes": {"p1"}}]))
    # factors on some of the ids only
    @example(problem=(_two_sources_and_a_closed_pipe(), [
        {"demand_factors": {"J1": 2.5}, "supply_factors": {"S0": 0.5}},
        {"demand_factors": {"J0": 0.5}, "failed_pipes": {"p2"}},
    ]))
    def test_matches_arc_list_reference_exactly(self, problem):
        net, calls = problem
        for kwargs in calls:  # later solves reuse the compiled model and the last solve
            want = reference_allocate_flows(net, **kwargs)
            got = allocate_flows(net, **kwargs)
            # a copy of the network has no compiled model and no memo to hit
            fresh = allocate_flows(dataclasses.replace(net), **kwargs)
            for name in ("delivered", "demands", "pipe_flows", "source_outflows"):
                assert getattr(got, name) == getattr(want, name), name
                assert getattr(got, name) == getattr(fresh, name), name
                assert list(getattr(got, name)) == list(getattr(want, name)), name
                # the caller owns the maps: changing them must not reach the next call
                getattr(got, name)["J0"] = -1.0

    def test_a_repeated_state_runs_the_kernel_once(self, monkeypatch):
        net = torus_network(14, 14)
        # a surge the two sources cannot meet, so every map has partial values
        kwargs = {"failed_pipes": {"h0_0", "v3_5", "s2"},
                  "demand_factors": dict.fromkeys(net.junction_ids, 2.5)}
        fresh = allocate_flows(dataclasses.replace(net), **kwargs)
        runs = []
        kernel = hydraulics._edmonds_karp

        def counted(*args):
            runs.append(args)
            return kernel(*args)

        monkeypatch.setattr(hydraulics, "_edmonds_karp", counted)
        names = ("delivered", "demands", "pipe_flows", "source_outflows")
        previous = None
        for _ in range(4):
            got = allocate_flows(net, **kwargs)
            for name in names:
                got_map, want = getattr(got, name), getattr(fresh, name)
                # the changes made to the previous call's maps show up here
                assert got_map == want, name
                assert list(got_map) == list(want), name
                if previous is not None:
                    assert got_map is not getattr(previous, name), name
                got_map[next(iter(got_map))] = -1.0
            del got.pipe_flows["h0_1"]
            previous = got
        assert len(runs) == 1

    def test_reference_agrees_across_failure_sets_on_fixtures(self, mesh_network, tight_ring):
        for net in (mesh_network, tight_ring):
            for r in range(3):
                for failed in itertools.combinations(sorted(net.pipe_ids), r):
                    got = allocate_flows(net, failed_pipes=set(failed))
                    want = reference_allocate_flows(net, failed_pipes=set(failed))
                    assert got == want, failed

    def test_compiled_lazily_once_per_network(self, mesh_network, tmp_path, monkeypatch):
        path = tmp_path / "mesh.json"
        save_network(mesh_network, path)
        net = load_network(path)
        assert net._model is None
        compiles = []
        compile_model = hydraulics._Model.compile

        def counted(cls, network):
            compiles.append(network)
            return compile_model(network)

        monkeypatch.setattr(hydraulics._Model, "compile", classmethod(counted))
        allocate_flows(net)
        model = net._model
        assert model is not None
        surged(net, 2.0, failed_pipes={"p3"})
        rows = node_index_table(net, k=3)
        assert node_index_table(net, k=3) == rows
        connectivity_buffering(net, max_k=2)
        supply_buffering(net, 0.5, max_k=2)
        # flow solves, path searches and both buffering criteria share one model
        assert net._model is model and compiles == [net]
        # one reverse Dijkstra per source, shared by every junction
        assert sorted(model.to_goal) == sorted(model.index[s] for s in net.source_ids)
        # the model is private state: equality with a fresh load is unchanged
        assert net == load_network(path)


def kernel_inputs(solve):
    """Every kernel input that ``solve()`` builds, as ``(caps, heads,
    adjacency, s, t, amount, residuals)`` with the restarting kernel's residuals.

    ``solve`` runs on the restarting kernel, so it takes the same steps as
    it did before the kernel learned to resume: a max flow for an infinite
    ``amount``, and otherwise a push capped at ``amount``.  That kernel
    records no pushes, so the pushes handed back to ``solve`` come from the
    compiled kernel run on a copy of the same input.
    """
    runs = []
    kernel = hydraulics._edmonds_karp

    def restarting(caps, heads, adjacency, s, t, amount, sent):
        given = caps.copy()
        if amount == inf:
            restarting_edmonds_karp(caps, heads, adjacency, s, t)
        else:
            restarting_push(caps, heads, adjacency, s, t, amount, set())
        runs.append((given, heads, adjacency, s, t, amount, caps.copy()))
        return kernel(given.copy(), heads, adjacency, s, t, amount, sent)

    with mock.patch.object(hydraulics, "_edmonds_karp", restarting):
        try:
            solve()
        except ResilienceError:  # connectivity buffering refuses some networks
            pass
    return runs


@st.composite
def kernel_problems(draw):
    """The kernel inputs of one allocation or one connectivity buffering search."""
    net = draw(flow_networks())
    if draw(st.booleans()):
        kwargs = draw(allocation_arguments(net))
        return kernel_inputs(lambda: allocate_flows(net, **kwargs))
    max_k = draw(st.integers(1, 3))
    return kernel_inputs(lambda: connectivity_buffering(net, max_k))


def _pipe_network(demands, pipes, outflow=1.0):
    """Source S1 with ``outflow`` and junctions of the given demands, joined by
    ``(id, a, b, capacity)`` pipes."""
    return make_network(
        [Junction(j, 0.0, demand, 30.0) for j, demand in demands.items()],
        [Source("S1", 100.0, outflow)],
        [make_pipe(pid, a, b, capacity=cap) for pid, a, b, cap in pipes],
    )


def _mid_path_saturation():
    """The first path S1-J1-t fills pipe a and leaves J1's demand arc open;
    the fresh search reaches J1 through J2 instead."""
    return _pipe_network(
        {"J1": 0.01, "J2": 0.0},
        [("a", "S1", "J1", 0.004), ("b", "S1", "J2", 1.0), ("c", "J2", "J1", 1.0)],
    )


def _two_arcs_close():
    """The first push fills J1's demand and pipe a at once."""
    return _pipe_network(
        {"J1": 0.01, "J2": 0.01},
        [("a", "S1", "J1", 0.01), ("b", "J1", "J2", 1.0), ("c", "S1", "J2", 1.0)],
    )


def _interior_leftover():
    """The first push fills J1's demand and leaves about 6e-13 on pipe a:
    closed to the search, but a path through it would still carry that."""
    return _pipe_network(
        {"J1": 0.01, "J2": 0.0, "J3": 0.01},
        [("a", "S1", "J1", 0.01 + 6e-13), ("c", "S1", "J2", 1.0), ("d", "J1", "J3", 1.0),
         ("e", "J2", "J3", 1.0)],
    )


def _zero_arcs():
    """Pipe z has no capacity, J2 demands nothing, and the examples fail b."""
    return _pipe_network(
        {"J1": 0.01, "J2": 0.0, "J3": 0.02},
        [("a", "S1", "J1", 1.0), ("b", "S1", "J2", 1.0), ("c", "J1", "J3", 0.015),
         ("d", "J2", "J3", 1.0), ("z", "S1", "J3", 0.0)],
    )


def _supply_bound():
    """Under a 2.5x surge the junctions demand 0.1; the source gives 0.03."""
    return _pipe_network(
        {"J1": 0.02, "J2": 0.02},
        [("a", "S1", "J1", 1.0), ("b", "J1", "J2", 1.0)],
        outflow=0.03,
    )


def _parallel_pipes():
    """Two pipes join S1 to J1; the first, a, closes under a push of 1.0."""
    return _pipe_network({"J1": 0.01}, [("a", "S1", "J1", 0.25), ("b", "S1", "J1", 1.0)])


def capped_push(net, u, v, amount, **kwargs):
    """A push of ``amount`` between nodes ``u`` and ``v`` of ``net``'s compiled
    model, on the residuals of an allocation with ``kwargs``."""
    allocate_flows(net, **kwargs)
    model = net._model
    index = {**model.index, "super source": model.super_source, "super sink": model.super_sink}
    caps = list(model.last_solve[1])
    return caps, model.heads, model.adjacency, index[u], index[v], amount


@st.composite
def push_problems(draw):
    """A capped push between two nodes of a small compiled model, often the
    ends of a pipe, which may have a parallel pipe.

    A third of the pushes start at a source that gets two parallel pipes to
    another node, last in pipe order, the first narrower than the push and
    the second as wide as it.  The push can then close the first pipe's arc
    while the second's, from the same tail, still reaches the target, and
    no arc of the source after them labels a node.
    """
    net = draw(flow_networks())
    amount = draw(st.one_of(_flows, st.floats(min_value=0.0, max_value=0.2)))
    kind = draw(st.sampled_from(["pipe", "twins", "nodes"]))
    if kind == "twins":
        u = draw(st.sampled_from(net.source_ids))
        v = draw(st.sampled_from([node for node in net.node_ids if node != u]))
        narrow = draw(st.floats(min_value=0.0, max_value=1.0)) * amount
        net = make_network(net.junctions, net.sources,
                           (*net.pipes, make_pipe("x0", u, v, capacity=narrow),
                            make_pipe("x1", u, v, capacity=amount)))
    elif kind == "pipe" and net.pipes:
        u, v = net.pipe(draw(st.sampled_from(net.pipe_ids))).endpoints
        if draw(st.booleans()):
            u, v = v, u
    else:
        nodes = [*net.node_ids, "super source", "super sink"]
        u, v = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
    return capped_push(net, u, v, amount, **draw(allocation_arguments(net)))


class CountingAdjacency(list):
    """An adjacency list that counts the reads of each node's arcs."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = collections.Counter()

    def __getitem__(self, u):
        self.reads[u] += 1
        return super().__getitem__(u)


class TestResumingKernel:
    @given(runs=kernel_problems())
    @settings(max_examples=300)
    @example(runs=kernel_inputs(lambda: allocate_flows(_mid_path_saturation())))
    @example(runs=kernel_inputs(lambda: allocate_flows(_two_arcs_close())))
    @example(runs=kernel_inputs(lambda: allocate_flows(_interior_leftover())))
    @example(runs=kernel_inputs(lambda: allocate_flows(_zero_arcs(), failed_pipes={"b"})))
    @example(runs=kernel_inputs(lambda: surged(_supply_bound(), 2.5)))
    @example(runs=kernel_inputs(lambda: surged(torus_network(4, 4), 2.5, failed_pipes={"h0_0"})))
    @example(runs=kernel_inputs(lambda: connectivity_buffering(torus_network(3, 3), 3)))
    def test_residuals_equal_the_restarting_kernel(self, runs):
        for caps, heads, adjacency, s, t, amount, want in runs:
            got = caps.copy()
            hydraulics._edmonds_karp(got, heads, adjacency, s, t, amount, [0.0] * len(got))
            assert list(map(float.hex, got)) == list(map(float.hex, want))

    # the restarting kernel reads 20093 arc lists in 197 searches and, under
    # the surge, 2907 in 81
    @pytest.mark.parametrize("factor, reads, searches", [(1.0, 199, 1), (2.5, 112, 3)])
    def test_work_on_the_torus(self, factor, reads, searches):
        net = torus_network(14, 14)
        [(caps, heads, adjacency, s, t, amount, want)] = kernel_inputs(lambda: surged(net, factor))
        counted = CountingAdjacency(adjacency)
        hydraulics._edmonds_karp(caps, heads, counted, s, t, amount, [0.0] * len(caps))
        assert caps == want
        # a search scans each node at most once, however often it resumes
        assert counted.reads[s] == searches
        most_read = max(counted.reads.values())
        assert most_read <= searches
        assert sum(counted.reads.values()) == reads

    @given(problem=push_problems())
    @settings(max_examples=300)
    # the search that labels J1 through a would label it through b afresh,
    # so it must not resume although J1 was the last node it labelled
    @example(problem=capped_push(_parallel_pipes(), "S1", "J1", 1.0))
    @example(problem=capped_push(_parallel_pipes(), "super source", "J1", 1.0,
                                 demand_factors={"J1": 0.5}))
    def test_capped_pushes_equal_the_restarting_push(self, problem):
        caps, heads, adjacency, u, v, amount = problem
        want, crossed = caps.copy(), set()
        got, sent = caps.copy(), collections.defaultdict(float)
        assert hydraulics._edmonds_karp(got, heads, adjacency, u, v, amount, sent) == (
            restarting_push(want, heads, adjacency, u, v, amount, crossed))
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert set(sent) == crossed

    def test_connectivity_work_on_the_torus(self):
        # every tree edge takes its 3 paths and then stops, and most paths
        # stay next to their edge.  A flow from the merged sources to every
        # junction read the super-source's arcs 3 * 196 times and 85848 arc
        # lists in all; running each on to a max flow took a fourth, failed
        # search each (784 searches, 124852 reads)
        net = torus_network(14, 14)
        model = hydraulics._model(net)
        counted = model.adjacency = CountingAdjacency(model.adjacency)
        assert connectivity_buffering(net, 2) == 2
        assert counted.reads[model.super_source] == 26
        assert sum(counted.reads.values()) == 3813


def _diamond():
    """Residuals on nodes 0-3 with a min cut of 3.0 between 0 and 3.

    Arcs 0->1 (2.0), 0->2 (1.5), 1->3 (1.0), 2->3 (2.0) and a pipe 1-2
    (0.5 each way); every value is dyadic, so flows and sums are exact.
    """
    pairs = [(0, 1, 2.0, 0.0), (0, 2, 1.5, 0.0), (1, 3, 1.0, 0.0), (2, 3, 2.0, 0.0),
             (1, 2, 0.5, 0.5)]
    caps, heads = [], []
    adjacency = [[] for _ in range(4)]
    for a, b, forward, backward in pairs:
        adjacency[a].append((len(heads), b))
        adjacency[b].append((len(heads) + 1, a))
        heads.extend((b, a))
        caps.extend((forward, backward))
    return caps, heads, adjacency


def push(caps, heads, adjacency, u, v, amount, crossed=None):
    """The kernel capped at ``amount``, recording its pushes in ``crossed``."""
    sent = collections.defaultdict(float) if crossed is None else crossed
    return hydraulics._edmonds_karp(caps, heads, adjacency, u, v, amount, sent)


def net_outflows(before, after, adjacency):
    return [sum(before[ai] - after[ai] for ai, _ in arcs) for arcs in adjacency]


class TestPush:
    @pytest.mark.parametrize("amount, moved", [(0.0, 0.0), (0.75, 0.75), (2.5, 2.5),
                                               (3.0, 3.0), (3.25, 3.0), (8.0, 3.0)])
    def test_moves_the_amount_the_cut_allows(self, amount, moved):
        before, heads, adjacency = _diamond()
        caps = before.copy()
        assert push(caps, heads, adjacency, 0, 3, amount) == (moved == amount)
        assert net_outflows(before, caps, adjacency) == [moved, 0.0, 0.0, -moved]
        assert [caps[a] + caps[a ^ 1] for a in range(0, len(caps), 2)] == [
            before[a] + before[a ^ 1] for a in range(0, len(caps), 2)]

    def test_never_uses_a_zeroed_arc(self):
        before, heads, adjacency = _diamond()
        before[4] = before[5] = 0.0  # 1->3 is gone, so the cut is 2->3 alone
        caps = before.copy()
        assert not push(caps, heads, adjacency, 0, 3, 2.5)
        assert caps[4] == caps[5] == 0.0
        assert net_outflows(before, caps, adjacency) == [2.0, 0.0, 0.0, -2.0]
        caps = before.copy()
        assert push(caps, heads, adjacency, 0, 3, 2.0)
        assert caps[4] == caps[5] == 0.0

    def test_pushes_back_along_reverse_residuals(self):
        # 3 reaches 0 only through arcs that flow from 0 to 3 has opened
        before, heads, adjacency = _diamond()
        caps = before.copy()
        assert push(caps, heads, adjacency, 0, 3, 3.0)
        assert not push(caps.copy(), heads, adjacency, 0, 3, 0.25)
        assert push(caps, heads, adjacency, 3, 0, 3.0)
        assert net_outflows(before, caps, adjacency) == [0.0] * 4

    @pytest.mark.parametrize("amount, arcs", [
        (0.0, set()),
        (0.75, {0, 4}),                # 0->1->3
        (2.5, {0, 4, 2, 6}),           # then 0->2->3
        (8.0, {0, 4, 2, 6, 8}),        # then 0->1->2->3, and the cut is closed
    ])
    def test_records_every_arc_it_crosses(self, amount, arcs):
        before, heads, adjacency = _diamond()
        crossed = collections.defaultdict(float)
        push(before.copy(), heads, adjacency, 0, 3, amount, crossed)
        assert set(crossed) == arcs

    def test_records_an_arc_whose_residual_swallows_the_push(self):
        before, heads, adjacency = _diamond()
        before[4] = 1e5  # 1->3: a push of 1e-12 leaves its residual as it was
        caps, crossed = before.copy(), collections.defaultdict(float)
        assert push(caps, heads, adjacency, 0, 3, 1e-12, crossed)
        assert caps[4] == before[4] and caps[0] != before[0]
        assert set(crossed) == {0, 4}


class TestLastSolveMemo:
    def test_failure_window_runs_the_kernel_once_per_change_of_state(
        self, mesh_network, kernel_runs
    ):
        spec = ScenarioSpec((Event("pipe_failure", 6, 14, ids=("p3",)),), horizon=24)
        series = apply_scenario(mesh_network, spec)
        assert len(kernel_runs) == 3  # intact, failed, intact again
        np.testing.assert_array_equal(series.delivered[:6], series.delivered[14:20])

    def test_monte_carlo_sweep_runs_the_kernel_nine_times(self, mesh_network, kernel_runs):
        spec = ScenarioSpec(
            (
                Event("pipe_failure", 6, 14, count=3),
                Event("demand_scale", 10, 18, factor=2.5),
            ),
            seed=7,
            horizon=24,
        )
        monte_carlo(mesh_network, spec, n=2, metric="zhuang")
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


class TestSolveRecord:
    """The last solve is keyed by the call's inputs: its failed pipes and its
    own copies of the factor maps."""

    def test_a_factor_map_changed_in_place_gets_a_new_solve(self, mesh_network, kernel_runs):
        factors = {"A": 2.0}
        allocate_flows(mesh_network, demand_factors=factors)
        factors["A"] = 3.0
        factors["B"] = 0.5
        got = allocate_flows(mesh_network, demand_factors=factors)
        assert len(kernel_runs) == 2
        assert got == allocate_flows(dataclasses.replace(mesh_network), demand_factors=factors)
        assert got.demands["A"] == 3.0 * mesh_network.junction("A").design_demand

    # each bad call follows a valid one that it differs from in one entry
    @pytest.mark.parametrize("valid, bad, message", [
        ({"demand_factors": {"A": 2.0}}, {"demand_factors": {"A": float("nan")}},
         "demand and supply factors must be finite and > 0"),
        ({"supply_factors": {"S1": 2.0}}, {"supply_factors": {"S1": float("nan")}},
         "demand and supply factors must be finite and > 0"),
        ({"demand_factors": {"A": 2.0}}, {"demand_factors": {"A": 2.0, "X1": 2.0}},
         "unknown junction 'X1'"),
        ({"failed_pipes": {"p1"}}, {"failed_pipes": {"p1", "x"}},
         "unknown pipe ids in failure set: ['x']"),
    ], ids=["nan-demand", "nan-supply", "unknown-junction", "unknown-pipe"])
    def test_a_bad_input_after_a_valid_call_is_still_refused(self, mesh_network, valid, bad,
                                                             message):
        allocate_flows(mesh_network, **valid)
        with pytest.raises(ValidationError) as info:
            allocate_flows(mesh_network, **bad)
        assert str(info.value) == message

    # a string, None and a complex number do not compare with numbers, and a
    # bool compares as one but is no factor
    @pytest.mark.parametrize("value", ["x", None, 1j, True], ids=repr)
    @pytest.mark.parametrize("factors, key", [("demand_factors", "A"), ("supply_factors", "S1")])
    def test_a_factor_that_is_not_a_number_is_refused(self, mesh_network, factors, key, value):
        with pytest.raises(ValidationError) as info:
            allocate_flows(mesh_network, **{factors: {key: value}})
        assert str(info.value) == "demand and supply factors must be finite and > 0"

    def test_equal_capacities_from_other_inputs_run_the_kernel(self, kernel_runs):
        # failing p1, which carries nothing, leaves every capacity as it was
        net = make_network(
            [Junction("J1", 0.0, 0.01, 30.0)], [Source("S", 100.0, 0.05)],
            [make_pipe("p1", "S", "J1", capacity=0.0), make_pipe("p2", "S", "J1")])
        intact = allocate_flows(net)
        failed = allocate_flows(net, failed_pipes={"p1"})
        assert len(kernel_runs) == 2
        assert failed.delivered == intact.delivered
        assert failed.pipe_flows == {"p2": intact.pipe_flows["p2"]}

    def test_a_repeated_state_gives_equal_read_only_series(self, mesh_network, kernel_runs):
        kwargs = {"failed_pipes": {"p3"}, "demand_factors": {"A": 2.5}}
        first = surrogate_allocation(mesh_network, **kwargs)
        second = surrogate_allocation(mesh_network, **kwargs)
        assert len(kernel_runs) == 1
        assert second.digest() == first.digest()
        assert second.digest() == surrogate_allocation(
            dataclasses.replace(mesh_network), **kwargs).digest()
        for name in ("delivered", "demand", "head", "required_head"):
            a, b = getattr(first, name), getattr(second, name)
            np.testing.assert_array_equal(a, b)
            assert a is not b and not a.flags.writeable and not b.flags.writeable
            with pytest.raises(ValueError):
                b[0, 0] = -1.0

    def test_a_direct_solve_leaves_no_stale_rows(self, mesh_network):
        intact = surrogate_allocation(mesh_network)
        # failing p7 cuts D and E off, so the rows change
        allocate_flows(mesh_network, failed_pipes={"p7"})
        got = surrogate_allocation(mesh_network, failed_pipes={"p7"})
        want = surrogate_allocation(dataclasses.replace(mesh_network), failed_pipes={"p7"})
        assert got.digest() == want.digest() != intact.digest()


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
