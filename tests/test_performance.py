"""Performance-based metrics against hand-computed values."""

import dataclasses
import itertools
import math
import random
import tracemalloc
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdsres import hydraulics, performance
from wdsres.errors import (
    BaselineInfeasibleError,
    InfeasibleDesignError,
    ResilienceError,
    UndefinedInputError,
    ValidationError,
)
from wdsres.hydraulics import BinaryStateSeries, classify_states
from wdsres.network import Junction, Network, Pump, Source, network_from_dict
from wdsres.performance import (
    MetricValue,
    buffering_capacity,
    connectivity_buffering,
    connectivity_feasibility,
    flow_based_resilience,
    hashimoto_recovery,
    pipe_fragility,
    supply_buffering,
    supply_feasibility,
    todini_index,
    user_functionality,
    user_severity,
    zhuang_availability,
)

from .conftest import make_network, make_pipe, make_series, torus_network
from .reference_flow import reference_connectivity_buffering
from .test_scale import thinned_network

import netgen  # noqa: E402  (tests/conftest.py puts perfbench/ on sys.path)


def states(text):
    return BinaryStateSeries(tuple(text), threshold=0.9)


class TestMetricValue:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_value_inside_its_range_gets_no_warning(self, value):
        assert MetricValue("m", value, (0.0, 1.0), ("given",)).warnings == ("given",)

    @pytest.mark.parametrize("value", [-0.5, 1.5])
    def test_value_outside_its_range_gets_one_warning_after_the_given(self, value):
        metric = MetricValue("m", value, (0.0, 1.0), ["first", "second"])
        assert metric.warnings == (
            "first", "second", f"value {value!r} outside nominal range [0.0, 1.0]"
        )

    def test_value_without_a_range_gets_no_warning(self):
        assert MetricValue("m", -1e9, None).warnings == ()


class TestHashimotoRecovery:
    def test_ten_step_fixture(self, hashimoto_series):
        value = hashimoto_recovery(classify_states(hashimoto_series, 0.9))
        # 7 of 10 satisfactory states, 2 of 9 S-to-F transitions
        assert value.value == pytest.approx(20 / 27, abs=1e-9)
        assert not value.warnings

    def test_all_failure_gives_zero(self):
        assert hashimoto_recovery(states("FFFF")).value == 0.0

    def test_alternating_exceeds_one_with_warning(self):
        value = hashimoto_recovery(states("SFSF"))
        assert value.value == pytest.approx(4 / 3, abs=1e-9)
        assert any("outside nominal range" in w for w in value.warnings)

    def test_all_satisfactory_flagged_convention(self):
        value = hashimoto_recovery(states("SSSS"))
        assert value.value == 1.0
        assert any("no failure observed" in w for w in value.warnings)

    def test_needs_two_states(self):
        with pytest.raises(ValidationError, match="two states"):
            hashimoto_recovery(states("S"))

    @given(st.text(alphabet="SF", min_size=2, max_size=40))
    @settings(max_examples=300)
    def test_nonnegative(self, text):
        assert hashimoto_recovery(states(text)).value >= 0.0


class TestZhuangAvailability:
    def test_two_by_two_fixture(self, zhuang_series):
        assert zhuang_availability(zhuang_series).value == pytest.approx(0.825, abs=1e-9)

    def test_full_supply_is_one(self):
        series = make_series(("n1",), [[0.01], [0.01]], [[0.01], [0.01]])
        assert zhuang_availability(series).value == pytest.approx(1.0)

    def test_zero_supply_is_zero(self):
        series = make_series(("n1",), [[0.0], [0.0]], [[0.01], [0.01]])
        assert zhuang_availability(series).value == 0.0

    def test_zero_demand_is_undefined(self):
        series = make_series(("n1",), [[0.0]], [[0.0]])
        with pytest.raises(UndefinedInputError, match="zero total demand"):
            zhuang_availability(series)

    def test_respects_window(self, zhuang_series):
        # a sub-period is analysed as a series sliced to its steps
        early = make_series(zhuang_series.node_ids, zhuang_series.delivered[:1],
                            zhuang_series.demand[:1])
        assert zhuang_availability(early).value == pytest.approx(15 / 20)

    def test_monotone_in_delivery(self, zhuang_series):
        base = zhuang_availability(zhuang_series).value
        bumped = make_series(
            zhuang_series.node_ids,
            zhuang_series.delivered + 0.001,
            zhuang_series.demand,
        )
        assert zhuang_availability(bumped).value > base


class TestPipeFragility:
    def test_zero_repair_rate(self):
        assert pipe_fragility(make_pipe("p", "a", "b", repair_rate=0.0)) == 0.0

    def test_half_exponent(self):
        pipe = make_pipe("p", "a", "b", length=100.0, repair_rate=0.005)
        assert pipe_fragility(pipe) == pytest.approx(1 - math.exp(-0.5), abs=1e-12)

    def test_large_exponent(self):
        pipe = make_pipe("p", "a", "b", length=100.0, repair_rate=0.05)
        assert pipe_fragility(pipe) == pytest.approx(1 - math.exp(-5.0), abs=1e-12)

    @given(
        a=st.floats(0.0, 20.0),
        b=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=500)
    def test_strictly_increasing_and_bounded(self, a, b):
        # exponents kept below ~30: past that, 1 - exp(-x) saturates to
        # exactly 1.0 in float64 and strictness is unobservable
        lo = make_pipe("p", "x", "y", length=1.0, repair_rate=a)
        hi = make_pipe("q", "x", "y", length=1.0, repair_rate=a + b)
        assert 0.0 <= pipe_fragility(lo) < pipe_fragility(hi) < 1.0


class TestFlowBasedResilience:
    def one_node_net(self, repair_rate=0.0):
        return make_network(
            junctions=[Junction("J1", 0.0, 0.01, 30.0)],
            sources=[Source("R1", 100.0, 0.05)],
            pipes=[make_pipe("p1", "R1", "J1", length=100.0, repair_rate=repair_rate)],
        )

    def test_zero_surplus_gives_zero(self):
        net = self.one_node_net()
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[30.0]])
        assert flow_based_resilience(net, series).value == 0.0

    def test_single_node_hand_value(self):
        net = self.one_node_net()
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[40.0]])
        assert flow_based_resilience(net, series).value == pytest.approx(1 / 12, abs=1e-9)

    def test_fragile_pipe_discounts_surplus(self):
        net = self.one_node_net(repair_rate=0.005)  # Pf = 1 - e^-0.5
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[40.0]])
        expected = math.exp(-0.5) * 0.01 * 10 / (4 * 0.01 * 30)
        assert flow_based_resilience(net, series).value == pytest.approx(expected, abs=1e-9)

    def test_node_mismatch_rejected(self, ring_network):
        series = make_series(("J1",), [[0.01]], [[0.01]])
        with pytest.raises(ValidationError, match="do not match"):
            flow_based_resilience(ring_network, series)


class TestUserFunctionality:
    def test_balanced(self):
        assert user_functionality(10.0, 10.0) == 1.0

    def test_deficit(self):
        assert user_functionality(6.0, 10.0) == pytest.approx(0.6)

    def test_oversupply_uncapped(self):
        assert user_functionality(12.0, 10.0) == pytest.approx(1.2)

    def test_zero_demand(self):
        with pytest.raises(UndefinedInputError):
            user_functionality(1.0, 0.0)


class TestUserSeverity:
    def test_constant_supply(self):
        series = make_series(("n1",), [[1.0], [1.0], [1.0]], [[1.0], [1.0], [1.0]])
        assert user_severity(series, "n1").value == 1.0

    def test_takes_minimum(self):
        series = make_series(("n1",), [[1.0], [0.6], [0.8]], [[1.0], [1.0], [1.0]])
        assert user_severity(series, "n1").value == pytest.approx(0.6)

    def test_zhuang_fixture_node_one(self, zhuang_series):
        assert user_severity(zhuang_series, "n1").value == pytest.approx(0.5)

    def test_zero_demand_step_rejected(self):
        series = make_series(("n1",), [[1.0], [0.0]], [[1.0], [0.0]])
        with pytest.raises(UndefinedInputError, match="zero demand"):
            user_severity(series, "n1")

    def test_severity_bounds_functionality(self, zhuang_series):
        severity = user_severity(zhuang_series, "n1").value
        i = zhuang_series.node_index("n1")
        for t in range(zhuang_series.n_steps):
            ratio = zhuang_series.delivered[t, i] / zhuang_series.demand[t, i]
            assert severity <= ratio + 1e-12


class TestTodiniIndex:
    def test_zero_surplus(self, minimal_network):
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[30.0]])
        assert todini_index(minimal_network, series).value == 0.0

    def test_hand_value_without_pump(self, minimal_network):
        net = make_network(
            junctions=[Junction("J1", 0.0, 0.01, 30.0)],
            sources=[Source("R1", 100.0, 0.01)],
            pipes=[make_pipe("p1", "R1", "J1")],
        )
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[40.0]])
        assert todini_index(net, series).value == pytest.approx(1 / 7, abs=1e-9)

    def test_hand_value_with_pump(self, pump_network):
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[40.0]])
        assert todini_index(pump_network, series).value == pytest.approx(0.1, abs=1e-9)

    def test_infeasible_denominator(self):
        net = make_network(
            junctions=[Junction("J1", 0.0, 0.01, 300.0)],
            sources=[Source("R1", 10.0, 0.01)],
            pipes=[make_pipe("p1", "R1", "J1")],
        )
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[300.0]], required_head=[[300.0]])
        with pytest.raises(InfeasibleDesignError):
            todini_index(net, series)

    def test_multi_step_series_rejected(self, minimal_network):
        series = make_series(("J1",), [[0.01], [0.01]], [[0.01], [0.01]])
        with pytest.raises(ValidationError, match="single-timestep"):
            todini_index(minimal_network, series)

    def test_head_deficit_contributes_negatively(self, minimal_network):
        series = make_series(("J1",), [[0.01]], [[0.01]], head=[[20.0]])
        value = todini_index(minimal_network, series)
        assert value.value < 0
        assert any("outside nominal range" in w for w in value.warnings)

    def test_relabel_invariance(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(80):
            net, series = _random_net_state(rng)
            mapped_net, mapped_series = _relabel(net, series, prefix="zz_")
            try:
                a = todini_index(net, series).value
            except InfeasibleDesignError:
                with pytest.raises(InfeasibleDesignError):
                    todini_index(mapped_net, mapped_series)
                continue
            b = todini_index(mapped_net, mapped_series).value
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
            checked += 1
        assert checked > 30


class TestBufferingCapacity:
    def test_tree_is_zero_resilient(self, tree_network):
        k = buffering_capacity(tree_network, connectivity_feasibility(tree_network))
        assert k == 0

    def test_ring_is_one_resilient(self, ring_network):
        oracle = connectivity_feasibility(ring_network)
        assert buffering_capacity(ring_network, oracle, max_k=2) == 1
        # the same enumeration confirms a violating pair exists
        assert any(
            not oracle(frozenset(pair))
            for pair in itertools.combinations(ring_network.pipe_ids, 2)
        )

    def test_max_k_zero(self, ring_network):
        assert buffering_capacity(ring_network, connectivity_feasibility(ring_network), max_k=0) == 0

    def test_baseline_infeasible(self, ring_network):
        with pytest.raises(BaselineInfeasibleError):
            buffering_capacity(ring_network, lambda failed: False)

    def test_max_k_capped_by_components(self, minimal_network):
        with pytest.raises(ValidationError, match="exceeds"):
            buffering_capacity(
                minimal_network, connectivity_feasibility(minimal_network), max_k=5
            )

    def test_exhaustive_against_independent_search(self, ring_network, tree_network):
        # independent reimplementation: scan subset sizes directly
        for net in (ring_network, tree_network):
            oracle = connectivity_feasibility(net)
            components = sorted(net.pipe_ids)
            expected = 0
            for size in range(1, 3):
                if all(
                    oracle(frozenset(sub))
                    for sub in itertools.combinations(components, size)
                ):
                    expected = size
                else:
                    break
            assert buffering_capacity(net, oracle, max_k=2) == expected


def _outcome(fn):
    """The value of ``fn()``, or the type and message of its package error."""
    try:
        return fn()
    except ResilienceError as exc:
        return type(exc), str(exc)


def _enumerated(net, max_k):
    return _outcome(
        lambda: buffering_capacity(net, connectivity_feasibility(net), max_k=max_k)
    )


@st.composite
def connectivity_problems(draw):
    """A small random multigraph, with pumps, and a search depth in [-1, 4].

    Pipes join any two distinct nodes, so parallel pipes, pipes between two
    sources and junctions without a pipe all occur.
    """
    n_sources = draw(st.integers(1, 3))
    n_junctions = draw(st.integers(1, 5))
    nodes = [f"R{i}" for i in range(n_sources)] + [f"J{i}" for i in range(n_junctions)]
    ends = st.tuples(st.integers(0, len(nodes) - 1), st.integers(1, len(nodes) - 1))
    pairs = draw(st.lists(ends, max_size=12))
    pipes = [
        make_pipe(f"p{i}", nodes[a], nodes[(a + step) % len(nodes)])
        for i, (a, step) in enumerate(pairs)
    ]
    pumps = [Pump(f"b{i}", 1.0) for i in range(draw(st.integers(0, 2)))]
    net = make_network(
        [Junction(f"J{i}", 0.0, 0.01, 30.0) for i in range(n_junctions)],
        [Source(f"R{i}", 100.0, 0.05) for i in range(n_sources)],
        pipes,
        pumps,
    )
    return net, draw(st.integers(-1, 4))


@st.composite
def connectivity_multigraphs(draw):
    """A small random multigraph, with pumps, and a search depth in [0, 5].

    Each drawn pipe comes with up to two parallel pipes, pipes may join two
    sources, and a junction may be left without a pipe, so the intact
    network can fail the baseline check.  Few nodes and many parallel
    pipes give values up to 5.
    """
    n_sources = draw(st.integers(1, 3))
    n_junctions = draw(st.integers(1, 3))
    nodes = [f"R{i}" for i in range(n_sources)] + [f"J{i}" for i in range(n_junctions)]
    ends = st.tuples(st.integers(0, len(nodes) - 1), st.integers(1, len(nodes) - 1),
                     st.integers(1, 3))
    pipes = []
    for a, step, copies in draw(st.lists(ends, min_size=1, max_size=7)):
        for _ in range(copies):
            pipes.append(make_pipe(f"p{len(pipes)}", nodes[a], nodes[(a + step) % len(nodes)]))
    pumps = [Pump(f"b{i}", 1.0) for i in range(draw(st.integers(0, 2)))]
    net = make_network(
        [Junction(f"J{i}", 0.0, 0.01, 30.0) for i in range(n_junctions)],
        [Source(f"R{i}", 100.0, 0.05) for i in range(n_sources)],
        pipes,
        pumps,
    )
    return net, draw(st.integers(0, 5))


def _parallel(n_pipes):
    """One source and one junction joined by ``n_pipes`` parallel pipes."""
    return make_network([Junction("J", 0.0, 0.01, 30.0)], [Source("R", 100.0, 0.05)],
                        [make_pipe(f"q{i}", "R", "J") for i in range(n_pipes)])


def _chain_between_sources():
    """Junctions J0, J1 and J2 in a chain from source R0 to source R1.

    The tree edge J0-J1 has a second path only through the merged
    sources, so no single failure cuts a junction off.
    """
    return make_network([Junction(f"J{i}", 0.0, 0.01, 30.0) for i in range(3)],
                        [Source("R0", 100.0, 0.05), Source("R1", 100.0, 0.05)],
                        [make_pipe("a", "R0", "J0"), make_pipe("b", "J0", "J1"),
                         make_pipe("c", "J1", "J2"), make_pipe("d", "J2", "R1")])


class TestConnectivityBuffering:
    @given(problem=connectivity_problems())
    @settings(max_examples=400)
    def test_equals_the_subset_enumeration(self, problem):
        net, max_k = problem
        assert _outcome(lambda: connectivity_buffering(net, max_k)) == _enumerated(net, max_k)

    @given(problem=connectivity_multigraphs())
    @settings(max_examples=300)
    # every value from 0 to 5
    @example(problem=(_parallel(1), 5))
    @example(problem=(_parallel(2), 5))
    @example(problem=(_parallel(3), 5))
    @example(problem=(_parallel(4), 5))
    @example(problem=(_parallel(5), 5))
    @example(problem=(_parallel(6), 5))
    @example(problem=(_chain_between_sources(), 2))
    def test_tree_walk_equals_a_flow_per_junction_and_the_enumeration(self, problem):
        net, max_k = problem
        got = _outcome(lambda: connectivity_buffering(net, max_k))
        # a copy has a model of its own
        assert got == _outcome(lambda: reference_connectivity_buffering(
            dataclasses.replace(net), max_k))
        assert got == _enumerated(net, max_k)

    # grids where enumeration is out of reach: the torus answers the cap,
    # the thinned grids answer below it
    @pytest.mark.parametrize("size", [14, 20])
    def test_equals_a_flow_per_junction_on_grids(self, size):
        for doc in (netgen.grid_network(size, size, 0), thinned_network(size, size, 0)):
            net = network_from_dict(doc)
            for max_k in (1, 2, 3, 5):
                assert connectivity_buffering(net, max_k) == (
                    reference_connectivity_buffering(dataclasses.replace(net), max_k))

    @pytest.mark.parametrize("max_k", [0, 1, 2, 3])
    def test_fixtures_match_the_enumeration(self, ring_network, tree_network, mesh_network,
                                            pump_network, max_k):
        for net in (ring_network, tree_network, mesh_network, pump_network):
            assert _outcome(lambda: connectivity_buffering(net, max_k)) == _enumerated(net, max_k)

    def test_hand_values(self, ring_network, tree_network, mesh_network):
        assert connectivity_buffering(tree_network) == 0
        assert connectivity_buffering(ring_network, max_k=3) == 1
        # E hangs off D by the single pipe p8
        assert connectivity_buffering(mesh_network) == 0

    def test_parallel_pipes_count_and_source_pipes_do_not(self):
        junction = Junction("J", 0.0, 0.01, 30.0)
        sources = [Source("R1", 100.0, 0.05), Source("R2", 100.0, 0.05)]
        pipes = [make_pipe("a", "R1", "J"), make_pipe("b", "R1", "J"),
                 make_pipe("c", "R2", "J"), make_pipe("d", "R1", "R2"),
                 make_pipe("e", "R1", "R2")]
        net = make_network([junction], sources, pipes)
        assert connectivity_buffering(net, max_k=4) == 2
        assert _enumerated(net, 4) == 2
        # five parallel pipes survive any four failures: the depth caps the value
        net = make_network([junction], sources[:1],
                           [make_pipe(f"q{i}", "R1", "J") for i in range(5)])
        assert connectivity_buffering(net, max_k=4) == 4
        assert _enumerated(net, 4) == 4

    def test_errors_in_the_enumerators_order(self, ring_network, minimal_network):
        with pytest.raises(ValidationError, match="max_k must be >= 0"):
            connectivity_buffering(ring_network, max_k=-1)
        with pytest.raises(ValidationError, match="max_k=5 exceeds the 4 failable"):
            connectivity_buffering(ring_network, max_k=5)
        isolated = make_network(
            [Junction("J1", 0.0, 0.01, 30.0), Junction("J2", 0.0, 0.0, 30.0)],
            [Source("R1", 100.0, 0.05)],
            [make_pipe("p1", "R1", "J1")],
        )
        with pytest.raises(BaselineInfeasibleError, match="intact system"):
            connectivity_buffering(isolated, max_k=1)
        assert connectivity_buffering(minimal_network, max_k=0) == 0

    @pytest.mark.parametrize("max_k", [1.5, 2.0, True, "2", None])
    def test_max_k_must_be_an_integer(self, ring_network, max_k):
        message = f"^max_k must be an integer, got {max_k!r}$"
        with pytest.raises(ValidationError, match=message):
            connectivity_buffering(ring_network, max_k=max_k)
        with pytest.raises(ValidationError, match=message):
            supply_buffering(ring_network, 0.5, max_k=max_k)
        with pytest.raises(ValidationError, match=message):
            buffering_capacity(ring_network, connectivity_feasibility(ring_network), max_k=max_k)

    def test_leaves_the_flow_memo_alone(self, mesh_network):
        before = hydraulics.allocate_flows(mesh_network)
        memo = mesh_network._model.last_solve
        connectivity_buffering(mesh_network, max_k=2)
        assert mesh_network._model.last_solve is memo
        assert hydraulics.allocate_flows(mesh_network) == before

    def test_work_is_one_search_and_a_bounded_kernel_count(self, monkeypatch):
        net = torus_network(20, 20)
        max_k = 3
        searches, kernels = [], []
        reachable = Network.reachable_from_sources
        kernel = hydraulics._edmonds_karp

        def counted_reachable(self, *args, **kwargs):
            searches.append(args)
            return reachable(self, *args, **kwargs)

        def counted_kernel(*args):
            kernels.append(args)
            return kernel(*args)

        monkeypatch.setattr(Network, "reachable_from_sources", counted_reachable)
        monkeypatch.setattr(hydraulics, "_edmonds_karp", counted_kernel)
        # enumeration would test about 85M failure sets of at most 3 pipes
        assert math.comb(len(net.pipes), 3) > 85_000_000
        assert connectivity_buffering(net, max_k=max_k) == 3
        # the one search is the walk of the spanning tree, which also answers
        # the baseline check, so no reachability search runs
        assert searches == []
        # one flow of max_k + 1 units per tree edge, that is per junction
        assert len(kernels) == net.n_junctions
        assert {args[5] for args in kernels} == {max_k + 1}


# capacities and demands with rounding in their sums, exact zeros, and a
# capacity whose double overflows so the allocator refuses the network
CAPACITIES = st.one_of(st.sampled_from([0.0, 0.004, 0.01, 0.012, 1.0, 1.5e308]),
                       st.floats(1e-3, 0.1))
DEMANDS = st.one_of(st.sampled_from([0.0, 0.0, 0.01]), st.floats(1e-3, 0.03))


@st.composite
def supply_problems(draw, decisive=False):
    """A small random multigraph with random capacities, a depth and a threshold.

    Pipes join any two distinct nodes, so parallel pipes and pipes between
    two sources occur; junctions may demand nothing and 0-2 pumps are
    drawn.  The threshold lies outside (0, 1], inside it, or at the exact
    ratio that some failure set delivers, where the verdict turns on the
    last bits of that set's solve.

    A ``decisive`` problem is one whose search can stop at a failing set:
    no pipe overflows, ``1 <= max_k <=`` the component count, and the
    threshold lies in (0, 1] and at most at the largest one that the intact
    network meets.
    """
    n_sources = draw(st.integers(1, 3))
    n_junctions = draw(st.integers(1, 4))
    # at large flows rounding exceeds the oracle's 1e-12 slack; at tiny ones the
    # kernel's 1e-12 residual cutoff bites
    scale = draw(st.sampled_from([1.0, 1e-10, 1e6, 3e7]))
    nodes = [f"R{i}" for i in range(n_sources)] + [f"J{i}" for i in range(n_junctions)]
    ends = st.tuples(st.integers(0, len(nodes) - 1), st.integers(1, len(nodes) - 1))
    pairs = draw(st.lists(ends, min_size=int(decisive), max_size=10))
    pipes = [
        make_pipe(f"p{i}", nodes[a], nodes[(a + step) % len(nodes)],
                  capacity=min(scale * draw(CAPACITIES), 1e300 if decisive else 1.5e308))
        for i, (a, step) in enumerate(pairs)
    ]
    net = make_network(
        [Junction(f"J{i}", 0.0, scale * draw(DEMANDS), 30.0) for i in range(n_junctions)],
        [Source(f"R{i}", 100.0, scale * draw(st.sampled_from([0.005, 0.02, 0.05])))
         for i in range(n_sources)],
        pipes,
        [Pump(f"b{i}", 1.0) for i in range(draw(st.integers(0, 2)))],
    )
    if decisive:
        max_k = draw(st.integers(1, min(4, len(net.pipes) + len(net.pumps))))
    else:
        max_k = draw(st.integers(-1, 4))
    kind = draw(st.sampled_from(["inside", "achieved"] if decisive
                                else ["outside", "inside", "achieved"]))
    if kind == "outside":
        threshold = draw(st.sampled_from([-0.5, 0.0, 1.0 + 1e-12, 2.0, math.nan]))
    elif kind == "inside" or any(p.capacity > 1e300 for p in pipes):
        threshold = draw(st.floats(1e-6, 1.0))
    else:
        failed = draw(st.lists(st.sampled_from(net.pipe_ids), max_size=3)) if pipes else []
        alloc = hydraulics.allocate_flows(net, failed_pipes=failed)
        # at zero demand any threshold passes; 0/0 is not a ratio
        threshold = alloc.total_delivered / alloc.total_demand if alloc.total_demand else 1.0
    if decisive:
        intact = hydraulics.allocate_flows(net)
        # the largest threshold that passes the oracle's test on the intact network
        ceiling = 1.0
        if intact.total_demand:
            ceiling = min(1.0, (intact.total_delivered + 1e-12) / intact.total_demand)
        while intact.total_delivered < ceiling * intact.total_demand - 1e-12:
            ceiling = math.nextafter(ceiling, 0.0)
        threshold = min(threshold, ceiling) if threshold > 0 else ceiling
    return net, threshold, max_k


def _supply_enumerated(net, threshold, max_k):
    return _outcome(
        lambda: buffering_capacity(net, supply_feasibility(net, threshold), max_k=max_k)
    )


def _swallowing():
    """All the demand crosses p1, whose residual of 1e5 is left unchanged by
    the push of 1.5e-12: only the recorded push shows the flow."""
    return make_network(
        [Junction("J1", 0.0, 1.5e-12, 30.0)], [Source("R1", 100.0, 2e-12)],
        [make_pipe("p1", "R1", "J1", capacity=1e5), make_pipe("p2", "R1", "J1")],
    )


def _widened(net, capacity):
    """``net`` with every pipe's capacity set to ``capacity``."""
    return make_network(net.junctions, net.sources,
                        [dataclasses.replace(p, capacity=capacity) for p in net.pipes],
                        net.pumps)


def _rounded_short():
    """R's outflow of 1.5e6 binds.  The intact solve's deliveries sum to
    1500000.0000000002, but without p1 or p2 they sum to 1500000.0,
    although the flow of either reroutes over p3."""
    return make_network(
        [Junction("A", 0.0, 510000.1, 30.0), Junction("B", 0.0, 8e5, 30.0),
         Junction("C", 0.0, 240000.3, 30.0)],
        [Source("R", 100.0, 1.5e6)],
        [make_pipe(pid, a, b, capacity=1e6)
         for pid, a, b in [("p1", "R", "A"), ("p2", "R", "C"), ("p3", "A", "C"),
                           ("p4", "R", "B"), ("p5", "R", "B")]],
    )


def _swallowed_detour():
    """R1 feeds the demand of 1.5e-12 over p1; p2, parallel and 1e5 wide,
    and a1, a pipe to a second source R2 with no other pipe, carry nothing.

    Without p1 the flow detours over p2, whose residual the push leaves
    unchanged, so only the recorded path shows p2 in {p1}'s rerouted
    support.  At ``max_k=2`` that support settles {a1, p1}; the first
    failing set, {p1, p2}, comes after it, and the answer is 1.
    """
    return make_network(
        [Junction("J1", 0.0, 1.5e-12, 30.0)],
        [Source("R1", 100.0, 2e-12), Source("R2", 100.0, 2e-12)],
        [make_pipe("a1", "R1", "R2"), make_pipe("p1", "R1", "J1"),
         make_pipe("p2", "R1", "J1", capacity=1e5)],
    )


def _detour_past_a_used_pipe():
    """R0 feeds J1 (demand 0.01) over p0 and J0 (0.02) over p1; p3 (0.01)
    joins R0 to J0 as well, and p2 joins J0 to J1.

    {p0}'s flow reroutes over p3 and p2, past p1, which carries the intact
    flow.  Without p0 and p1 only 0.01 of the 0.03 demand arrives, so at
    threshold 0.6 the answer is 1: p1 is in {p0}'s support through the
    intact flow alone.
    """
    return make_network(
        [Junction("J0", 0.0, 0.02, 30.0), Junction("J1", 0.0, 0.01, 30.0)],
        [Source("R0", 100.0, 0.05)],
        [make_pipe("p0", "R0", "J1"), make_pipe("p1", "J0", "R0", capacity=0.02),
         make_pipe("p2", "J1", "J0"), make_pipe("p3", "J0", "R0", capacity=0.01)],
    )


def _parallel_to(capacities, outflow):
    """Source R with ``outflow`` feeds junction J (demand 1.0) over parallel
    pipes of the given capacities, in pipe order."""
    return make_network(
        [Junction("J", 0.0, 1.0, 30.0)], [Source("R", 100.0, outflow)],
        [make_pipe(pid, "R", "J", capacity=cap) for pid, cap in capacities.items()],
    )


def _shared_detour():
    """a1 and a2 carry the demand; the flow of either reroutes over d1 and
    d2, so the two reroutes cross the same arcs.  Without both only 0.5 of
    the 1.0 demand arrives, so at threshold 0.6 {a1, a2} is the one failing
    pair and the answer at ``max_k=2`` is 1."""
    return _parallel_to({"a1": 0.5, "a2": 0.5, "d1": 0.25, "d2": 0.25}, 1.0)


def _detour_over_the_other():
    """a and b carry 0.5 each; a's flow reroutes over b, which has room,
    and b's over d1 and d2, which cross neither.  Without a and b only 0.5
    of the 1.0 demand arrives, so at threshold 0.6 {a, b} is the one
    failing pair and the answer at ``max_k=2`` is 1."""
    return _parallel_to({"a": 0.5, "b": 1.5, "d1": 0.25, "d2": 0.25}, 2.0)


def _detour_over_an_idle_pipe():
    """p carries the whole demand of 1.0 and t, parallel and as wide,
    carries nothing, so t is outside the intact support.  p's flow
    reroutes over t; without both nothing arrives, so at threshold 0.6
    {p, t} is the one failing pair and the answer at ``max_k=2`` is 1."""
    return _parallel_to({"p": 1.0, "t": 1.0}, 1.0)


def _certificates(net):
    """The baseline's residuals and pushes on ``net``'s model, and a function
    from a failure set to the arcs its rerouting crossed, or None."""
    hydraulics.allocate_flows(net)
    model = hydraulics._model(net)
    _, residual, sent = model.last_solve
    caps = list(residual)

    def certificate(failed):
        arcs = defaultdict(float)
        if performance._reroutes(model, caps, residual, sent, failed, arcs):
            return tuple(arcs)
        return None

    return model, residual, caps, certificate


class TestSupplyBuffering:
    @given(problem=supply_problems())
    @settings(max_examples=400)
    # pinned: which examples a derandomized run draws depends on the loaded modules
    @example(problem=(_swallowing(), 1.0, 2))
    @example(problem=(_widened(torus_network(4, 4), 1e4), 0.99, 2))
    @example(problem=(_swallowed_detour(), 1.0, 2))
    @example(problem=(_detour_past_a_used_pipe(), 0.6, 2))
    @example(problem=(_detour_over_an_idle_pipe(), 0.6, 2))
    def test_equals_the_subset_enumeration(self, problem):
        net, threshold, max_k = problem
        assert _outcome(lambda: supply_buffering(net, threshold, max_k)) == (
            _supply_enumerated(net, threshold, max_k)
        )

    @pytest.mark.parametrize("threshold", [0.2, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("max_k", [0, 1, 2, 3])
    def test_fixtures_match_the_enumeration(self, ring_network, tree_network, tight_ring,
                                            mesh_network, pump_network, threshold, max_k):
        for net in (ring_network, tree_network, tight_ring, mesh_network, pump_network):
            assert _outcome(lambda: supply_buffering(net, threshold, max_k)) == (
                _supply_enumerated(net, threshold, max_k)
            )

    @given(problem=supply_problems())
    @settings(max_examples=400)
    @example(problem=(_swallowing(), 1.0, 2))
    @example(problem=(_widened(torus_network(4, 4), 1e4), 0.99, 2))
    def test_every_rerouted_set_passes_the_oracle(self, problem):
        # the search never asks about a set past the first failing one, so
        # its verdict alone would not show an unsound certificate there
        net, threshold, max_k = problem
        try:
            feasible = supply_feasibility(net, threshold)
            baseline = hydraulics.allocate_flows(net)
        except ValidationError:
            return  # a threshold outside (0, 1] or a pipe that overflows when doubled
        demand = baseline.total_demand
        if baseline.total_delivered < threshold * demand - 1e-12 + 1e-9 * demand:
            return  # the search tries a certificate only past this margin
        model = hydraulics._model(net)
        _, residual, sent = model.last_solve
        caps = list(residual)
        for k in range(1, max_k + 1):
            for failed in itertools.combinations(net.pipe_ids, k):
                if performance._reroutes(model, caps, residual, sent, failed,
                                         defaultdict(float)):
                    assert feasible(frozenset(failed)), failed

    @given(problem=supply_problems())
    @settings(max_examples=400)
    @example(problem=(_swallowing(), 1.0, 2))
    @example(problem=(_widened(torus_network(4, 4), 1e4), 0.99, 2))
    @example(problem=(_swallowed_detour(), 1.0, 2))
    def test_a_rerouted_sets_support_passes_one_more_pipe(self, problem):
        # a set of the next level that the support lemma settles from a
        # rerouted set gets no solve, and the search stops at the first
        # failing set, so its verdict alone would not show an unsound reuse
        net, threshold, max_k = problem
        try:
            feasible = supply_feasibility(net, threshold)
            baseline = hydraulics.allocate_flows(net)
        except ValidationError:
            return  # a threshold outside (0, 1] or a pipe that overflows when doubled
        demand = baseline.total_demand
        if baseline.total_delivered < threshold * demand - 1e-12 + 1e-9 * demand:
            return  # the search tries a certificate only past this margin
        model = hydraulics._model(net)
        _, residual, sent = model.last_solve
        caps = list(residual)
        support = {p for p, flow in baseline.pipe_flows.items() if flow != 0.0}
        # only the sets below max_k keep an entry
        for k in range(1, max_k):
            for failed in itertools.combinations(net.pipe_ids, k):
                arcs = defaultdict(float)
                if not performance._reroutes(model, caps, residual, sent, failed, arcs):
                    continue
                touched = {*failed, *(p for p, ai in model.pipe_arcs.items()
                                      if {ai, ai ^ 1} & arcs.keys())}
                for pipe_id in sorted(set(net.pipe_ids) - support - touched):
                    assert feasible(frozenset((*failed, pipe_id))), (failed, pipe_id)

    def test_hand_values(self, ring_network, tree_network, mesh_network):
        # any one ring pipe may fail; losing p1 and p4 cuts every junction off
        assert supply_buffering(ring_network, 1.0, max_k=3) == 1
        assert supply_buffering(tree_network, 0.5) == 0
        # the worst pair, p3 and p4, leaves 0.01 of the 0.045 demand; p1, p2 and p5 leave 0
        assert supply_buffering(mesh_network, 0.2, max_k=3) == 2
        # losing p7 leaves D and E dry, so 0.03 of 0.045 arrives
        assert supply_buffering(mesh_network, 0.9) == 0

    def test_errors_in_the_enumerators_order(self, ring_network, tight_ring, kernel_runs):
        with pytest.raises(ValidationError, match=r"threshold must lie in \(0, 1\]"):
            supply_buffering(ring_network, 0.0, max_k=-1)
        with pytest.raises(ValidationError, match="max_k must be >= 0"):
            supply_buffering(ring_network, 0.5, max_k=-1)
        with pytest.raises(ValidationError, match="max_k=5 exceeds the 4 failable"):
            supply_buffering(ring_network, 0.5, max_k=5)
        assert kernel_runs == []  # the baseline is solved only after the depth checks
        # p1 and p4 carry at most 0.024 of the 0.03 demand
        with pytest.raises(BaselineInfeasibleError, match="intact system"):
            supply_buffering(tight_ring, 1.0, max_k=1)
        assert len(kernel_runs) == 1
        assert supply_buffering(tight_ring, 0.8, max_k=0) == 0

    def test_a_baseline_inside_the_margin_gets_fresh_solves(self):
        net = _rounded_short()
        baseline = hydraulics.allocate_flows(net)
        model = hydraulics._model(net)
        _, residual, sent = model.last_solve
        caps = list(residual)
        threshold = baseline.total_delivered / baseline.total_demand
        for pipe_id in ("p1", "p2"):
            assert performance._reroutes(model, caps, residual, sent, (pipe_id,),
                                         defaultdict(float))
            assert not supply_feasibility(net, threshold)(frozenset({pipe_id}))
        assert supply_buffering(net, threshold, max_k=1) == 0
        assert _supply_enumerated(net, threshold, 1) == 0

    def test_pipe_whose_residual_swallows_the_flow_is_in_every_support(self):
        net = _swallowing()
        assert hydraulics.allocate_flows(net).pipe_flows == {"p1": 1.5e-12, "p2": 0.0}
        assert supply_buffering(net, 1.0, max_k=2) == 1 == _supply_enumerated(net, 1.0, 2)

    def test_zero_demand_passes_every_set_without_a_solve(self, ring_network, kernel_runs):
        dry = make_network(
            [dataclasses.replace(j, design_demand=0.0) for j in ring_network.junctions],
            ring_network.sources, ring_network.pipes,
        )
        assert supply_buffering(dry, 1.0, max_k=4) == 4
        assert len(kernel_runs) == 1

    @pytest.mark.parametrize("make, threshold, value, solves", [
        ("mesh", 0.2, 2, 8),
        ("torus", 0.99, 2, 1),
        # a push of 0.01 changes a residual of 1e4 only in its last bits
        ("wide torus", 0.99, 2, 1),
    ])
    def test_kernel_count(self, mesh_network, kernel_runs, make, threshold, value, solves):
        net = mesh_network if make == "mesh" else torus_network(5, 5)
        if make == "wide torus":
            net = _widened(net, 1e4)
        assert supply_buffering(net, threshold, max_k=2) == value
        n = len(net.pipes) + len(net.pumps)
        assert len(kernel_runs) == solves < 1 + n + math.comb(n, 2)

    @pytest.mark.parametrize("make, threshold, value, pushes", [
        ("mesh", 0.2, 2, 17),
        ("torus", 0.99, 2, 209),
        ("14x14 torus", 0.99, 1, 1117),
    ])
    def test_push_count(self, mesh_network, push_calls, make, threshold, value, pushes):
        # composed certificates need no push, whether the arc index passes
        # them or the per-set check composes them; without composition these
        # took 19, 701 and 9649 pushes
        net = {"mesh": mesh_network, "torus": torus_network(5, 5),
               "14x14 torus": torus_network(14, 14)}[make]
        assert supply_buffering(net, threshold, max_k=2) == value
        assert len(push_calls) == pushes

    @pytest.mark.parametrize("size, max_k, checks", [(5, 2, 146), (4, 3, 1157)])
    def test_composition_check_count(self, monkeypatch, size, max_k, checks):
        # the arc index passes a certified base's certified pipes outside its
        # conflicts with no check each; a check per set took 354 and 1842
        calls = []
        composes = performance._composes

        def counted(*args):
            calls.append(args)
            return composes(*args)

        monkeypatch.setattr(performance, "_composes", counted)
        assert supply_buffering(torus_network(size, size), 0.99, max_k) == max_k
        assert len(calls) == checks

    @pytest.mark.parametrize("make, max_k, refused, passed", [
        ("torus", 2, 146, 0), ("netgen", 2, 120, 0),
        ("torus", 3, 1305, 1145), ("netgen", 3, 1100, 1085),
    ])
    def test_composition_passes_no_set_below_max_k_3(self, monkeypatch, make, max_k,
                                                     refused, passed):
        # the supply_buffering docstring gives the argument; the 5 x 5 grids
        # are tests/conftest.py's torus and the benchmark's supply grid
        outcomes = []
        composes = performance._composes

        def counted(*args):
            outcomes.append(composes(*args))
            return outcomes[-1]

        monkeypatch.setattr(performance, "_composes", counted)
        net = (torus_network(5, 5) if make == "torus"
               else network_from_dict(netgen.grid_network(5, 5, 0)))
        assert supply_buffering(net, 0.99, max_k) == max_k
        assert (outcomes.count(False), outcomes.count(True)) == (refused, passed)

    def test_pumps_never_need_a_solve(self, ring_network, kernel_runs):
        pumped = make_network(ring_network.junctions, ring_network.sources,
                              ring_network.pipes, [Pump("b1", 1.0), Pump("b2", 1.0)])
        assert supply_buffering(ring_network, 0.5, max_k=3) == 1
        solves = len(kernel_runs)
        kernel_runs.clear()
        assert supply_buffering(pumped, 0.5, max_k=3) == 1
        assert len(kernel_runs) == solves

    def test_memory_holds_one_level_of_shared_entries(self):
        # about 50 KiB, run alone with or without output capture or in the
        # full file, with each certified set's crossed pipes and arcs kept as
        # tuples beside the shared intact support; a copy of that support per
        # rerouted set takes 143 KiB
        net = torus_network(4, 4)
        # the same search once untraced, so the flow model is compiled and the
        # free lists are as warm as this search leaves them whatever ran before
        assert supply_buffering(net, 0.99, max_k=3) == 3
        tracemalloc.start()
        try:
            assert supply_buffering(net, 0.99, max_k=3) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**17

    @given(problem=supply_problems())
    @settings(max_examples=400)
    @example(problem=(_shared_detour(), 0.6, 2))
    @example(problem=(_detour_over_the_other(), 0.6, 2))
    @example(problem=(_widened(torus_network(3, 3), 1e4), 0.99, 2))
    def test_every_composed_pair_passes_the_oracle(self, problem):
        # the search composes a set's certificate from a certified subset
        # one smaller and the remaining pipe's own, and stops at the first
        # failing set, so its verdict alone would not show an unsound rule
        net, threshold, max_k = problem
        try:
            feasible = supply_feasibility(net, threshold)
            baseline = hydraulics.allocate_flows(net)
        except ValidationError:
            return  # a threshold outside (0, 1] or a pipe that overflows when doubled
        demand = baseline.total_demand
        if baseline.total_delivered < threshold * demand - 1e-12 + 1e-9 * demand:
            return  # the search tries a certificate only past this margin
        model, _, _, certificate = _certificates(net)
        singles = {p: frozenset(arcs) for p in net.pipe_ids
                   if (arcs := certificate((p,))) is not None}
        for k in range(1, max_k):
            for rest in itertools.combinations(net.pipe_ids, k):
                arcs = certificate(rest)
                if arcs is None:
                    continue
                for pipe_id in sorted(singles.keys() - set(rest)):
                    if performance._composes(model, rest, arcs, pipe_id, singles[pipe_id]):
                        assert feasible(frozenset((*rest, pipe_id))), (rest, pipe_id)

    @given(problem=supply_problems())
    @settings(max_examples=400)
    @example(problem=(_detour_over_an_idle_pipe(), 0.6, 2))
    @example(problem=(_detour_over_the_other(), 0.6, 2))
    @example(problem=(_shared_detour(), 0.6, 2))
    @example(problem=(_widened(torus_network(3, 3), 1e4), 0.99, 2))
    def test_every_pipe_the_index_passes_passes_the_oracle(self, problem):
        # at the last level the search adds to a certified base, with no
        # check, every pipe outside its conflicts that is certified alone or
        # outside the intact support, and stops at the first failing set, so
        # its verdict alone would not show an unsound lookup
        net, threshold, _ = problem
        try:
            feasible = supply_feasibility(net, threshold)
            baseline = hydraulics.allocate_flows(net)
        except ValidationError:
            return  # a threshold outside (0, 1] or a pipe that overflows when doubled
        demand = baseline.total_demand
        if baseline.total_delivered < threshold * demand - 1e-12 + 1e-9 * demand:
            return  # the search tries a certificate only past this margin
        model, _, _, certificate = _certificates(net)
        support = {p for p, flow in baseline.pipe_flows.items() if flow != 0.0}
        singles = {p: arcs for p in sorted(support) if (arcs := certificate((p,))) is not None}
        inv = {}
        for pipe_id, arcs in singles.items():
            for ai in arcs:
                inv.setdefault(ai, []).append(pipe_id)
        # the baseline's empty certificate, each level-1 certificate, and the
        # pipes outside the intact support, which reuse the baseline's entry
        bases = {(): (), **{(p,): arcs for p, arcs in singles.items()},
                 **{(p,): () for p in net.pipe_ids if p not in support}}
        for base, arcs in bases.items():
            touched = tuple(p for p, ai in model.pipe_arcs.items() if {ai, ai ^ 1} & {*arcs})
            conflicts = performance._conflicts(model, inv, base, arcs, touched)
            for pipe_id in sorted(set(net.pipe_ids) - {*base} - conflicts):
                if pipe_id in singles or pipe_id not in support:
                    assert feasible(frozenset((*base, pipe_id))), (base, pipe_id)

    @pytest.mark.parametrize("make, rest, pipe_id", [
        (_shared_detour, ("a2",), "a1"),
        (_shared_detour, ("a1",), "a2"),
        (_detour_over_the_other, ("b",), "a"),
        (_detour_over_the_other, ("a",), "b"),
    ])
    def test_composition_refuses_reroutes_that_collide(self, make, rest, pipe_id):
        # shared detour: both reroutes cross d1 and d2.  Detour over the
        # other: a's reroute crosses b, so with rest ("b",) a's own
        # certificate crosses a failed pipe, and with rest ("a",) the
        # subset's certificate crosses b
        net = make()
        model, _, _, certificate = _certificates(net)
        arcs, single = certificate(rest), certificate((pipe_id,))
        assert arcs and single
        assert not performance._composes(model, rest, arcs, pipe_id, frozenset(single))
        assert not supply_feasibility(net, 0.6)(frozenset((*rest, pipe_id)))
        assert supply_buffering(net, 0.6, max_k=2) == 1 == _supply_enumerated(net, 0.6, 2)

    @pytest.mark.parametrize("make", [_shared_detour, _detour_over_the_other])
    def test_reroutes_restores_the_residuals(self, make):
        net = make()
        _, residual, caps, certificate = _certificates(net)
        outcomes = set()
        for k in (1, 2, 3):
            for failed in itertools.combinations(net.pipe_ids, k):
                outcomes.add(certificate(failed) is not None)
                assert list(map(float.hex, caps)) == list(map(float.hex, residual)), failed
        # some pushes went through and some could not
        assert outcomes == {True, False}

    @given(problem=supply_problems(decisive=True))
    @settings(max_examples=400)
    @example(problem=(_shared_detour(), 0.6, 2))
    @example(problem=(_detour_over_the_other(), 0.6, 2))
    @example(problem=(_detour_past_a_used_pipe(), 0.6, 2))
    # narrow tori that first fail at the third and the second level
    @example(problem=(_widened(torus_network(3, 3), 0.05), 0.99, 3))
    @example(problem=(_widened(torus_network(4, 4), 0.05), 0.9, 3))
    def test_the_last_solve_is_the_enumerations_first_failing_set(self, problem):
        net, threshold, max_k = problem
        solved = []
        allocate = hydraulics.allocate_flows

        def recording(net, failed_pipes=(), **kwargs):
            solved.append(frozenset(failed_pipes))
            return allocate(net, failed_pipes, **kwargs)

        with mock.patch.object(hydraulics, "allocate_flows", recording):
            value = _outcome(lambda: supply_buffering(net, threshold, max_k))
        if not isinstance(value, int) or value == max_k:
            return
        feasible = supply_feasibility(net, threshold)
        checked = []

        def oracle(failed):
            checked.append(failed)
            return feasible(failed)

        assert buffering_capacity(net, oracle, max_k) == value
        assert solved[-1] == checked[-1]


def _random_net_state(rng):
    """Small random network and a matching single-step series."""
    n_junctions = rng.randint(1, 5)
    junctions = [
        Junction(f"J{i}", 0.0, rng.uniform(0.001, 0.05), rng.uniform(5.0, 50.0))
        for i in range(n_junctions)
    ]
    sources = [Source("R0", rng.uniform(50.0, 200.0), rng.uniform(0.01, 0.2))]
    pumps = [Pump("b0", rng.uniform(0.0, 1000.0))] if rng.random() < 0.5 else []
    nodes = [s.id for s in sources] + [j.id for j in junctions]
    pipes = []
    for i, junction in enumerate(junctions):
        other = rng.choice(nodes[: i + 1])
        pipes.append(make_pipe(f"p{i}", other, junction.id))
    net = make_network(junctions, sources, pipes, pumps)
    node_ids = tuple(sorted(j.id for j in junctions))
    series = make_series(
        node_ids,
        [[rng.uniform(0.0, 0.05) for _ in node_ids]],
        [[net.junction(n).design_demand for n in node_ids]],
        head=[[rng.uniform(10.0, 80.0) for _ in node_ids]],
        required_head=[[net.junction(n).required_head for n in node_ids]],
    )
    return net, series


def _relabel(net, series, prefix):
    """Rename every node, reorder elements and permute series columns."""
    rename = {nid: f"{prefix}{nid[::-1]}" for nid in net.node_ids}
    junctions = sorted(
        (
            Junction(rename[j.id], j.elevation, j.design_demand, j.required_head)
            for j in net.junctions
        ),
        key=lambda j: j.id,
    )
    sources = [Source(rename[s.id], s.total_head, s.outflow) for s in net.sources]
    pipes = [
        make_pipe(p.id, rename[p.endpoints[0]], rename[p.endpoints[1]],
                  length=p.length, diameter=p.diameter, friction=p.friction_factor,
                  repair_rate=p.repair_rate, capacity=p.capacity)
        for p in reversed(net.pipes)
    ]
    mapped_net = make_network(junctions, sources, pipes, net.pumps)
    new_ids = tuple(sorted(rename[n] for n in series.node_ids))
    order = [series.node_ids.index(old) for old in sorted(series.node_ids, key=lambda n: rename[n])]
    mapped_series = make_series(
        new_ids,
        series.delivered[:, order], series.demand[:, order],
        series.head[:, order], series.required_head[:, order],
    )
    return mapped_net, mapped_series
