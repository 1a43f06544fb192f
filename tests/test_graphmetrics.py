"""Path-based indices against exhaustive path enumeration."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdsres import graphmetrics, hydraulics
from wdsres.errors import InfiniteResilienceError, UndefinedInputError, ValidationError
from wdsres.graphmetrics import (
    demand_weighted_index,
    k_shortest_paths,
    node_index_table,
    node_resilience_index,
    trimmed_mean_index,
)
from wdsres.network import Junction, Source, load_network, pipe_resistance, save_network

from .conftest import make_network, make_pipe, torus_network
from . import reference_paths
from .reference_paths import neighbors, reference_k_shortest_paths


def all_simple_paths(net, start, goal):
    """Exhaustive DFS over pipe sequences; the oracle for Yen's algorithm."""
    results = []

    def walk(node, visited, pipes, cost):
        if node == goal:
            results.append((cost, tuple(pipes)))
            return
        for pid, other in neighbors(net, node):
            if other in visited:
                continue
            walk(other, visited | {other}, pipes + [pid],
                 cost + pipe_resistance(net.pipe(pid)))

    walk(start, {start}, [], 0.0)
    return sorted(results)


class TestKShortestPaths:
    def test_k1_matches_shortest(self, mesh_network):
        for start in mesh_network.junction_ids:
            for goal in mesh_network.source_ids:
                oracle = all_simple_paths(mesh_network, start, goal)
                got = k_shortest_paths(mesh_network, start, goal, 1)
                if not oracle:
                    assert got == []
                else:
                    assert (got[0].resistance, got[0].pipes) == oracle[0]

    def test_triangle_two_routes(self, two_route_network):
        paths = k_shortest_paths(two_route_network, "A", "S", 2)
        assert [p.resistance for p in paths] == [pytest.approx(40.0), pytest.approx(80.0)]
        assert paths[0].pipes == ("d1",)
        assert paths[1].pipes == ("e2", "e1")

    def test_triangle_with_sixty_detour(self):
        # direct route 40, two-hop route 30 + 30 = 60
        net = make_network(
            junctions=[Junction("A", 0.0, 0.01, 30.0), Junction("B", 0.0, 0.0, 30.0)],
            sources=[Source("S", 100.0, 0.05)],
            pipes=[
                make_pipe("d1", "S", "A", length=200.0),
                make_pipe("e1", "S", "B", length=150.0),
                make_pipe("e2", "B", "A", length=150.0),
            ],
        )
        paths = k_shortest_paths(net, "A", "S", 2)
        assert [p.resistance for p in paths] == [pytest.approx(40.0), pytest.approx(60.0)]

    def test_k_exhausts_simple_paths(self, two_route_network):
        paths = k_shortest_paths(two_route_network, "A", "S", 50)
        assert len(paths) == 2

    def test_agrees_with_enumeration_everywhere(self, mesh_network, ring_network,
                                                two_route_network, tree_network):
        for net in (mesh_network, ring_network, two_route_network, tree_network):
            nodes = net.node_ids
            for start in nodes:
                for goal in nodes:
                    if start == goal:
                        continue
                    oracle = all_simple_paths(net, start, goal)
                    for k in (1, 2, 3, len(oracle) + 5):
                        got = k_shortest_paths(net, start, goal, k)
                        want = oracle[:k]
                        assert [(p.resistance, p.pipes) for p in got] == [
                            (pytest.approx(c), pipes) for c, pipes in want
                        ], (start, goal, k)

    def test_parallel_pipes_are_distinct_paths(self, mesh_network):
        paths = k_shortest_paths(mesh_network, "A", "S1", 2)
        assert paths[0].pipes == ("p1",)
        assert paths[1].pipes == ("p2",)

    def test_resistances_nondecreasing(self, mesh_network):
        for start in ("A", "B", "D"):
            paths = k_shortest_paths(mesh_network, start, "S2", 6)
            resistances = [p.resistance for p in paths]
            assert resistances == sorted(resistances)

    def test_disconnected_pair_gives_empty(self):
        net = make_network(
            junctions=[Junction("A", 0.0, 0.01, 30.0), Junction("B", 0.0, 0.01, 30.0)],
            sources=[Source("S", 100.0, 0.05)],
            pipes=[make_pipe("p1", "S", "A")],
        )
        assert k_shortest_paths(net, "B", "S", 3) == []

    def test_k_must_be_positive(self, ring_network):
        with pytest.raises(ValidationError, match="k must be"):
            k_shortest_paths(ring_network, "J1", "R1", 0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
    def test_k_must_be_an_integer(self, ring_network, k):
        # checked before the range and before the node ids
        for query in (lambda: k_shortest_paths(ring_network, "J1", "nowhere", k),
                      lambda: node_resilience_index(ring_network, "R1", k),
                      lambda: node_index_table(ring_network, k)):
            with pytest.raises(ValidationError, match=f"^k must be an integer, got {k!r}$"):
                query()


def _bits(paths):
    """Pipe ids and the exact bits of each resistance."""
    return [(p.pipes, p.resistance.hex()) for p in paths]


def _unit_pipe(pid, a, b, resistance):
    # friction 1 and diameter 1: the resistance is the length, exactly
    return make_pipe(pid, a, b, length=resistance, diameter=1.0, friction=1.0)


@st.composite
def path_problems(draw):
    """A small random multigraph and a few (start, goal, k) queries on it.

    Pipes join any two distinct nodes, so parallel pipes and pipes between
    two sources occur, and a node may be left without pipes.  Lengths are
    integers and most resistances equal them, so equal route resistances
    are common; a diameter of 0.3 mixes in resistances that round.  More
    than ten pipes make ids such as "p10" sort before "p2".
    """
    n_sources = draw(st.integers(1, 3))
    n_junctions = draw(st.integers(1, 6))
    nodes = [f"R{i}" for i in range(n_sources)] + [f"J{i}" for i in range(n_junctions)]
    ends = st.tuples(st.integers(0, len(nodes) - 1), st.integers(1, len(nodes) - 1))
    pipes = [
        make_pipe(f"p{i}", nodes[a], nodes[(a + step) % len(nodes)],
                  length=float(draw(st.integers(1, 6))),
                  diameter=draw(st.sampled_from([1.0, 1.0, 0.3])), friction=1.0)
        for i, (a, step) in enumerate(draw(st.lists(ends, max_size=14)))
    ]
    net = make_network([Junction(f"J{i}", 0.0, 0.01, 30.0) for i in range(n_junctions)],
                       [Source(f"R{i}", 100.0, 0.05) for i in range(n_sources)], pipes)
    node = st.sampled_from(nodes)
    queries = draw(st.lists(st.tuples(node, node, st.integers(1, 8)), min_size=1, max_size=4))
    return net, queries


def _two_junctions(pipes, n_sources=1):
    return make_network([Junction("A", 0.0, 0.01, 30.0), Junction("B", 0.0, 0.01, 30.0)],
                        [Source(f"S{i}", 100.0, 0.05) for i in range(n_sources)], pipes)


# A reaches S0 over p9 or p11 (2 each) or over p10 then p2 (1 + 1): exact ties
# that the pipe ids break, with "p10" and "p11" sorting before "p2" and "p9"
TIED = _two_junctions([_unit_pipe("p9", "A", "S0", 2.0), _unit_pipe("p11", "A", "S0", 2.0),
                       _unit_pipe("p10", "A", "B", 1.0), _unit_pipe("p2", "B", "S0", 1.0)])
# a length of 1e308 over a diameter of 1e-3 is an infinite resistance; over
# 0.9 it is finite, but two such pipes in a row sum to infinity
OVERFLOWING = _two_junctions([
    make_pipe("i1", "A", "S0", length=1e308, diameter=1e-3),
    make_pipe("i2", "A", "B", length=1e308, diameter=1e-3),
    make_pipe("m1", "A", "B", length=1e308, diameter=0.9, friction=1.0),
    make_pipe("m2", "B", "S0", length=1e308, diameter=0.9, friction=1.0),
    _unit_pipe("f1", "A", "S0", 3.0),
])
# B has no pipe and S1 none either
UNREACHABLE = _two_junctions([_unit_pipe("p1", "S0", "A", 1.0)], n_sources=2)
# Spur at B, root cost r: its partial cost c plus the last pipe's w, taken as
# (r + c) + w, rounds one ulp above r + (c + w), the cost of the route it
# completes, which ties with the direct pipe z and beats it on the pipe ids.
# A margin on h alone (w * (1 - 1e-9)) drops that route; the slack on the limit does not.
_R, _C, _W = 1.1674285977934011, 1023.2027099760197, 5.8293066506132665e-08
ROUNDING = make_network(
    [Junction(n, 0.0, 0.01, 30.0) for n in ("A", "B", "C")], [Source("S0", 100.0, 0.05)],
    [_unit_pipe("a1", "A", "B", _R), _unit_pipe("b", "B", "S0", 1.0),
     _unit_pipe("c", "B", "C", _C), _unit_pipe("d", "C", "S0", _W),
     _unit_pipe("z", "A", "S0", _R + (_C + _W))],
)

# A's only route, x then y then z, sums forward one ulp above the reverse
# Dijkstra's (z + y) + x = h[A]: a first search bounded by h[A] without the
# slack drops it at C
_X, _Y, _Z = 4.6500743108035625, 2.9688379844458073, 0.3127480821324979
CHAIN = make_network(
    [Junction(n, 0.0, 0.01, 30.0) for n in ("A", "B", "C")], [Source("S0", 100.0, 0.05)],
    [_unit_pipe("x", "A", "B", _X), _unit_pipe("y", "B", "C", _Y),
     _unit_pipe("z", "C", "S0", _Z)],
)

# Spur at P, root r from A: P's one allowed neighbour B reaches S0 cheapest
# over c and the root node A, so the spur has no tree route and keeps its
# limit (inf).  Spurring at A, B's tree route runs into the spur node itself.
# Walked on through A, the tree would bound the spur at r + b + c + d = 3.5
# and drop its answer r, b, e at 12.
ROOT_DETOUR = make_network(
    [Junction(n, 0.0, 0.01, 30.0) for n in ("A", "B", "P")], [Source("S0", 100.0, 0.05)],
    [_unit_pipe("d", "A", "S0", 1.0), _unit_pipe("r", "A", "P", 1.0),
     _unit_pipe("a", "P", "S0", 1.0), _unit_pipe("b", "P", "B", 1.0),
     _unit_pipe("c", "B", "A", 0.5), _unit_pipe("e", "B", "S0", 10.0)],
)
# Spur at P, root r: r plus the tree route x, y, z summed forward from P
# comes one ulp below what the spur search's first push tests, (r + x) +
# h[B] with h[B] = z + y, so a tree bound without the slack drops the spur's
# only route, the second from A
_SR, _SX, _SY, _SZ = 7.242695635074357, 7.140798519983268, 9.37076180931465, 4.27885929961801
SPUR_ROUNDING = make_network(
    [Junction(n, 0.0, 0.01, 30.0) for n in ("A", "B", "C", "P")], [Source("S0", 100.0, 0.05)],
    [_unit_pipe("r", "A", "P", _SR), _unit_pipe("a", "P", "S0", 10.0),
     _unit_pipe("x", "P", "B", _SX), _unit_pipe("y", "B", "C", _SY),
     _unit_pipe("z", "C", "S0", _SZ)],
)


def _lattice():
    """A 3x3 grid of unit pipes, S0 at one corner and S1 at another.

    The shortest routes across it tie exactly and differ only in the nodes
    where they turn, so Yen's spur searches from different spur nodes find
    routes of equal resistance.  The pipe ids run in a stride through the
    grid, so their order is not the order of the hops.
    """
    ends = [(f"J{r * 3 + c}", f"J{r * 3 + c + 1}") for r in range(3) for c in range(2)]
    ends += [(f"J{r * 3 + c}", f"J{r * 3 + c + 3}") for r in range(2) for c in range(3)]
    ends += [("J8", "S0"), ("J6", "S1")]
    return make_network([Junction(f"J{i}", 0.0, 0.01, 30.0) for i in range(9)],
                        [Source(f"S{i}", 100.0, 0.05) for i in range(2)],
                        [_unit_pipe(f"p{5 * i % len(ends)}", a, b, 1.0)
                         for i, (a, b) in enumerate(ends)])


LATTICE = _lattice()
# every route from A to S0 overflows, so h[A] is inf and the first search has
# no limit: the routes over B and over C tie at inf and differ only there
ALL_INFINITE = make_network(
    [Junction(n, 0.0, 0.01, 30.0) for n in ("A", "B", "C")], [Source("S0", 100.0, 0.05)],
    [make_pipe("i1", "A", "S0", length=1e308, diameter=1e-3),
     make_pipe("m1", "A", "B", length=1e308, diameter=0.9, friction=1.0),
     make_pipe("m2", "B", "S0", length=1e308, diameter=0.9, friction=1.0),
     make_pipe("m3", "A", "C", length=1e308, diameter=0.9, friction=1.0),
     make_pipe("m4", "C", "S0", length=1e308, diameter=0.9, friction=1.0),
     make_pipe("i2", "B", "C", length=1e308, diameter=1e-3)],
)


class TestCompiledSearch:
    """The compiled, pruned search against the string-keyed one it replaced."""

    @given(problem=path_problems())
    @example(problem=(TIED, [("A", "S0", 4), ("S0", "A", 3), ("B", "S0", 8)]))
    @example(problem=(OVERFLOWING, [("A", "S0", 5), ("B", "S0", 2), ("S0", "B", 8)]))
    @example(problem=(UNREACHABLE, [("A", "B", 3), ("B", "S0", 2), ("A", "S1", 1),
                                    ("A", "S0", 2)]))
    @example(problem=(ROUNDING, [("A", "S0", 2), ("A", "S0", 8)]))
    @example(problem=(CHAIN, [("A", "S0", 2)]))
    @example(problem=(LATTICE, [("J0", "S0", 8), ("J4", "S1", 6), ("J2", "S1", 12)]))
    @example(problem=(ALL_INFINITE, [("A", "S0", 5), ("B", "S0", 4), ("S0", "A", 3)]))
    @example(problem=(ROOT_DETOUR, [("A", "S0", 5)]))
    @example(problem=(SPUR_ROUNDING, [("A", "S0", 2)]))
    @settings(max_examples=400)
    def test_equals_the_reference_bit_for_bit(self, problem):
        net, queries = problem
        for start, goal, k in queries:
            got = k_shortest_paths(net, start, goal, k)
            want = reference_k_shortest_paths(net, start, goal, k)
            assert got == want, (start, goal, k)
            assert _bits(got) == _bits(want), (start, goal, k)

    def test_hand_values_of_the_edge_cases(self):
        assert _bits(k_shortest_paths(TIED, "A", "S0", 4)) == [
            (("p10", "p2"), (2.0).hex()), (("p11",), (2.0).hex()), (("p9",), (2.0).hex()),
        ]
        # the first search settles B over m1, the cheaper pipe, so i2 then m2
        # turns up only in a spur search after m1 then m2 is accepted
        assert [(p.pipes, p.resistance) for p in k_shortest_paths(OVERFLOWING, "A", "S0", 5)] == [
            (("f1",), 3.0), (("i1",), math.inf), (("m1", "m2"), math.inf),
            (("i2", "m2"), math.inf),
        ]
        assert k_shortest_paths(UNREACHABLE, "A", "B", 3) == []
        assert k_shortest_paths(UNREACHABLE, "A", "S1", 3) == []
        assert [p.pipes for p in k_shortest_paths(ROUNDING, "A", "S0", 2)] == [
            ("a1", "b"), ("a1", "c", "d"),
        ]
        assert [p.pipes for p in k_shortest_paths(ROOT_DETOUR, "A", "S0", 5)] == [
            ("d",), ("r", "a"), ("c", "b", "a"), ("c", "e"), ("r", "b", "e"),
        ]
        assert [p.pipes for p in k_shortest_paths(SPUR_ROUNDING, "A", "S0", 2)] == [
            ("r", "a"), ("r", "x", "y", "z"),
        ]

    def test_pruning_settles_fewer_nodes_than_the_reference(self, monkeypatch):
        net = torus_network(7, 7)
        pairs = [(j, s) for j in sorted(net.junction_ids) for s in net.source_ids]
        settled = []
        search = graphmetrics._spur_search

        def counted(model, start, goal, done, *args):
            before = sum(done)  # the banned nodes
            try:
                return search(model, start, goal, done, *args)
            finally:
                settled.append(sum(done) - before)

        monkeypatch.setattr(graphmetrics, "_spur_search", counted)
        got = [k_shortest_paths(net, j, s, 5) for j, s in pairs]
        # the reference expands each node it settles through neighbors()
        expanded = []

        def counted_neighbors(net, node_id):
            expanded.append(node_id)
            return neighbors(net, node_id)

        monkeypatch.setattr(reference_paths, "neighbors", counted_neighbors)
        want = [reference_k_shortest_paths(net, j, s, 5) for j, s in pairs]
        assert got == want
        # a spur that can push nothing from its first node is not searched;
        # its search would settle the spur node alone, so the 1662 searches
        # that settled 17964 nodes become 1233 that settle exactly 429 fewer
        assert len(settled) == 1233
        assert sum(settled) == 17535
        assert 17964 - sum(settled) == 1662 - len(settled)
        assert len(expanded) == 62087
        assert len(expanded) > sum(settled)

    def test_model_is_compiled_lazily_once_and_reused(self, mesh_network, tmp_path,
                                                       monkeypatch):
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
        # the path search alone compiles the network's one model
        rows = node_index_table(net, k=3)
        model = net._model
        assert model is not None
        assert node_index_table(net, k=3) == rows
        assert net._model is model and compiles == [net]
        # one reverse Dijkstra per source, shared by every junction
        assert sorted(model.to_goal) == sorted(model.index[s] for s in net.source_ids)
        # the model is private state: equality with a fresh load is unchanged
        assert net == load_network(path)


class TestNodeResilienceIndex:
    def test_single_route(self):
        net = make_network(
            junctions=[Junction("A", 0.0, 0.01, 30.0)],
            sources=[Source("S", 100.0, 0.05)],
            pipes=[make_pipe("d1", "S", "A", length=200.0)],
        )
        assert node_resilience_index(net, "A", 1) == pytest.approx(0.025, abs=1e-9)

    def test_two_routes_divided_by_k(self, two_route_network):
        assert node_resilience_index(two_route_network, "A", 2) == pytest.approx(
            0.01875, abs=1e-9
        )

    def test_scarce_paths_still_divide_by_k(self, two_route_network):
        # only two simple routes exist; the printed form still divides by 3
        assert node_resilience_index(two_route_network, "A", 3) == pytest.approx(
            (1 / 40 + 1 / 80) / 3, abs=1e-12
        )

    def test_disconnected_node_is_zero(self):
        net = make_network(
            junctions=[Junction("A", 0.0, 0.01, 30.0), Junction("B", 0.0, 0.01, 30.0)],
            sources=[Source("S", 100.0, 0.05)],
            pipes=[make_pipe("p1", "S", "A")],
        )
        assert node_resilience_index(net, "B", 2) == 0.0

    def test_source_node_rejected(self, two_route_network):
        with pytest.raises(InfiniteResilienceError, match="source"):
            node_resilience_index(two_route_network, "S", 2)

    @pytest.mark.parametrize("friction, length", [
        (0.02, 1e-320),  # 0.02 * 1e-320 / 0.1 is subnormal but positive; its inverse is inf
        (1e-200, 1e-200),  # 1e-200 * 1e-200 / 0.1 underflows to 0.0
    ])
    def test_subnormal_resistance_rejected(self, friction, length):
        net = make_network(
            junctions=[Junction("A", 0.0, 0.01, 30.0)],
            sources=[Source("S", 100.0, 0.05)],
            pipes=[make_pipe("p1", "S", "A", length=length, friction=friction)],
        )
        with pytest.raises(InfiniteResilienceError, match="not a finite number"):
            node_resilience_index(net, "A", 1)

    @given(problem=path_problems(), k=st.integers(1, 8))
    @example(problem=(TIED, []), k=4)
    @example(problem=(OVERFLOWING, []), k=5)
    @example(problem=(ROUNDING, []), k=2)
    @example(problem=(LATTICE, []), k=12)
    @example(problem=(SPUR_ROUNDING, []), k=2)
    @settings(max_examples=200)
    def test_equals_the_sum_over_k_shortest_paths_bit_for_bit(self, problem, k):
        net, _ = problem
        for junction in net.junction_ids:
            want = 0.0
            for source in sorted(net.source_ids):
                paths = k_shortest_paths(net, junction, source, k)
                if paths:
                    want += sum(1.0 / p.resistance for p in paths) / k
            # a copy has a model of its own, whose memo cannot answer
            got = node_resilience_index(dataclasses.replace(net), junction, k)
            assert got.hex() == want.hex(), junction

    def test_sums_over_sources(self, mesh_network):
        lone = node_resilience_index(mesh_network, "A", 2)
        # removing the second source can only lower the sum
        solo_net = make_network(
            mesh_network.junctions,
            [mesh_network.sources[0]],
            [p for p in mesh_network.pipes if "S2" not in p.endpoints],
        )
        assert node_resilience_index(solo_net, "A", 2) < lone

    def test_cheaper_pipe_never_hurts(self, two_route_network):
        base = node_resilience_index(two_route_network, "A", 2)
        upgraded = make_network(
            two_route_network.junctions,
            two_route_network.sources,
            [
                make_pipe(p.id, *p.endpoints, length=p.length / 2,
                          diameter=p.diameter, friction=p.friction_factor)
                if p.id == "e1" else p
                for p in two_route_network.pipes
            ],
        )
        assert node_resilience_index(upgraded, "A", 2) >= base


class TestDemandWeightedIndex:
    def test_zero_demand_node(self, two_route_network):
        assert demand_weighted_index(two_route_network, "B", 2) == 0.0

    def test_weight_is_demand_share(self, two_route_network):
        index = node_resilience_index(two_route_network, "A", 2)
        # A carries the entire network demand
        assert demand_weighted_index(two_route_network, "A", 2) == pytest.approx(index)

    def test_uniform_demands_weight_evenly(self, ring_network):
        for junction in ring_network.junction_ids:
            index = node_resilience_index(ring_network, junction, 2)
            weighted = demand_weighted_index(ring_network, junction, 2)
            assert weighted == pytest.approx(index / 3)

    def test_overflowing_weighted_index_rejected(self):
        net = make_network(
            junctions=[Junction("A", 0.0, 1e10, 30.0)],
            sources=[Source("S", 100.0, 0.05)],
            pipes=[make_pipe("p1", "S", "A", length=1e-300)],
        )
        assert node_resilience_index(net, "A", 1) == pytest.approx(5e300)
        with pytest.raises(InfiniteResilienceError, match="demand-weighted"):
            demand_weighted_index(net, "A", 1)

    def test_zero_total_demand_rejected(self):
        net = make_network(
            junctions=[Junction("A", 0.0, 0.0, 30.0)],
            sources=[Source("S", 100.0, 0.05)],
            pipes=[make_pipe("p1", "S", "A")],
        )
        with pytest.raises(UndefinedInputError, match="zero"):
            demand_weighted_index(net, "A", 1)


class TestTrimmedMean:
    def test_outlier_discarded(self):
        assert trimmed_mean_index([1, 2, 3, 4, 100], 0.2) == pytest.approx(3.0)

    def test_trim_zero_is_plain_mean(self):
        assert trimmed_mean_index([1, 2, 3, 4], 0.0) == pytest.approx(2.5)

    def test_constant_values(self):
        assert trimmed_mean_index([7.0] * 9, 0.3) == pytest.approx(7.0)

    @pytest.mark.parametrize("fraction", [0.5, -0.1, "0.1", False, True, None, math.nan])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(ValidationError, match=r"trim_fraction must lie in \[0, 0\.5\)"):
            trimmed_mean_index([1.0, 2.0], fraction)

    def test_overflowing_mean_rejected(self):
        with pytest.raises(InfiniteResilienceError, match="trimmed mean"):
            trimmed_mean_index([1e308, 1e308], 0.0)

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="empty"):
            trimmed_mean_index([], 0.1)

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        fraction=st.floats(0.0, 0.49),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300)
    def test_permutation_invariant(self, values, fraction, seed):
        import random as _random

        shuffled = list(values)
        _random.Random(seed).shuffle(shuffled)
        assert trimmed_mean_index(shuffled, fraction) == pytest.approx(
            trimmed_mean_index(values, fraction), rel=1e-12, abs=1e-12
        )


class TestNodeIndexTable:
    def test_zero_total_demand_weights_zero(self):
        net = make_network(
            junctions=[Junction("A", 0.0, 0.0, 30.0)],
            sources=[Source("S", 100.0, 0.05)],
            pipes=[make_pipe("p1", "S", "A")],
        )
        # one route of resistance 0.02 * 100 / 0.1 = 20
        assert node_index_table(net, k=1) == [("A", 0.05, 0.0)]

    def test_rows_cover_all_junctions(self, mesh_network):
        rows = node_index_table(mesh_network, k=3)
        assert [r[0] for r in rows] == sorted(mesh_network.junction_ids)
        for node_id, index, weighted in rows:
            assert weighted <= index + 1e-12


def _fresh_index(net, node_id, k):
    """The index and weighted index on a copy of ``net`` with a new model."""
    return (node_resilience_index(dataclasses.replace(net), node_id, k),
            demand_weighted_index(dataclasses.replace(net), node_id, k))


@pytest.fixture
def searches(monkeypatch):
    """The (start, goal) node numbers of each path search the indices make.

    Both ``k_shortest_paths`` and the indices search through
    ``_cheapest_routes``, so a search through either entry is counted.
    """
    calls = []
    search = graphmetrics._cheapest_routes
    monkeypatch.setattr(graphmetrics, "_cheapest_routes",
                        lambda *args: calls.append(args[1:3]) or search(*args))
    return calls


class TestIndexMemo:
    """The one-entry memo of the last node index on the compiled model."""

    @given(problem=path_problems(), k=st.integers(1, 6))
    @settings(max_examples=150)
    def test_table_rows_equal_fresh_queries(self, problem, k):
        net, _ = problem
        for node_id, index, weighted in node_index_table(net, k):
            assert (index, weighted) == _fresh_index(net, node_id, k)

    def test_interleaved_queries_equal_fresh_ones(self, mesh_network):
        model = hydraulics._model(mesh_network)
        for node_id, k in [("A", 3), ("A", 2), ("B", 3), ("A", 3)]:
            index = node_resilience_index(mesh_network, node_id, k)
            assert model.last_index == ((node_id, k), index)
            weighted = demand_weighted_index(mesh_network, node_id, k)
            assert (index, weighted) == _fresh_index(mesh_network, node_id, k)

    def test_a_hit_runs_no_search(self, mesh_network, searches):
        index = node_resilience_index(mesh_network, "B", 3)
        searches.clear()
        assert node_resilience_index(mesh_network, "B", 3) == index
        assert searches == []
        node_resilience_index(mesh_network, "B", 2)
        assert len(searches) == len(mesh_network.source_ids)

    @pytest.mark.parametrize("node_id, k, error, message", [
        ("S1", 3, InfiniteResilienceError, "is a source"),
        ("nowhere", 3, ValidationError, "unknown node"),
        ("A", 0, ValidationError, "k must be >= 1"),
        ("tiny", 1, InfiniteResilienceError, "not a finite number"),
    ])
    def test_a_failed_query_leaves_the_memo(self, mesh_network, node_id, k, error, message):
        # a junction whose one pipe has a subnormal resistance: its index overflows
        net = make_network([*mesh_network.junctions, Junction("tiny", 0.0, 0.01, 30.0)],
                           mesh_network.sources,
                           [*mesh_network.pipes, make_pipe("pt", "S1", "tiny", length=1e-320)])
        before = node_resilience_index(net, "A", 1)
        memo = net._model.last_index
        for _ in range(2):
            with pytest.raises(error, match=message):
                node_resilience_index(net, node_id, k)
            assert net._model.last_index is memo
        assert node_resilience_index(net, "A", 1) == before

    def test_table_searches_each_pair_once(self, mesh_network, searches):
        for net in (mesh_network, torus_network(5, 5)):
            searches.clear()
            node_index_table(net, k=3)
            assert len(searches) == len(net.junctions) * len(net.sources)
            assert len(set(searches)) == len(searches)
