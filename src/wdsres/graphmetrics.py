"""Path-redundancy resilience indices.

A node's index sums, over all sources, the average inverse resistance of
the K cheapest simple routes to that source, where a route's resistance is
the sum of ``friction * length / diameter`` over its pipes.  Parallel pipes
are distinct routes.  Ties in resistance are broken by the lexicographic
order of the pipe-id sequence, which keeps every result reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Sequence

from .errors import InfiniteResilienceError, UndefinedInputError, ValidationError
from .network import Network, Pipe

DEFAULT_K = 5
DEFAULT_TRIM = 0.1


@dataclass(frozen=True)
class WeightedPath:
    """A simple path as an ordered pipe-id sequence with its resistance."""

    pipes: tuple[str, ...]
    resistance: float

    def __post_init__(self):
        object.__setattr__(self, "pipes", tuple(self.pipes))
        if self.pipes and self.resistance <= 0:
            raise ValidationError("a non-empty path must have positive resistance")


def pipe_resistance(pipe: Pipe) -> float:
    return pipe.friction_factor * pipe.length / pipe.diameter


def path_resistance(net: Network, pipes: Sequence[str]) -> float:
    """Resistance of a pipe sequence; validates it forms a simple path."""
    if not pipes:
        return 0.0
    _walk_path(net, pipes)
    return sum(pipe_resistance(net.pipe(pid)) for pid in pipes)


def _walk_path(net: Network, pipes: Sequence[str]) -> tuple[str, ...]:
    """Node chain of a pipe sequence, or ValidationError if it is not a
    simple path."""
    first = net.pipe(pipes[0])
    if len(pipes) == 1:
        return first.endpoints
    second = net.pipe(pipes[1])
    shared = set(first.endpoints) & set(second.endpoints)
    if not shared:
        raise ValidationError(f"pipes {pipes[0]!r} and {pipes[1]!r} do not connect")
    # orient the first pipe so that the walk continues through the join
    join = sorted(shared)[0]
    chain = [first.other_end(join), join]
    for pid in pipes[1:]:
        pipe = net.pipe(pid)
        if chain[-1] not in pipe.endpoints:
            raise ValidationError(f"pipe {pid!r} breaks the path at node {chain[-1]!r}")
        chain.append(pipe.other_end(chain[-1]))
    if len(set(chain)) != len(chain):
        raise ValidationError("path revisits a node; only simple paths are allowed")
    return tuple(chain)


def _dijkstra(
    net: Network,
    weights: dict[str, float],
    start: str,
    goal: str,
    banned_pipes: frozenset[str] = frozenset(),
    banned_nodes: frozenset[str] = frozenset(),
):
    """Cheapest simple path by (resistance, pipe-id sequence).

    The heap key includes the pipe sequence, so among equal-resistance
    routes the lexicographically smallest wins.  Returns
    (cost, pipes, nodes) or None.
    """
    if start == goal:
        return 0.0, (), (start,)
    heap = [(0.0, (), start, (start,))]
    done = set()
    while heap:
        cost, pipes, node, nodes = heapq.heappop(heap)
        if node in done:
            continue
        if node == goal:
            return cost, pipes, nodes
        done.add(node)
        # every node of the popped path was popped, and so put in done,
        # before the path was extended past it: done also keeps it simple
        for pid, other in net.neighbors(node):
            if pid in banned_pipes or other in done or other in banned_nodes:
                continue
            heapq.heappush(
                heap, (cost + weights[pid], pipes + (pid,), other, nodes + (other,))
            )
    return None


def k_shortest_paths(net: Network, start: str, goal: str, k: int = DEFAULT_K) -> list[WeightedPath]:
    """The k cheapest simple paths between two nodes, ascending.

    Yen's deviation scheme over the multigraph; fewer than k paths are
    returned when fewer exist, and a disconnected pair yields an empty
    list.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    for node in (start, goal):
        if not net.is_node(node):
            raise ValidationError(f"unknown node {node!r}")
    weights = {p.id: pipe_resistance(p) for p in net.pipes}

    first = _dijkstra(net, weights, start, goal)
    if first is None:
        return []
    accepted = [first]
    seen = {first[1]}
    candidates: list[tuple[float, tuple[str, ...], tuple[str, ...]]] = []
    while len(accepted) < k:
        _, prev_pipes, prev_nodes = accepted[-1]
        for i in range(len(prev_pipes)):
            spur_node = prev_nodes[i]
            root_pipes = prev_pipes[:i]
            root_cost = sum(weights[pid] for pid in root_pipes)
            banned_pipes = {
                pipes[i]
                for _, pipes, _ in accepted
                if len(pipes) > i and pipes[:i] == root_pipes
            }
            banned_nodes = frozenset(prev_nodes[:i])
            spur = _dijkstra(
                net, weights, spur_node, goal,
                frozenset(banned_pipes), banned_nodes,
            )
            if spur is None:
                continue
            spur_cost, spur_pipes, spur_nodes = spur
            total_pipes = root_pipes + spur_pipes
            if total_pipes in seen:
                continue
            seen.add(total_pipes)
            # spur_nodes[0] == prev_nodes[i], so the chains join seamlessly
            heapq.heappush(
                candidates,
                (root_cost + spur_cost, total_pipes, prev_nodes[:i] + spur_nodes),
            )
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [WeightedPath(pipes, cost) for cost, pipes, _ in accepted]


def _finite(value: float, what: str) -> float:
    """``value``, or InfiniteResilienceError when it overflowed."""
    if not isfinite(value):
        raise InfiniteResilienceError(f"{what} is {value!r}, not a finite number")
    return value


def node_resilience_index(
    net: Network,
    node_id: str,
    k: int = DEFAULT_K,
    average_available: bool = False,
) -> float:
    """Sum over sources of the averaged inverse path resistances.

    For each source the up-to-k cheapest simple paths contribute 1/r each;
    the sum is divided by k regardless of how many paths were found (set
    ``average_available`` to divide by the found count instead).  Sources
    the node cannot reach contribute nothing.  Requesting the index of a
    source node is an error: its own resistance is zero.  So is an index
    that overflows, as the inverse of a subnormal path resistance does.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if node_id in set(net.source_ids):
        raise InfiniteResilienceError(
            f"{node_id!r} is a source; its resilience index is unbounded"
        )
    if not net.is_node(node_id):
        raise ValidationError(f"unknown node {node_id!r}")
    total = 0.0
    for source_id in sorted(net.source_ids):
        paths = k_shortest_paths(net, node_id, source_id, k)
        if not paths:
            continue
        inv = sum(1.0 / p.resistance for p in paths)
        total += inv / (len(paths) if average_available else k)
    return _finite(total, f"index of {node_id!r}")


def demand_weighted_index(
    net: Network,
    node_id: str,
    k: int = DEFAULT_K,
    average_available: bool = False,
) -> float:
    """Node index weighted by the node's share of total network demand."""
    total_demand = net.total_design_demand()
    if total_demand <= 0:
        raise UndefinedInputError("total network demand is zero; weighting undefined")
    junction = net.junction(node_id)
    if junction.design_demand == 0:
        return 0.0
    index = node_resilience_index(net, node_id, k, average_available)
    return _finite(index * junction.design_demand / total_demand,
                   f"demand-weighted index of {node_id!r}")


def trimmed_mean_index(values: Iterable[float], trim_fraction: float = DEFAULT_TRIM) -> float:
    """Mean after discarding the floor(f*n) smallest and largest values."""
    values = sorted(float(v) for v in values)
    if not 0 <= trim_fraction < 0.5:
        raise ValidationError("trim_fraction must lie in [0, 0.5)")
    if not values:
        raise ValidationError("cannot aggregate an empty index list")
    cut = int(trim_fraction * len(values))
    kept = values[cut : len(values) - cut]
    return _finite(sum(kept) / len(kept), "trimmed mean index")


def node_index_table(
    net: Network, k: int = DEFAULT_K, average_available: bool = False
) -> list[tuple[str, float, float]]:
    """(node_id, index, demand-weighted index) for every junction."""
    rows = []
    for junction in sorted(net.junctions, key=lambda j: j.id):
        index = node_resilience_index(net, junction.id, k, average_available)
        try:
            weighted = demand_weighted_index(net, junction.id, k, average_available)
        except UndefinedInputError:
            weighted = 0.0
        rows.append((junction.id, index, weighted))
    return rows
