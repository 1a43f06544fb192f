"""Reference path search: the string-keyed Yen loop that the compiled one replaced.

Kept verbatim as an exact-equality oracle, apart from this docstring, the
function names, and one edit: a node's ``(pipe, other end)`` pairs come from
:func:`neighbors`, which builds them from ``Network.incident_pipes`` and
each pipe's endpoints.  It searches the ``Network`` by pipe id with no lower
bounds, so agreement with ``wdsres.graphmetrics.k_shortest_paths`` checks
the compiled path model, the integer tie-break and the pruned spur searches
together.
"""

from __future__ import annotations

import heapq

from wdsres.errors import ValidationError
from wdsres.graphmetrics import DEFAULT_K, WeightedPath
from wdsres.network import Network, pipe_resistance


def neighbors(net: Network, node: str) -> list[tuple[str, str]]:
    """A node's ``(pipe id, other end)`` pairs, ascending by pipe id."""
    ends = ((pid, net.pipe(pid).endpoints) for pid in net.incident_pipes(node))
    return [(pid, b if node == a else a) for pid, (a, b) in ends]


def reference_dijkstra(
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
        for pid, other in neighbors(net, node):
            if pid in banned_pipes or other in done or other in banned_nodes:
                continue
            heapq.heappush(
                heap, (cost + weights[pid], pipes + (pid,), other, nodes + (other,))
            )
    return None


def reference_k_shortest_paths(net: Network, start: str, goal: str, k: int = DEFAULT_K) -> list[WeightedPath]:
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

    first = reference_dijkstra(net, weights, start, goal)
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
            spur = reference_dijkstra(
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
