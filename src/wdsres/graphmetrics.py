"""Path-redundancy resilience indices.

A node's index sums, over all sources, the average inverse resistance of
the K cheapest simple routes to that source, where a route's resistance is
the sum of ``friction * length / diameter`` over its pipes.  Parallel pipes
are distinct routes.  Candidates are ranked by ``(resistance, pipe-id
tuple)``, which keeps every result reproducible, but a route that only
turns up in a later spur search comes after the routes already accepted.
So routes whose sums round to the same value come in search order, not
pipe-id order: on the ``OVERFLOWING`` test network ``('m1', 'm2')`` comes
before ``('i2', 'm2')``, both of resistance ``inf``, because the first
search reaches B over the cheaper pipe m1.

:func:`k_shortest_paths` checks its arguments and names each route's
pipes.  The search behind it, :func:`_cheapest_routes`, returns each
route as its resistance and its tuple of pipe numbers, and
:func:`node_resilience_index` reads those pairs straight from it, so an
index builds no :class:`WeightedPath` and no tuple of pipe ids.  It is
the same search, so the index sums the same floats in the same order.

The K cheapest routes come from Yen's (1971) deviation scheme, and its
float arithmetic is part of the result: every heap is keyed by
``(resistance, pipe tuple)``, a spur's root costs ``sum()`` of its root
pipes' resistances, the spur's own cost is summed pipe by pipe from the
spur node, and a candidate costs root plus spur.  These make the search
fast without changing any route or any bit of a resistance:

- The search runs on the network's one compiled model
  (:class:`wdsres.hydraulics._Model`), whose pipes are numbered in
  sorted-id order, so tuples of pipe numbers order exactly as tuples of
  pipe ids do, with a flat resistance list and per-node ``(pipe, other
  end)`` adjacency.  Its node numbering decides no tie: two heap entries
  of one search with equal cost and pipe tuple end at the same node, and
  a reverse Dijkstra, which only lowers distances, ends at the same ones
  in any pop order.
- Spur searches are pruned.  One reverse Dijkstra per goal gives the
  cheapest resistance ``h`` from every node to it (``inf`` where the goal
  cannot be reached).  With k' = K minus the routes accepted, a spur
  search drops a partial route when ``root + cost + h[node]`` exceeds the
  k'-th cheapest candidate so far by more than a relative 1e-9.  Every
  completion of it then costs more than k' candidates, so it could never
  be accepted.  The slack covers the rounding of the same sums taken in
  another order, which moves a sum of n terms by at most about
  ``n * 2**-53`` of itself.  The bound only falls as candidates arrive,
  so the routes that survive pop in the same order as without it.
- The first search is bounded too, by ``h[start]`` widened by the same
  slack: no route costs less than the cheapest.  Where ``h[start]`` is
  ``inf`` (the goal cannot be reached, or every route overflows) the
  bound stays ``inf``.
- A spur whose search could push nothing from its first node is not
  searched: the search would settle the spur node alone and return None.
  One scan of the spur node's pipes applies the search's own test there,
  ``root + pipe + h[other]`` against the limit, skipping root nodes and
  banned pipes as the search does.
- Each spur search is bounded by a route it may take.  The reverse
  Dijkstra also keeps every node's successor on its cheapest route to the
  goal.  From each neighbour of the spur node that the spur may enter, that
  tree leads to the goal, unless it first meets a root node or the spur
  node.  Such a route is summed pipe by pipe from the spur node, as the
  spur search sums it; float addition is monotone, so the spur's answer
  costs at most that.  The spur's limit becomes at most root plus it,
  widened by the same slack: each prefix of the answer, or of a route
  tied with it, has cost plus ``h`` within about ``n * 2**-53`` of its
  total, as for the first search.  A neighbour whose pipe plus ``h``
  could not lower the limit is not followed.  The bound is taken in the
  scan of the first-node test, from the pipes that pass it: a pipe that
  fails it could not lower the limit either, as the slack exceeds the
  rounding of ``root + (pipe + h)``, the other association.
- Each accepted route marks its root nodes once, in a byte mask from
  which the spur node is cleared as the spur index falls; each search
  gets a copy.  A spur's root costs ``sum()`` of the route's resistances
  up to the spur index, the same floats in the same order as its root
  pipes', so no spur walks its root in Python.
- A spur may not take the next pipe of an accepted route with the same
  root.  Each accepted route keeps those pipes in one set per spur index;
  before its deviation index (see below) its root and next pipe are its
  parent's, so it shares its parent's sets up to that index, adds its
  own next pipe to the set at it, and has a set of its own after it.
  The K-th route is never spurred, so it builds no sets.  Every banned
  pipe leaves the spur node, so the search tests only that node's pipes
  against them: it settles the spur node first, and no route returns to
  a settled node.
- An accepted route is spurred from the goal end first, so short spurs
  fill the candidates and lower the bound before the long ones run.  The
  order does not change the candidates: the bound only drops routes that
  could never be accepted, and duplicates are dropped whichever search
  finds them first.
- Lawler's (1972) deviation index: each candidate records the spur index
  that produced it (the first route records 0), and an accepted route is
  spurred only from that index on (Martins & Pascoal 2003 give the same
  rule for loopless Yen).  A spur at index i below it has the root of its
  parent route.  The last accepted route to ban a new pipe after that
  root deviated at or before i and was spurred at i, with the same root
  and banned pipes and a looser bound, so the spur could only find a
  route already seen or nothing.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from math import inf, isfinite
from typing import Iterable

from .errors import InfiniteResilienceError, UndefinedInputError, ValidationError
from .hydraulics import _Model, _model
from .inputs import check_integer, is_finite_number
from .network import Network

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


def _check_trim(trim_fraction: float) -> None:
    if not is_finite_number(trim_fraction) or not 0 <= trim_fraction < 0.5:
        raise ValidationError("trim_fraction must lie in [0, 0.5)")


# relative slack on the prune limit.  It covers rounding in root + cost as
# well as in h; a margin on h alone does not when root + cost dwarfs h.
_SLACK = 1e-9


def _distances_to(model: _Model, goal: int) -> tuple[list[float], list]:
    """Cheapest resistance from each node to ``goal``, by one reverse Dijkstra,
    and each node's ``(pipe, next node)`` on a cheapest route to it (None at
    the goal and where the goal cannot be reached)."""
    tree = model.to_goal.get(goal)
    if tree is None:
        dist = [inf] * len(model.index)
        succ: list[tuple[int, int] | None] = [None] * len(model.index)
        dist[goal] = 0.0
        heap = [(0.0, goal)]
        while heap:
            cost, node = heapq.heappop(heap)
            if cost > dist[node]:
                continue
            for pid, other in model.pipe_adjacency[node]:
                reach = cost + model.resistances[pid]
                if reach < dist[other]:
                    dist[other] = reach
                    succ[other] = (pid, node)
                    heapq.heappush(heap, (reach, other))
        tree = model.to_goal[goal] = (dist, succ)
    return tree


def _node_chain(model: _Model, start: int, pipes: tuple[int, ...]) -> tuple[int, ...]:
    chain = [start]
    for pid in pipes:
        a, b = model.ends[pid]
        chain.append(b if chain[-1] == a else a)
    return tuple(chain)


def _spur_search(model: _Model, start: int, goal: int, done: bytearray,
                 banned_pipes: set[int], root_cost: float, h: list[float],
                 limit: float):
    """Cheapest simple path by (resistance, pipe-number tuple), or None.

    The heap key includes the pipe tuple, so among equal-resistance routes
    the lexicographically smallest wins.  ``done`` marks the settled nodes
    and, on entry, the banned ones.  ``banned_pipes`` are pipes at
    ``start``: only its own pipes are tested against them, as ``done``
    keeps any later route from returning to ``start``.  A push is dropped
    when ``root_cost + cost + h[node]`` exceeds ``limit``.  Returns
    (cost, pipes).
    """
    if start == goal:
        return 0.0, ()
    adjacency, weights = model.pipe_adjacency, model.resistances
    push, pop = heapq.heappush, heapq.heappop
    done[start] = 1
    heap = []
    for pid, other in adjacency[start]:
        if done[other] or pid in banned_pipes:
            continue
        reach = 0.0 + weights[pid]
        if root_cost + reach + h[other] > limit:
            continue
        heap.append((reach, (pid,), other))
    # the keys are distinct, so they pop in one order however the heap is laid out
    heapq.heapify(heap)
    while heap:
        cost, pipes, node = pop(heap)
        if done[node]:
            continue
        if node == goal:
            return cost, pipes
        done[node] = 1
        # every node of the popped path was settled before the path was
        # extended past it: done also keeps it simple
        for pid, other in adjacency[node]:
            if done[other]:
                continue
            reach = cost + weights[pid]
            if root_cost + reach + h[other] > limit:
                continue
            push(heap, (reach, pipes + (pid,), other))
    return None


def k_shortest_paths(net: Network, start: str, goal: str, k: int = DEFAULT_K) -> list[WeightedPath]:
    """The k cheapest simple paths between two nodes, ascending.

    Yen's deviation scheme over the multigraph; fewer than k paths are
    returned when fewer exist, and a disconnected pair yields an empty
    list.  A route whose resistance rounds to 0.0, as a pipe's
    ``friction * length / diameter`` can underflow, raises
    InfiniteResilienceError: its inverse, its term in the index, is
    unbounded.
    """
    check_integer(k, "k", 1)
    for node in (start, goal):
        if not net.is_node(node):
            raise ValidationError(f"unknown node {node!r}")
    model = _model(net)
    pipe_ids = model.pipe_ids
    return [WeightedPath(tuple([pipe_ids[pid] for pid in pipes]), cost)
            for cost, pipes in _cheapest_routes(model, model.index[start], model.index[goal], k)]


def _cheapest_routes(model: _Model, start: int, goal: int,
                     k: int) -> list[tuple[float, tuple[int, ...]]]:
    """The search of :func:`k_shortest_paths` between two node numbers of
    ``model``, for a checked ``k``: the ``(resistance, pipe-number tuple)``
    of each route, ascending."""
    adjacency, weights, n_nodes = model.pipe_adjacency, model.resistances, len(model.index)
    h, succ = _distances_to(model, goal)
    widen = 1.0 + _SLACK

    # no route costs less than h[start]; inf * (1 + _SLACK) stays inf
    first = _spur_search(model, start, goal, bytearray(n_nodes), set(), 0.0, h, h[start] * widen)
    if first is None:
        return []
    cost, pipes = first
    if not pipes:  # start is goal
        return [first]
    if cost == 0.0:  # the cheapest route: if it is not 0.0, none is
        raise InfiniteResilienceError(
            f"route {tuple(model.pipe_ids[pid] for pid in pipes)} has resistance 0.0; "
            "its inverse is not a finite number")
    seen = {pipes}
    # each candidate carries the spur index that produced it, its deviation
    # index, and its parent's nodes and banned pipes; the first route's parent
    # is the route of no pipes
    candidates = [(cost, pipes, 0, (start,), [set()])]
    accepted: list[tuple[float, tuple[int, ...]]] = []
    # the candidates' costs, ascending, and the k'-th of them, k' = k -
    # len(accepted), widened by the slack; accepting the cheapest candidate
    # lowers k' by one and leaves the limit unchanged
    costs, limit = [cost], inf
    while candidates:
        cost, pipes, deviation, parent_nodes, parent_bans = heapq.heappop(candidates)
        del costs[0]
        accepted.append((cost, pipes))
        wanted = k - len(accepted)
        if not wanted:
            break  # the last route is never spurred
        nodes = parent_nodes[:deviation] + _node_chain(model, parent_nodes[deviation],
                                                        pipes[deviation:])
        # per spur index i, the pipes banned after the root pipes[:i]; below
        # the deviation index they are the parent's sets (module docstring)
        bans = parent_bans[:deviation + 1]
        bans[deviation].add(pipes[deviation])
        bans += [{pid} for pid in pipes[deviation + 1:]]
        route_weights = [weights[pid] for pid in pipes]
        # the root nodes of the spur at index i are nodes[:i]
        mask = bytearray(n_nodes)
        for node in nodes[:-1]:
            mask[node] = 1
        # goal end first: short spurs fill the candidates and tighten the limit
        for i in reversed(range(deviation, len(pipes))):
            spur_node = nodes[i]
            mask[spur_node] = 0
            root_cost = sum(route_weights[:i])
            banned = bans[i]
            # one scan of the spur node's pipes: the search's own test at its
            # first node, and for the pipes that pass, the route along the
            # reverse-Dijkstra tree (see the module docstring)
            bound, pushes = limit, False
            for pid, node in adjacency[spur_node]:
                if mask[node] or pid in banned:
                    continue
                w, to_goal = weights[pid], h[node]
                if root_cost + w + to_goal > limit:
                    continue
                pushes = True
                if (root_cost + (w + to_goal)) * widen >= bound:
                    continue
                tree_cost = w
                while node != goal:
                    step = succ[node]
                    if step is None:
                        break
                    pid, node = step
                    if mask[node] or node == spur_node:
                        break
                    tree_cost += weights[pid]
                else:
                    bound = min(bound, (root_cost + tree_cost) * widen)
            if not pushes:
                continue  # the search would settle the spur node alone and find nothing
            spur = _spur_search(model, spur_node, goal, bytearray(mask), banned, root_cost, h,
                                bound)
            if spur is None:
                continue
            spur_cost, spur_pipes = spur
            total_pipes = pipes[:i] + spur_pipes
            if total_pipes in seen:
                continue
            seen.add(total_pipes)
            total_cost = root_cost + spur_cost
            heapq.heappush(candidates, (total_cost, total_pipes, i, nodes, bans))
            insort(costs, total_cost)
            if len(costs) >= wanted:
                limit = costs[wanted - 1] * widen
    return accepted


def _finite(value: float, what: str) -> float:
    """``value``, or InfiniteResilienceError when it overflowed."""
    if not isfinite(value):
        raise InfiniteResilienceError(f"{what} is {value!r}, not a finite number")
    return value


def node_resilience_index(net: Network, node_id: str, k: int = DEFAULT_K) -> float:
    """Sum over sources of the averaged inverse path resistances.

    For each source the up-to-k cheapest simple paths contribute 1/r each;
    the sum is divided by k regardless of how many paths were found.  Sources
    the node cannot reach contribute nothing.  Requesting the index of a
    source node is an error: its own resistance is zero.  So is an index
    that overflows, as the inverse of a subnormal path resistance does.
    A repeated query for the same node and k returns the last index as it
    is, from a one-entry memo on the network's compiled model; a query that
    fails leaves the memo as it was.
    """
    check_integer(k, "k", 1)
    if node_id in set(net.source_ids):
        raise InfiniteResilienceError(
            f"{node_id!r} is a source; its resilience index is unbounded"
        )
    if not net.is_node(node_id):
        raise ValidationError(f"unknown node {node_id!r}")
    model = _model(net)
    # one read: the key tested and the value returned come from one entry
    last = model.last_index
    if last is not None and last[0] == (node_id, k):
        return last[1]
    start = model.index[node_id]
    total = 0.0
    # the sources are the model's first nodes, in id order
    for goal in range(len(model.source_ids)):
        routes = _cheapest_routes(model, start, goal, k)
        if not routes:
            continue
        inv = sum(1.0 / cost for cost, _ in routes)
        total += inv / k
    total = _finite(total, f"index of {node_id!r}")
    model.last_index = ((node_id, k), total)
    return total


def demand_weighted_index(net: Network, node_id: str, k: int = DEFAULT_K) -> float:
    """Node index weighted by the node's share of total network demand."""
    total_demand = net.total_design_demand()
    if total_demand <= 0:
        raise UndefinedInputError("total network demand is zero; weighting undefined")
    junction = net.junction(node_id)
    if junction.design_demand == 0:
        return 0.0
    index = node_resilience_index(net, node_id, k)
    return _finite(index * junction.design_demand / total_demand,
                   f"demand-weighted index of {node_id!r}")


def trimmed_mean_index(values: Iterable[float], trim_fraction: float = DEFAULT_TRIM) -> float:
    """Mean after discarding the floor(f*n) smallest and largest values."""
    values = sorted(float(v) for v in values)
    _check_trim(trim_fraction)
    if not values:
        raise ValidationError("cannot aggregate an empty index list")
    cut = int(trim_fraction * len(values))
    kept = values[cut : len(values) - cut]
    return _finite(sum(kept) / len(kept), "trimmed mean index")


def node_index_table(net: Network, k: int = DEFAULT_K) -> list[tuple[str, float, float]]:
    """(node_id, index, demand-weighted index) for every junction."""
    rows = []
    for junction in sorted(net.junctions, key=lambda j: j.id):
        index = node_resilience_index(net, junction.id, k)
        try:
            weighted = demand_weighted_index(net, junction.id, k)
        except UndefinedInputError:
            weighted = 0.0
        rows.append((junction.id, index, weighted))
    return rows
