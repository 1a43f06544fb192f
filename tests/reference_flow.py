"""Reference allocator and kernel: the code the compiled model replaced.

Kept verbatim (apart from the docstrings and the function names) as
exact-equality oracles, with one change that follows the compiled kernel:
the arc-list kernel adds each push to a fourth field of the arc it
crosses, and a pipe's flow is the pushes one way less those the other
way.  ``reference_allocate_flows`` is the arc-list max-flow.  It rebuilds
every arc on each call and drops failed pipes from the graph instead of
zeroing their capacities, so agreement with
``wdsres.hydraulics.allocate_flows`` checks the compiled model, the flat
kernel and the capacity writes together.  ``restarting_edmonds_karp`` is
the compiled model's kernel as it was before it resumed its search, so
agreement with ``wdsres.hydraulics._edmonds_karp`` on the same arrays
checks the resume rule alone.  ``restarting_push`` is the capped push that
the supply buffering search used before that kernel took a cap: it starts
every search afresh and records the arcs it crosses, so agreement with the
capped kernel between any two nodes checks the resume rule on targets
other than the sink.  ``reference_connectivity_buffering`` is connectivity
buffering as it was before the spanning-tree walk: a flow from the merged
sources to each junction in turn, with the baseline check read from
``Network.reachable_from_sources``.  It reaches grids where enumerating
failure sets is out of reach.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from wdsres import hydraulics
from wdsres.errors import ValidationError
from wdsres.hydraulics import FlowAllocation
from wdsres.network import Network
from wdsres.performance import _check_buffering


def reference_edmonds_karp(n_nodes: int, arcs: list[list], adjacency: list[list[int]],
                           s: int, t: int):
    eps = 1e-12
    while True:
        parent = [-1] * n_nodes
        parent[s] = -2
        queue = deque([s])
        while queue and parent[t] == -1:
            u = queue.popleft()
            for ai in adjacency[u]:
                _, to, cap, _ = arcs[ai]
                if cap > eps and parent[to] == -1:
                    parent[to] = ai
                    queue.append(to)
        if parent[t] == -1:
            return
        push = float("inf")
        v = t
        while v != s:
            ai = parent[v]
            push = min(push, arcs[ai][2])
            v = arcs[ai][0]
        v = t
        while v != s:
            ai = parent[v]
            arcs[ai][2] -= push
            arcs[ai ^ 1][2] += push
            arcs[ai][3] += push
            v = arcs[ai][0]


def restarting_edmonds_karp(caps: list[float], heads: list[int],
                            adjacency: list[list[tuple[int, int]]], s: int, t: int):
    """The compiled model's kernel with a fresh BFS from ``s`` after every push."""
    eps = 1e-12
    n_nodes = len(adjacency)
    while True:
        parent = [-1] * n_nodes
        parent[s] = -2
        queue = [s]
        # a FIFO queue: the loop reads the list while the scan appends to it
        for u in queue:
            for ai, to in adjacency[u]:
                if parent[to] == -1 and caps[ai] > eps:
                    parent[to] = ai
                    queue.append(to)
            # a junction's demand arc comes last in its adjacency, so this
            # stops the search on the scan that reaches the sink
            if parent[t] != -1:
                break
        if parent[t] == -1:
            return
        push = float("inf")
        v = t
        while v != s:
            ai = parent[v]
            push = min(push, caps[ai])
            v = heads[ai ^ 1]
        v = t
        while v != s:
            ai = parent[v]
            caps[ai] -= push
            caps[ai ^ 1] += push
            v = heads[ai ^ 1]


def restarting_push(caps: list[float], heads: list[int], adjacency: list[list[tuple[int, int]]],
                    u: int, v: int, amount: float, crossed: set[int]) -> bool:
    """Push up to ``amount`` from ``u`` to ``v`` in place on the residuals ``caps``.

    Each augmenting path is a shortest one, found by a breadth-first search
    that stops as soon as it labels ``v``; arcs with residual at most the
    kernel's ``eps`` are skipped, so a zeroed arc carries nothing.  A push
    is the path's smallest residual or what is left of ``amount``, so every
    path but the last closes an arc, and as in Edmonds & Karp (1972) there
    are at most O(V * E) pushes, each O(E).  It returns True only if the
    whole ``amount`` went through; on False, ``caps`` holds what was pushed.
    Every arc a push crosses is added to ``crossed``: a push below half an
    ulp of an arc's residual leaves the residual unchanged, so ``caps``
    alone cannot show where the flow went.
    """
    eps = 1e-12
    n_nodes = len(adjacency)
    while amount > 0.0:
        parent = [-1] * n_nodes
        parent[u] = -2
        queue = [u]
        for w in queue:
            for ai, to in adjacency[w]:
                if parent[to] == -1 and caps[ai] > eps:
                    parent[to] = ai
                    queue.append(to)
            if parent[v] != -1:
                break
        else:
            return False
        push = amount
        w = v
        while w != u:
            ai = parent[w]
            if caps[ai] < push:
                push = caps[ai]
            w = heads[ai ^ 1]
        w = v
        while w != u:
            ai = parent[w]
            caps[ai] -= push
            caps[ai ^ 1] += push
            crossed.add(ai)
            w = heads[ai ^ 1]
        amount -= push
    return True


def reference_allocate_flows(
    net: Network,
    demand_scale: float = 1.0,
    failed_pipes: Iterable[str] = (),
    demand_factors: Mapping[str, float] | None = None,
    supply_factors: Mapping[str, float] | None = None,
) -> FlowAllocation:
    if demand_scale <= 0:
        raise ValidationError("demand_scale must be > 0")
    failed_pipes = net.validate_failed_sets(failed_pipes)
    demand_factors = dict(demand_factors or {})
    supply_factors = dict(supply_factors or {})
    for key in demand_factors:
        net.junction(key)
    for key in supply_factors:
        net.source(key)

    junctions = sorted(net.junctions, key=lambda j: j.id)
    sources = sorted(net.sources, key=lambda s: s.id)
    pipes = sorted((p for p in net.pipes if p.id not in failed_pipes), key=lambda p: p.id)

    index = {}
    for node in (*sources, *junctions):
        index[node.id] = len(index)
    s_idx = len(index)
    t_idx = s_idx + 1
    n = t_idx + 1

    arcs: list[list] = []
    adjacency: list[list[int]] = [[] for _ in range(n)]

    def add_arc(u: int, v: int, cap_uv: float, cap_vu: float):
        adjacency[u].append(len(arcs))
        arcs.append([u, v, cap_uv, 0.0])
        adjacency[v].append(len(arcs))
        arcs.append([v, u, cap_vu, 0.0])

    source_arc = {}
    source_caps = {}
    for src in sources:
        source_arc[src.id] = len(arcs)
        source_caps[src.id] = src.outflow * supply_factors.get(src.id, 1.0)
        add_arc(s_idx, index[src.id], source_caps[src.id], 0.0)
    pipe_arc = {}
    for pipe in pipes:
        a, b = pipe.endpoints
        pipe_arc[pipe.id] = len(arcs)
        add_arc(index[a], index[b], pipe.capacity, pipe.capacity)
    demands = {
        j.id: j.design_demand * demand_scale * demand_factors.get(j.id, 1.0)
        for j in junctions
    }
    demand_arc = {}
    for j in junctions:
        demand_arc[j.id] = len(arcs)
        add_arc(index[j.id], t_idx, demands[j.id], 0.0)

    reference_edmonds_karp(n, arcs, adjacency, s_idx, t_idx)

    delivered = {
        j.id: demands[j.id] - arcs[demand_arc[j.id]][2] for j in junctions
    }
    pipe_flows = {}
    for pipe in pipes:
        ai = pipe_arc[pipe.id]
        pipe_flows[pipe.id] = arcs[ai][3] - arcs[ai ^ 1][3]
    source_out = {
        src.id: source_caps[src.id] - arcs[source_arc[src.id]][2] for src in sources
    }
    return FlowAllocation(delivered, demands, pipe_flows, source_out)


def reference_connectivity_buffering(net: Network, max_k: int = 2) -> int:
    _check_buffering(
        net, max_k, lambda: net.reachable_from_sources().issuperset(net.junction_ids)
    )

    # every junction is connected, so lambda >= 1 and max_k = 0 needs no flow
    lam = max_k + 1
    if lam == 1:
        return 0
    model = hydraulics._model(net)
    base = [0.0] * len(model.heads)
    for k in range(len(model.source_ids)):
        base[2 * k] = float(lam)
    for ai in model.pipe_arcs.values():
        base[ai] = base[ai ^ 1] = 1.0
    unread = [0.0] * len(base)
    for k in range(len(model.junction_ids)):
        caps = base.copy()
        demand_arc = model.first_demand_arc + 2 * k
        caps[demand_arc] = float(lam)
        hydraulics._edmonds_karp(caps, model.heads, model.adjacency,
                                 model.super_source, model.super_sink, lam, unread)
        # unit capacities keep every residual an exact integer
        lam -= int(caps[demand_arc])
        if lam == 1:
            break
    return min(max_k, lam - 1)
