"""Hydraulic time series, service-state classification and the surrogate
flow allocator.

The allocator is deliberately not a hydraulic solver.  It routes flow from
sources to junction demands as a capacitated maximum-flow problem and
fabricates heads afterwards (``h = h*`` where water arrives, ``h = 0``
where it does not).  That is sufficient to drive every metric in this
package on synthetic failure scenarios; studies that care about real heads
should load measured or simulated series instead.

Each network is compiled once, on its first flow solve or path search,
into one model of flat arrays (:class:`_Model`) kept on the
:class:`Network`: the flow graph's arcs and the pipe graph that
:mod:`wdsres.graphmetrics` searches for paths.  A solve then only copies
the base capacities, zeroes the arcs of failed pipes, writes the source
and demand capacities and runs Edmonds-Karp on the copy.  The source,
pipe and demand arcs each form one block of the arc arrays, in the
model's id order, so a solve writes its capacities and reads its results
by slices of those arrays, and builds each map from a slice zipped with
the model's ids.

The kernel is Edmonds & Karp (1972): every augmenting path comes from a
breadth-first search that scans each node's arcs in the compiled order, so
the paths, and every float of the result, are fixed.  After a push that
fills the demand of the junction ending the path and no pipe or source on
the way, the search resumes where it stopped instead of starting again: a
fresh search would label the same nodes in the same order and find the
same next path (:func:`_edmonds_karp` gives the argument).  On a 14x14
torus at design demand, all 196 pushes share one search.  Pipe flows are
the kernel's per-arc sums of pushes, which no residual can round away.
The same kernel, given a finite amount, moves it between any two nodes of
a residual array.  Connectivity buffering pushes the bound it needs, on
unit pipe capacities, between the two ends of each edge of a spanning
tree.  The supply buffering search uses it to reroute a failed pipe's
flow around the failures, where the arcs it records bound the rerouted
flow's support.

The model also remembers its most recent solve, keyed by the call's
validated inputs: the failed pipes and copies of the demand and supply
factor maps.  It keeps the residuals the kernel left, its sums of pushes,
the four result maps built from them and, once
:func:`surrogate_allocation` asks for them, the one-row delivered, demand,
head and required-head arrays, so each is built once per solve.  A call
whose inputs equal the last solve's would pass the same checks and give
the same capacities, so it skips the checks, the scaling and the capacity
build and only copies the maps it hands out; the kernel is deterministic,
so the result is the one a fresh solve would give.  Any other call runs
the kernel, even if its capacities come out equal to the last solve's.
Scenario events are piecewise constant, so most timesteps of a scenario
repeat the state of the step before them and hit this one-entry memo; a
memo of more entries would keep one per failure set during a buffering
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite
from operator import sub
from pathlib import Path
from typing import Iterable, Mapping

# numpy is imported inside each function that builds an array: importing it
# takes longer than a structural metric runs, and those metrics build none

from .errors import ValidationError
from .inputs import is_finite_number, read_csv, short_digest, write_csv
from .network import Network, pipe_resistance

SATISFACTORY = "S"
FAILURE = "F"

_SERIES_COLUMNS = ("t", "node_id", "delivered_m3s", "demand_m3s", "head_m", "required_head_m")


@dataclass(frozen=True)
class HydraulicSeries:
    """Per-node, per-timestep delivered flow, demand, head and required head.

    Arrays are shaped ``(n_steps, n_nodes)`` and aligned with ``node_ids``;
    every entry must be finite.  A series spans its whole horizon and the
    time-aggregating metrics read every step, so a sub-period is analysed
    by slicing the arrays into a new series.
    """

    node_ids: tuple[str, ...]
    delivered: np.ndarray
    demand: np.ndarray
    head: np.ndarray
    required_head: np.ndarray

    def __post_init__(self):
        import numpy as np

        # a string would pass as its characters
        if isinstance(self.node_ids, str):
            raise ValidationError("node ids must be a sequence of ids, not a string")
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        for name in ("delivered", "demand", "head", "required_head"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise ValidationError(f"{name} must be a 2-d array (steps x nodes)")
            # a nan ratio compares false, so a nan delivery would pass for a failure
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} must hold finite numbers")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        shape = self.delivered.shape
        if shape[0] < 1:
            raise ValidationError("series must contain at least one timestep")
        if shape[1] != len(self.node_ids):
            raise ValidationError("array width does not match number of node ids")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValidationError("duplicate node ids in series")
        for name in ("demand", "head", "required_head"):
            if getattr(self, name).shape != shape:
                raise ValidationError("all series arrays must share one shape")
        if (self.delivered < 0).any() or (self.demand < 0).any():
            raise ValidationError("flows must be >= 0")

    @property
    def n_steps(self) -> int:
        return self.delivered.shape[0]

    def node_index(self, node_id: str) -> int:
        try:
            return self.node_ids.index(node_id)
        except ValueError:
            raise ValidationError(f"unknown node {node_id!r} in series") from None

    def system_ratio(self, t: int) -> float:
        """Total delivered over total demanded flow at step ``t``; 1.0 if
        nothing is demanded."""
        total_demand = float(self.demand[t].sum())
        if total_demand == 0.0:
            return 1.0
        return float(self.delivered[t].sum()) / total_demand

    def digest(self) -> str:
        # a 3600 s step and an all-steps window keep old digests; the arrays are C-ordered
        return short_digest(",".join(self.node_ids).encode(), repr(3600.0).encode(),
                            repr((0, self.n_steps - 1)).encode(), self.delivered,
                            self.demand, self.head, self.required_head)


@dataclass(frozen=True)
class BinaryStateSeries:
    """Satisfactory/failure state sequence with the threshold that made it."""

    states: tuple[str, ...]
    threshold: float
    per_node: bool = False

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValidationError("state series must not be empty")
        bad = set(self.states) - {SATISFACTORY, FAILURE}
        if bad:
            raise ValidationError(f"states must be 'S' or 'F', got {sorted(bad)}")

    def digest(self) -> str:
        return short_digest(f"{''.join(self.states)}{self.threshold!r}{self.per_node!r}".encode())


def load_series(path: str | Path) -> HydraulicSeries:
    """Read the documented series CSV.

    Columns: ``t, node_id, delivered_m3s, demand_m3s, head_m,
    required_head_m``, one row per (t, node), header mandatory.  Timesteps
    must be the contiguous integers 0..T-1 and every timestep must carry
    the same node set.
    """
    import numpy as np

    cells: dict[int, dict[str, list[float]]] = {}
    for lineno, (t, node, *values) in read_csv(path, _SERIES_COLUMNS, "series",
                                               (int, str.strip, *(float,) * 4)):
        if not all(isfinite(v) for v in values):
            raise ValidationError(f"{path}:{lineno}: values must be finite numbers")
        per_t = cells.setdefault(t, {})
        if node in per_t:
            raise ValidationError(f"{path}:{lineno}: duplicate (t={t}, node={node!r}) row")
        per_t[node] = values

    if not cells:
        raise ValidationError(f"{path}: no data rows")
    steps = sorted(cells)
    if steps != list(range(len(steps))):
        raise ValidationError(f"{path}: timesteps must be contiguous from 0, got {steps}")
    node_ids = tuple(sorted(cells[0]))
    for t in steps:
        if tuple(sorted(cells[t])) != node_ids:
            raise ValidationError(f"{path}: node set at t={t} differs from t=0")

    arrays = np.array([[cells[t][node] for node in node_ids] for t in steps])  # T x N x 4
    return HydraulicSeries(node_ids, *arrays.transpose(2, 0, 1))


def save_series(series: HydraulicSeries, path: str | Path) -> None:
    """Write a series in the documented CSV layout."""
    columns = [a.tolist() for a in (series.delivered, series.demand, series.head,
                                    series.required_head)]
    write_csv(path, _SERIES_COLUMNS, (
        [t, node, *(column[t][i] for column in columns)]
        for t in range(series.n_steps) for i, node in enumerate(series.node_ids)
    ))


def _check_threshold(threshold: float) -> None:
    if not (is_finite_number(threshold) and 0 < threshold <= 1):
        raise ValidationError("threshold must lie in (0, 1]")


def classify_states(
    series: HydraulicSeries, threshold: float, per_node: bool = False
) -> BinaryStateSeries:
    """Threshold every step of the series into satisfactory (S) / failure (F)
    states.

    System mode (default): step ``t`` is S iff total delivered / total
    demanded >= threshold.  Per-node mode: S iff every node with demand
    individually meets the threshold.  A step with zero demand is S.
    """
    import numpy as np

    _check_threshold(threshold)
    states = []
    for t in range(series.n_steps):
        if per_node:
            demand = series.demand[t]
            active = demand > 0
            ok = bool(np.all(series.delivered[t, active] >= threshold * demand[active]))
        else:
            ok = series.system_ratio(t) >= threshold
        states.append(SATISFACTORY if ok else FAILURE)
    return BinaryStateSeries(tuple(states), threshold, per_node)


# ---------------------------------------------------------------------------
# surrogate allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowAllocation:
    """Max-flow routing result for one demand snapshot.

    ``pipe_flows`` holds the signed net flow per pipe, positive from
    ``endpoints[0]`` to ``endpoints[1]``: the pushes that way less those back.
    """

    delivered: Mapping[str, float]
    demands: Mapping[str, float]
    pipe_flows: Mapping[str, float]
    source_outflows: Mapping[str, float]

    @property
    def total_delivered(self) -> float:
        return sum(self.delivered.values())

    @property
    def total_demand(self) -> float:
        return sum(self.demands.values())


@dataclass
class _Model:
    """A network as flat arrays, compiled once for its flow solves and path searches.

    Nodes are the sources, then the junctions, each sorted by id, then
    ``super_source`` and ``super_sink``.  Arcs come in residual pairs ``2k``
    and ``2k + 1``: one pair per source, then one per pipe, then one per
    junction demand, each group sorted by id.  Every node's ``adjacency``
    lists its ``(arc, head)`` pairs in that insertion order, so a junction's
    demand arc comes last.  ``capacities`` holds the pipe capacities (both
    ways) and zeros on the source and demand arcs, which each solve writes.
    Pipes are numbered in sorted-id order, so tuples of pipe numbers compare
    as tuples of pipe ids do: ``ends[pipe]`` is a pipe's node pair,
    ``pipe_adjacency[node]`` a node's ``(pipe, other end)`` pairs in pipe
    order and ``resistances[pipe]`` a pipe's resistance.

    Five caches fill on use: ``last_solve`` holds the key of the most recent
    solve (its failed-pipe frozenset and its own copies of the demand and
    supply factor maps), the residuals it left (a tuple) and the kernel's
    list of pushes summed per arc; ``last_maps`` holds that solve's
    delivered, demand, pipe flow (every intact pipe's) and source outflow
    maps, which each call copies; ``last_rows`` holds its one-row delivered,
    demand, head and required-head arrays, or None until
    :func:`surrogate_allocation` builds them; ``last_index`` holds the
    ``(node id, K)`` key and the value of the most recent finite Herrera
    node index, which a repeated query returns as it is; and ``to_goal``
    maps each goal node to a pair of lists: the cheapest resistance from
    every node to it, and every node's successor ``(pipe, next node)`` on
    such a route (None at the goal and where it cannot be reached).  A pipe's
    reverse residual can reach twice its capacity, so ``overflowing_pipes``
    lists the pipes whose doubled capacity is not finite; a supply solve
    refuses such a network, while unit-capacity connectivity flows on the
    same arrays are unaffected.  ``source_ids`` and ``outflows`` list the
    sources' ids and outflows in their order, and ``junction_ids``,
    ``demands`` and ``required_heads`` the junctions' ids, design demands
    and required heads in theirs, so a solve reads its unscaled capacities
    and its maps' keys as they are.
    """

    index: dict[str, int]
    super_source: int
    super_sink: int
    heads: list[int]
    adjacency: list[list[tuple[int, int]]]
    capacities: list[float]
    pipe_arcs: dict[str, int]
    first_demand_arc: int
    source_ids: tuple[str, ...]
    outflows: tuple[float, ...]
    junction_ids: tuple[str, ...]
    demands: tuple[float, ...]
    overflowing_pipes: tuple[str, ...]
    required_heads: tuple[float, ...]
    pipe_ids: tuple[str, ...]
    ends: list[tuple[int, int]]
    pipe_adjacency: list[list[tuple[int, int]]]
    resistances: list[float]
    last_solve: tuple[tuple, tuple, list[float]] | None = None
    last_maps: tuple[dict, dict, dict, dict] | None = None
    last_rows: tuple | None = None
    last_index: tuple[tuple[str, int], float] | None = None
    to_goal: dict[int, tuple[list[float], list[tuple[int, int] | None]]] = field(
        default_factory=dict)

    @classmethod
    def compile(cls, net: Network) -> "_Model":
        sources = tuple(sorted(net.sources, key=lambda s: s.id))
        junctions = tuple(sorted(net.junctions, key=lambda j: j.id))
        index = {node.id: i for i, node in enumerate((*sources, *junctions))}
        s_idx = len(index)
        t_idx = s_idx + 1
        heads: list[int] = []
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(t_idx + 1)]
        capacities: list[float] = []

        def add_pair(u: int, v: int, cap: float):
            adjacency[u].append((len(heads), v))
            heads.append(v)
            adjacency[v].append((len(heads), u))
            heads.append(u)
            capacities.extend((cap, cap))

        for src in sources:
            add_pair(s_idx, index[src.id], 0.0)
        pipes = sorted(net.pipes, key=lambda p: p.id)
        ends = [(index[p.endpoints[0]], index[p.endpoints[1]]) for p in pipes]
        pipe_adjacency: list[list[tuple[int, int]]] = [[] for _ in index]
        pipe_arcs = {}
        # undirected pipe: a mutual arc pair with the full capacity each way
        for k, (a, b) in enumerate(ends):
            pipe_adjacency[a].append((k, b))
            pipe_adjacency[b].append((k, a))
            pipe_arcs[pipes[k].id] = len(heads)
            add_pair(a, b, pipes[k].capacity)
        first_demand_arc = len(heads)
        for j in junctions:
            add_pair(index[j.id], t_idx, 0.0)
        overflowing = tuple(pid for pid, ai in pipe_arcs.items()
                            if not isfinite(2.0 * capacities[ai]))
        return cls(index, s_idx, t_idx, heads, adjacency, capacities, pipe_arcs,
                   first_demand_arc, tuple(s.id for s in sources),
                   tuple(s.outflow for s in sources), tuple(j.id for j in junctions),
                   tuple(j.design_demand for j in junctions), overflowing,
                   tuple(j.required_head for j in junctions), tuple(pipe_arcs), ends,
                   pipe_adjacency, [pipe_resistance(p) for p in pipes])


def _model(net: Network) -> _Model:
    model = net._model
    if model is None:
        model = _Model.compile(net)
        object.__setattr__(net, "_model", model)
    return model


def _edmonds_karp(caps: list[float], heads: list[int],
                  adjacency: list[list[tuple[int, int]]], s: int, t: int,
                  amount: float, sent: list[float] | dict[int, float]) -> bool:
    """Push up to ``amount`` from ``s`` to ``t`` in place on ``caps``, where arc
    ``i ^ 1`` is the residual of arc ``i``.

    Each augmenting path is a shortest one (Edmonds & Karp 1972), found by
    a breadth-first search that scans each adjacency in insertion order,
    which the model keeps sorted, so the paths (and therefore the full
    allocation) are deterministic.  Arcs with residual at most ``eps``,
    such as a failed pipe's at 0, are skipped exactly as if they were
    absent.  A push is the path's smallest residual or what is left of
    ``amount``, so every path but the last closes an arc, and there are at
    most O(V * E) pushes, each O(E); with ``amount`` infinite this is a
    max flow.  It returns True only if the whole ``amount`` went through;
    on False, ``caps`` holds what was pushed.  Each push is added to ``sent[arc]`` for every arc it crosses, a list
    indexed by arc or a ``defaultdict(float)`` whose keys are then the
    crossed arcs: a push below half an ulp of a residual leaves the
    residual unchanged, so ``caps`` alone cannot show where the flow went.

    After a push that closes no arc on the path but its last, into ``t``,
    when that arc is the last entry in its tail's adjacency, the search
    resumes where it stopped instead of starting again from ``s``.  Every
    node labelled so far was labelled through an arc that is still open;
    the only arcs the push opens are reverse arcs, each from a path node to
    its BFS parent, which was labelled before it; and the search stopped
    after the scan of the tail ``u`` of the closed arc, which labelled
    ``t`` last, since no arc follows that one in ``u``'s adjacency.  A
    fresh BFS would therefore label the same nodes in the same order, scan
    ``u`` without reaching ``t`` and go on as the resumed one does, so the
    augmenting paths are exactly those of the restarting search.  Another
    arc of ``u`` after the closed one could reach ``t`` in the fresh BFS
    (a parallel pipe), so then, as after a push that closes any other
    arc, the search starts afresh.  On the compiled model every arc into
    the sink is a junction's demand arc, which comes last, so a max flow
    resumes after every push that fills a demand and nothing else.
    """
    eps = 1e-12
    n_nodes = len(adjacency)
    resume = False
    while amount > 0.0:
        if not resume:
            parent = [-1] * n_nodes
            parent[s] = -2
            queue = [s]
            # a FIFO queue: the iterator reads the list while the scan
            # appends to it, and keeps its place across a resume
            scan = iter(queue)
        for u in scan:
            for ai, to in adjacency[u]:
                if parent[to] == -1 and caps[ai] > eps:
                    parent[to] = ai
                    queue.append(to)
            if parent[t] != -1:
                break
        else:
            return False
        # the scan that labelled t ended on ai, the last arc of its node; the
        # push is the path's smallest residual unless it uses up the amount,
        # so the last arc closes whenever no other arc does
        resume = parent[t] == ai
        push = amount
        v = t
        while v != s:
            ai = parent[v]
            if caps[ai] < push:
                push = caps[ai]
            v = heads[ai ^ 1]
        amount -= push
        ai = parent[t]
        caps[ai] -= push
        caps[ai ^ 1] += push
        sent[ai] += push
        v = heads[ai ^ 1]
        while v != s:
            ai = parent[v]
            caps[ai] -= push
            caps[ai ^ 1] += push
            sent[ai] += push
            if caps[ai] <= eps:
                resume = False
            v = heads[ai ^ 1]
        if resume:
            queue.pop()
            parent[t] = -1
    return True


def allocate_flows(
    net: Network,
    failed_pipes: Iterable[str] = (),
    demand_factors: Mapping[str, float] | None = None,
    supply_factors: Mapping[str, float] | None = None,
) -> FlowAllocation:
    """Route source outflows to junction demands through intact pipes.

    The routing maximises total delivered flow subject to pipe capacities,
    source outflow limits and per-junction demands; deliveries never exceed
    demand.  ``demand_factors`` / ``supply_factors`` apply per-id
    multipliers; every factor must be a finite number > 0, not a bool, and
    the scaled demands, their sum and the scaled source outflows must stay
    finite, as must twice each pipe capacity (the most a pipe's residual
    capacity can reach).  The surrogate has no pressure model, so pumps play
    no part in the routing.

    A call whose failed pipes and factor maps equal those of the network's
    previous solve reuses that solve: it skips the checks, the scaling and
    the capacity build, which an equal call passed before, and only copies
    the maps.  So a bool factor passes where the previous solve had a factor
    it equals (``True == 1.0``).  Any other call runs the max-flow kernel.
    The maps are built once per solve, each in one pass over a slice of the
    residuals or of the per-arc pushes, keyed by the model's ids, with every
    intact pipe in the pipe map, and are identical to those of a new solve;
    each call gets copies, so the caller owns every map it is given.  The
    one-row arrays of :func:`surrogate_allocation` are likewise built once
    per solve.
    """
    failed_pipes = frozenset(failed_pipes)
    model = net._model
    # the solve's own copies of the factor maps: a map changed in place since
    # then no longer compares equal, and a nan factor never does
    if (model is None or model.last_solve is None or model.last_solve[0]
            != (failed_pipes, demand_factors or {}, supply_factors or {})):
        model = _solve(net, failed_pipes, demand_factors, supply_factors)
    delivered, demand_map, pipe_flows, source_out = model.last_maps
    return FlowAllocation(delivered.copy(), demand_map.copy(), pipe_flows.copy(),
                          source_out.copy())


def _solve(net: Network, failed_pipes: frozenset[str], demand_factors: Mapping | None,
           supply_factors: Mapping | None) -> _Model:
    """Check the inputs of :func:`allocate_flows`, run the kernel on their
    capacities and make the result the model's last solve."""
    failed_pipes = net.validate_failed_sets(failed_pipes)
    demand_factors = dict(demand_factors or {})
    supply_factors = dict(supply_factors or {})
    # one set test per map; the loop finds the first unknown id in map order
    if not net._by_id["junctions"].keys() >= demand_factors.keys():
        for key in demand_factors:
            net.junction(key)
    if not net._by_id["sources"].keys() >= supply_factors.keys():
        for key in supply_factors:
            net.source(key)
    if not all(is_finite_number(f) and f > 0
               for f in (*demand_factors.values(), *supply_factors.values())):
        raise ValidationError("demand and supply factors must be finite and > 0")

    model = _model(net)
    if model.overflowing_pipes:
        raise ValidationError(
            f"pipe capacities must stay finite when doubled: {list(model.overflowing_pipes)}"
        )
    caps = model.capacities.copy()
    for pipe_id in failed_pipes:
        ai = model.pipe_arcs[pipe_id]
        caps[ai] = caps[ai ^ 1] = 0.0
    # x * 1.0 is x, signed zeros included, so without factors the base
    # values serve as they are
    outflows = model.outflows
    if supply_factors:
        outflows = [x * supply_factors.get(i, 1.0) for i, x in zip(model.source_ids, outflows)]
    demands = model.demands
    if demand_factors:
        demands = [x * demand_factors.get(i, 1.0) for i, x in zip(model.junction_ids, demands)]
    # finite inputs can overflow when scaled; an inf demand, outflow or
    # demand total would give nan allocations and ratios
    if not (isfinite(sum(demands)) and all(map(isfinite, outflows))):
        raise ValidationError("scaled demands and source outflows must stay finite")
    # source arcs come first, then the pipe arcs, then the demand arcs
    first_pipe_arc = 2 * len(outflows)
    first_demand_arc = model.first_demand_arc
    caps[0:first_pipe_arc:2] = outflows
    caps[first_demand_arc::2] = demands

    sent = [0.0] * len(caps)
    _edmonds_karp(caps, model.heads, model.adjacency,
                  model.super_source, model.super_sink, inf, sent)
    model.last_solve = ((failed_pipes, demand_factors, supply_factors), tuple(caps), sent)
    pipe_flows = dict(zip(model.pipe_ids, map(sub, sent[first_pipe_arc:first_demand_arc:2],
                                             sent[first_pipe_arc + 1:first_demand_arc:2])))
    for pipe_id in failed_pipes:
        del pipe_flows[pipe_id]  # deleting keys keeps the order of the others
    model.last_maps = (
        dict(zip(model.junction_ids, map(sub, demands, caps[first_demand_arc::2]))),
        dict(zip(model.junction_ids, demands)),
        pipe_flows,
        dict(zip(model.source_ids, map(sub, outflows, caps[0:first_pipe_arc:2]))),
    )
    model.last_rows = None
    return model


def surrogate_allocation(
    net: Network,
    failed_pipes: Iterable[str] = (),
    demand_factors: Mapping[str, float] | None = None,
    supply_factors: Mapping[str, float] | None = None,
) -> HydraulicSeries:
    """Single-timestep series from a max-flow allocation
    (:func:`allocate_flows` takes the same arguments).

    Heads are a declared fiction: ``h = h*`` for nodes receiving any flow
    (or demanding none), ``h = 0`` for unsupplied nodes.  The rows are
    built once per solve, so a call that reuses a solve reuses its rows.
    """
    alloc = allocate_flows(net, failed_pipes, demand_factors, supply_factors)
    model = net._model
    if model.last_rows is None:  # the rows of the solve that alloc came from
        import numpy as np

        # the maps follow the compiled model's junctions, which are sorted by id
        n = len(model.junction_ids)
        delivered = np.fromiter(alloc.delivered.values(), float, n).reshape(1, n)
        demand = np.fromiter(alloc.demands.values(), float, n).reshape(1, n)
        h_star = np.array([model.required_heads])
        supplied = (delivered > 0) | (demand == 0)
        model.last_rows = (delivered, demand, np.where(supplied, h_star, 0.0), h_star)
    return HydraulicSeries(model.junction_ids, *model.last_rows)
