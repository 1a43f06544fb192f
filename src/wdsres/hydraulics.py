"""Hydraulic time series, service-state classification and the surrogate
flow allocator.

The allocator is deliberately not a hydraulic solver.  It routes flow from
sources to junction demands as a capacitated maximum-flow problem and
fabricates heads afterwards (``h = h*`` where water arrives, ``h = 0``
where it does not).  That is sufficient to drive every metric in this
package on synthetic failure scenarios; studies that care about real heads
should load measured or simulated series instead.

Each network's flow graph is compiled once, on its first solve, into flat
arc arrays (node index, arc heads, per-node ``(arc, head)`` adjacency, base
capacities and each pipe's arc) kept on the :class:`Network`.  A solve
then only copies the base capacities, zeroes the arcs of failed pipes,
writes the source and demand capacities and runs Edmonds-Karp on the copy.

The model also remembers its most recent solve: the capacities the kernel
was given and the residual capacities it left.  A solve whose capacities
equal the remembered ones reads the residuals instead of running the
kernel again.  The kernel is deterministic and the capacities are its
whole input, so the result is the one a fresh solve would give.  Scenario
events are piecewise constant, so most timesteps of a scenario repeat the
state of the step before them and hit this one-entry memo; a memo of more
entries would keep one per failure set during a buffering search.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from math import inf, isfinite
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .inputs import read_csv
from .network import Network

SATISFACTORY = "S"
FAILURE = "F"

_SERIES_COLUMNS = ("t", "node_id", "delivered_m3s", "demand_m3s", "head_m", "required_head_m")


@dataclass(frozen=True)
class HydraulicSeries:
    """Per-node, per-timestep delivered flow, demand, head and required head.

    Arrays are shaped ``(n_steps, n_nodes)`` and aligned with ``node_ids``.
    ``window`` is an inclusive pair of timestep indices bounding the
    analysis period used by time-aggregating metrics.
    """

    node_ids: tuple[str, ...]
    delivered: np.ndarray
    demand: np.ndarray
    head: np.ndarray
    required_head: np.ndarray
    dt: float = 3600.0
    window: tuple[int, int] | None = None

    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        for name in ("delivered", "demand", "head", "required_head"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise ValidationError(f"{name} must be a 2-d array (steps x nodes)")
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
        if np.any(self.delivered < 0) or np.any(self.demand < 0):
            raise ValidationError("flows must be >= 0")
        if self.dt <= 0:
            raise ValidationError("dt must be > 0")
        if self.window is None:
            object.__setattr__(self, "window", (0, shape[0] - 1))
        t0, t1 = self.window
        if not (0 <= t0 <= t1 < shape[0]):
            raise ValidationError(f"invalid analysis window {self.window} for {shape[0]} steps")
        object.__setattr__(self, "window", (int(t0), int(t1)))
        object.__setattr__(self, "_index", {nid: i for i, nid in enumerate(self.node_ids)})

    @property
    def n_steps(self) -> int:
        return self.delivered.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def node_index(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id!r} in series") from None

    def window_slice(self) -> slice:
        t0, t1 = self.window
        return slice(t0, t1 + 1)

    def with_window(self, t0: int, t1: int) -> "HydraulicSeries":
        return HydraulicSeries(
            self.node_ids, self.delivered, self.demand, self.head,
            self.required_head, dt=self.dt, window=(t0, t1),
        )

    def system_ratio(self, t: int) -> float:
        """Total delivered over total demanded flow at step ``t``; 1.0 if
        nothing is demanded."""
        total_demand = float(self.demand[t].sum())
        if total_demand == 0.0:
            return 1.0
        return float(self.delivered[t].sum()) / total_demand

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(",".join(self.node_ids).encode())
        h.update(repr(self.dt).encode())
        h.update(repr(self.window).encode())
        for name in ("delivered", "demand", "head", "required_head"):
            h.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        return h.hexdigest()[:12]


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

    @classmethod
    def from_string(cls, text: str, threshold: float = 1.0) -> "BinaryStateSeries":
        return cls(tuple(text), threshold)

    def __len__(self) -> int:
        return len(self.states)

    def digest(self) -> str:
        blob = ("".join(self.states) + repr(self.threshold) + repr(self.per_node)).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def load_series(path: str | Path, dt: float = 3600.0) -> HydraulicSeries:
    """Read the documented series CSV.

    Columns: ``t, node_id, delivered_m3s, demand_m3s, head_m,
    required_head_m``, one row per (t, node), header mandatory.  Timesteps
    must be the contiguous integers 0..T-1 and every timestep must carry
    the same node set.
    """
    cells: dict[int, dict[str, tuple[float, float, float, float]]] = {}
    for lineno, row in read_csv(path, _SERIES_COLUMNS, "series"):
        try:
            t = int(row[0])
            values = tuple(float(c) for c in row[2:])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if not all(isfinite(v) for v in values):
            raise ValidationError(f"{path}:{lineno}: values must be finite numbers")
        node = row[1].strip()
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

    arrays = np.zeros((4, len(steps), len(node_ids)))
    for t in steps:
        for i, node in enumerate(node_ids):
            arrays[:, t, i] = cells[t][node]
    return HydraulicSeries(node_ids, arrays[0], arrays[1], arrays[2], arrays[3], dt=dt)


def save_series(series: HydraulicSeries, path: str | Path) -> None:
    """Write a series in the documented CSV layout."""
    Path(path).write_text(series_to_csv(series))


def series_to_csv(series: HydraulicSeries) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_SERIES_COLUMNS)
    for t in range(series.n_steps):
        for i, node in enumerate(series.node_ids):
            writer.writerow(
                [
                    t,
                    node,
                    repr(float(series.delivered[t, i])),
                    repr(float(series.demand[t, i])),
                    repr(float(series.head[t, i])),
                    repr(float(series.required_head[t, i])),
                ]
            )
    return out.getvalue()


def classify_states(
    series: HydraulicSeries, threshold: float, per_node: bool = False
) -> BinaryStateSeries:
    """Threshold the series into satisfactory (S) / failure (F) states.

    System mode (default): step ``t`` is S iff total delivered / total
    demanded >= threshold.  Per-node mode: S iff every node with demand
    individually meets the threshold.  A step with zero demand is S.
    """
    if not 0 < threshold <= 1:
        raise ValidationError("threshold must lie in (0, 1]")
    t0, t1 = series.window
    states = []
    for t in range(t0, t1 + 1):
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
    ``endpoints[0]`` to ``endpoints[1]``.
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
class _FlowModel:
    """One network's flow graph as flat arrays, compiled on its first solve.

    Nodes are the sources, then the junctions, each sorted by id, then the
    super-source and the super-sink.  Arcs come in residual pairs ``2k``
    and ``2k + 1``: one pair per source, then one per pipe, then one per
    junction demand, each group sorted by id.  Every node's adjacency lists
    its ``(arc, head)`` pairs in that insertion order, so a junction's
    demand arc comes last.  ``capacities`` holds the pipe capacities (both
    ways) and zeros on the source and demand arcs, which each solve writes.
    ``last_solve`` pairs the capacities of the most recent solve with the
    residual capacities it left, both as tuples.
    """

    index: dict[str, int]
    heads: list[int]
    adjacency: list[list[tuple[int, int]]]
    capacities: list[float]
    pipe_arcs: dict[str, int]
    first_demand_arc: int
    sources: tuple
    junctions: tuple
    last_solve: tuple[tuple, tuple] | None = None

    @classmethod
    def compile(cls, net: Network) -> "_FlowModel":
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
        # undirected pipe: a mutual arc pair with the full capacity each way
        pipe_arcs = {}
        for pipe in sorted(net.pipes, key=lambda p: p.id):
            pipe_arcs[pipe.id] = len(heads)
            add_pair(index[pipe.endpoints[0]], index[pipe.endpoints[1]], pipe.capacity)
        first_demand_arc = len(heads)
        for j in junctions:
            add_pair(index[j.id], t_idx, 0.0)
        return cls(index, heads, adjacency, capacities, pipe_arcs, first_demand_arc,
                   sources, junctions)


def _flow_model(net: Network) -> _FlowModel:
    model = net._flow_model
    if model is None:
        model = _FlowModel.compile(net)
        object.__setattr__(net, "_flow_model", model)
    return model


def _edmonds_karp(caps: list[float], heads: list[int],
                  adjacency: list[list[tuple[int, int]]], s: int, t: int):
    """Max flow in place on ``caps``, where arc ``i ^ 1`` is the residual of arc ``i``.

    BFS scans each adjacency in insertion order, which the model keeps
    sorted, so the augmenting-path choice (and therefore the full
    allocation) is deterministic.  Arcs at capacity 0, such as a failed
    pipe's, are skipped exactly as if they were absent.
    """
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


def allocate_flows(
    net: Network,
    demand_scale: float = 1.0,
    failed_pipes: Iterable[str] = (),
    failed_pumps: Iterable[str] = (),
    demand_factors: Mapping[str, float] | None = None,
    supply_factors: Mapping[str, float] | None = None,
) -> FlowAllocation:
    """Route source outflows to junction demands through intact pipes.

    The routing maximises total delivered flow subject to pipe capacities,
    source outflow limits and per-junction demands; deliveries never exceed
    demand.  ``demand_factors`` / ``supply_factors`` apply per-id multipliers
    on top of the global ``demand_scale``; every factor must be a finite
    number > 0.  Failed pumps are validated but do not constrain the routing:
    the surrogate has no pressure model for them.

    A call whose capacities (pipes after failures, sources and demands
    after scaling) equal those of the network's previous solve reuses that
    solve's residual capacities instead of running the max-flow kernel; the
    returned maps are built fresh either way and are identical to those of
    a new solve.
    """
    if not 0 < demand_scale < inf:
        raise ValidationError(f"demand_scale must be finite and > 0, got {demand_scale!r}")
    failed_pipes, failed_pumps = net.validate_failed_sets(failed_pipes, failed_pumps)
    demand_factors = dict(demand_factors or {})
    supply_factors = dict(supply_factors or {})
    for key in demand_factors:
        net.junction(key)
    for key in supply_factors:
        net.source(key)
    # a factor > 0 keeps the sign of a zero demand or outflow, so two calls
    # with equal capacities also agree on their signed zeros
    if not all(0 < f < inf for f in (*demand_factors.values(), *supply_factors.values())):
        raise ValidationError("demand and supply factors must be finite and > 0")

    model = _flow_model(net)
    caps = model.capacities.copy()
    for pipe_id in failed_pipes:
        ai = model.pipe_arcs[pipe_id]
        caps[ai] = caps[ai ^ 1] = 0.0
    source_caps = {
        src.id: src.outflow * supply_factors.get(src.id, 1.0) for src in model.sources
    }
    demands = {
        j.id: j.design_demand * demand_scale * demand_factors.get(j.id, 1.0)
        for j in model.junctions
    }
    first_demand_arc = model.first_demand_arc
    for k, cap in enumerate(source_caps.values()):
        caps[2 * k] = cap
    for k, demand in enumerate(demands.values()):
        caps[first_demand_arc + 2 * k] = demand

    key = tuple(caps)
    last = model.last_solve
    if last is not None and last[0] == key:
        residual = last[1]
    else:
        s_idx = len(model.index)
        _edmonds_karp(caps, model.heads, model.adjacency, s_idx, s_idx + 1)
        residual = tuple(caps)
        model.last_solve = (key, residual)

    delivered = {
        j_id: demand - residual[first_demand_arc + 2 * k]
        for k, (j_id, demand) in enumerate(demands.items())
    }
    pipe_flows = {
        pipe_id: (residual[ai ^ 1] - residual[ai]) / 2.0
        for pipe_id, ai in model.pipe_arcs.items()
        if pipe_id not in failed_pipes
    }
    source_out = {
        src_id: cap - residual[2 * k] for k, (src_id, cap) in enumerate(source_caps.items())
    }
    return FlowAllocation(delivered, demands, pipe_flows, source_out)


def surrogate_allocation(
    net: Network,
    demand_scale: float = 1.0,
    failed_pipes: Iterable[str] = (),
    failed_pumps: Iterable[str] = (),
    demand_factors: Mapping[str, float] | None = None,
    supply_factors: Mapping[str, float] | None = None,
    dt: float = 3600.0,
) -> HydraulicSeries:
    """Single-timestep series from a max-flow allocation.

    Heads are a declared fiction: ``h = h*`` for nodes receiving any flow
    (or demanding none), ``h = 0`` for unsupplied nodes.
    """
    alloc = allocate_flows(
        net, demand_scale, failed_pipes, failed_pumps, demand_factors, supply_factors
    )
    node_ids = tuple(sorted(j.id for j in net.junctions))
    delivered = np.array([[alloc.delivered[nid] for nid in node_ids]])
    demand = np.array([[alloc.demands[nid] for nid in node_ids]])
    h_star = np.array([[net.junction(nid).required_head for nid in node_ids]])
    supplied = (delivered > 0) | (demand == 0)
    head = np.where(supplied, h_star, 0.0)
    return HydraulicSeries(node_ids, delivered, demand, head, h_star, dt=dt)
