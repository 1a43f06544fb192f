"""Water distribution network data model and structural queries.

A :class:`Network` is an attributed undirected multigraph: junctions and
sources are nodes, pipes are edges (parallel pipes are allowed, self-loops
are not), pumps are stand-alone powered components.  All quantities are SI
internally (m, m3/s, W); files may declare flows in L/s and are converted
on ingest.  Networks are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ValidationError
from .inputs import is_finite_number, json_rows, read_json

M3S_PER_LPS = 1e-3

FLOW_UNITS = ("m3s", "lps")


@dataclass(frozen=True)
class Junction:
    """Demand node with a design demand and a required head."""

    id: str
    elevation: float
    design_demand: float
    required_head: float

    def __post_init__(self):
        if self.design_demand < 0:
            raise ValidationError(f"junction {self.id!r}: design_demand must be >= 0")
        if self.required_head < 0:
            raise ValidationError(f"junction {self.id!r}: required_head must be >= 0")


@dataclass(frozen=True)
class Source:
    """Reservoir or treatment-plant outlet feeding the network."""

    id: str
    total_head: float
    outflow: float

    def __post_init__(self):
        if self.total_head <= 0:
            raise ValidationError(f"source {self.id!r}: total_head must be > 0")
        if self.outflow < 0:
            raise ValidationError(f"source {self.id!r}: outflow must be >= 0")


@dataclass(frozen=True)
class Pump:
    id: str
    power: float

    def __post_init__(self):
        if self.power < 0:
            raise ValidationError(f"pump {self.id!r}: power must be >= 0")


@dataclass(frozen=True)
class Pipe:
    """Undirected edge between two nodes.

    ``capacity`` is the maximum flow the surrogate allocator will route
    through the pipe; no head-loss law is attached to it.
    """

    id: str
    endpoints: tuple[str, str]
    length: float
    diameter: float
    friction_factor: float
    repair_rate: float
    capacity: float

    def __post_init__(self):
        if len(self.endpoints) != 2:
            raise ValidationError(f"pipe {self.id!r}: endpoints must name two nodes")
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        if self.endpoints[0] == self.endpoints[1]:
            raise ValidationError(f"pipe {self.id!r}: self-loops are not allowed")
        if self.length <= 0:
            raise ValidationError(f"pipe {self.id!r}: length must be > 0")
        if self.diameter <= 0:
            raise ValidationError(f"pipe {self.id!r}: diameter must be > 0")
        if self.friction_factor <= 0:
            raise ValidationError(f"pipe {self.id!r}: friction_factor must be > 0")
        if self.repair_rate < 0:
            raise ValidationError(f"pipe {self.id!r}: repair_rate must be >= 0")
        if self.capacity < 0:
            raise ValidationError(f"pipe {self.id!r}: capacity must be >= 0")

    def other_end(self, node_id: str) -> str:
        a, b = self.endpoints
        return b if node_id == a else a


@dataclass(frozen=True)
class Network:
    """Immutable network of junctions, sources, pumps and pipes."""

    junctions: tuple[Junction, ...]
    sources: tuple[Source, ...]
    pumps: tuple[Pump, ...]
    pipes: tuple[Pipe, ...]

    _junction_map: dict = field(init=False, repr=False, compare=False, default=None)
    _source_map: dict = field(init=False, repr=False, compare=False, default=None)
    _pump_map: dict = field(init=False, repr=False, compare=False, default=None)
    _pipe_map: dict = field(init=False, repr=False, compare=False, default=None)
    _adjacency: dict = field(init=False, repr=False, compare=False, default=None)
    # flow graph arrays, compiled by wdsres.hydraulics on the first flow solve
    _flow_model: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "junctions", tuple(self.junctions))
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "pumps", tuple(self.pumps))
        object.__setattr__(self, "pipes", tuple(self.pipes))
        if not self.sources:
            raise ValidationError("network needs at least one source")
        if not self.junctions:
            raise ValidationError("network needs at least one junction")

        node_ids: set[str] = set()
        for node in (*self.junctions, *self.sources):
            if node.id in node_ids:
                raise ValidationError(f"duplicate node id {node.id!r}")
            node_ids.add(node.id)

        pump_ids = {p.id for p in self.pumps}
        if len(pump_ids) != len(self.pumps):
            raise ValidationError("duplicate pump id")
        pipe_ids = {p.id for p in self.pipes}
        if len(pipe_ids) != len(self.pipes):
            raise ValidationError("duplicate pipe id")
        # pipes and pumps share the failable-component namespace
        overlap = pipe_ids & pump_ids
        if overlap:
            raise ValidationError(f"pipe and pump ids must not collide: {sorted(overlap)}")

        adjacency: dict[str, list[tuple[str, str]]] = {nid: [] for nid in sorted(node_ids)}
        for pipe in self.pipes:
            for end in pipe.endpoints:
                if end not in node_ids:
                    raise ValidationError(
                        f"pipe {pipe.id!r} references unknown node {end!r}"
                    )
            a, b = pipe.endpoints
            adjacency[a].append((pipe.id, b))
            adjacency[b].append((pipe.id, a))
        for nid in adjacency:
            adjacency[nid].sort()

        object.__setattr__(self, "_junction_map", {j.id: j for j in self.junctions})
        object.__setattr__(self, "_source_map", {s.id: s for s in self.sources})
        object.__setattr__(self, "_pump_map", {p.id: p for p in self.pumps})
        object.__setattr__(self, "_pipe_map", {p.id: p for p in self.pipes})
        object.__setattr__(self, "_adjacency", adjacency)

    # -- counts ---------------------------------------------------------
    @property
    def n_junctions(self) -> int:
        return len(self.junctions)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_pumps(self) -> int:
        return len(self.pumps)

    # -- lookups --------------------------------------------------------
    def junction(self, node_id: str) -> Junction:
        try:
            return self._junction_map[node_id]
        except KeyError:
            raise ValidationError(f"unknown junction {node_id!r}") from None

    def source(self, node_id: str) -> Source:
        try:
            return self._source_map[node_id]
        except KeyError:
            raise ValidationError(f"unknown source {node_id!r}") from None

    def pump(self, pump_id: str) -> Pump:
        try:
            return self._pump_map[pump_id]
        except KeyError:
            raise ValidationError(f"unknown pump {pump_id!r}") from None

    def pipe(self, pipe_id: str) -> Pipe:
        try:
            return self._pipe_map[pipe_id]
        except KeyError:
            raise ValidationError(f"unknown pipe {pipe_id!r}") from None

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._adjacency)

    @property
    def junction_ids(self) -> tuple[str, ...]:
        return tuple(j.id for j in self.junctions)

    @property
    def source_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.sources)

    @property
    def pipe_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.pipes)

    @property
    def pump_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.pumps)

    def is_node(self, node_id: str) -> bool:
        return node_id in self._adjacency

    def total_design_demand(self) -> float:
        return sum(j.design_demand for j in self.junctions)

    def incident_pipes(self, node_id: str) -> tuple[str, ...]:
        """Ids of pipes incident to a node, ascending; parallels included."""
        if node_id not in self._adjacency:
            raise ValidationError(f"unknown node {node_id!r}")
        return tuple(pid for pid, _ in self._adjacency[node_id])

    def neighbors(self, node_id: str) -> tuple[tuple[str, str], ...]:
        """(pipe_id, other_node) pairs for a node, sorted by pipe id."""
        if node_id not in self._adjacency:
            raise ValidationError(f"unknown node {node_id!r}")
        return tuple(self._adjacency[node_id])

    # -- structural queries ----------------------------------------------
    def node_degree(self, node_id: str) -> int:
        """Number of incident pipes; each parallel pipe counts once."""
        return len(self.incident_pipes(node_id))

    def validate_failed_sets(
        self,
        failed_pipes: Iterable[str] = (),
        failed_pumps: Iterable[str] = (),
    ) -> tuple[frozenset[str], frozenset[str]]:
        failed_pipes = frozenset(failed_pipes)
        failed_pumps = frozenset(failed_pumps)
        # difference() with a dict looks each failed id up instead of copying the keys
        unknown = failed_pipes.difference(self._pipe_map)
        if unknown:
            raise ValidationError(f"unknown pipe ids in failure set: {sorted(unknown)}")
        unknown = failed_pumps.difference(self._pump_map)
        if unknown:
            raise ValidationError(f"unknown pump ids in failure set: {sorted(unknown)}")
        return failed_pipes, failed_pumps

    def reachable_from_sources(self, failed_pipes: Iterable[str] = ()) -> frozenset[str]:
        """All nodes connected to at least one source via non-failed pipes."""
        failed, _ = self.validate_failed_sets(failed_pipes)
        seen = set(self._source_map)
        queue = deque(sorted(seen))
        while queue:
            node = queue.popleft()
            for pipe_id, other in self._adjacency[node]:
                if pipe_id in failed or other in seen:
                    continue
                seen.add(other)
                queue.append(other)
        return frozenset(seen)

    def is_connected_to_source(
        self, node_id: str, failed_pipes: Iterable[str] = ()
    ) -> bool:
        """True iff a path of intact pipes links ``node_id`` to any source."""
        if node_id not in self._adjacency:
            raise ValidationError(f"unknown node {node_id!r}")
        return node_id in self.reachable_from_sources(failed_pipes)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical dict form: SI units, elements sorted by id."""
        return {
            "units": "m3s",
            "junctions": [
                {
                    "id": j.id,
                    "elevation": j.elevation,
                    "design_demand": j.design_demand,
                    "required_head": j.required_head,
                }
                for j in sorted(self.junctions, key=lambda j: j.id)
            ],
            "sources": [
                {"id": s.id, "total_head": s.total_head, "outflow": s.outflow}
                for s in sorted(self.sources, key=lambda s: s.id)
            ],
            "pumps": [
                {"id": p.id, "power": p.power}
                for p in sorted(self.pumps, key=lambda p: p.id)
            ],
            "pipes": [
                {
                    "id": p.id,
                    "endpoints": list(p.endpoints),
                    "length": p.length,
                    "diameter": p.diameter,
                    "friction_factor": p.friction_factor,
                    "repair_rate": p.repair_rate,
                    "capacity": p.capacity,
                }
                for p in sorted(self.pipes, key=lambda p: p.id)
            ],
        }

    def digest(self) -> str:
        """Short stable identifier of the network contents."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _require(obj: Mapping, key: str, context: str):
    if key not in obj:
        raise ValidationError(f"{context}: missing field {key!r}")
    return obj[key]


def _num(obj: Mapping, key: str, context: str) -> float:
    value = _require(obj, key, context)
    if not is_finite_number(value):
        raise ValidationError(f"{context}: field {key!r} must be a finite number")
    return float(value)


def network_from_dict(data: Mapping, units: str | None = None) -> Network:
    """Build a validated :class:`Network` from the documented JSON layout.

    ``units`` overrides the file-level ``units`` key ("m3s" or "lps");
    L/s flows are converted to m3/s on ingest.
    """
    if not isinstance(data, Mapping):
        raise ValidationError("network document must be a JSON object")
    units = units or data.get("units", "m3s")
    if units not in FLOW_UNITS:
        raise ValidationError(f"unknown flow units {units!r}; expected one of {FLOW_UNITS}")
    scale = M3S_PER_LPS if units == "lps" else 1.0

    junctions = []
    for row in json_rows(data, "junctions"):
        context = f"junction {row.get('id', '?')!r}"
        junctions.append(
            Junction(
                id=str(_require(row, "id", context)),
                elevation=_num(row, "elevation", context),
                design_demand=_num(row, "design_demand", context) * scale,
                required_head=_num(row, "required_head", context),
            )
        )
    sources = []
    for row in json_rows(data, "sources"):
        context = f"source {row.get('id', '?')!r}"
        sources.append(
            Source(
                id=str(_require(row, "id", context)),
                total_head=_num(row, "total_head", context),
                outflow=_num(row, "outflow", context) * scale,
            )
        )
    pumps = []
    for row in json_rows(data, "pumps"):
        context = f"pump {row.get('id', '?')!r}"
        pumps.append(Pump(id=str(_require(row, "id", context)), power=_num(row, "power", context)))
    pipes = []
    for row in json_rows(data, "pipes"):
        context = f"pipe {row.get('id', '?')!r}"
        endpoints = _require(row, "endpoints", context)
        if not isinstance(endpoints, (list, tuple)) or len(endpoints) != 2:
            raise ValidationError(f"{context}: endpoints must be a pair of node ids")
        pipes.append(
            Pipe(
                id=str(_require(row, "id", context)),
                endpoints=(str(endpoints[0]), str(endpoints[1])),
                length=_num(row, "length", context),
                diameter=_num(row, "diameter", context),
                friction_factor=_num(row, "friction_factor", context),
                repair_rate=_num(row, "repair_rate", context),
                capacity=_num(row, "capacity", context) * scale,
            )
        )
    return Network(tuple(junctions), tuple(sources), tuple(pumps), tuple(pipes))


def load_network(path: str | Path, units: str | None = None) -> Network:
    """Load and validate a network JSON file."""
    return network_from_dict(read_json(path, "network"), units=units)


def save_network(net: Network, path: str | Path) -> None:
    """Write the canonical JSON form (stable ordering, SI units)."""
    Path(path).write_text(json.dumps(net.to_dict(), indent=2) + "\n")
