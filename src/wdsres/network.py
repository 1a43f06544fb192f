"""Water distribution network data model and structural queries.

A :class:`Network` is an attributed undirected multigraph: junctions and
sources are nodes, pipes are edges (parallel pipes are allowed, self-loops
are not), pumps are stand-alone powered components.  All quantities are SI
internally (m, m3/s, W); files may declare flows in L/s and are converted
on ingest.  One table, ``_SECTIONS``, gives each section of a network file
its element type, its numeric fields with each one's range and which of
them are flows; ingest (:func:`network_from_dict`), the element
constructors' range checks, :meth:`Network.to_dict` and the id lookups
read it.  An element with several bad fields, built from a file or
directly, is named by the first field in field order that is not a finite
number (a bool is none) or, when every field is one, by the first field
out of its range.  A network's fields are immutable after construction,
but its first flow solve or path search caches a compiled model on it
(:mod:`wdsres.hydraulics`).  Each flow solve rewrites that model's memo of
the last solve, and each node-index query its memo of the last index, so
threads must not solve or query on one network at once.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from math import inf, ulp
from pathlib import Path
from sys import float_info
from typing import Iterable, Mapping

from .errors import ValidationError
from .inputs import (check_ids, ids_of, is_finite_number, is_id, json_rows, read_json,
                     short_digest, write_text)

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
        _check_fields(self)


@dataclass(frozen=True)
class Source:
    """Reservoir or treatment-plant outlet feeding the network."""

    id: str
    total_head: float
    outflow: float

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class Pump:
    id: str
    power: float

    def __post_init__(self):
        _check_fields(self)


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
        endpoints = ids_of(self.endpoints)
        if endpoints is None or len(endpoints) != 2:
            raise ValidationError(f"pipe {self.id!r}: endpoints must name two nodes")
        object.__setattr__(self, "endpoints", endpoints)
        if self.endpoints[0] == self.endpoints[1]:
            raise ValidationError(f"pipe {self.id!r}: self-loops are not allowed")
        _check_fields(self)


def pipe_resistance(pipe: Pipe) -> float:
    return pipe.friction_factor * pipe.length / pipe.diameter


# network file section -> (element type, its numeric fields in field order,
# each with its range rule, and the flows among them, which a file may give
# in L/s).  Every element's first field is its id; a pipe's endpoints come
# between its id and its numbers.
_SECTIONS = {
    "junctions": (Junction, (("elevation", ""), ("design_demand", ">= 0"),
                             ("required_head", ">= 0")), {"design_demand"}),
    "sources": (Source, (("total_head", "> 0"), ("outflow", ">= 0")), {"outflow"}),
    "pumps": (Pump, (("power", ">= 0"),), set()),
    "pipes": (Pipe, (("length", "> 0"), ("diameter", "> 0"), ("friction_factor", "> 0"),
                     ("repair_rate", ">= 0"), ("capacity", ">= 0")), {"capacity"}),
}

# the least float each range rule allows: a float is in range when
# least <= value < inf, and finite then too
_LEAST = {"": -float_info.max, ">= 0": 0.0, "> 0": ulp(0.0)}

# element type -> its numeric fields as (name, rule, least)
_CHECKS = {kind: tuple((name, rule, _LEAST[rule]) for name, rule in numbers)
           for kind, numbers, _ in _SECTIONS.values()}


def _check_fields(element) -> None:
    """Check an element's numeric fields against their rules in ``_SECTIONS``,
    naming the first that is not a finite number, else the first out of range;
    then its id, so that a file row and a direct build name the same field."""
    checks = _CHECKS[type(element)]
    for name, rule, least in checks:
        value = getattr(element, name)
        # a float in range is the common case, and every row a file gives
        if type(value) is float and least <= value < inf:
            continue
        if is_finite_number(value) and least <= value:
            continue  # an int, or another real type, in range
        where = f"{type(element).__name__.lower()} {element.id!r}"
        for other, *_ in checks:
            if not is_finite_number(getattr(element, other)):
                raise ValidationError(f"{where}: field {other!r} must be a finite number")
        raise ValidationError(f"{where}: {name} must be {rule}")
    if not is_id(element.id):
        raise ValidationError(f"{type(element).__name__.lower()} {element.id!r}: "
                              "id must be a string")


def _lookup(by_id: dict, element_id: str, kind: str):
    try:
        return by_id[element_id]
    except (KeyError, TypeError):  # a TypeError for an unhashable id
        raise ValidationError(f"unknown {kind} {element_id!r}") from None


@dataclass(frozen=True)
class Network:
    """Immutable network of junctions, sources, pumps and pipes."""

    junctions: tuple[Junction, ...]
    sources: tuple[Source, ...]
    pumps: tuple[Pump, ...]
    pipes: tuple[Pipe, ...]

    # section -> {id: element}
    _by_id: dict = field(init=False, repr=False, compare=False, default=None)
    _adjacency: dict = field(init=False, repr=False, compare=False, default=None)
    # the network's one compiled model (wdsres.hydraulics._Model), built on
    # the first flow solve or path search
    _model: object = field(init=False, repr=False, compare=False, default=None)
    # every junction's demand weight divides by this, so it is summed once
    _total_design_demand: float = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        for section in _SECTIONS:
            object.__setattr__(self, section, tuple(getattr(self, section)))
        if not self.sources:
            raise ValidationError("network needs at least one source")
        if not self.junctions:
            raise ValidationError("network needs at least one junction")

        node_ids: set[str] = set()
        for node in (*self.junctions, *self.sources):
            if node.id in node_ids:
                raise ValidationError(f"duplicate node id {node.id!r}")
            node_ids.add(node.id)

        by_id = {section: {e.id: e for e in getattr(self, section)} for section in _SECTIONS}
        if len(by_id["pumps"]) != len(self.pumps):
            raise ValidationError("duplicate pump id")
        if len(by_id["pipes"]) != len(self.pipes):
            raise ValidationError("duplicate pipe id")
        # pipes and pumps share the failable-component namespace
        overlap = by_id["pipes"].keys() & by_id["pumps"].keys()
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
        # sorted by pipe id, the order incident_pipes() lists them in
        adjacency = {nid: tuple(sorted(pairs)) for nid, pairs in adjacency.items()}

        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_adjacency", adjacency)
        object.__setattr__(self, "_total_design_demand",
                           sum(j.design_demand for j in self.junctions))

    # -- counts ---------------------------------------------------------
    @property
    def n_junctions(self) -> int:
        return len(self.junctions)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    # -- lookups --------------------------------------------------------
    def junction(self, node_id: str) -> Junction:
        return _lookup(self._by_id["junctions"], node_id, "junction")

    def source(self, node_id: str) -> Source:
        return _lookup(self._by_id["sources"], node_id, "source")

    def pump(self, pump_id: str) -> Pump:
        return _lookup(self._by_id["pumps"], pump_id, "pump")

    def pipe(self, pipe_id: str) -> Pipe:
        return _lookup(self._by_id["pipes"], pipe_id, "pipe")

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
        return is_id(node_id) and node_id in self._adjacency

    def total_design_demand(self) -> float:
        return self._total_design_demand

    def incident_pipes(self, node_id: str) -> tuple[str, ...]:
        """Ids of pipes incident to a node, ascending; parallels included."""
        if not self.is_node(node_id):
            raise ValidationError(f"unknown node {node_id!r}")
        return tuple(pid for pid, _ in self._adjacency[node_id])

    # -- structural queries ----------------------------------------------
    def node_degree(self, node_id: str) -> int:
        """Number of incident pipes; each parallel pipe counts once."""
        return len(self.incident_pipes(node_id))

    def validate_failed_sets(self, failed_pipes: Iterable[str] = ()) -> frozenset[str]:
        """The failure set as a frozenset, once it is a collection of known pipe ids."""
        failed_pipes = frozenset(check_ids(failed_pipes, "failed pipes"))
        # difference() with a dict looks each failed id up instead of copying the keys
        unknown = failed_pipes.difference(self._by_id["pipes"])
        if unknown:
            raise ValidationError(f"unknown pipe ids in failure set: {sorted(unknown)}")
        return failed_pipes

    def reachable_from_sources(self, failed_pipes: Iterable[str] = ()) -> frozenset[str]:
        """All nodes connected to at least one source via non-failed pipes."""
        failed = self.validate_failed_sets(failed_pipes)
        seen = set(self._by_id["sources"])
        queue = deque(sorted(seen))
        while queue:
            node = queue.popleft()
            for pipe_id, other in self._adjacency[node]:
                if pipe_id in failed or other in seen:
                    continue
                seen.add(other)
                queue.append(other)
        return frozenset(seen)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical dict form: SI units, elements sorted by id, keys in field order."""
        data: dict = {"units": "m3s"}
        for section, (kind, numbers, _) in _SECTIONS.items():
            rows = []
            for element in sorted(getattr(self, section), key=lambda e: e.id):
                row = {"id": element.id}
                if kind is Pipe:
                    row["endpoints"] = list(element.endpoints)
                for name, _ in numbers:
                    row[name] = getattr(element, name)
                rows.append(row)
            data[section] = rows
        return data

    def digest(self) -> str:
        """Short stable identifier of the network contents."""
        return short_digest(json.dumps(self.to_dict(), sort_keys=True).encode())


def _require(obj: Mapping, key: str, context: str):
    if key not in obj:
        raise ValidationError(f"{context}: missing field {key!r}")
    return obj[key]


def network_from_dict(data: Mapping) -> Network:
    """Build a validated :class:`Network` from the documented JSON layout.

    The document's ``units`` key ("m3s", the default, or "lps") is the one
    source of its flow units; L/s flows are converted to m3/s on ingest.
    """
    if not isinstance(data, Mapping):
        raise ValidationError("network document must be a JSON object")
    units = data.get("units", "m3s")
    if units not in FLOW_UNITS:
        raise ValidationError(f"unknown flow units {units!r}; expected one of {FLOW_UNITS}")
    scale = M3S_PER_LPS if units == "lps" else 1.0

    return Network(**{
        section: _elements(section, json_rows(data, section), scale) for section in _SECTIONS
    })


def _elements(section: str, rows: list[Mapping], scale: float) -> tuple:
    """The elements of one file section.  A pipe's endpoints are checked
    before its id; every other field is checked in field order.  The checks
    run inline, in one pass over the row, and the row's name is built only
    for an error.  A numeric id or endpoint becomes its string; the element
    refuses any other value that is not a string."""
    kind, numbers, flows = _SECTIONS[section]
    fields = tuple((name, scale if name in flows else 1.0) for name, _ in numbers)
    missing = object()
    elements = []
    for row in rows:
        endpoints = ()  # a pipe's one non-numeric field after its id
        if kind is Pipe:
            pair = row.get("endpoints", missing)
            if pair is missing:
                raise _row_error(kind, row, "missing field 'endpoints'")
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise _row_error(kind, row, "endpoints must be a pair of node ids")
            endpoints = ((_id_text(pair[0]), _id_text(pair[1])),)
        element_id = row.get("id", missing)
        if element_id is missing:
            raise _row_error(kind, row, "missing field 'id'")
        values = [_id_text(element_id), *endpoints]
        for name, factor in fields:
            value = row.get(name, missing)
            # a float from JSON is the common case; an int becomes a float
            if type(value) is not float or not -inf < value < inf:
                if value is missing:
                    raise _row_error(kind, row, f"missing field {name!r}")
                if not is_finite_number(value):
                    raise _row_error(kind, row, f"field {name!r} must be a finite number")
                value = float(value)
            values.append(value * factor)
        elements.append(kind(*values))
    return tuple(elements)


def _id_text(value):
    """A JSON number as its string (``5`` is ``"5"``); any other value as it is."""
    return str(value) if type(value) in (int, float) else value


def _row_error(kind: type, row: Mapping, problem: str) -> ValidationError:
    """The error for a file row that failed a check, named by its kind and id."""
    return ValidationError(f"{kind.__name__.lower()} {row.get('id', '?')!r}: {problem}")


def load_network(path: str | Path) -> Network:
    """Load and validate a network JSON file."""
    return network_from_dict(read_json(path, "network"))


def save_network(net: Network, path: str | Path) -> None:
    """Write the canonical JSON form (stable ordering, SI units)."""
    write_text(path, json.dumps(net.to_dict(), indent=2) + "\n")
