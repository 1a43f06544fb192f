"""Critical-event scenarios and seeded Monte Carlo metric evaluation.

A scenario is a list of timed events over a horizon of timesteps.  An
event is active on steps ``onset <= t < repair``; repair is instant
restoration.  Randomised events (currently: failing a drawn number of
pipes) are resolved per replicate from ``seed ^ replicate_index``, so each
replicate depends only on its own index.  Replicates run serially, in
order, in the calling thread.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass, field, replace
from itertools import combinations, islice
from math import comb
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .hydraulics import HydraulicSeries, classify_states, surrogate_allocation
from .inputs import is_finite_number, json_rows, read_json
from .network import Network
from .performance import hashimoto_recovery, zhuang_availability

EVENT_KINDS = ("pipe_failure", "pump_failure", "demand_scale", "supply_scale")

_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _is_number(value, kind: type) -> bool:
    # bool is an int subclass, but True is no count or factor
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class Event:
    kind: str
    onset: int
    repair: int
    ids: tuple[str, ...] = ()
    count: int | None = None
    factor: float | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValidationError(f"unknown event kind {self.kind!r}")
        for name in ("onset", "repair"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral):
                raise ValidationError(f"event {name} must be an integer, got {value!r}")
        if self.onset < 0:
            raise ValidationError("event onset must be >= 0")
        if self.repair <= self.onset:
            raise ValidationError("event repair must come after onset")
        # a bare string is iterable too, but "P1" is one id, not "P" and "1"
        if not (isinstance(self.ids, (list, tuple))
                and all(isinstance(i, str) for i in self.ids)):
            raise ValidationError(f"event ids must be a list of id strings, got {self.ids!r}")
        object.__setattr__(self, "ids", tuple(self.ids))
        if self.count is not None and not _is_number(self.count, numbers.Integral):
            raise ValidationError(f"{self.kind} count must be an integer, got {self.count!r}")
        if self.kind in ("demand_scale", "supply_scale"):
            if not (is_finite_number(self.factor) and self.factor > 0):
                raise ValidationError(
                    f"{self.kind} needs a finite factor > 0, got {self.factor!r}"
                )
            if self.count is not None:
                raise ValidationError(f"{self.kind} does not take a count")
        else:
            if self.factor is not None:
                raise ValidationError(f"{self.kind} does not take a factor")
        if self.kind == "pipe_failure":
            if (self.count is None) == (not self.ids):
                raise ValidationError("pipe_failure needs ids or a random count, not both")
            if self.count is not None and self.count < 1:
                raise ValidationError("pipe_failure count must be >= 1")
        elif self.kind == "pump_failure":
            if self.count is not None:
                raise ValidationError("pump_failure takes explicit ids only")
            if not self.ids:
                raise ValidationError("pump_failure needs ids")

    @property
    def is_random(self) -> bool:
        return self.count is not None

    def active_at(self, t: int) -> bool:
        return self.onset <= t < self.repair

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind, "onset": self.onset, "repair": self.repair}
        if self.ids:
            data["ids"] = list(self.ids)
        if self.count is not None:
            data["count"] = self.count
        if self.factor is not None:
            data["factor"] = self.factor
        return data


@dataclass(frozen=True)
class ScenarioSpec:
    events: tuple[Event, ...] = ()
    seed: int = 0
    horizon: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not _is_number(self.seed, numbers.Integral):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        if self.horizon is not None:
            if not _is_number(self.horizon, numbers.Integral):
                raise ValidationError(f"horizon must be an integer, got {self.horizon!r}")
            if self.horizon < 1:
                raise ValidationError("horizon must be >= 1")

    @property
    def has_random_events(self) -> bool:
        return any(e.is_random for e in self.events)

    def to_dict(self) -> dict:
        data: dict = {"events": [e.to_dict() for e in self.events], "seed": self.seed}
        if self.horizon is not None:
            data["horizon"] = self.horizon
        return data


def scenario_from_dict(data: Mapping) -> ScenarioSpec:
    if not isinstance(data, Mapping):
        raise ValidationError("scenario document must be a JSON object")
    events = tuple(
        Event(
            kind=row.get("kind", ""),
            onset=row.get("onset", 0),
            repair=row.get("repair", 0),
            ids=row.get("ids", ()),
            count=row.get("count"),
            factor=row.get("factor"),
        )
        for row in json_rows(data, "events")
    )
    return ScenarioSpec(events, seed=data.get("seed", 0), horizon=data.get("horizon"))


def load_scenario(path: str | Path) -> ScenarioSpec:
    return scenario_from_dict(read_json(path, "scenario"))


def _validate_event_ids(net: Network, event: Event) -> None:
    if event.kind == "pipe_failure":
        for pid in event.ids:
            net.pipe(pid)
    elif event.kind == "pump_failure":
        for pid in event.ids:
            net.pump(pid)
    elif event.kind == "demand_scale":
        for nid in event.ids:
            net.junction(nid)
    elif event.kind == "supply_scale":
        for sid in event.ids:
            net.source(sid)


def resolve_events(net: Network, spec: ScenarioSpec, rng: random.Random) -> tuple[Event, ...]:
    """Replace random events with concrete ones and validate all ids."""
    resolved = []
    for event in spec.events:
        if event.is_random:
            pool = sorted(net.pipe_ids)
            if event.count > len(pool):
                raise ValidationError(
                    f"cannot fail {event.count} of {len(pool)} pipes"
                )
            drawn = tuple(sorted(rng.sample(pool, event.count)))
            event = Event(event.kind, event.onset, event.repair, ids=drawn)
        _validate_event_ids(net, event)
        resolved.append(event)
    return tuple(resolved)


def _step_state(events: tuple[Event, ...], net: Network, t: int):
    failed_pipes: set[str] = set()
    failed_pumps: set[str] = set()
    demand_factors: dict[str, float] = {}
    supply_factors: dict[str, float] = {}
    for event in events:
        if not event.active_at(t):
            continue
        if event.kind == "pipe_failure":
            failed_pipes.update(event.ids)
        elif event.kind == "pump_failure":
            failed_pumps.update(event.ids)
        elif event.kind == "demand_scale":
            targets = event.ids or net.junction_ids
            for nid in targets:
                demand_factors[nid] = demand_factors.get(nid, 1.0) * event.factor
        elif event.kind == "supply_scale":
            targets = event.ids or net.source_ids
            for sid in targets:
                supply_factors[sid] = supply_factors.get(sid, 1.0) * event.factor
    return failed_pipes, failed_pumps, demand_factors, supply_factors


def apply_scenario(
    net: Network,
    spec: ScenarioSpec,
    horizon: int | None = None,
    dt: float = 3600.0,
) -> HydraulicSeries:
    """Allocate flows per timestep under the scenario's event timeline.

    Concurrent scaling events on the same target multiply.  Random events
    are resolved once from the scenario seed and stay fixed over the
    horizon.
    """
    horizon = horizon if horizon is not None else spec.horizon
    if horizon is None or horizon < 1:
        raise ValidationError("a positive horizon is required")
    events = resolve_events(net, spec, random.Random(spec.seed))
    steps = []
    for t in range(horizon):
        failed_pipes, failed_pumps, demand_factors, supply_factors = _step_state(
            events, net, t
        )
        steps.append(
            surrogate_allocation(
                net,
                failed_pipes=failed_pipes,
                failed_pumps=failed_pumps,
                demand_factors=demand_factors,
                supply_factors=supply_factors,
                dt=dt,
            )
        )
    node_ids = steps[0].node_ids
    return HydraulicSeries(
        node_ids,
        np.vstack([s.delivered for s in steps]),
        np.vstack([s.demand for s in steps]),
        np.vstack([s.head for s in steps]),
        np.vstack([s.required_head for s in steps]),
        dt=dt,
    )


def _metric_zhuang(net: Network, series: HydraulicSeries, **_: object) -> float:
    return zhuang_availability(series).value


def _metric_hashimoto(
    net: Network, series: HydraulicSeries, threshold: float = 1.0, **_: object
) -> float:
    return hashimoto_recovery(classify_states(series, threshold)).value


MC_METRICS: dict[str, Callable[..., float]] = {
    "zhuang": _metric_zhuang,
    "hashimoto": _metric_hashimoto,
}


@dataclass(frozen=True)
class MonteCarloResult:
    metric: str
    values: tuple[float, ...]
    seed: int
    summary: Mapping[str, float] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValidationError("a Monte Carlo result needs at least one replicate")
        if self.summary is None:
            object.__setattr__(self, "summary", summarize(self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "n": self.n,
            "seed": self.seed,
            "summary": dict(self.summary),
            "values": list(self.values),
        }


def summarize(values: tuple[float, ...]) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    summary = {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
    for q in _QUANTILES:
        summary[f"p{int(q * 100):02d}"] = float(np.quantile(arr, q))
    return summary


def monte_carlo(
    net: Network,
    spec: ScenarioSpec,
    n: int,
    metric: str,
    horizon: int | None = None,
    workers: int = 1,
    exhaustive: bool = False,
    **metric_kwargs,
) -> MonteCarloResult:
    """Evaluate a named metric over n scenario replicates.

    Replicate r runs the scenario with seed ``spec.seed ^ r``.  In
    exhaustive mode the scenario must contain exactly one random event; the
    r-th replicate then takes the r-th pipe combination in sorted order
    instead of sampling, which turns the run into an exact enumeration.
    Replicates run serially in order; ``workers`` is validated and accepted
    for compatibility but does not start threads or processes.
    """
    if n < 1:
        raise ValidationError("replicate count must be >= 1")
    if metric not in MC_METRICS:
        raise ValidationError(
            f"unknown metric {metric!r}; choose from {sorted(MC_METRICS)}"
        )
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    metric_fn = MC_METRICS[metric]

    combos: list[tuple[str, ...]] | None = None
    if exhaustive:
        random_events = [e for e in spec.events if e.is_random]
        if len(random_events) != 1:
            raise ValidationError("exhaustive mode needs exactly one random event")
        count = random_events[0].count
        pool = sorted(net.pipe_ids)
        if n > comb(len(pool), count):
            raise ValidationError(
                f"exhaustive mode: only {comb(len(pool), count)} failure sets exist"
            )
        combos = list(islice(combinations(pool, count), n))

    def replicate(r: int) -> float:
        if combos is not None:
            events = tuple(
                Event(e.kind, e.onset, e.repair, ids=combos[r]) if e.is_random else e
                for e in spec.events
            )
            rep_spec = ScenarioSpec(events, seed=spec.seed, horizon=spec.horizon)
        else:
            rep_spec = replace(spec, seed=spec.seed ^ r)
        series = apply_scenario(net, rep_spec, horizon=horizon)
        return metric_fn(net, series, **metric_kwargs)

    values = tuple(replicate(r) for r in range(n))
    return MonteCarloResult(metric, values, spec.seed)
