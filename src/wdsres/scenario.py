"""Critical-event scenarios and seeded Monte Carlo metric evaluation.

A scenario is a list of timed events over a horizon of timesteps.  An
event is active on steps ``onset <= t < repair``; repair is instant
restoration.  Randomised events (currently: failing a drawn number of
pipes) are resolved per replicate from ``seed ^ replicate_index``, so each
replicate depends only on its own index.  Replicates run serially, in
order, in the calling thread.

One table, ``_KINDS``, declares the event kinds: the network lookup that
checks each id an event names, and the ids a scaling kind scales when it
names none.  The kind check and the factor rule in ``Event``, the id check
in :func:`resolve_events` and the scaling defaults in :func:`_step_state`
read it.  The rules of the two failure kinds stay in ``Event`` by name (a
pipe failure takes ids or a random count, a pump failure explicit ids
only), and :func:`_step_state` names the kinds whose events change a step:
``"pipe_failure"`` and the two scaling kinds of its factor maps.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations, islice
from math import comb, floor
from pathlib import Path
from typing import Callable, Mapping

# numpy is imported inside the functions that build arrays, so importing
# wdsres does not load it

from .errors import ValidationError
from .hydraulics import HydraulicSeries, _check_threshold, classify_states, surrogate_allocation
from .inputs import check_integer, is_finite_number, json_rows, read_json
from .network import Network, _require
from .performance import hashimoto_recovery, zhuang_availability

# kind -> (the lookup of each id it names, the ids it scales when it names
# none, or None for a failure kind)
_KINDS = {
    "pipe_failure": (Network.pipe, None),
    "pump_failure": (Network.pump, None),
    "demand_scale": (Network.junction, lambda net: net.junction_ids),
    "supply_scale": (Network.source, lambda net: net.source_ids),
}
EVENT_KINDS = tuple(_KINDS)

_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _failure_pool(net: Network) -> list[str]:
    """The pipes that random failures draw from and exhaustive mode walks, sorted."""
    return sorted(net.pipe_ids)


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
        check_integer(self.onset, "event onset")
        check_integer(self.repair, "event repair")
        if self.onset < 0:
            raise ValidationError("event onset must be >= 0")
        if self.repair <= self.onset:
            raise ValidationError("event repair must come after onset")
        # a bare string is iterable too, but "P1" is one id, not "P" and "1"
        if not (isinstance(self.ids, (list, tuple))
                and all(isinstance(i, str) for i in self.ids)):
            raise ValidationError(f"event ids must be a list of id strings, got {self.ids!r}")
        object.__setattr__(self, "ids", tuple(self.ids))
        # a scaling event would apply its factor once per listing
        if len(set(self.ids)) < len(self.ids):
            repeated = sorted(i for i, n in Counter(self.ids).items() if n > 1)
            raise ValidationError(f"{self.kind} lists ids more than once: {repeated}")
        if self.count is not None:
            check_integer(self.count, f"{self.kind} count")
        if _KINDS[self.kind][1] is not None:  # a scaling kind
            if not (is_finite_number(self.factor) and self.factor > 0):
                raise ValidationError(f"{self.kind} needs a finite factor > 0, "
                                      f"got {self.factor!r}")
            if self.count is not None:
                raise ValidationError(f"{self.kind} does not take a count")
        elif self.factor is not None:
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
        check_integer(self.seed, "seed")
        if self.horizon is not None:
            check_integer(self.horizon, "horizon", 1)

    def to_dict(self) -> dict:
        data: dict = {"events": [e.to_dict() for e in self.events], "seed": self.seed}
        if self.horizon is not None:
            data["horizon"] = self.horizon
        return data


def scenario_from_dict(data: Mapping) -> ScenarioSpec:
    if not isinstance(data, Mapping):
        raise ValidationError("scenario document must be a JSON object")
    # keyword arguments are evaluated in order: kind, onset, then repair
    events = tuple(
        Event(
            kind=_require(row, "kind", f"events[{i}]"),
            onset=_require(row, "onset", f"events[{i}]"),
            repair=_require(row, "repair", f"events[{i}]"),
            ids=row.get("ids", ()),
            count=row.get("count"),
            factor=row.get("factor"),
        )
        for i, row in enumerate(json_rows(data, "events"))
    )
    return ScenarioSpec(events, seed=data.get("seed", 0), horizon=data.get("horizon"))


def load_scenario(path: str | Path) -> ScenarioSpec:
    return scenario_from_dict(read_json(path, "scenario"))


def resolve_events(net: Network, spec: ScenarioSpec, rng: random.Random) -> tuple[Event, ...]:
    """Replace random events with concrete ones and validate all ids."""
    resolved = []
    for event in spec.events:
        if event.is_random:
            pool = _failure_pool(net)
            if event.count > len(pool):
                raise ValidationError(f"cannot fail {event.count} of {len(pool)} pipes")
            drawn = tuple(sorted(rng.sample(pool, event.count)))
            event = Event(event.kind, event.onset, event.repair, ids=drawn)
        lookup = _KINDS[event.kind][0]
        for element_id in event.ids:
            lookup(net, element_id)
        resolved.append(event)
    return tuple(resolved)


def _step_state(events: tuple[Event, ...], net: Network, t: int):
    """The failed pipes at step ``t``, and the factor map of each scaling kind."""
    failed_pipes: set[str] = set()
    factors: dict[str, dict[str, float]] = {"demand_scale": {}, "supply_scale": {}}
    for event in events:
        if not event.active_at(t):
            continue
        # the surrogate has no pump model, so a pump failure changes no state
        if event.kind == "pipe_failure":
            failed_pipes.update(event.ids)
        elif event.kind in factors:
            scaled = factors[event.kind]
            for element_id in event.ids or _KINDS[event.kind][1](net):
                scaled[element_id] = scaled.get(element_id, 1.0) * event.factor
    return failed_pipes, factors


def apply_scenario(net: Network, spec: ScenarioSpec) -> HydraulicSeries:
    """Allocate flows per timestep, over the spec's horizon, under the
    scenario's event timeline.

    Concurrent scaling events on the same target multiply.  Random events
    are resolved once from the scenario seed and stay fixed over the
    horizon.  Each step is one :func:`surrogate_allocation`, and the joined
    series has one row per step of the horizon.  A step's failures and
    factors are rebuilt only at step 0 and at an event's onset or repair.
    Every event must start within the horizon, after its ids are checked.
    Pump failures are validated against the network's pumps but change no
    step, since the surrogate has no pump model.
    """
    import numpy as np

    if spec.horizon is None:
        raise ValidationError("a positive horizon is required")
    events = resolve_events(net, spec, random.Random(spec.seed))
    for event in events:
        if event.onset >= spec.horizon:
            raise ValidationError(f"{event.kind} event starts at step {event.onset}, past the "
                                  f"last step ({spec.horizon - 1}) of the horizon")
    # the state changes only where an event starts or ends, so the steps in
    # between share it; allocate_flows copies the maps it is given
    changes = {0}.union(*((e.onset, e.repair) for e in events))
    steps = []
    for t in range(spec.horizon):
        if t in changes:
            failed_pipes, factors = _step_state(events, net, t)
        steps.append(surrogate_allocation(net, failed_pipes, factors["demand_scale"],
                                          factors["supply_scale"]))
    node_ids = steps[0].node_ids
    return HydraulicSeries(
        node_ids,
        np.vstack([s.delivered for s in steps]),
        np.vstack([s.demand for s in steps]),
        np.vstack([s.head for s in steps]),
        np.vstack([s.required_head for s in steps]),
    )


def _metric_zhuang(series: HydraulicSeries, threshold: float) -> float:
    return zhuang_availability(series).value


def _metric_hashimoto(series: HydraulicSeries, threshold: float) -> float:
    return hashimoto_recovery(classify_states(series, threshold)).value


# each takes (series, threshold); zhuang has no threshold and ignores it
MC_METRICS: dict[str, Callable[[HydraulicSeries, float], float]] = {
    "zhuang": _metric_zhuang,
    "hashimoto": _metric_hashimoto,
}


@dataclass(frozen=True)
class MonteCarloResult:
    metric: str
    values: tuple[float, ...]
    seed: int
    summary: Mapping[str, float] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValidationError("a Monte Carlo result needs at least one replicate")
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


def _quantile(ordered: list[float], q: float) -> float:
    """``np.quantile(ordered, q)`` of sorted finite values, bit for bit, by
    numpy's default rule: numpy's own first call imports ``numpy.ma``, which
    costs more than a small Monte Carlo run.  With zeros of both signs in the
    values a zero result may take the other sign, as numpy's partition keeps
    no order among equal values; the Monte Carlo metrics never return -0.0.
    """
    v = (len(ordered) - 1) * q
    if v >= len(ordered) - 1:
        return ordered[-1]
    i = floor(v)
    g = v - i
    d = ordered[i + 1] - ordered[i]
    # numpy interpolates from the nearer of the two values
    return ordered[i + 1] - d * (1 - g) if g >= 0.5 else ordered[i] + d * g


def summarize(values: tuple[float, ...]) -> dict[str, float]:
    import numpy as np

    arr = np.asarray(values, dtype=float)
    ordered = sorted(arr.tolist())
    # numpy's mean: the report goldens hold the bits of its pairwise sum
    summary = {"mean": float(arr.mean()), "min": float(arr.min()), "max": float(arr.max())}
    return summary | {f"p{int(q * 100):02d}": _quantile(ordered, q) for q in _QUANTILES}


def monte_carlo(
    net: Network,
    spec: ScenarioSpec,
    n: int,
    metric: str,
    exhaustive: bool = False,
    threshold: float = 1.0,
) -> MonteCarloResult:
    """Evaluate a named metric over n scenario replicates.

    Each replicate runs the scenario over ``spec.horizon`` steps, and
    replicate r runs it with seed ``spec.seed ^ r``.  In
    exhaustive mode the scenario must contain exactly one random event; the
    r-th replicate then takes the r-th pipe combination in sorted order
    instead of sampling, which turns the run into an exact enumeration.
    ``threshold`` is the service threshold of the state-based metrics; it
    is checked before any replicate runs, whatever the metric.  Replicates
    run serially, in order.
    """
    check_integer(n, "replicate count", 1)
    if metric not in MC_METRICS:
        raise ValidationError(
            f"unknown metric {metric!r}; choose from {sorted(MC_METRICS)}"
        )
    _check_threshold(threshold)
    metric_fn = MC_METRICS[metric]

    combos: list[tuple[str, ...]] | None = None
    if exhaustive:
        random_events = [e for e in spec.events if e.is_random]
        if len(random_events) != 1:
            raise ValidationError("exhaustive mode needs exactly one random event")
        count = random_events[0].count
        pool = _failure_pool(net)
        if n > comb(len(pool), count):
            raise ValidationError(
                f"exhaustive mode: only {comb(len(pool), count)} failure sets exist"
            )
        combos = list(islice(combinations(pool, count), n))

    def replicate(r: int) -> float:
        if combos is not None:
            rep_spec = replace(spec, events=tuple(
                Event(e.kind, e.onset, e.repair, ids=combos[r]) if e.is_random else e
                for e in spec.events
            ))
        else:
            rep_spec = replace(spec, seed=spec.seed ^ r)
        series = apply_scenario(net, rep_spec)
        return metric_fn(series, threshold)

    values = tuple(replicate(r) for r in range(n))
    return MonteCarloResult(metric, values, spec.seed)
