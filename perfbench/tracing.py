"""Span recorder and the wrappers that trace calls into each ``wdsres`` layer.

The program itself is not changed: :func:`install` rebinds each traced
function under every name a ``wdsres`` module looks it up by (module
globals and class attributes), and :func:`remove` puts the originals
back.  Spans stay in memory until the benchmark writes them out.

The recorder keeps one stack of open spans, so it must only see calls
from one thread at a time; traced runs use ``--workers 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """A function to trace, by the module and dotted name that define it."""

    span: str
    module: str
    name: str
    returns_oracle: bool = False  # trace the callable it returns, not the call itself
    keyed: bool = False  # record a canonical key of the call's arguments


TARGETS = (
    Target("network.load", "wdsres.network", "load_network"),
    Target("network.reachable", "wdsres.network", "Network.reachable_from_sources"),
    Target("scenario.apply", "wdsres.scenario", "apply_scenario"),
    Target("hydraulics.surrogate", "wdsres.hydraulics", "surrogate_allocation"),
    Target("hydraulics.alloc", "wdsres.hydraulics", "allocate_flows", keyed=True),
    Target("hydraulics.series", "wdsres.hydraulics", "HydraulicSeries.__post_init__"),
    Target("performance.buffering", "wdsres.performance", "buffering_capacity"),
    Target("performance.feasibility", "wdsres.performance", "connectivity_feasibility",
           returns_oracle=True),
    Target("performance.feasibility", "wdsres.performance", "supply_feasibility",
           returns_oracle=True),
    Target("performance.reduce", "wdsres.performance", "zhuang_availability"),
    Target("performance.reduce", "wdsres.performance", "hashimoto_recovery"),
    Target("performance.reduce", "wdsres.hydraulics", "classify_states"),
    Target("graphmetrics.ksp", "wdsres.graphmetrics", "k_shortest_paths"),
    Target("graphmetrics.node_index", "wdsres.graphmetrics", "node_resilience_index"),
    Target("wardclust.ward_linkage", "wdsres.wardclust", "ward_linkage"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top

    @property
    def duration(self) -> float:
        return self.end - self.start


def _freeze(value):
    """A hashable, order-independent form of an argument value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    keys: dict = field(default_factory=dict)  # span name -> set of distinct argument keys
    _open: list = field(default_factory=list)

    def wrap(self, span: str, fn, keyed: bool = False):
        signature = inspect.signature(fn) if keyed else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                # the first parameter is the network, shared by every call
                key = tuple(_freeze(v) for v in list(bound.arguments.values())[1:])
                self.keys.setdefault(span, set()).add(key)
            record = Span(span, time.perf_counter(), 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                self._open.pop()

        return traced

    def oracle_factory(self, span: str, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(span, factory(*args, **kwargs))

        return traced_factory


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, attr = target.name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Installation:
    """The rebindings made by :func:`install`, undone by :meth:`remove`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(recorder: Recorder, targets=TARGETS) -> Installation:
    """Trace every target into ``recorder``; return the handle that undoes it."""
    done = Installation()
    try:
        for target in targets:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            if target.returns_oracle:
                wrapper = recorder.oracle_factory(target.span, original)
            else:
                wrapper = recorder.wrap(target.span, original, keyed=target.keyed)
            if isinstance(owner, type):
                done.rebind(owner, attr, wrapper)
                continue
            # a module-level function: rebind it wherever wdsres imported it
            for name, module in list(sys.modules.items()):
                if name != "wdsres" and not name.startswith("wdsres."):
                    continue
                for global_name, value in list(vars(module).items()):
                    if value is original:
                        done.rebind(module, global_name, wrapper)
    except BaseException:
        done.remove()
        raise
    return done


def self_time(spans: list[Span], name: str) -> float:
    """Summed duration of ``name`` spans minus the spans directly inside them."""
    inside = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            inside[span.parent] += span.duration
    return sum((s.duration - inside[i] for i, s in enumerate(spans) if s.name == name), 0.0)


def totals(spans: list[Span]) -> tuple[Counter, defaultdict]:
    """Calls and summed duration per span name."""
    calls, busy = Counter(), defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        busy[span.name] += span.duration
    return calls, busy
