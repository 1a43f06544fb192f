"""Score-based resilience metrics: weighted indicator aggregation and the
36-point water-provision checklist."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import Mapping

from .errors import ValidationError
from .inputs import bundled, is_finite_number, json_rows, read_csv, read_json

WPR_CATEGORIES = (
    "supply",
    "finances",
    "infrastructure",
    "service_provision",
    "water_quality",
    "governance",
)

_CRITERION_TAGS = (
    "monitor",
    "react",
    "anticipate",
    "baseline_functionality",
    "redundancy",
    "recovery",
)


@dataclass(frozen=True)
class Indicator:
    """A raw observation scaled by its maximum observed value."""

    name: str
    raw: float
    max_observed: float
    weight: float = 1.0

    def __post_init__(self):
        for attr in ("raw", "max_observed", "weight"):
            if not is_finite_number(getattr(self, attr)):
                raise ValidationError(f"indicator {self.name!r}: {attr} must be a finite number")
        if self.max_observed <= 0:
            raise ValidationError(f"indicator {self.name!r}: max_observed must be > 0")
        if self.weight < 0:
            raise ValidationError(f"indicator {self.name!r}: weight must be >= 0")
        if not 0 <= self.scaled <= 1:
            raise ValidationError(
                f"indicator {self.name!r}: raw/max_observed = {self.scaled!r} "
                "falls outside [0, 1]"
            )

    @property
    def scaled(self) -> float:
        return self.raw / self.max_observed


def balaei_aggregate(indicators: list[Indicator]) -> float:
    """Weighted mean of squared scaled indicators."""
    if not indicators:
        raise ValidationError("indicator list must not be empty")
    total_weight = sum(i.weight for i in indicators)
    if not 0 < total_weight < inf:
        raise ValidationError(f"indicator weights sum to zero or overflow: {total_weight!r}")
    return sum(i.weight * i.scaled**2 for i in indicators) / total_weight


def load_indicators(path: str | Path) -> list[Indicator]:
    """Read an indicator set CSV: ``name, raw, max_observed, weight``; names
    are stripped of surrounding spaces."""
    rows = read_csv(path, ("name", "raw", "max_observed", "weight"), "indicator",
                    (str.strip, float, float, float))
    return [Indicator(*cells) for _, cells in rows]


@dataclass(frozen=True)
class Criterion:
    name: str
    category: str
    tags: tuple[str, ...]

    def __post_init__(self):
        if self.category not in WPR_CATEGORIES:
            raise ValidationError(
                f"criterion {self.name!r}: unknown category {self.category!r}"
            )
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.tags:
            raise ValidationError(f"criterion {self.name!r}: needs at least one tag")
        bad = set(self.tags) - set(_CRITERION_TAGS)
        if bad:
            raise ValidationError(f"criterion {self.name!r}: unknown tags {sorted(bad)}")


@dataclass(frozen=True)
class WprChecklist:
    """Named binary criteria grouped into the six provision categories."""

    criteria: tuple[Criterion, ...]

    def __post_init__(self):
        object.__setattr__(self, "criteria", tuple(self.criteria))
        if not self.criteria:
            raise ValidationError("checklist must contain criteria")
        names = [c.name for c in self.criteria]
        if len(set(names)) != len(names):
            raise ValidationError("criterion names must be unique")

    @property
    def total(self) -> int:
        return len(self.criteria)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.criteria)


def wpr_score(checklist: WprChecklist, answers: Mapping[str, bool]) -> int:
    """Count of fulfilled criteria; every criterion must be answered."""
    known = set(checklist.names())
    unknown = set(answers) - known
    if unknown:
        raise ValidationError(f"answers name unknown criteria: {sorted(unknown)}")
    missing = known - set(answers)
    if missing:
        raise ValidationError(f"criteria left unanswered: {sorted(missing)}")
    return sum(1 for name in known if bool(answers[name]))


def checklist_from_dict(data: Mapping) -> WprChecklist:
    if not isinstance(data, Mapping):
        raise ValidationError("checklist document must be a JSON object")
    categories = data.get("categories")
    if not isinstance(categories, Mapping):
        raise ValidationError("checklist document needs a 'categories' object")
    unknown = set(categories) - set(WPR_CATEGORIES)
    if unknown:
        raise ValidationError(f"unknown checklist categories: {sorted(unknown)}")
    criteria = []
    for cat in WPR_CATEGORIES:
        for i, row in enumerate(json_rows(categories, cat)):
            name, tags = row.get("name"), row.get("tags", [])
            if not isinstance(name, str):
                raise ValidationError(f"criterion {cat}[{i}] needs a string name")
            if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
                raise ValidationError(f"criterion {name!r}: tags must be a list of strings")
            criteria.append(Criterion(name, cat, tuple(tags)))
    return WprChecklist(tuple(criteria))


def load_checklist(path: str | Path | None = None) -> WprChecklist:
    """Load a checklist JSON; defaults to the bundled 36-criterion file."""
    path = bundled("wpr_checklist.json") if path is None else path
    return checklist_from_dict(read_json(path, "checklist"))


def load_answers(path: str | Path) -> dict[str, bool]:
    """Read a criterion -> boolean map from JSON."""
    data = read_json(path, "answers")
    if not isinstance(data, dict) or not all(isinstance(v, bool) for v in data.values()):
        raise ValidationError("answers must be a JSON object of booleans")
    return data
