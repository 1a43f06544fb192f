"""Metric categorisation dataset and its meta-analysis.

The bundled ``data/catalog.csv`` describes 59 published resilience metrics
for water distribution systems as binary flags: which resilience functions
a metric assesses (monitor M, react R, learn L, anticipate A), its time
dependence (TI/TD), its quantification type (graph-theoretical GT,
performance-based PB, score-based SB) plus a composite marker (CM), which
system properties it addresses (baseline functionality BF, redundancy RD,
recovery RC), and a reference cluster label CL.  This module recomputes the
summary counts, the category correlation matrix and the 5-cluster Ward
partition from those flags.
"""

from __future__ import annotations

import json
import logging
from math import isnan
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

# numpy is imported inside the correlation matrix's functions, so importing
# wdsres and the `catalog counts`, `cluster` and `dendrogram` commands do not load it

from .errors import ValidationError
from .inputs import bundled, check_integer, csv_text, is_integer, read_csv, write_text
from .wardclust import Merge, cut_clusters, partition_agreement, ward_linkage

logger = logging.getLogger(__name__)

FLAG_COLUMNS = ("M", "R", "L", "A", "TI", "TD", "GT", "PB", "SB", "CM", "BF", "RD", "RC")
FUNCTION_FLAGS = ("M", "R", "L", "A")
TIME_FLAGS = ("TI", "TD")
QUANTIFICATION_FLAGS = ("GT", "PB", "SB")
PROPERTY_FLAGS = ("BF", "RD", "RC")

#: Column preset for clustering: functions, time dependence, quantification
#: type and properties.  The composite marker is not a quantification type
#: of its own and stays out; with it included the reference partition in
#: the CL column is not recoverable.
CLUSTER_FEATURES = ("M", "R", "L", "A", "TI", "TD", "GT", "PB", "SB", "BF", "RD", "RC")

_HEADER = ("metric", "citation", *FLAG_COLUMNS, "CL")


@dataclass(frozen=True)
class MetricRecord:
    """One catalogued metric: name, citation key, flags and cluster label, as plain ints."""

    name: str
    citation: str
    flags: tuple[int, ...]
    cluster: int

    def __post_init__(self):
        flags = tuple(self.flags)
        if len(flags) != len(FLAG_COLUMNS):
            raise ValidationError(
                f"record {self.name!r}: expected {len(FLAG_COLUMNS)} flags"
            )
        if not all(is_integer(f) and f in (0, 1) for f in flags):
            raise ValidationError(f"record {self.name!r}: flags must be 0 or 1")
        if not (is_integer(self.cluster) and 1 <= self.cluster <= 5):
            raise ValidationError(f"record {self.name!r}: cluster must be 1..5")
        object.__setattr__(self, "flags", tuple(map(int, flags)))
        object.__setattr__(self, "cluster", int(self.cluster))

    def flag(self, code: str) -> int:
        try:
            return self.flags[FLAG_COLUMNS.index(code)]
        except ValueError:
            raise ValidationError(f"unknown flag column {code!r}") from None

    def function_count(self) -> int:
        return sum(self.flag(c) for c in FUNCTION_FLAGS)

    def property_count(self) -> int:
        return sum(self.flag(c) for c in PROPERTY_FLAGS)


def load_catalog(path: str | Path | None = None) -> list[MetricRecord]:
    """Read a categorisation CSV; defaults to the bundled dataset.

    Rows without any function flag or without any quantification flag are
    kept as-is and logged as warnings, matching the source data.
    """
    path = bundled("catalog.csv") if path is None else path
    records: list[MetricRecord] = []
    types = (str.strip, str.strip, *(int,) * len(FLAG_COLUMNS), int)
    for _, (name, citation, *flags, cluster) in read_csv(path, _HEADER, "catalog", types):
        record = MetricRecord(name, citation, flags, cluster)
        if record.function_count() == 0:
            logger.warning("catalog row %r carries no function flag", record.name)
        if sum(record.flag(c) for c in TIME_FLAGS) > 1:
            logger.warning("catalog row %r is both TI and TD", record.name)
        if sum(record.flag(c) for c in QUANTIFICATION_FLAGS) == 0:
            logger.warning("catalog row %r carries no quantification flag", record.name)
        records.append(record)
    if not records:
        raise ValidationError(f"{path}: catalog holds no records")
    return records


def find_record(records: Iterable[MetricRecord], name: str, citation: str | None = None):
    """Record by name (and citation, when the name is ambiguous)."""
    hits = [
        r
        for r in records
        if r.name == name and (citation is None or r.citation == citation)
    ]
    if not hits:
        raise ValidationError(f"no catalog record named {name!r}")
    if len(hits) > 1:
        raise ValidationError(f"record name {name!r} is ambiguous; pass a citation")
    return hits[0]


@dataclass(frozen=True)
class CatalogSummary:
    flag_counts: dict[str, int]
    function_histogram: dict[int, int]
    property_histogram: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.function_histogram.values())

    @property
    def flag_shares(self) -> dict[str, float]:
        """Each flag's count over the record total."""
        return {code: count / self.total for code, count in self.flag_counts.items()}

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "flag_counts": dict(self.flag_counts),
            "flag_shares": self.flag_shares,
            "function_histogram": {str(k): v for k, v in self.function_histogram.items()},
            "property_histogram": {str(k): v for k, v in self.property_histogram.items()},
        }


def summary_counts(records: Sequence[MetricRecord]) -> CatalogSummary:
    """Per-flag counts and shares plus function/property multiplicity."""
    if not records:
        raise ValidationError("summary of an empty catalog is undefined")
    counts = {code: sum(r.flag(code) for r in records) for code in FLAG_COLUMNS}
    function_hist = {k: 0 for k in range(len(FUNCTION_FLAGS) + 1)}
    property_hist = {k: 0 for k in range(len(PROPERTY_FLAGS) + 1)}
    for record in records:
        function_hist[record.function_count()] += 1
        property_hist[record.property_count()] += 1
    return CatalogSummary(counts, function_hist, property_hist)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson matrix over catalog flag columns.

    Entries touching a zero-variance column are undefined and stored as
    NaN, on the diagonal too; the offending labels are ``undefined_labels``.
    """

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if values.shape != (n, n):
            raise ValidationError("correlation matrix shape does not match labels")

    @property
    def undefined_labels(self) -> frozenset[str]:
        return frozenset(label for label, v in zip(self.labels, self.values.diagonal().tolist())
                         if isnan(v))

    def entry(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])

    def _table(self) -> tuple:
        return ("", *self.labels), ((label, *("" if isnan(v) else v for v in row.tolist()))
                                    for label, row in zip(self.labels, self.values))

    def to_csv(self) -> str:
        return csv_text(*self._table())


def pearson_matrix(records: Sequence[MetricRecord]) -> CorrelationMatrix:
    """Pairwise Pearson coefficients of all thirteen :data:`FLAG_COLUMNS`."""
    import numpy as np

    if len(records) < 2:
        raise ValidationError("correlation needs at least two records")
    data = np.array([r.flags for r in records], dtype=float)
    centered = data - data.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    n = len(FLAG_COLUMNS)
    values = np.full((n, n), np.nan)
    defined = [i for i in range(n) if norms[i] != 0]
    values[defined, defined] = 1.0
    for i, j in combinations(defined, 2):
        r = float(centered[:, i] @ centered[:, j] / (norms[i] * norms[j]))
        values[i, j] = values[j, i] = r
    return CorrelationMatrix(FLAG_COLUMNS, values)


@dataclass(frozen=True)
class ClusteringResult:
    """Ward linkage over catalog records plus the flat k-cluster labels."""

    leaf_names: tuple[str, ...]
    merges: tuple[Merge, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "leaf_names", tuple(self.leaf_names))
        object.__setattr__(self, "merges", tuple(self.merges))
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        # a tree that joins every leaf has one merge fewer than it has leaves
        if len(self.merges) != self.n - 1 or len(self.labels) != self.n:
            raise ValidationError(
                "a clustering needs one merge fewer than its leaves and one label per leaf")
        hs = [m.height for m in self.merges]
        if any(b < a - 1e-9 for a, b in zip(hs, hs[1:])):
            raise ValidationError("merge heights must be nondecreasing")

    @property
    def k(self) -> int:
        return len(set(self.labels))

    @property
    def n(self) -> int:
        return len(self.leaf_names)


def ward_clustering(records: Sequence[MetricRecord], k: int = 5) -> ClusteringResult:
    """Agglomerate the records' :data:`CLUSTER_FEATURES` flag vectors and cut
    into k clusters."""
    check_integer(k, "cluster count")
    if k > len(records):
        raise ValidationError(f"cannot form {k} clusters from {len(records)} records")
    data = [[float(r.flag(c)) for c in CLUSTER_FEATURES] for r in records]
    merges = ward_linkage(data)
    return ClusteringResult(tuple(r.name for r in records), merges, cut_clusters(merges, k))


def reference_agreement(records: Sequence[MetricRecord], result: ClusteringResult) -> float:
    """Agreement of a clustering with the records' CL column."""
    return partition_agreement(list(result.labels), [r.cluster for r in records])


def dendrogram_export(result: ClusteringResult, path: str | Path) -> None:
    """Write the merge tree as JSON; :func:`dendrogram_text` renders it.

    The JSON keeps leaves, merges (child ids and heights) and the flat
    labels, enough to rebuild the partition without recomputing.
    """
    data = {
        "leaves": list(result.leaf_names),
        "k": result.k,
        "feature_columns": list(CLUSTER_FEATURES),
        "merges": [[m.left, m.right, m.height, m.size] for m in result.merges],
        "labels": list(result.labels),
    }
    write_text(path, json.dumps(data, indent=2) + "\n")


def dendrogram_text(result: ClusteringResult) -> str:
    """Indented text rendering of the merge tree, root first."""
    n = result.n
    lines: list[str] = []

    def render(node: int, depth: int):
        pad = "  " * depth
        if node < n:
            lines.append(f"{pad}- {result.leaf_names[node]} [cluster {result.labels[node]}]")
            return
        merge = result.merges[node - n]
        lines.append(f"{pad}+ h={merge.height:.4f} ({merge.size} metrics)")
        render(merge.left, depth + 1)
        render(merge.right, depth + 1)

    render(n + len(result.merges) - 1, 0)
    return "\n".join(lines) + "\n"
