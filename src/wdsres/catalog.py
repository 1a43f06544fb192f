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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .inputs import bundled, read_csv, read_json
from .wardclust import Merge, cut_clusters, partition_agreement, ward_linkage

logger = logging.getLogger(__name__)

FLAG_COLUMNS = ("M", "R", "L", "A", "TI", "TD", "GT", "PB", "SB", "CM", "BF", "RD", "RC")
FUNCTION_FLAGS = ("M", "R", "L", "A")
TIME_FLAGS = ("TI", "TD")
QUANTIFICATION_FLAGS = ("GT", "PB", "SB")
PROPERTY_FLAGS = ("BF", "RD", "RC")

#: Column preset for the category correlation matrix: all thirteen flags.
CORRELATION_COLUMNS = FLAG_COLUMNS

#: Column preset for clustering: functions, time dependence, quantification
#: type and properties.  The composite marker is not a quantification type
#: of its own and stays out; with it included the reference partition in
#: the CL column is not recoverable.
CLUSTER_FEATURES = ("M", "R", "L", "A", "TI", "TD", "GT", "PB", "SB", "BF", "RD", "RC")

_HEADER = ("metric", "citation", *FLAG_COLUMNS, "CL")


@dataclass(frozen=True)
class MetricRecord:
    """One catalogued metric: name, citation key, flags and cluster label."""

    name: str
    citation: str
    flags: tuple[int, ...]
    cluster: int

    def __post_init__(self):
        object.__setattr__(self, "flags", tuple(int(f) for f in self.flags))
        if len(self.flags) != len(FLAG_COLUMNS):
            raise ValidationError(
                f"record {self.name!r}: expected {len(FLAG_COLUMNS)} flags"
            )
        if any(f not in (0, 1) for f in self.flags):
            raise ValidationError(f"record {self.name!r}: flags must be 0 or 1")
        if not 1 <= self.cluster <= 5:
            raise ValidationError(f"record {self.name!r}: cluster must be 1..5")

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
    for lineno, row in read_csv(path, _HEADER, "catalog"):
        try:
            flags = tuple(int(c) for c in row[2:-1])
            cluster = int(row[-1])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        record = MetricRecord(row[0].strip(), row[1].strip(), flags, cluster)
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
    total: int
    flag_counts: dict[str, int]
    flag_shares: dict[str, float]
    function_histogram: dict[int, int]
    property_histogram: dict[int, int]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "flag_counts": dict(self.flag_counts),
            "flag_shares": dict(self.flag_shares),
            "function_histogram": {str(k): v for k, v in self.function_histogram.items()},
            "property_histogram": {str(k): v for k, v in self.property_histogram.items()},
        }


def summary_counts(records: Sequence[MetricRecord]) -> CatalogSummary:
    """Per-flag counts and shares plus function/property multiplicity."""
    if not records:
        raise ValidationError("summary of an empty catalog is undefined")
    total = len(records)
    counts = {code: sum(r.flag(code) for r in records) for code in FLAG_COLUMNS}
    shares = {code: counts[code] / total for code in FLAG_COLUMNS}
    function_hist = {k: 0 for k in range(len(FUNCTION_FLAGS) + 1)}
    property_hist = {k: 0 for k in range(len(PROPERTY_FLAGS) + 1)}
    for record in records:
        function_hist[record.function_count()] += 1
        property_hist[record.property_count()] += 1
    return CatalogSummary(total, counts, shares, function_hist, property_hist)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson matrix over catalog flag columns.

    Entries touching a zero-variance column are undefined and stored as
    NaN; the offending labels are listed in ``undefined_labels``.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    undefined_labels: frozenset[str] = frozenset()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if values.shape != (n, n):
            raise ValidationError("correlation matrix shape does not match labels")

    def entry(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])

    def to_csv(self) -> str:
        lines = ["," + ",".join(self.labels)]
        for label, row in zip(self.labels, self.values):
            cells = ["" if np.isnan(v) else repr(float(v)) for v in row]
            lines.append(label + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def pearson_matrix(
    records: Sequence[MetricRecord],
    columns: Sequence[str] = CORRELATION_COLUMNS,
) -> CorrelationMatrix:
    """Pairwise Pearson coefficients of the selected flag columns."""
    if len(records) < 2:
        raise ValidationError("correlation needs at least two records")
    if not columns:
        raise ValidationError("no columns selected")
    data = np.array([[r.flag(c) for c in columns] for r in records], dtype=float)
    centered = data - data.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    undefined = {c for c, nrm in zip(columns, norms) if nrm == 0}
    n = len(columns)
    values = np.full((n, n), np.nan)
    for i in range(n):
        if columns[i] in undefined:
            continue
        values[i, i] = 1.0
        for j in range(i + 1, n):
            if columns[j] in undefined:
                continue
            r = float(centered[:, i] @ centered[:, j] / (norms[i] * norms[j]))
            values[i, j] = r
            values[j, i] = r
    return CorrelationMatrix(tuple(columns), values, frozenset(undefined))


@dataclass(frozen=True)
class ClusteringResult:
    """Ward linkage over catalog records plus the flat k-cluster labels."""

    leaf_names: tuple[str, ...]
    merges: tuple[Merge, ...]
    labels: tuple[int, ...]
    k: int
    feature_columns: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "leaf_names", tuple(self.leaf_names))
        object.__setattr__(self, "merges", tuple(self.merges))
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        hs = [m.height for m in self.merges]
        if any(b < a - 1e-9 for a, b in zip(hs, hs[1:])):
            raise ValidationError("merge heights must be nondecreasing")
        if len(set(self.labels)) != self.k:
            raise ValidationError(f"expected {self.k} nonempty clusters")

    @property
    def n(self) -> int:
        return len(self.leaf_names)


def ward_clustering(
    records: Sequence[MetricRecord],
    feature_columns: Sequence[str] = CLUSTER_FEATURES,
    k: int = 5,
) -> ClusteringResult:
    """Agglomerate the records' flag vectors and cut into k clusters."""
    if k > len(records):
        raise ValidationError(f"cannot form {k} clusters from {len(records)} records")
    data = [[float(r.flag(c)) for c in feature_columns] for r in records]
    merges = ward_linkage(data)
    labels = cut_clusters(merges, len(records), k)
    return ClusteringResult(
        tuple(r.name for r in records),
        tuple(merges),
        tuple(labels),
        k,
        tuple(feature_columns),
    )


def reference_agreement(records: Sequence[MetricRecord], result: ClusteringResult) -> float:
    """Agreement of a clustering with the records' CL column."""
    return partition_agreement(list(result.labels), [r.cluster for r in records])


def dendrogram_export(result: ClusteringResult, path: str | Path, text: bool = False) -> None:
    """Write the merge tree as JSON; optionally a plain-text render too.

    The JSON keeps leaves, merges (child ids and heights) and the flat
    labels, enough to rebuild the partition without recomputing.
    """
    path = Path(path)
    data = {
        "leaves": list(result.leaf_names),
        "k": result.k,
        "feature_columns": list(result.feature_columns),
        "merges": [[m.left, m.right, m.height, m.size] for m in result.merges],
        "labels": list(result.labels),
    }
    path.write_text(json.dumps(data, indent=2) + "\n")
    if text:
        path.with_suffix(".txt").write_text(dendrogram_text(result))


def dendrogram_import(path: str | Path) -> dict:
    data = read_json(path, "dendrogram")
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: dendrogram must be a JSON object")
    for key in ("leaves", "merges", "labels"):
        if key not in data:
            raise ValidationError(f"{path}: missing key {key!r}")
    return data


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
