"""Agglomerative clustering with Ward's minimum-variance criterion.

Implemented in plain Python from the Lance-Williams recurrence on squared
inter-cluster distances, so the module loads neither numpy nor a statistics
dependency.  Merge heights are the usual Ward distances (for two singletons
simply their Euclidean distance); with this update rule the height sequence
is nondecreasing.  Ties are broken by cluster creation order, which for
singletons is the input record order, making every run reproducible.  On
0/1 flag rows, as the catalog gives, every squared distance is an exact
integer, so the tree does not depend on the order of any sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import sqrt
from typing import Sequence

from .errors import ValidationError
from .inputs import check_integer, is_finite_number


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters ``left`` and ``right`` join.

    Cluster ids 0..n-1 are the input records; merge i creates id n+i.
    """

    left: int
    right: int
    height: float
    size: int


def ward_linkage(data: Sequence[Sequence[float]]) -> list[Merge]:
    """Full agglomeration of the rows of ``data``; n-1 merges."""
    try:
        rows = [list(row) for row in data]
    except TypeError:  # a row that is a number
        rows = []
    if len(rows) < 2 or len({len(row) for row in rows}) > 1:
        raise ValidationError("clustering needs a 2-d matrix with at least two rows")
    # a nan cell would give nan heights, and a bool or a string is no coordinate
    if not all(is_finite_number(v) for row in rows for v in row):
        raise ValidationError("clustering needs a matrix of finite numbers")
    rows = [[float(v) for v in row] for row in rows]
    n = len(rows)

    size = {i: 1 for i in range(n)}
    active = list(range(n))  # ascending: merged ids exceed every id before them
    d2 = {(i, j): sum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
          for i, j in combinations(active, 2)}

    merges: list[Merge] = []
    while len(active) > 1:
        # the first minimum in lexicographic order: a tie goes to the smallest pair
        i, j = min(combinations(active, 2), key=d2.__getitem__)
        best = d2[(i, j)]
        merged_size = size[i] + size[j]
        merges.append(Merge(i, j, sqrt(best), merged_size))
        k = n + len(merges) - 1
        active.remove(i)
        active.remove(j)
        # Lance-Williams update for Ward's criterion on squared distances
        for m in active:
            dmi = d2[(min(m, i), max(m, i))]
            dmj = d2[(min(m, j), max(m, j))]
            nm = size[m]
            d2[(m, k)] = (
                (size[i] + nm) * dmi + (size[j] + nm) * dmj - nm * best
            ) / (merged_size + nm)
        size[k] = merged_size
        active.append(k)
    return merges


def cut_clusters(merges: list[Merge], k: int) -> list[int]:
    """Flat labels 1..k after undoing the last k-1 merges.

    The merges join ``len(merges) + 1`` records.  Label numbering follows
    the first record index in each cluster, so the cluster containing
    record 0 is always labelled 1.
    """
    n = len(merges) + 1
    check_integer(k, "cluster count")
    if not 1 <= k <= n:
        raise ValidationError(f"cannot cut {n} records into {k} clusters")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    next_id = n
    for merge in merges[: n - k]:
        members[next_id] = members.pop(merge.left) + members.pop(merge.right)
        next_id += 1
    labels = [0] * n
    ordered = sorted(members.values(), key=min)
    for label, group in enumerate(ordered, start=1):
        for record in group:
            labels[record] = label
    return labels


def partition_agreement(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Best-bijection agreement between two flat labelings, in [0, 1].

    Tries every bijection between the label alphabets (brute force, so
    intended for small cluster counts) and returns the highest fraction of
    records on which the relabelled partitions coincide.
    """
    if len(labels_a) != len(labels_b):
        raise ValidationError("labelings must cover the same records")
    if not labels_a:
        raise ValidationError("labelings must not be empty")
    alphabet_a = sorted(set(labels_a))
    alphabet_b = sorted(set(labels_b))
    if max(len(alphabet_a), len(alphabet_b)) > 8:
        raise ValidationError("agreement matching supports at most 8 labels per side")
    if len(alphabet_a) > len(alphabet_b):
        return partition_agreement(labels_b, labels_a)
    best = 0
    for image in permutations(alphabet_b, len(alphabet_a)):
        mapping = dict(zip(alphabet_a, image))
        hits = sum(1 for a, b in zip(labels_a, labels_b) if mapping[a] == b)
        best = max(best, hits)
    return best / len(labels_a)
