"""Catalog dataset, summary counts, correlations and clustering."""

import json
import math

import numpy as np
import pytest

from wdsres.catalog import (
    CLUSTER_FEATURES,
    FLAG_COLUMNS,
    MetricRecord,
    dendrogram_export,
    dendrogram_text,
    find_record,
    load_catalog,
    pearson_matrix,
    reference_agreement,
    summary_counts,
    ward_clustering,
)
from wdsres.errors import ValidationError
from wdsres.wardclust import cut_clusters, partition_agreement, ward_linkage


def record(name, flags, cluster=1, citation="x"):
    return MetricRecord(name, citation, tuple(flags), cluster)


def flags_from(codes):
    return tuple(1 if c in codes else 0 for c in FLAG_COLUMNS)


class TestLoadCatalog:
    def test_shipped_dataset_has_59_records(self):
        assert len(load_catalog()) == 59

    def test_todini_row(self):
        records = load_catalog()
        row = find_record(records, "resilience index", "Todini 2000")
        assert row.flag("A") == 1
        assert row.flag("TI") == 1
        assert row.flag("PB") == 1
        assert row.flag("BF") == 1
        assert row.flag("RD") == 1
        assert row.cluster == 3

    def test_ambiguous_name_needs_citation(self):
        records = load_catalog()
        with pytest.raises(ValidationError, match="ambiguous"):
            find_record(records, "resilience index")

    def test_unflagged_quantification_row_warns(self, caplog):
        with caplog.at_level("WARNING", logger="wdsres.catalog"):
            records = load_catalog()
        row = find_record(records, "mean time to repair")
        assert sum(row.flag(c) for c in ("GT", "PB", "SB")) == 0
        assert any("mean time to repair" in message for message in caplog.messages)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_catalog(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError, match="header"):
            load_catalog(path)

    def test_bad_flag_value(self, tmp_path):
        path = tmp_path / "catalog.csv"
        header = "metric,citation," + ",".join(FLAG_COLUMNS) + ",CL"
        path.write_text(header + "\nx,y," + ",".join(["2"] * 13) + ",1\n")
        with pytest.raises(ValidationError, match="0 or 1"):
            load_catalog(path)


    @pytest.mark.parametrize("flags, cluster, message", [
        ((0,) * 12, 1, "record 'x': expected 13 flags"),
        ((0,) * 13, 0, "record 'x': cluster must be 1..5"),
        ((0,) * 13, 6, "record 'x': cluster must be 1..5"),
    ], ids=["twelve-flags", "cluster-0", "cluster-6"])
    def test_record_checks(self, flags, cluster, message):
        with pytest.raises(ValidationError) as info:
            record("x", flags, cluster)
        assert str(info.value) == message


class TestSummaryCounts:
    def test_shipped_counts_match_reference_totals(self):
        summary = summary_counts(load_catalog())
        expected = {
            "M": 1, "R": 26, "L": 1, "A": 34,
            "TI": 34, "TD": 25,
            "GT": 9, "PB": 46, "SB": 4, "CM": 15,
            "BF": 20, "RD": 18, "RC": 21,
        }
        assert summary.flag_counts == expected
        assert summary.total == 59

    def test_function_histogram(self):
        summary = summary_counts(load_catalog())
        assert summary.function_histogram == {0: 0, 1: 57, 2: 1, 3: 1, 4: 0}

    def test_property_histogram(self):
        summary = summary_counts(load_catalog())
        assert summary.property_histogram == {0: 17, 1: 27, 2: 13, 3: 2}

    def test_shares_sum_against_total(self):
        summary = summary_counts(load_catalog())
        for code, count in summary.flag_counts.items():
            assert summary.flag_shares[code] == pytest.approx(count / summary.total)

    def test_single_blank_record(self):
        summary = summary_counts([record("only", flags_from(()))])
        assert summary.total == 1
        assert all(v == 0 for v in summary.flag_counts.values())


class TestPearsonMatrix:
    def test_self_correlation_is_unit(self):
        matrix = pearson_matrix(load_catalog())
        for label in matrix.labels:
            assert matrix.entry(label, label) == 1.0

    def test_perfect_anticorrelation(self):
        records = [
            record("a", flags_from(("TI",))),
            record("b", flags_from(("TD",))),
            record("c", flags_from(("TI",))),
            record("d", flags_from(("TD",))),
        ]
        matrix = pearson_matrix(records)
        assert matrix.entry("TI", "TD") == pytest.approx(-1.0)

    def test_symmetry_and_bounds(self):
        matrix = pearson_matrix(load_catalog())
        values = matrix.values
        assert np.nanmax(np.abs(values - values.T)) < 1e-12
        assert np.nanmax(np.abs(values)) <= 1.0 + 1e-12

    def test_golden_values_from_independent_recomputation(self):
        # frozen from a scipy.stats.pearsonr run over the shipped table
        matrix = pearson_matrix(load_catalog())
        assert matrix.entry("R", "TD") == pytest.approx(0.8969653425430084, abs=1e-12)
        assert matrix.entry("A", "TI") == pytest.approx(0.8611764705882354, abs=1e-12)
        assert matrix.entry("RC", "TD") == pytest.approx(0.7236613053081086, abs=1e-12)
        assert matrix.entry("RD", "GT") == pytest.approx(0.5379318465051985, abs=1e-12)

    def test_thirteen_default_columns(self):
        matrix = pearson_matrix(load_catalog())
        assert matrix.labels == FLAG_COLUMNS
        assert matrix.values.shape == (13, 13)

    def test_zero_variance_column_flagged(self):
        records = [record("a", flags_from(("PB",))), record("b", flags_from(("PB", "TI")))]
        matrix = pearson_matrix(records)
        assert matrix.undefined_labels == set(FLAG_COLUMNS) - {"TI"}
        assert math.isnan(matrix.entry("PB", "TI"))
        assert matrix.entry("TI", "TI") == 1.0

    def test_csv_shape(self):
        text = pearson_matrix(load_catalog()).to_csv()
        lines = text.strip().splitlines()
        assert len(lines) == 14
        assert lines[0].startswith(",M,R,L,A")


class TestWardLinkage:
    def test_four_point_hand_example(self):
        # 1-d points 0, 1, 4, 5: two tight pairs merging at distance 1,
        # then one final merge at sqrt(2*2*2/4 * 4^2) = sqrt(32)
        merges = ward_linkage([[0.0], [1.0], [4.0], [5.0]])
        assert (merges[0].left, merges[0].right, merges[0].height) == (0, 1, 1.0)
        assert (merges[1].left, merges[1].right, merges[1].height) == (2, 3, 1.0)
        assert merges[2].height == pytest.approx(math.sqrt(32.0), abs=1e-12)
        assert merges[2].size == 4

    def test_matches_scipy_linkage_on_shipped_features(self):
        scipy_hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        records = load_catalog()
        data = np.array(
            [[r.flag(c) for c in CLUSTER_FEATURES] for r in records], dtype=float
        )
        expected = scipy_hierarchy.linkage(data, method="ward", metric="euclidean")
        merges = ward_linkage(data)
        got_heights = sorted(m.height for m in merges)
        np.testing.assert_allclose(got_heights, sorted(expected[:, 2]), atol=1e-9)
        # flat partitions agree too
        expected_labels = scipy_hierarchy.fcluster(expected, t=5, criterion="maxclust")
        got_labels = cut_clusters(merges, len(records), 5)
        assert partition_agreement(got_labels, list(expected_labels)) == 1.0

    def test_heights_nondecreasing(self):
        records = load_catalog()
        data = [[float(r.flag(c)) for c in CLUSTER_FEATURES] for r in records]
        heights = [m.height for m in ward_linkage(data)]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_matches_scipy_on_random_continuous_data(self):
        # continuous coordinates make ties vanish, so the Ward tree is
        # unique and both implementations must coincide exactly
        scipy_hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(3, 18))
            dims = int(rng.integers(1, 6))
            data = rng.normal(size=(n, dims))
            expected = scipy_hierarchy.linkage(data, method="ward", metric="euclidean")
            merges = ward_linkage(data)
            np.testing.assert_allclose(
                sorted(m.height for m in merges), sorted(expected[:, 2]), atol=1e-8
            )
            for k in (2, 3, min(5, n)):
                mine = cut_clusters(merges, n, k)
                theirs = scipy_hierarchy.fcluster(expected, t=k, criterion="maxclust")
                assert partition_agreement(mine, list(theirs)) == 1.0, (n, dims, k)

    def test_identical_rows_merge_first_and_share_cluster(self):
        data = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
        merges = ward_linkage(data)
        assert merges[0].height == 0.0
        assert merges[1].height == 0.0
        labels = cut_clusters(merges, 5, 3)
        assert labels[0] == labels[2]
        assert labels[1] == labels[3]

    def test_two_block_fixture_recovered(self):
        block_a = [[1, 1, 0, 0]] * 4
        block_b = [[0, 0, 1, 1]] * 5
        labels = cut_clusters(ward_linkage(block_a + block_b), 9, 2)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[-1]


class TestPartitionAgreement:
    def test_permuted_labels_agree_fully(self):
        a = [1, 1, 2, 2, 3]
        b = [3, 3, 1, 1, 2]
        assert partition_agreement(a, b) == 1.0

    def test_partial_agreement(self):
        a = [1, 1, 2, 2]
        b = [1, 2, 2, 2]
        assert partition_agreement(a, b) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="same records"):
            partition_agreement([1], [1, 2])


class TestShippedClustering:
    def test_reproduces_reference_partition(self):
        records = load_catalog()
        result = ward_clustering(records, k=5)
        assert reference_agreement(records, result) == 1.0

    def test_exactly_five_nonempty_clusters(self):
        result = ward_clustering(load_catalog(), k=5)
        assert len(set(result.labels)) == 5

    def test_k_larger_than_records_rejected(self):
        records = load_catalog()[:3]
        with pytest.raises(ValidationError, match="cannot form"):
            ward_clustering(records, k=4)

    def test_fifty_eight_merges(self):
        result = ward_clustering(load_catalog(), k=5)
        assert len(result.merges) == 58


class TestDendrogram:
    def test_export_round_trip(self, tmp_path):
        records = load_catalog()
        result = ward_clustering(records, k=5)
        path = tmp_path / "tree.json"
        dendrogram_export(result, path)
        data = json.loads(path.read_text())
        assert data["labels"] == list(result.labels)
        assert data["leaves"] == list(result.leaf_names)
        assert data["feature_columns"] == list(CLUSTER_FEATURES)
        assert len(data["merges"]) == 58

    def test_two_record_tree(self, tmp_path):
        records = [
            record("a", flags_from(("PB",))),
            record("b", flags_from(("GT",))),
        ]
        result = ward_clustering(records, k=1)
        path = tmp_path / "tree.json"
        dendrogram_export(result, path)
        data = json.loads(path.read_text())
        assert len(data["merges"]) == 1

    def test_text_render_mentions_every_leaf(self):
        records = load_catalog()[:6]
        result = ward_clustering(records, k=2)
        text = dendrogram_text(result)
        for name in result.leaf_names:
            assert name in text
