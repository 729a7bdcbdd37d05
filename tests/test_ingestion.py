import io

import numpy as np
import pytest

from mlgcn.datasets import (FeatureConfig, ParseError, SyntheticConfig,
                            dataset_stats, generate_synthetic, load_dataset,
                            parse_edge_list, parse_label_assignments)
from mlgcn.graph import validate_graph


class TestParseEdgeList:
    def test_two_edges_default_weight(self):
        edges, merged, loops = parse_edge_list("1,2\n2,3")
        assert edges == [("1", "2", 1.0), ("2", "3", 1.0)]
        assert merged == 0 and loops == 0

    def test_symmetric_duplicate_merged(self):
        edges, merged, _ = parse_edge_list("1,2\n2,1")
        assert edges == [("1", "2", 2.0)]
        assert merged == 1

    def test_zero_weight_rejected(self):
        with pytest.raises(ParseError, match="line 1.*nonpositive edge weight"):
            parse_edge_list("1,2,0")

    def test_negative_weight_rejected(self):
        with pytest.raises(ParseError, match="nonpositive edge weight"):
            parse_edge_list("1,2,1\n3,4,-2")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400", "0",
                                        "-1"])
    def test_non_finite_or_nonpositive_weight_rejected(self, weight):
        with pytest.raises(ParseError) as info:
            parse_edge_list(f"1,2\n2,3,1.5\n3,4,{weight}\n4,5")
        assert str(info.value) == "line 3: nonpositive edge weight"
        assert info.value.line_no == 3

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("1,2\n5\n3,4")

    def test_self_loops_dropped_and_counted(self):
        edges, _, loops = parse_edge_list("1,1\n1,2\n2,2")
        assert edges == [("1", "2", 1.0)]
        assert loops == 2

    def test_explicit_weights_summed(self):
        edges, merged, _ = parse_edge_list("a,b,2.5\nb,a,0.5")
        assert edges == [("a", "b", 3.0)]
        assert merged == 1

    def test_comments_and_blanks_skipped(self):
        edges, _, _ = parse_edge_list("# header\n\n1,2\n")
        assert edges == [("1", "2", 1.0)]

    def test_tab_and_space_delimiters_autodetected(self):
        assert parse_edge_list("1\t2")[0] == [("1", "2", 1.0)]
        assert parse_edge_list("1 2 4.0")[0] == [("1", "2", 4.0)]

    def test_forced_delimiter(self):
        edges, _, _ = parse_edge_list(io.StringIO("a|b"), delimiter="|")
        assert edges == [("a", "b", 1.0)]


class TestParseLabelAssignments:
    def test_multi_label_node(self):
        assert parse_label_assignments("1,10\n1,11") == [("1", "10"), ("1", "11")]

    def test_duplicates_removed(self):
        assert parse_label_assignments("1,10\n1,10") == [("1", "10")]

    def test_arity_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_label_assignments("1")

    def test_three_fields_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_label_assignments("1,2,3")


class TestLoadDataset:
    def test_hand_graph(self, tmp_path):
        edge_file = tmp_path / "edges.csv"
        label_file = tmp_path / "labels.csv"
        edge_file.write_text("1,2\n")
        label_file.write_text("1,a\n2,a\n2,b\n")
        g = load_dataset(edge_file, label_file)
        assert (g.node_count, g.label_count) == (2, 2)
        assert np.array_equal(g.label_assignments.to_dense(), [[1, 0], [1, 1]])
        assert g.node_ids == ("1", "2")
        assert g.label_ids == ("a", "b")
        assert validate_graph(g) == []

    def test_label_only_node_becomes_isolated(self, tmp_path):
        (tmp_path / "e").write_text("1,2\n")
        (tmp_path / "l").write_text("1,a\n2,a\n7,b\n")
        g = load_dataset(tmp_path / "e", tmp_path / "l")
        assert g.node_count == 3
        assert g.node_ids == ("1", "2", "7")
        # isolated node has no adjacency entries
        assert g.adjacency.to_dense()[2].sum() == 0
        assert validate_graph(g) == []

    def test_empty_label_file_rejected(self, tmp_path):
        (tmp_path / "e").write_text("1,2\n")
        (tmp_path / "l").write_text("# nothing\n")
        with pytest.raises(ValueError, match="no labels"):
            load_dataset(tmp_path / "e", tmp_path / "l")

    def test_gaussian_features(self, tmp_path):
        (tmp_path / "e").write_text("1,2\n")
        (tmp_path / "l").write_text("1,a\n2,a\n")
        g = load_dataset(tmp_path / "e", tmp_path / "l",
                         FeatureConfig(kind="gaussian", dim=8, seed=3))
        assert g.node_features.shape == (2, 8)
        assert g.label_features.shape == (1, 8)
        again = load_dataset(tmp_path / "e", tmp_path / "l",
                             FeatureConfig(kind="gaussian", dim=8, seed=3))
        assert np.array_equal(g.node_features, again.node_features)


class TestDatasetStats:
    def test_hand_graph_counts(self, tmp_path):
        (tmp_path / "e").write_text("1,2\n")
        (tmp_path / "l").write_text("1,a\n2,a\n2,b\n")
        s = dataset_stats(load_dataset(tmp_path / "e", tmp_path / "l"))
        assert (s.node_count, s.edge_count, s.label_count,
                s.cooccurrence_count) == (2, 1, 2, 1)

    def test_edge_count_against_set_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        lines = []
        for _ in range(10_000):
            i, j = rng.integers(0, 150, size=2)
            lines.append(f"{i},{j}")
        (tmp_path / "e").write_text("\n".join(lines) + "\n")
        (tmp_path / "l").write_text("0,a\n")
        distinct = {frozenset((a, b)) for a, b in
                    (line.split(",") for line in lines) if a != b}
        s = dataset_stats(load_dataset(tmp_path / "e", tmp_path / "l"))
        assert s.edge_count == len(distinct)

    def test_cooccurrence_against_pair_enumeration(self):
        rng = np.random.default_rng(5)
        g = generate_synthetic(SyntheticConfig(communities=3, community_size=15,
                                               rho=0.5, seed=2))
        b = g.label_assignments.to_dense()
        pairs = set()
        for i in range(g.node_count):
            labels = np.flatnonzero(b[i])
            for x in range(len(labels)):
                for y in range(x + 1, len(labels)):
                    pairs.add((labels[x], labels[y]))
        assert dataset_stats(g).cooccurrence_count == len(pairs)
        assert len(pairs) <= g.label_count * (g.label_count - 1) // 2


class TestGenerateSynthetic:
    def test_rho_zero_single_labels(self):
        g = generate_synthetic(SyntheticConfig(rho=0.0, community_size=10, seed=0))
        b = g.label_assignments.to_dense()
        assert np.array_equal(b.sum(axis=1), np.ones(g.node_count))
        assert dataset_stats(g).cooccurrence_count == 0
        assert g.label_count == 2

    def test_rho_one_two_labels_everywhere(self):
        g = generate_synthetic(SyntheticConfig(rho=1.0, communities=2,
                                               community_size=10, seed=0))
        b = g.label_assignments.to_dense()
        assert np.array_equal(b.sum(axis=1), 2 * np.ones(g.node_count))
        assert g.label_count == 4
        assert dataset_stats(g).cooccurrence_count == 2

    def test_same_seed_identical(self):
        a = generate_synthetic(SyntheticConfig(seed=9, community_size=12))
        b = generate_synthetic(SyntheticConfig(seed=9, community_size=12))
        assert (a.adjacency != b.adjacency).nnz == 0
        assert (a.label_assignments != b.label_assignments).nnz == 0
        assert np.array_equal(a.node_features, b.node_features)

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticConfig(seed=1, community_size=12))
        b = generate_synthetic(SyntheticConfig(seed=2, community_size=12))
        assert (a.adjacency != b.adjacency).nnz != 0

    def test_generated_graphs_validate(self):
        for seed in range(3):
            g = generate_synthetic(SyntheticConfig(communities=3,
                                                   community_size=8,
                                                   rho=0.5, seed=seed))
            assert validate_graph(g) == []

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(p_intra=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(rho=-0.1)
        with pytest.raises(ValueError):
            SyntheticConfig(communities=1)
