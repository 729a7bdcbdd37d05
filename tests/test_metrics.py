import numpy as np
import pytest

from mlgcn.datasets import SyntheticConfig, generate_synthetic
from mlgcn.matrices import SparseMatrix
from mlgcn.metrics import (compute_f1, evaluate, label_correlation_matrix,
                           per_label_breakdown, predict_labels, split_dataset)


def brute_force_counts(pred, truth, subset):
    m = pred.shape[1]
    tp = np.zeros(m, dtype=int)
    fp = np.zeros(m, dtype=int)
    fn = np.zeros(m, dtype=int)
    for r in range(m):
        for i in subset:
            p, t = pred[i, r], truth[i, r]
            if p and t:
                tp[r] += 1
            elif p and not t:
                fp[r] += 1
            elif t and not p:
                fn[r] += 1
    return tp, fp, fn


class TestSplitDataset:
    def test_documented_sizes(self):
        split = split_dataset(100, 0.2, seed=0)
        assert split.sizes() == {"train": 20, "val": 8, "test": 72}

    def test_partition_covers_everything_disjointly(self):
        split = split_dataset(57, 0.3, seed=1)
        union = np.concatenate([split.train_nodes, split.val_nodes,
                                split.test_nodes])
        assert sorted(union.tolist()) == list(range(57))

    def test_same_seed_identical(self):
        a = split_dataset(100, 0.2, seed=5)
        b = split_dataset(100, 0.2, seed=5)
        assert np.array_equal(a.train_nodes, b.train_nodes)
        assert np.array_equal(a.val_nodes, b.val_nodes)
        assert np.array_equal(a.test_nodes, b.test_nodes)

    def test_different_seed_differs(self):
        a = split_dataset(100, 0.2, seed=5)
        b = split_dataset(100, 0.2, seed=6)
        assert not np.array_equal(a.train_nodes, b.train_nodes)

    def test_extreme_alpha_keeps_one_test_node(self):
        split = split_dataset(100, 0.99, seed=0)
        assert split.sizes() == {"train": 99, "val": 0, "test": 1}

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            split_dataset(10, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(10, 1.0, seed=0)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty training"):
            split_dataset(10, 0.01, seed=0)

    def test_graph_argument_accepted(self):
        g = generate_synthetic(SyntheticConfig(community_size=10, seed=0))
        split = split_dataset(g, 0.2, seed=0)
        assert split.train_nodes.size == round(0.2 * g.node_count)


class TestPredictLabels:
    def test_threshold_rule(self):
        scores = np.array([[2.0, -2.0]])
        assert np.array_equal(predict_labels(scores, rule="threshold"),
                              [[1, 0]])

    def test_top_k_true(self):
        scores = np.array([[3.0, 2.0, 1.0]])
        truth = np.array([[1.0, 0.0, 1.0]])  # k = 2
        assert np.array_equal(
            predict_labels(scores, rule="top_k_true", truth=truth),
            [[1, 1, 0]])

    def test_tie_at_kth_score_prefers_lower_index(self):
        scores = np.array([[1.0, 0.5, 0.5, 0.0]])
        truth = np.array([[1.0, 1.0, 0.0, 0.0]])  # k = 2, labels 1 and 2 tied
        assert np.array_equal(
            predict_labels(scores, rule="top_k_true", truth=truth),
            [[1, 1, 0, 0]])

    def test_top_k_requires_truth(self):
        with pytest.raises(ValueError, match="requires the truth"):
            predict_labels(np.zeros((1, 2)), rule="top_k_true")

    def test_top_k_predicts_exactly_sum_of_k(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 8))
            scores = rng.standard_normal((n, m))
            truth = (rng.random((n, m)) < 0.4).astype(float)
            pred = predict_labels(scores, rule="top_k_true", truth=truth)
            assert pred.sum() == truth.sum()
            assert np.array_equal(pred.sum(axis=1), truth.sum(axis=1))

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown decision rule"):
            predict_labels(np.zeros((1, 1)), rule="magic")


class TestComputeF1:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(1)
        truth = (rng.random((10, 4)) < 0.5).astype(int)
        rep = compute_f1(truth, truth, np.arange(10))
        assert rep.micro_f1 == 1.0 and rep.macro_f1 == 1.0

    def test_hand_case_micro_half_macro_third(self):
        # label 0: TP=1 FP=1 FN=0; label 1: TP=0 FP=0 FN=1
        pred = np.array([[1, 0], [1, 0]])
        truth = np.array([[1, 1], [0, 0]])
        rep = compute_f1(pred, truth, np.arange(2))
        assert abs(rep.micro_f1 - 0.5) < 1e-15
        assert abs(rep.macro_f1 - 1.0 / 3.0) < 1e-15
        assert (rep.per_label[0].tp, rep.per_label[0].fp,
                rep.per_label[0].fn) == (1, 1, 0)
        assert (rep.per_label[1].tp, rep.per_label[1].fp,
                rep.per_label[1].fn) == (0, 0, 1)

    def test_all_zero_predictions(self):
        truth = np.ones((3, 2), dtype=int)
        rep = compute_f1(np.zeros((3, 2), dtype=int), truth, np.arange(3))
        assert rep.micro_f1 == 0.0

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty evaluation subset"):
            compute_f1(np.zeros((2, 2)), np.zeros((2, 2)), np.array([], dtype=int))

    # a bool subset [False, False, True] used to score rows 0, 0 and 1, with
    # subset_size 3
    @pytest.mark.parametrize("subset", [[False, False, True], [2.0], [0.5]])
    def test_refuses_non_integer_subsets(self, subset):
        truth = np.array([[1, 0], [1, 0], [0, 1]])
        assert compute_f1(truth, truth, [2]).subset_size == 1
        with pytest.raises(ValueError, match="must hold integers"):
            compute_f1(truth, truth, subset)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(1, 11))
            pred = (rng.random((n, m)) < 0.5).astype(int)
            truth = (rng.random((n, m)) < 0.5).astype(int)
            size = int(rng.integers(1, n + 1))
            subset = np.sort(rng.choice(n, size=size, replace=False))
            tp, fp, fn = brute_force_counts(pred, truth, subset)
            rep = compute_f1(pred, truth, subset)
            for r in range(m):
                assert (rep.per_label[r].tp, rep.per_label[r].fp,
                        rep.per_label[r].fn) == (tp[r], fp[r], fn[r])
            denom = (2 * tp + fp + fn).sum()
            micro = 2 * tp.sum() / denom if denom else 0.0
            per = [2 * tp[r] / (2 * tp[r] + fp[r] + fn[r])
                   if 2 * tp[r] + fp[r] + fn[r] else 0.0 for r in range(m)]
            assert abs(rep.micro_f1 - micro) < 1e-15
            assert abs(rep.macro_f1 - np.mean(per)) < 1e-15

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pred = (rng.random((20, 6)) < 0.5).astype(int)
        truth = (rng.random((20, 6)) < 0.5).astype(int)
        subset = np.arange(20)
        base = compute_f1(pred, truth, subset)
        perm = rng.permutation(6)
        swapped = compute_f1(pred[:, perm], truth[:, perm], subset)
        assert abs(base.micro_f1 - swapped.micro_f1) < 1e-15
        assert abs(base.macro_f1 - swapped.macro_f1) < 1e-15

    def test_macro_equals_mean_of_per_label(self):
        rng = np.random.default_rng(4)
        pred = (rng.random((30, 5)) < 0.4).astype(int)
        truth = (rng.random((30, 5)) < 0.4).astype(int)
        rep = compute_f1(pred, truth, np.arange(30))
        assert abs(rep.macro_f1
                   - np.mean([s.f1 for s in rep.per_label])) <= 1e-12


class TestPerLabelBreakdown:
    def test_matches_report_records(self):
        rng = np.random.default_rng(5)
        pred = (rng.random((10, 4)) < 0.5).astype(int)
        truth = (rng.random((10, 4)) < 0.5).astype(int)
        rep = compute_f1(pred, truth, np.arange(10))
        breakdown = per_label_breakdown(rep)
        assert [b[0] for b in breakdown] == [0, 1, 2, 3]
        for label, f1 in breakdown:
            assert f1 == rep.per_label[label].f1

    def test_unpredicted_label_scores_zero(self):
        pred = np.array([[1, 0], [1, 0]])
        truth = np.array([[1, 1], [1, 0]])
        rep = compute_f1(pred, truth, np.arange(2))
        assert dict(per_label_breakdown(rep))[1] == 0.0


class TestLabelCorrelationMatrix:
    def test_single_pair_normalizes_to_one(self):
        b = SparseMatrix(np.array([[1., 1., 0.]] * 5))
        corr = label_correlation_matrix(b)
        assert corr[0, 1] == 1.0 and corr[1, 0] == 1.0
        assert corr[0, 2] == 0.0
        assert np.array_equal(np.diag(corr), np.ones(3))

    def test_no_cooccurrence_keeps_zeros(self):
        b = SparseMatrix(np.eye(3))
        corr = label_correlation_matrix(b)
        assert np.array_equal(corr, np.eye(3))

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(6)
        b = SparseMatrix((rng.random((30, 5)) < 0.5).astype(float))
        corr = label_correlation_matrix(b)
        assert np.array_equal(corr, corr.T)
        assert corr.min() >= 0.0 and corr.max() <= 1.0


class TestEvaluate:
    def test_threshold_tag(self):
        scores = np.array([[5.0, -5.0]])
        truth = np.array([[1.0, 0.0]])
        rep = evaluate(scores, truth, np.array([0]), rule="threshold",
                       threshold=0.5)
        assert rep.decision_rule == "threshold:0.5"
        assert rep.micro_f1 == 1.0

    def test_default_rule_is_top_k(self):
        scores = np.array([[1.0, 0.0]])
        truth = np.array([[0.0, 1.0]])
        rep = evaluate(scores, truth, np.array([0]))
        assert rep.decision_rule == "top_k_true"
        assert rep.micro_f1 == 0.0

    @pytest.mark.parametrize("rule", ["top_k_true", "threshold"])
    def test_equals_predicting_every_row_then_the_subset(self, rule):
        # few distinct scores, so top_k_true breaks many ties
        rng = np.random.default_rng(8)
        scores = rng.integers(-2, 3, size=(60, 7)).astype(float)
        truth = (rng.random((60, 7)) < 0.3).astype(float)
        truth[::9] = 0.0  # rows with no true label
        for size in (1, 13, 60):
            subset = np.sort(rng.choice(60, size=size, replace=False))
            pred = predict_labels(scores, rule=rule, truth=truth)
            tag = rule if rule == "top_k_true" else "threshold:0.5"
            assert evaluate(scores, truth, subset, rule=rule) == compute_f1(
                pred, truth, subset, decision_rule=tag)
        with pytest.raises(ValueError, match="empty evaluation subset"):
            evaluate(scores, truth, np.array([], dtype=int), rule=rule)

    @pytest.mark.parametrize("subset", [[False, False, True], [2.0], [0.5]])
    def test_refuses_non_integer_subsets(self, subset):
        truth = np.array([[1, 0], [1, 0], [0, 1]])
        scores = np.array([[2.0, -1.0], [1.0, 0.0], [0.0, 3.0]])
        assert evaluate(scores, truth, [2]).subset_size == 1
        with pytest.raises(ValueError, match="must hold integers"):
            evaluate(scores, truth, subset)
