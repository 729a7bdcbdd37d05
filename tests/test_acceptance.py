"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values. The synthetic-family training runs are shared
between the learning-sanity and ablation criteria through a module fixture.
"""

import time

import numpy as np
import pytest

from mlgcn.cli import main as cli_main
from mlgcn.datasets import SyntheticConfig, generate_synthetic
from mlgcn.graph import MultiLabelGraph
from mlgcn.kernels import (backward, multi_label_loss, multi_label_loss_grad,
                           single_label_loss, single_label_loss_grad,
                           softmax_rows)
from mlgcn.matrices import SparseMatrix
from mlgcn.metrics import compute_f1, evaluate, split_dataset
from mlgcn.operators import (build_label_cooccurrence,
                             build_label_label_node_adj,
                             build_node_node_label_adj, build_operators,
                             normalize_symmetric)
from mlgcn.training import (TrainConfig, forward_label_gcn, forward_node_gcn,
                            init_model, train)

FD_EPS = 1e-6
FD_NOISE_FLOOR = 1e-8  # central differences cannot resolve below this here


def report(criterion: int, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 1: gradient correctness --------------------------------------

def _random_tiny_graph(rng, n=6, m=3):
    upper = np.triu(rng.random((n, n)) < 0.5, 1).astype(float)
    a = upper + upper.T
    while True:
        b = (rng.random((n, m)) < 0.4).astype(float)
        if (b.sum(axis=0) > 0).all():
            break
    return MultiLabelGraph(n, m, SparseMatrix(a),
                           SparseMatrix(b),
                           tuple(str(i) for i in range(n)),
                           tuple(f"L{r}" for r in range(m)))


def _collective_loss(ops, model, config, mask, node_targets,
                     label_targets):
    label_logits, _ = forward_label_gcn(ops, model, config)
    l1 = single_label_loss(softmax_rows(label_logits), label_targets)
    node_logits, _ = forward_node_gcn(ops, model, config)
    return l1 + multi_label_loss(node_logits, node_targets, mask)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)
    worst = 0.0
    checked = 0
    for _ in range(100):
        graph = _random_tiny_graph(rng)
        config = TrainConfig(hidden_dim=4, dropout=0.0,
                             seed=int(rng.integers(2 ** 31)))
        ops = build_operators(graph)
        model = init_model(graph, config)
        mask = np.sort(rng.choice(graph.node_count, size=3, replace=False))
        node_targets = graph.label_assignments.to_dense()
        label_targets = np.eye(graph.label_count)

        label_logits, label_caches = forward_label_gcn(ops, model, config)
        d_label = single_label_loss_grad(softmax_rows(label_logits), label_targets)
        node_logits, node_caches = forward_node_gcn(ops, model, config)
        d_node = multi_label_loss_grad(node_logits, node_targets, mask)
        grads = backward(label_caches, d_label, node_caches, d_node)

        for key, analytic in grads.items():
            w = model.weights[key]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = w[idx]
                w[idx] = orig + FD_EPS
                lp = _collective_loss(ops, model, config, mask,
                                      node_targets, label_targets)
                w[idx] = orig - FD_EPS
                lm = _collective_loss(ops, model, config, mask,
                                      node_targets, label_targets)
                w[idx] = orig
                fd = (lp - lm) / (2 * FD_EPS)
                diff = abs(analytic[idx] - fd)
                checked += 1
                if diff > FD_NOISE_FLOOR:
                    worst = max(worst, diff / max(abs(analytic[idx]), abs(fd)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-5 and elapsed < 30.0,
           f"gradients vs central differences on 100 tiny instances: "
           f"max rel err {worst:.3e} (<=1e-5) over {checked} entries, "
           f"{elapsed:.1f}s (<30s)")


# -- criterion 2: operator oracle --------------------------------------------

def _dense_normalize(m_dense):
    with_loops = m_dense + np.eye(m_dense.shape[0])
    inv = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return inv[:, None] * with_loops * inv[None, :]


def test_criterion_2_operator_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, min(7, 26 - n)))
        upper = np.triu(rng.random((n, n)) < 0.4, 1) * rng.uniform(0.5, 2.0, (n, n))
        a = np.triu(upper, 1)
        a = a + a.T
        b = (rng.random((n, m)) < 0.45).astype(float)

        e = build_node_node_label_adj(SparseMatrix(a),
                                      SparseMatrix(b))
        got = normalize_symmetric(e)[:n].toarray()
        e_dense = np.zeros((n + m, n + m))
        e_dense[:n, :n] = a
        e_dense[:n, n:] = b
        e_dense[n:, :n] = b.T
        worst = max(worst, np.abs(got - _dense_normalize(e_dense)[:n]).max())

        c = build_label_cooccurrence(SparseMatrix(b))
        f = build_label_label_node_adj(c, SparseMatrix(b))
        got_f = normalize_symmetric(f)[:m].toarray()
        f_dense = np.zeros((n + m, n + m))
        f_dense[:m, :m] = c.to_dense()
        f_dense[:m, m:] = b.T
        f_dense[m:, :m] = b
        worst = max(worst, np.abs(got_f - _dense_normalize(f_dense)[:m]).max())
    report(2, worst <= 1e-12,
           f"normalize+truncate vs dense brute force on 200 random graphs "
           f"(n+m<=25): max abs err {worst:.3e} (<=1e-12)")


# -- criterion 3: metric oracle ----------------------------------------------

def test_criterion_3_metric_oracle():
    rng = np.random.default_rng(99)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 11))
        pred = (rng.random((n, m)) < 0.5).astype(int)
        truth = (rng.random((n, m)) < 0.5).astype(int)
        subset = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                    replace=False))
        rep = compute_f1(pred, truth, subset)
        tp = np.zeros(m, dtype=int)
        fp = np.zeros(m, dtype=int)
        fn = np.zeros(m, dtype=int)
        for r in range(m):
            for i in subset:
                if pred[i, r] and truth[i, r]:
                    tp[r] += 1
                elif pred[i, r]:
                    fp[r] += 1
                elif truth[i, r]:
                    fn[r] += 1
        for r in range(m):
            s = rep.per_label[r]
            if (s.tp, s.fp, s.fn) != (tp[r], fp[r], fn[r]):
                exact = False
        denom = int((2 * tp + fp + fn).sum())
        micro = 2 * tp.sum() / denom if denom else 0.0
        if rep.micro_f1 != micro:
            exact = False

    pred = np.array([[1, 0], [1, 0]])
    truth = np.array([[1, 1], [0, 0]])
    hand = compute_f1(pred, truth, np.arange(2))
    hand_ok = (abs(hand.micro_f1 - 0.5) < 1e-15
               and abs(hand.macro_f1 - 1.0 / 3.0) < 1e-15)
    report(3, exact and hand_ok,
           f"confusion counts exact on 1000 random pairs; hand case "
           f"micro={hand.micro_f1} macro={hand.macro_f1}")


# -- criteria 4 & 5: learning sanity and ablation ordering -------------------

@pytest.fixture(scope="module")
def family_runs():
    """Ten seeds of the synthetic family, trained with the full model and
    with the node-view ablation, at paper-default hyperparameters."""
    runs = {"full_micro": [], "node_micro": [], "loss_ratio": [],
            "first5_seconds": 0.0}
    for seed in range(10):
        t0 = time.perf_counter()
        graph = generate_synthetic(SyntheticConfig(seed=seed))
        split = split_dataset(graph, 0.2, seed=seed)
        truth = graph.label_assignments.to_dense()
        result = train(graph, split, TrainConfig(seed=seed))
        runs["loss_ratio"].append(result.history.total_loss[-1]
                                  / result.history.total_loss[0])
        runs["full_micro"].append(
            evaluate(result.embeddings, truth, split.test_nodes).micro_f1)
        if seed < 5:
            runs["first5_seconds"] += time.perf_counter() - t0
        node_result = train(graph, split, TrainConfig(seed=seed, variant="node"))
        runs["node_micro"].append(
            evaluate(node_result.embeddings, truth, split.test_nodes).micro_f1)
    return runs


def test_criterion_4_learning_sanity(family_runs):
    ratios = family_runs["loss_ratio"][:5]
    mean_micro = float(np.mean(family_runs["full_micro"][:5]))
    seconds = family_runs["first5_seconds"]
    ok = all(r <= 0.5 for r in ratios) and mean_micro >= 0.85 and seconds < 120.0
    report(4, ok,
           f"loss ratios {[f'{r:.3f}' for r in ratios]} (all <=0.5), "
           f"mean test micro-F1 {mean_micro:.4f} (>=0.85) over 5 seeds, "
           f"{seconds:.1f}s (<120s)")


def test_criterion_5_ablation_ordering(family_runs):
    full = float(np.mean(family_runs["full_micro"]))
    node = float(np.mean(family_runs["node_micro"]))
    report(5, full - node >= 0.01,
           f"mean micro-F1 over 10 seeds: full {full:.4f} vs node-ablation "
           f"{node:.4f}, gap {full - node:+.4f} (>=0.01)")


# -- criterion 6: complexity scaling ------------------------------------------

def test_criterion_6_complexity_scaling():
    def epoch_seconds(p_intra, p_inter):
        graph = generate_synthetic(SyntheticConfig(
            communities=2, community_size=150, p_intra=p_intra,
            p_inter=p_inter, rho=1.0, seed=0))
        split = split_dataset(graph, 0.2, seed=0)
        config = TrainConfig(epochs=26, hidden_dim=64, seed=0)
        history = train(graph, split, config).history
        edges = graph.adjacency.nnz // 2
        return edges, float(np.mean(history.epoch_seconds[5:]))

    edges_1x, time_1x = epoch_seconds(0.08, 0.01)
    edges_2x, time_2x = epoch_seconds(0.16, 0.02)
    ratio = time_2x / time_1x
    edge_ratio = edges_2x / edges_1x
    report(6, ratio <= 2.5 and 1.7 <= edge_ratio <= 2.3,
           f"edges {edges_1x} -> {edges_2x} (x{edge_ratio:.2f}): mean epoch "
           f"time {time_1x*1e3:.1f}ms -> {time_2x*1e3:.1f}ms, "
           f"factor {ratio:.2f} (<=2.5) over 21 epochs after warm-up")


# -- criterion 7: CLI determinism ---------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    argv = ["train", "--synthetic", "k=2,size=40,rho=0.8", "--seed", "13",
            "--epochs", "40", "--hidden", "32"]
    assert cli_main(argv + ["--out", str(tmp_path / "run1")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "run2")]) == 0
    same = True
    for name in ("history.csv", "embeddings.tsv"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        same = same and a == b
    report(7, same, "two cmd_train runs with identical flags and seed "
                    "produced byte-identical history and embedding files")


# -- criterion 8: closed-form losses ------------------------------------------

def test_criterion_8_closed_form_losses():
    z = np.full((3, 3), 1.0 / 3.0)
    l1 = single_label_loss(z, np.eye(3))
    err1 = abs(l1 - 3.0 * np.log(3.0))

    labeled = np.array([0, 2, 5])
    m = 4
    logits = np.zeros((7, m))
    targets = (np.random.default_rng(0).random((7, m)) < 0.5).astype(float)
    l2 = multi_label_loss(logits, targets, labeled)
    err2 = abs(l2 - labeled.size * m * np.log(2.0))
    report(8, err1 <= 1e-9 and err2 <= 1e-9,
           f"uniform-softmax loss {l1:.9f} vs 3ln3 (err {err1:.2e}); "
           f"zero-logit loss {l2:.9f} vs |y|*m*ln2 (err {err2:.2e})")
