"""Train the coupled model end to end on a synthetic benchmark.

Each epoch the label view classifies the label nodes against themselves
(single-label cross-entropy), the node view classifies the labeled training
nodes (masked multi-label cross-entropy on logits), and both stacks take one
gradient step on the summed objective. Every 50 epochs each view's logits
are projected and injected as the other view's attribute features.
"""

from mlgcn import (SyntheticConfig, TrainConfig, evaluate,
                   generate_synthetic, split_dataset, train)

seed = 0
graph = generate_synthetic(SyntheticConfig(seed=seed))  # 2x100 nodes, rho=0.8
split = split_dataset(graph, alpha=0.2, seed=seed)
print(f"graph: n={graph.node_count} m={graph.label_count}; "
      f"split sizes {split.sizes()}")

config = TrainConfig(seed=seed)  # lr 0.02, 300 epochs, d_h 400, dropout 0.5
result = train(graph, split, config)

history = result.history
print("\nepoch   label loss   node loss   total     val micro-F1")
for epoch in (0, 1, 25, 50, 100, 150, 200, 250, 299):
    print(f"{epoch:5d}   {history.label_loss[epoch]:10.3f}   "
          f"{history.node_loss[epoch]:9.3f}   {history.total_loss[epoch]:7.2f}"
          f"   {history.val_micro_f1[epoch]:.4f}")

decrease = 1.0 - history.total_loss[-1] / history.total_loss[0]
print(f"\ntraining loss decreased {decrease:.1%} over {config.epochs} epochs")

truth = graph.label_indicators()
for rule in ("top_k_true", "threshold"):
    report = evaluate(result.embeddings, truth, split.test_nodes, rule=rule)
    print(f"test {report.decision_rule}: micro-F1 {report.micro_f1:.4f}, "
          f"macro-F1 {report.macro_f1:.4f}")

print(f"\nnode embeddings have shape {result.embeddings.shape} "
      "(one logit row per node, one column per label)")
