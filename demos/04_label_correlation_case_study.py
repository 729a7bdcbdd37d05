"""How label correlation moves per-label scores.

The paper's premise is that correlated labels help each other: a label
that co-occurs strongly with an easy label inherits signal through the
label view that a plain convolution over the node graph alone cannot use.
This script prints the normalized pair-wise correlation matrix and compares
per-label F1 between the full model and the plain-convolution baseline.

The full model's lead here does not show that premise. `build_operators`
builds the operators from every node's labels, test nodes included, so
each test node is joined to its own true label nodes (README, "The
operators see every node's labels"). With operators built from the
training nodes' labels alone, the plain GCN scored best on this synthetic
family (ROADMAP, "The label leak decides the paper's claim").
"""

from mlgcn import (SyntheticConfig, TrainConfig, evaluate,
                   generate_synthetic, label_correlation_matrix,
                   per_label_breakdown, split_dataset, train)

seed = 1
graph = generate_synthetic(SyntheticConfig(seed=seed))
split = split_dataset(graph, alpha=0.2, seed=seed)
truth = graph.label_indicators()

corr = label_correlation_matrix(graph.label_assignments)
print("pair-wise label correlation matrix (unit diagonal, scaled to [0,1]):")
print("        " + "  ".join(f"{lab:>6s}" for lab in graph.label_ids))
for i, lab in enumerate(graph.label_ids):
    print(f"{lab:>6s}  " + "  ".join(f"{v:6.3f}" for v in corr[i]))

per_label = {}
for variant in ("full", "gcn_baseline"):
    result = train(graph, split, TrainConfig(seed=seed, variant=variant))
    report = evaluate(result.embeddings, truth, split.test_nodes)
    per_label[variant] = dict(per_label_breakdown(report))

print("\nper-label test F1:")
print("label     full   plain-gcn   delta")
for r, lab in enumerate(graph.label_ids):
    full = per_label["full"][r]
    base = per_label["gcn_baseline"][r]
    print(f"{lab:>6s}  {full:6.4f}   {base:6.4f}   {full - base:+7.4f}")

print("\nthe corr* labels exist only through co-occurrence with their home "
      "label; the operators join every node, test nodes included, to its "
      "true label nodes, so the full model's lead includes test labels.")
