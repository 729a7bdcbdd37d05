"""Compare the model variants on one synthetic family.

Variants:
  full          2-layer node view + 1-layer label view, cross-injection on
  node          label view stripped of its member-node attributes
  1n            single-layer node view
  2l            two-layer label view
  gcn_baseline  plain 2-layer convolution on the node graph alone (no label
                view, no injections)

Scores are test-set Micro/Macro-F1 with the top-k decision rule, averaged
over a few seeds. `full` usually scores ahead of `node` and of
`gcn_baseline` here, but that lead is not evidence for the label view:
`build_operators` builds every operator from every node's labels, test
nodes included, so each test node is joined to its own true label nodes
(README, "The operators see every node's labels"). With the operators built
from the training nodes' labels alone, this family's plain GCN scored best
(seeds 0-9: mean test micro-F1 0.851, against 0.818 for `full` and 0.849 for
`node`; ROADMAP, "The label leak decides the paper's claim"). `1n` can
score well for the same reason: its single hop reads each node's attached
label nodes directly.
"""

import numpy as np

from mlgcn import (SyntheticConfig, TrainConfig, evaluate,
                   generate_synthetic, split_dataset, train)
from mlgcn.training import VARIANTS

SEEDS = (0, 1, 2)

scores = {v: {"micro": [], "macro": []} for v in VARIANTS}
for seed in SEEDS:
    graph = generate_synthetic(SyntheticConfig(seed=seed))
    split = split_dataset(graph, alpha=0.2, seed=seed)
    truth = graph.label_indicators()
    for variant in VARIANTS:
        result = train(graph, split, TrainConfig(seed=seed, variant=variant))
        report = evaluate(result.embeddings, truth, split.test_nodes)
        scores[variant]["micro"].append(report.micro_f1)
        scores[variant]["macro"].append(report.macro_f1)
        print(f"seed {seed} {variant:12s} micro {report.micro_f1:.4f} "
              f"macro {report.macro_f1:.4f}")

print(f"\nmeans over {len(SEEDS)} seeds:")
print("variant        micro-F1          macro-F1")
for variant in VARIANTS:
    mi = scores[variant]["micro"]
    ma = scores[variant]["macro"]
    print(f"{variant:12s}  {np.mean(mi):.4f} ± {np.std(mi):.4f}"
          f"   {np.mean(ma):.4f} ± {np.std(ma):.4f}")
