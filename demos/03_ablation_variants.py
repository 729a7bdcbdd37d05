"""Compare the model variants on one synthetic family.

Variants:
  full          2-layer node view + 1-layer label view, cross-injection on
  node          label view stripped of its member-node attributes
  1n            single-layer node view
  2l            two-layer label view
  gcn_baseline  plain 2-layer convolution on the node graph alone (no label
                view, no injections)

Scores are test-set Micro/Macro-F1 with the top-k decision rule, averaged
over a few seeds. Expect `full` ahead of `node` (community information in
the label view matters) and of `gcn_baseline`. At this small scale `1n` can
score deceptively well: a single hop reads the attached label nodes directly,
a shortcut that stops working once the label space grows.
"""

import numpy as np

from mlgcn import (SyntheticConfig, TrainConfig, evaluate,
                   generate_synthetic, split_dataset, train)

SEEDS = (0, 1, 2)
VARIANTS = ("full", "node", "1n", "2l", "gcn_baseline")

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
