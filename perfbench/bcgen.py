"""BlogCatalog-shaped multi-label graph generator for the benchmark.

Writes an edge file and a label file with string ids, shaped like the
BlogCatalog social network (10312 nodes, 39 groups, 333983 undirected edges,
about 14.5k node-group memberships, heavy-tailed degrees), without needing
the real dataset.

Structure: every node belongs to one of `m` communities with fixed
Zipf-like sizes and carries that community's label; 40% of nodes carry one
extra label, mostly the community's partner label, so labels co-occur.
Edges follow a Chung-Lu model: each community gets the same Pareto degree
weights, and 97% of edge endpoints are drawn inside the source's community,
so the labels are learnable from structure. The seed decides only who gets
which size, weight and label, which keeps every seed's graph about equally
hard. The edge file also holds duplicate and self-loop lines, which the
parser must merge or drop.

The same seed gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NODES = 10312
LABELS = 39
EDGES = 333983
EXTRA_LABEL_P = 0.404     # 14478 memberships in total
PARTNER_P = 0.9           # extra label is the community's partner label
INTRA_P = 0.97            # share of edge endpoints drawn inside the community
PARETO_SHAPE = 1.6        # degree tail; smaller is heavier
DUPLICATE_LINES = 0.01    # extra repeated edge lines
SELF_LOOP_LINES = 0.001


@dataclass(frozen=True)
class BCData:
    """Generated graph in index form, plus the counts `mlgcn stats` must print."""

    edges: np.ndarray        # k x 2 distinct undirected pairs (i < j)
    memberships: np.ndarray  # p x 2 distinct (node, label) pairs
    node_count: int
    label_count: int
    cooccurrence_count: int

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def stats_line(self) -> str:
        return (f"{self.node_count} {self.edge_count} {self.label_count} "
                f"{self.cooccurrence_count}")


def _weighted_pick(rng, cum: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Index in [lo, hi) drawn with probability proportional to the weights
    whose inclusive cumulative sums are `cum`."""
    base = np.where(lo > 0, cum[np.maximum(lo - 1, 0)], 0.0)
    target = base + rng.random(lo.size) * (cum[hi - 1] - base)
    return np.minimum(np.searchsorted(cum, target, side="right"), hi - 1)


def generate(seed: int) -> BCData:
    """Draw one BlogCatalog-shaped graph from `seed`."""
    rng = np.random.default_rng([seed, 0xB1C])
    share = 1.0 / np.arange(1, LABELS + 1) ** 0.9
    sizes = np.floor(share / share.sum() * NODES).astype(np.int64)
    sizes[: NODES - sizes.sum()] += 1
    community = rng.permutation(np.repeat(np.arange(LABELS), sizes))

    # memberships: home label plus, for some nodes, one distinct extra label
    extra = np.sort(rng.choice(NODES, size=round(EXTRA_LABEL_P * NODES),
                               replace=False))
    partner = (community[extra] + 1) % LABELS
    other = (community[extra] + rng.integers(1, LABELS, extra.size)) % LABELS
    extra_label = np.where(rng.random(extra.size) < PARTNER_P, partner, other)
    memberships = np.concatenate([
        np.column_stack([np.arange(NODES), community]),
        np.column_stack([extra, extra_label])])

    # nodes sorted by community, so each community is one weight segment;
    # each gets the same Pareto quantiles (heavy-tailed degrees), shuffled
    order = np.argsort(community, kind="stable")
    seg_end = np.cumsum(sizes)
    seg_start = seg_end - sizes
    weight = np.concatenate([
        rng.permutation(((np.arange(k) + 0.5) / k) ** (-1.0 / PARETO_SHAPE))
        for k in sizes])
    cum = np.cumsum(weight)

    keys = np.empty(0, dtype=np.int64)
    batch = EDGES // 2
    while keys.size < EDGES:
        src = order[_weighted_pick(rng, cum, np.zeros(batch, np.int64),
                                   np.full(batch, NODES))]
        c = community[src]
        inside = rng.random(batch) < INTRA_P
        lo = np.where(inside, seg_start[c], 0)
        hi = np.where(inside, seg_end[c], NODES)
        dst = order[_weighted_pick(rng, cum, lo, hi)]
        keep = src != dst
        a, b = np.minimum(src, dst)[keep], np.maximum(src, dst)[keep]
        cand = np.concatenate([keys, a * NODES + b])
        _, first = np.unique(cand, return_index=True)
        keys = cand[np.sort(first)]
    keys = keys[:EDGES]
    pairs = np.column_stack([keys // NODES, keys % NODES])

    labels_of = np.zeros((NODES, LABELS), dtype=bool)
    labels_of[memberships[:, 0], memberships[:, 1]] = True
    cooc = labels_of.T.astype(np.int64) @ labels_of.astype(np.int64)
    cooccurrence = int(np.count_nonzero(np.triu(cooc, k=1)))
    return BCData(edges=pairs, memberships=memberships, node_count=NODES,
                  label_count=int(np.count_nonzero(labels_of.any(axis=0))),
                  cooccurrence_count=cooccurrence)


def write_files(data: BCData, seed: int, edge_path: str, label_path: str):
    """Write `data` as comma-separated edge and label files with string ids,
    in a seeded line order, including duplicate and self-loop lines."""
    rng = np.random.default_rng([seed, 0xF11E])
    n = data.node_count
    ids = np.array([f"u{v}" for v in rng.permutation(n) + 1])
    k = data.edge_count
    dup = rng.choice(k, size=int(k * DUPLICATE_LINES), replace=False)
    loops = rng.choice(n, size=int(k * SELF_LOOP_LINES), replace=False)
    lines = np.concatenate([data.edges, data.edges[dup],
                            np.column_stack([loops, loops])])
    swap = rng.random(lines.shape[0]) < 0.5
    lines[swap] = lines[swap][:, ::-1]
    lines = lines[rng.permutation(lines.shape[0])]
    with open(edge_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(np.char.add(np.char.add(ids[lines[:, 0]], ","),
                                       ids[lines[:, 1]])))
        fh.write("\n")

    mem = data.memberships[rng.permutation(data.memberships.shape[0])]
    with open(label_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(f"{ids[v]},g{lab + 1}" for v, lab in mem))
        fh.write("\n")
