"""The BlogCatalog-shaped generator: determinism per seed and dataset shape."""

import numpy as np

import bcgen


def _write(tmp_path, seed, tag):
    data = bcgen.generate(seed)
    edges, labels = tmp_path / f"{tag}.edges", tmp_path / f"{tag}.labels"
    bcgen.write_files(data, seed, str(edges), str(labels))
    return data, edges, labels


def test_same_seed_gives_byte_identical_files(tmp_path):
    _, e1, l1 = _write(tmp_path, 5, "a")
    _, e2, l2 = _write(tmp_path, 5, "b")
    assert e1.read_bytes() == e2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_other_seed_gives_other_files(tmp_path):
    _, e1, l1 = _write(tmp_path, 5, "a")
    _, e2, l2 = _write(tmp_path, 6, "b")
    assert e1.read_bytes() != e2.read_bytes()
    assert l1.read_bytes() != l2.read_bytes()


def test_shape_within_tolerance_and_files_match_counts(tmp_path):
    data, edges, labels = _write(tmp_path, 3, "a")
    assert (data.node_count, data.label_count) == (10312, 39)
    assert data.edge_count == 333983
    assert abs(data.memberships.shape[0] - 14500) <= 0.05 * 14500
    assert 39 <= data.cooccurrence_count <= 39 * 38 // 2
    degree = np.bincount(data.edges.ravel(), minlength=data.node_count)
    assert degree.max() > 20 * np.median(degree)  # heavy tail

    # the written files, read back with plain Python, give the same counts
    pairs, loops, lines = set(), 0, 0
    for line in edges.read_text(encoding="utf-8").splitlines():
        src, dst = line.split(",")
        lines += 1
        if src == dst:
            loops += 1
        else:
            pairs.add(frozenset((src, dst)))
    assert len(pairs) == data.edge_count
    assert loops > 0 and lines > len(pairs) + loops  # merging is exercised
    groups: dict[str, set[str]] = {}
    for line in labels.read_text(encoding="utf-8").splitlines():
        node, label = line.split(",")
        groups.setdefault(node, set()).add(label)
    nodes = {v for p in pairs for v in p} | set(groups)
    assert len(nodes) == data.node_count
    assert len({lab for g in groups.values() for lab in g}) == data.label_count
    cooc = {frozenset((a, b)) for g in groups.values() for a in g for b in g
            if a != b}
    assert len(cooc) == data.cooccurrence_count
    assert all(node.startswith("u") for node in nodes)
