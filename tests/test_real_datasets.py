"""Optional checks against user-supplied benchmark datasets.

Point MLGCN_BLOGCATALOG_DIR at a directory containing the BlogCatalog
distribution's `edges.csv` and `group-edges.csv` to enable these; they are
skipped otherwise. The expected counts are properties of that dataset.
"""

import os

import pytest

from mlgcn.datasets import dataset_stats, load_dataset

BLOGCATALOG = os.environ.get("MLGCN_BLOGCATALOG_DIR")

pytestmark = pytest.mark.skipif(
    not BLOGCATALOG, reason="set MLGCN_BLOGCATALOG_DIR to run")


def test_blogcatalog_statistics():
    edges = os.path.join(BLOGCATALOG, "edges.csv")
    labels = os.path.join(BLOGCATALOG, "group-edges.csv")
    g = load_dataset(edges, labels)
    s = dataset_stats(g)
    assert s.node_count == 10312
    assert s.edge_count == 333983
    assert s.label_count == 39
    assert s.cooccurrence_count == 615
