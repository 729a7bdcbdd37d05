import collections
import gc
import hashlib
import io
import itertools
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlgcn import datasets, files
from mlgcn.datasets import (ParseError, SyntheticConfig, dataset_stats,
                            generate_synthetic, load_dataset, parse_edge_list,
                            parse_label_assignments)
from mlgcn.graph import validate_graph


def parse_edges(text, delimiter=None):
    """parse_edge_list's node ids, then its src, dst and weight as lists."""
    nodes = {}
    src, dst, weight = parse_edge_list(text, nodes, delimiter)
    return list(nodes), src.tolist(), dst.tolist(), weight.tolist()


def load_text(tmp_path, edges, labels):
    (tmp_path / "e").write_text(edges)
    (tmp_path / "l").write_text(labels)
    return load_dataset(tmp_path / "e", tmp_path / "l")


class TestParseEdgeList:
    def test_two_edges_default_weight(self):
        assert parse_edges("1,2\n2,3") == (["1", "2", "3"], [0, 1], [1, 2],
                                           [1.0, 1.0])

    def test_symmetric_duplicate_merged(self, tmp_path):
        # the parser keeps both lines; the assembled graph holds one edge
        assert parse_edges("1,2\n2,1") == (["1", "2"], [0, 1], [1, 0],
                                           [1.0, 1.0])
        g = load_text(tmp_path, "1,2\n2,1", "1,a\n")
        assert np.array_equal(g.adjacency.to_dense(), [[0, 2], [2, 0]])
        assert dataset_stats(g).edge_count == 1

    def test_zero_weight_rejected(self):
        with pytest.raises(ParseError, match="line 1.*nonpositive edge weight"):
            parse_edge_list("1,2,0", {})

    def test_negative_weight_rejected(self):
        with pytest.raises(ParseError, match="nonpositive edge weight"):
            parse_edge_list("1,2,1\n3,4,-2", {})

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400", "0",
                                        "-1"])
    def test_non_finite_or_nonpositive_weight_rejected(self, weight):
        with pytest.raises(ParseError) as info:
            parse_edge_list(f"1,2\n2,3,1.5\n3,4,{weight}\n4,5", {})
        assert str(info.value) == "line 3: nonpositive edge weight"
        assert info.value.line_no == 3

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("1,2\n5\n3,4", {})

    def test_self_loops_dropped(self):
        assert parse_edges("1,1\n1,2\n2,2") == (["1", "2"], [0], [1], [1.0])
        # a node seen only in self-loops gets no index
        assert parse_edges("3,3\n1,2")[0] == ["1", "2"]

    def test_explicit_weights_summed(self, tmp_path):
        assert parse_edges("a,b,2.5\nb,a,0.5")[3] == [2.5, 0.5]
        g = load_text(tmp_path, "a,b,2.5\nb,a,0.5", "a,x\n")
        assert np.array_equal(g.adjacency.to_dense(), [[0, 3.0], [3.0, 0]])

    def test_comments_and_blanks_skipped(self):
        assert parse_edges("# header\n\n1,2\n") == (["1", "2"], [0], [1], [1.0])
        with pytest.raises(ParseError, match="line 4"):
            parse_edge_list("# header\n\n1,2\nbroken\n", {})

    def test_tab_and_space_delimiters_autodetected(self):
        assert parse_edges("1\t2") == (["1", "2"], [0], [1], [1.0])
        assert parse_edges("1 2 4.0") == (["1", "2"], [0], [1], [4.0])

    def test_forced_delimiter(self):
        assert parse_edges(io.StringIO("a|b"), delimiter="|") == (
            ["a", "b"], [0], [1], [1.0])

    @pytest.mark.parametrize("text,delimiter", [
        ("1, 2\n2 ,3 , 1.5\n", None), ("1\t 2\n2 \t3\t 1.5\n", None),
        ("1 ; 2\n2;3 ;1.5\n", ";"), ("1\t;2\n2;\t3 \t; 1.5\n", ";"),
        ("1\t,2\n2 ,\t3,\t1.5\n", ",")],
        ids=["comma", "tab", "forced", "forced-tab", "forced-comma-tab"])
    def test_spaces_around_a_delimiter_are_not_part_of_an_id(self, text,
                                                             delimiter):
        assert parse_edges(text, delimiter) == (
            ["1", "2", "3"], [0, 1], [1, 2], [1.0, 1.5])
        # spaces inside an id stay
        assert parse_edges(text.replace("1", "x y", 1), delimiter)[0] == [
            "x y", "2", "3"]

    @pytest.mark.parametrize("delimiter", [";", ","])
    def test_tab_inside_a_field_beside_a_forced_delimiter(self, delimiter):
        # tabs around a forced separator are padding, but one inside an id
        # would stay in it and make the tab-separated outputs ragged
        text = "a\tb;c\nc;d\nd;a\tb\n".replace(";", delimiter)
        with pytest.raises(ParseError, match="line 1: a tab inside a field"):
            parse_edge_list(text, {}, delimiter)
        with pytest.raises(ParseError, match="line 2: a tab inside a field"):
            parse_label_assignments(f"c{delimiter}x\nd{delimiter}x\ty\n",
                                    {}, {}, delimiter)
        assert parse_edges(text.replace("a\tb", "a \t"), delimiter)[0] == [
            "a", "c", "d"]

    def test_ids_continue_the_callers_index(self):
        nodes = {"x": 0}
        src, dst, _ = parse_edge_list("y,x", nodes)
        assert nodes == {"x": 0, "y": 1}
        assert (src.tolist(), dst.tolist()) == ([1], [0])


class TestParseLabelAssignments:
    def test_multi_label_node(self):
        nodes, labels = {}, {}
        members, groups = parse_label_assignments("1,10\n1,11", nodes, labels)
        assert (members.tolist(), groups.tolist()) == ([0, 0], [0, 1])
        assert (list(nodes), list(labels)) == (["1"], ["10", "11"])

    def test_duplicates_removed(self, tmp_path):
        # the parser keeps both lines; the assembled graph holds one entry
        members, groups = parse_label_assignments("1,10\n1,10", {}, {})
        assert (members.tolist(), groups.tolist()) == ([0, 0], [0, 0])
        g = load_text(tmp_path, "1,2\n", "1,10\n1,10\n2,10\n")
        assert g.label_assignments.nnz == 2
        assert np.array_equal(g.label_assignments.to_dense(), [[1], [1]])

    def test_arity_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_label_assignments("1", {}, {})

    def test_three_fields_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_label_assignments("1,2,3", {}, {})


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

    @pytest.mark.parametrize("sep,delimiter", [
        (", ", None), ("\t ", None), (" ; ", ";"), ("\t;\t", ";"),
        ("\t,", ",")],
        ids=["comma", "tab", "forced", "forced-tab", "forced-comma-tab"])
    def test_spaced_files_give_the_plain_graph(self, tmp_path, sep,
                                               delimiter):
        # a space after a comma used to start an id: "1, 2\n2, 3" held the
        # five nodes 1, " 2", 2, " 3" and 3
        plain = load_text(tmp_path, "1,2\n2,3\n", "1,a\n2,a\n3,a\n")
        assert dataset_stats(plain) == datasets.DatasetStats(3, 2, 1, 0)
        (tmp_path / "se").write_text(f"1{sep}2\n2{sep}3\n")
        (tmp_path / "sl").write_text(f"1{sep}a\n2{sep}a\n3{sep}a\n")
        spaced = load_dataset(tmp_path / "se", tmp_path / "sl", delimiter)
        _same_graph(spaced, plain)

    def test_empty_label_file_rejected(self, tmp_path):
        (tmp_path / "e").write_text("1,2\n")
        (tmp_path / "l").write_text("# nothing\n")
        with pytest.raises(ValueError, match="no labels"):
            load_dataset(tmp_path / "e", tmp_path / "l")


def _random_files(seed):
    """Edge and label text with duplicate pairs in both orientations (some
    repeated 3+ times), self-loops, comments and mixed delimiters, plus the
    first-appearance id orders, the summed adjacency and the membership set
    that loading them must give. Weights are dyadic, so every sum is exact
    in any order."""
    rng = np.random.default_rng(seed)
    ids = [f"v{i}" for i in rng.permutation(40)]
    seps = ["\t", ",", " "]
    lines, nodes, summed, orientations = ["# edges"], {}, {}, {}
    pairs = [tuple(rng.choice(ids, 2, replace=False)) for _ in range(60)]
    for _ in range(300):
        if rng.random() < 0.05:
            a = b = ids[rng.integers(len(ids))]
        else:
            a, b = pairs[rng.integers(len(pairs))]
            if rng.random() < 0.5:
                a, b = b, a
        sep = seps[rng.integers(3)]
        if rng.random() < 0.3:
            w = 1.0
            lines.append(f"{a}{sep}{b}")
        else:
            w = int(rng.integers(1, 17)) / 8
            lines.append(f"{a}{sep}{b}{sep}{w}")
        if rng.random() < 0.05:
            lines.append("# a comment")
        if a != b:
            nodes.setdefault(a, len(nodes))
            nodes.setdefault(b, len(nodes))
            key = frozenset((a, b))
            summed[key] = summed.get(key, 0.0) + w
            orientations.setdefault(key, []).append((a, b))
    label_lines, labels, members = [], {}, set()
    for k in range(80):
        # the last lines add a label-only node and repeat its pair
        v = ids[rng.integers(len(ids))] if k < 78 else "only"
        lab = f"g{rng.integers(6)}" if k < 78 else "g0"
        label_lines.append(f"{v}{seps[rng.integers(3)]}{lab}")
        nodes.setdefault(v, len(nodes))
        labels.setdefault(lab, len(labels))
        members.add((v, lab))
    adjacency = np.zeros((len(nodes), len(nodes)))
    for key, w in summed.items():
        i, j = (nodes[v] for v in key)
        adjacency[i, j] = adjacency[j, i] = w
    assert any(len(seen) >= 3 and len(set(seen)) == 2
               for seen in orientations.values())
    return ("\n".join(lines) + "\n", "\n".join(label_lines) + "\n",
            list(nodes), list(labels), adjacency, members)


class TestIngestionOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_load_matches_dict_oracle(self, tmp_path, seed):
        edges, labels, node_ids, label_ids, a, members = _random_files(seed)
        g = load_text(tmp_path, edges, labels)
        assert list(g.node_ids) == node_ids
        assert list(g.label_ids) == label_ids
        assert np.array_equal(g.adjacency.to_dense(), a)
        assert (g.adjacency != g.adjacency.T).nnz == 0
        b = g.label_assignments.tocoo()
        assert set(zip((g.node_ids[i] for i in b.row),
                       (g.label_ids[j] for j in b.col))) == members
        assert np.all(b.data == 1.0)
        assert validate_graph(g) == []

    def test_inexact_repeated_weights_stay_bitwise_symmetric(self, tmp_path):
        # the sum of 0.1, 0.2 and 0.7 depends on the order it is taken in;
        # in every order of the lines both triangles of A hold the same float
        lines = [f"{a},{b},{w}" for w in (0.1, 0.2, 0.7)
                 for a, b in (("a", "b"), ("b", "a"))]
        for order in itertools.permutations(lines):
            g = load_text(tmp_path, "\n".join(order), "a,x\n")
            dense = g.adjacency.to_dense()
            assert dense[0, 1] == dense[1, 0]
            assert abs(dense[0, 1] - 2.0) < 1e-12
            assert (g.adjacency != g.adjacency.T).nnz == 0
            assert validate_graph(g) == []


def _regular_files(seed, lines=60_000):
    """Edge and label file lines of two ids each (no comments, blanks,
    spaces or weights): duplicate pairs in both orientations, self-loops
    (the ids "first" and "later" appear first in a self-loop line, in the
    first piece and past it, then after "first2" and "later2" in kept
    lines, and "ghost" appears only in self-loops) and label-only
    nodes. Enough lines that the parser cuts the edge file into pieces."""
    rng = np.random.default_rng(seed)
    ids = [f"n{i}" for i in rng.permutation(3000)]
    ends = rng.integers(0, len(ids), size=(lines, 2))
    edges = [f"{ids[a]},{ids[b]}" for a, b in ends]
    for row in rng.integers(100, lines, size=lines // 20):
        edges[row] = "n1,n1"
    for row in rng.integers(0, lines - 1, size=lines // 50):
        edges[row + 1] = ",".join(edges[row].split(",")[::-1])
    edges[10:10] = ["first,first", "first2,first"]
    edges[40_000:40_000] = ["later,later", "ghost,ghost", "later2,later"]
    edges.append("ghost,ghost")
    labels = [f"{ids[v]},g{rng.integers(20)}" for v in
              rng.integers(0, len(ids), size=5000)]
    labels += ["label_only,g3", "n1,g20", "label_only,g3"]
    return edges, labels


def _same_graph(a, b):
    assert a.node_ids == b.node_ids and a.label_ids == b.label_ids
    for x, y in ((a.adjacency, b.adjacency),
                 (a.label_assignments, b.label_assignments)):
        for name in ("indptr", "indices", "data"):
            u, v = getattr(x, name), getattr(y, name)
            assert u.dtype == v.dtype and np.array_equal(u, v)


class TestGrammar:
    """The file grammar on texts of many pieces (`datasets._PIECE`), and on
    small texts with and without a comment line."""

    @pytest.mark.parametrize("sep,final_newline,crlf,forced", [
        (",", True, False, False), (",", False, True, True),
        ("\t", True, True, False), ("\t", False, False, True)])
    def test_self_loops_and_repeated_pairs(self, tmp_path, sep,
                                           final_newline, crlf, forced):
        edges, labels = _regular_files(seed=len(sep) + 2 * crlf)
        delimiter = sep if forced else None
        end = "\r\n" if crlf else "\n"

        def write(name, rows):
            text = end.join(r.replace(",", sep) for r in rows)
            path = tmp_path / name
            path.write_bytes((text + end * final_newline).encode())
            return path

        g = load_dataset(write("e", edges), write("l", labels), delimiter)
        ids = g.node_ids
        assert "ghost" not in ids and ids[-1] == "label_only"
        # ids first met in a self-loop line are indexed at their first kept
        # line, after the other end of it
        for name in ("first", "later"):
            assert ids.index(name) == ids.index(name + "2") + 1
        # every line of a pair adds 1.0 to its weight, in either orientation
        listed = collections.Counter(tuple(r.split(",")) for r in edges)
        summed = collections.Counter()
        for (u, v), c in listed.items():
            if u != v:
                summed[u, v] += c
                summed[v, u] += c
        a = g.adjacency.tocoo()
        weights = {(ids[i], ids[j]): w
                   for i, j, w in zip(a.row, a.col, a.data)}
        assert weights == summed
        both = [(u, v) for (u, v), c in listed.items()
                if u != v and c == 1 and listed[v, u] == 1]
        assert both and all(weights[pair] == 2.0 for pair in both)
        assert g.label_assignments.nnz == len(set(labels))

    @pytest.mark.parametrize("text", [
        "", "\n", "1,2", "1,1\n", "1,1\n1,2\n", "1,2\n3,\n", ",2\n",
        "1,2\n\n3,4\n", "1,2,3\n", "1\n", "1,2\n3\t4\n", "a,b\tc\n",
        "a b\n", "\u00e9,x\n", "1,2\r\n3,4", "x,y\x00\n", "x,y\x1f\n",
        "x,#y\n", "1,2\n3,,4\n", "1,2,\n", "\t1\t2\n", "1,\n2,3\n",
        "1,2\n,3\n", "\ud800,x\n"])
    def test_small_texts_as_per_line(self, text):
        # parsed as is and after a comment line, which only shifts the
        # line number of an error
        def parse(text):
            nodes, labels = {}, {}
            try:
                edges = [a.tolist() for a in parse_edge_list(text, nodes)]
            except ParseError as exc:
                edges = (exc.line_no - text.startswith("#"), exc.message)
            try:
                pairs = [a.tolist() for a in
                         parse_label_assignments(text, {}, labels)]
            except ParseError as exc:
                pairs = (exc.line_no - text.startswith("#"), exc.message)
            return edges, list(nodes), pairs, list(labels)

        assert parse(text) == parse("# header\n" + text)

    @pytest.mark.parametrize("parse", ["edges", "labels"])
    def test_bad_line_past_the_first_piece(self, tmp_path, parse):
        edges, labels = _regular_files(seed=5, lines=12_000)
        rows = edges if parse == "edges" else labels * 3
        bad = 11_000
        assert len("\n".join(rows[:bad])) > datasets._PIECE
        rows[bad - 1] = "n1,n2,n3,n4"
        (tmp_path / "bad").write_text("\n".join(rows) + "\n")
        (tmp_path / "ok").write_text("\n".join(edges[:10]) + "\n")
        paths = ((tmp_path / "bad", tmp_path / "ok") if parse == "edges"
                 else (tmp_path / "ok", tmp_path / "bad"))
        with pytest.raises(ParseError) as info:
            load_dataset(*paths)
        assert info.value.line_no == bad
        assert str(info.value).endswith(
            f"line {bad}: expected {'2 or 3' if parse == 'edges' else 2} "
            "fields, got 4")

    def test_index_order_across_pieces_and_a_blank_line(self):
        # new ids follow the caller's, in line order, through a blank line
        # in the second piece
        rows = [f"a{i},b{i}" for i in range(20_000)]
        rows[15_000] = ""
        nodes = {"b7": 0}
        src, _, _ = parse_edge_list("\n".join(rows), nodes)
        assert list(nodes)[:3] == ["b7", "a0", "b0"]
        assert src[:2].tolist() == [1, 3]


SIDECAR = ".mlgcn-graph.npz"


class TestDecoding:
    """Files are read as bytes and decoded as text-mode reading decodes
    them, but for a leading byte-order mark."""

    @pytest.mark.parametrize("data", [
        b"a,b\nb,c\n", b"a,b\r\nb,c\r\n", b"a,b\rb,c\r", b"a,b\r\r\nb\n\r",
        b"\xc3\xa9,x\r", b"", b"\r", b"x\xc2\x85y\xe2\x80\xa8z\n"])
    def test_as_text_mode(self, data):
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
            assert datasets._decode(data) == fh.read()
        assert datasets._decode(b"\xef\xbb\xbf" + data) == \
            datasets._decode(data)

    @pytest.mark.parametrize("data", [b"a,\xff\n", b"\xef\xbb,x\n",
                                      b"a,\xed\xa0\x80\n"])
    def test_invalid_utf8_raises_as_text_mode(self, data):
        with pytest.raises(UnicodeDecodeError):
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        with pytest.raises(UnicodeDecodeError):
            datasets._decode(data)

    @pytest.mark.parametrize("kind", ["edges", "labels"])
    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path,
                                                         kind):
        # the mark used to be read into the first id, as a node of its own
        texts = {"edges": "a,b\nb,c\nc,a\n", "labels": "a,x\nb,y\nc,x\n"}
        plain = load_text(tmp_path, texts["edges"], texts["labels"])
        assert dataset_stats(plain) == datasets.DatasetStats(3, 3, 2, 0)
        for name, text in texts.items():
            mark = "\ufeff" * (name == kind)
            (tmp_path / f"bom-{name}").write_text(mark + text,
                                                  encoding="utf-8")
        marked = load_dataset(tmp_path / "bom-edges", tmp_path / "bom-labels")
        _same_graph(marked, plain)


def _unparsed(monkeypatch):
    """Make any parse fail, so that a load that returns read the sidecar."""
    def unused(*args):
        raise AssertionError("a load with a valid sidecar parsed its files")
    monkeypatch.setattr(datasets, "_parse_file", unused)


class TestGraphCache:
    """`load_dataset` keeps the parsed graph in `<edge file>.mlgcn-graph.npz`
    under a key of both files' bytes and the delimiter."""

    @pytest.mark.parametrize("header", [[], ["# header"]])
    def test_hit_gives_the_parsed_graph(self, tmp_path, monkeypatch,
                                        header):
        from mlgcn.cli import dataset_fingerprint
        edges, labels = _regular_files(seed=7, lines=6000)
        (tmp_path / "e").write_text("\n".join(header + edges) + "\n")
        (tmp_path / "l").write_text("\n".join(header + labels) + "\n")
        parsed = load_dataset(tmp_path / "e", tmp_path / "l")
        assert parsed.source == "parsed"
        assert (tmp_path / ("e" + SIDECAR)).is_file()
        _unparsed(monkeypatch)
        cached = load_dataset(str(tmp_path / "e"), str(tmp_path / "l"))
        assert cached.source == "cache"
        _same_graph(cached, parsed)
        assert cached.adjacency.indptr.dtype == np.int32
        for width in (0, 16):
            assert (dataset_fingerprint(cached, width)
                    == dataset_fingerprint(parsed, width))
        assert validate_graph(cached) == []

    @pytest.mark.parametrize("changed", ["e", "l"])
    def test_same_size_and_mtime_is_still_a_miss(self, tmp_path, changed):
        # the key is the files' bytes, not their metadata
        first = load_text(tmp_path, "a,b\nb,c\n", "a,x\nc,y\n")
        path = tmp_path / changed
        stat = os.stat(path)
        text = path.read_text()
        path.write_text(text.replace("b", "d") if changed == "e"
                        else text.replace("y", "x"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        second = load_dataset(tmp_path / "e", tmp_path / "l")
        assert second.source == "parsed"
        ids = "node_ids" if changed == "e" else "label_ids"
        assert getattr(second, ids) != getattr(first, ids)

    def test_delimiter_and_label_file_are_part_of_the_key(self, tmp_path):
        # one sidecar per edge file: alternating inputs parse every time
        (tmp_path / "e").write_text("a b,c\nc,d\n")
        (tmp_path / "l").write_text("a b,x\n")
        (tmp_path / "l2").write_text("c,y\n")
        sources = [load_dataset(tmp_path / "e", tmp_path / labels,
                                delimiter).source
                   for labels, delimiter in (
                       ("l", None), ("l", None), ("l", ","), ("l", ","),
                       ("l2", ","), ("l", ","), ("l", None))]
        assert sources == ["parsed", "cache", "parsed", "cache", "parsed",
                           "parsed", "parsed"]
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["e", "e" + SIDECAR, "l", "l2"]

    @staticmethod
    def _rewrite(sidecar, edit):
        with np.load(sidecar) as stored:
            arrays = dict(stored)
        edit(arrays)
        with open(sidecar, "wb") as fh:
            np.savez(fh, **arrays)

    @pytest.mark.parametrize("damage", [
        "truncated", "garbage", "empty", "npy", "pickled", "directory",
        "wrong_key", "short_indptr", "index_out_of_range", "one_id_short",
        "float32_values"])
    def test_damaged_sidecar_is_a_miss_and_rewritten(self, tmp_path,
                                                     monkeypatch, damage):
        fresh = load_text(tmp_path, "1,2\n2,3\n3,1\n", "1,a\n2,b\n")
        sidecar = tmp_path / ("e" + SIDECAR)
        good = sidecar.read_bytes()
        if damage == "truncated":
            sidecar.write_bytes(good[:len(good) // 2])
        elif damage == "garbage":
            sidecar.write_bytes(np.random.default_rng(0).bytes(len(good)))
        elif damage == "empty":
            sidecar.write_bytes(b"")
        elif damage == "npy":
            with sidecar.open("wb") as fh:
                np.save(fh, np.arange(3))
        elif damage == "pickled":
            self._rewrite(sidecar, lambda a: a.update(
                node_ids=np.array([{"x": 1}], dtype=object)))
        elif damage == "directory":
            sidecar.unlink()
            sidecar.mkdir()
        elif damage == "wrong_key":
            other = tmp_path / "other"
            other.mkdir()
            load_text(other, "1,2\n", "1,a\n")
            sidecar.write_bytes((other / ("e" + SIDECAR)).read_bytes())
        elif damage == "short_indptr":
            self._rewrite(sidecar, lambda a: a.update(
                adjacency_indptr=a["adjacency_indptr"][:-1]))
        elif damage == "index_out_of_range":
            # only scipy's full format check looks at the indices' values
            self._rewrite(sidecar, lambda a: a["adjacency_indices"].__setitem__(
                0, 7))
        elif damage == "one_id_short":
            self._rewrite(sidecar, lambda a: a.update(
                node_ids=np.frombuffer(b"1\n2", np.uint8)))
        elif damage == "float32_values":
            self._rewrite(sidecar, lambda a: a.update(
                adjacency_data=a["adjacency_data"].astype(np.float32)))
        if damage == "truncated":
            # numpy hands a file that starts as a zip to its archive reader,
            # which raises on a truncated one without closing the file
            assert sidecar.read_bytes()[:4] == b"PK\x03\x04"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = load_dataset(tmp_path / "e", tmp_path / "l")
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []
        assert again.source == "parsed"
        _same_graph(again, fresh)
        if damage == "directory":
            # a sidecar path that cannot be replaced is left alone
            assert sidecar.is_dir()
            assert sorted(p.name for p in tmp_path.iterdir()) == \
                ["e", "e" + SIDECAR, "l"]
            return
        assert sidecar.read_bytes() == good
        _unparsed(monkeypatch)
        assert load_dataset(tmp_path / "e", tmp_path / "l").source == "cache"

    def test_code_is_part_of_the_key(self, tmp_path, monkeypatch):
        # the key's code part is derived from the source of the modules
        # that parse and store the graph, so editing any of them (a parse
        # fix, a new layout) misses every sidecar written before
        package = Path(datasets.__file__).parent
        assert datasets._code_digest() == hashlib.sha256(b"".join(
            (package / name).read_bytes()
            for name in ("datasets.py", "graph.py", "matrices.py"))).digest()
        load_text(tmp_path, "1,2\n", "1,a\n")
        assert load_dataset(tmp_path / "e", tmp_path / "l").source == "cache"
        edited = hashlib.sha256(b"edited source").digest()
        monkeypatch.setattr(datasets, "_code_digest", lambda: edited)
        assert load_dataset(tmp_path / "e", tmp_path / "l").source == "parsed"
        assert load_dataset(tmp_path / "e", tmp_path / "l").source == "cache"

    @pytest.mark.parametrize("source", ["missing", "unreadable"])
    def test_without_the_code_source_every_load_parses(self, tmp_path,
                                                       monkeypatch, request,
                                                       source):
        # a bytecode-only or zipped install has no .py files to key a
        # sidecar on: it imports, parses every load and writes no sidecar
        request.addfinalizer(datasets._code_digest.cache_clear)
        datasets._code_digest.cache_clear()
        if source == "missing":
            monkeypatch.setattr(datasets, "__file__",
                                str(tmp_path / "gone" / "datasets.pyc"))
        else:
            read_bytes = Path.read_bytes

            def refused(path):
                if path.suffix == ".py":
                    raise PermissionError(f"cannot read {path}")
                return read_bytes(path)
            monkeypatch.setattr(Path, "read_bytes", refused)
        for _ in range(2):
            g = load_text(tmp_path, "1,2\n", "1,a\n")
            assert g.source == "parsed" and g.node_ids == ("1", "2")
        assert datasets._code_digest() is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e", "l"]

    def test_bytecode_only_package(self, tmp_path):
        # the package compiled in place and stripped of its .py files, as a
        # bytecode-only install ships it, imports and runs `stats`
        package = tmp_path / "site" / "mlgcn"
        shutil.copytree(Path(datasets.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        subprocess.run([sys.executable, "-m", "compileall", "-q", "-b",
                        str(package)], check=True)
        for source in package.glob("*.py"):
            source.unlink()
        (tmp_path / "e").write_text("1,2\n2,3\n")
        (tmp_path / "l").write_text("1,a\n3,b\n")
        stats = ("import mlgcn.cli as cli; assert cli.__file__[-4:] == '.pyc';"
                 " cli.main(['stats', '--edges', 'e', '--labels', 'l'])")
        env = dict(os.environ, PYTHONPATH=str(tmp_path / "site"))
        for _ in range(2):
            run = subprocess.run([sys.executable, "-c", stats], cwd=tmp_path,
                                 env=env, capture_output=True, text=True)
            assert (run.returncode, run.stdout, run.stderr) == (
                0, "3 2 2 0\n", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e", "l", "site"]

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root writes into a read-only directory")
    def test_read_only_directory(self, tmp_path):
        (tmp_path / "e").write_text("1,2\n")
        (tmp_path / "l").write_text("1,a\n")
        tmp_path.chmod(0o555)
        try:
            for _ in range(2):
                g = load_dataset(tmp_path / "e", tmp_path / "l")
                assert g.source == "parsed" and g.node_ids == ("1", "2")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["e", "l"]
        finally:
            tmp_path.chmod(0o755)

    @pytest.mark.parametrize("stage", ["open", "write", "replace"])
    def test_failed_write_is_ignored_and_cleaned_up(self, tmp_path,
                                                    monkeypatch, stage):
        # an i/o error while writing (a full disk, a read-only directory)
        # costs the next load a parse and leaves no file behind
        if stage == "open":
            real_open = open

            def failing_open(path, mode="r", *args, **kwargs):
                if "x" in mode:
                    raise PermissionError("read-only directory")
                return real_open(path, mode, *args, **kwargs)
            monkeypatch.setattr(files, "open", failing_open, raising=False)
        elif stage == "write":
            def failing_savez(file, *args, **kwargs):
                file.write(b"partial")
                raise OSError("no space left on device")
            monkeypatch.setattr(np, "savez", failing_savez)
        else:
            def failing_replace(src, dst):
                raise OSError("rename refused")
            monkeypatch.setattr(os, "replace", failing_replace)
        for _ in range(2):
            g = load_text(tmp_path, "1,2\n", "1,a\n")
            assert g.source == "parsed" and g.node_ids == ("1", "2")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e", "l"]

    @pytest.mark.parametrize("planted", ["symlink", "directory"])
    def test_planted_temporary_name_is_neither_followed_nor_removed(
            self, tmp_path, monkeypatch, planted):
        # the writer's temporary name, forced to one that is already taken:
        # the write fails as a full disk would, and the next load parses
        monkeypatch.setattr(files.os, "urandom", lambda n: bytes(n))
        tmp = tmp_path / f"e{SIDECAR}.{os.getpid()}-00000000.tmp"
        canary = tmp_path / "canary"
        canary.write_bytes(b"canary\n")
        if planted == "symlink":
            tmp.symlink_to(canary)
        else:
            tmp.mkdir()
        for _ in range(2):
            g = load_text(tmp_path, "1,2\n", "1,a\n")
            assert g.source == "parsed" and g.node_ids == ("1", "2")
        assert canary.read_bytes() == b"canary\n"
        assert tmp.is_symlink() if planted == "symlink" else tmp.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["canary", "e", tmp.name, "l"]

    @pytest.mark.parametrize("edges,labels,error", [
        ("1,2\nbroken\n", "1,a\n", ParseError),
        ("1,2\n", "1,a,b\n", ParseError),
        ("1,2\n", "# none\n", ValueError),
        ("1,\xff\n", "1,a\n", UnicodeDecodeError)])
    def test_failed_parse_writes_no_sidecar(self, tmp_path, edges, labels,
                                            error):
        (tmp_path / "e").write_bytes(edges.encode("latin-1"))
        (tmp_path / "l").write_text(labels)
        with pytest.raises(error):
            load_dataset(tmp_path / "e", tmp_path / "l")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e", "l"]

    def test_checkpoint_trained_on_a_miss_evals_on_a_hit(self, tmp_path,
                                                         monkeypatch, capsys):
        from mlgcn.cli import EXIT_OK, main
        edges, labels = tmp_path / "e", tmp_path / "l"
        edges.write_text("".join(f"{i},{(i + 1) % 16}\n{i},{(i + 5) % 16}\n"
                                 for i in range(16)))
        labels.write_text("".join(f"{i},{'ab'[i % 2]}\n" for i in range(16)))
        data = ["--edges", str(edges), "--labels", str(labels)]
        out = tmp_path / "run"
        assert main(["train", *data, "--epochs", "2", "--hidden", "8",
                     "--alpha", "0.5", "--out", str(out)]) == EXIT_OK
        assert (tmp_path / ("e" + SIDECAR)).is_file()
        _unparsed(monkeypatch)
        assert main(["eval", *data, "--checkpoint", str(out / "checkpoint.npz"),
                     "--metrics", str(out / "metrics.json")]) == EXIT_OK
        assert capsys.readouterr().err == ""


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

    def test_labels_that_never_cooccur_count_no_pair(self, tmp_path):
        # d and e never share a node with another label (e's line comes
        # twice), and c sits alone on node 3: only a-b and b-c co-occur
        (tmp_path / "e").write_text("1,2\n2,3\n3,4\n4,5\n")
        (tmp_path / "l").write_text(
            "1,a\n1,b\n2,b\n2,c\n3,c\n4,d\n5,e\n5,e\n")
        s = dataset_stats(load_dataset(tmp_path / "e", tmp_path / "l"))
        assert (s.label_count, s.cooccurrence_count) == (5, 2)

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


def _generate_over_all_pairs(config):
    """`generate_synthetic` as it was before it drew pairs in row blocks:
    one draw over every upper-triangle pair at once."""
    k, size = config.communities, config.community_size
    n = k * size
    rng = datasets.rng_stream(config.seed, "synthetic")
    iu, ju = np.triu_indices(n, k=1)
    comm = np.arange(n) // size
    prob = np.where(comm[iu] == comm[ju], config.p_intra, config.p_inter)
    keep = rng.random(iu.size) < prob
    ei, ej = iu[keep], ju[keep]
    extra = rng.random(n) < config.rho
    ends = np.column_stack([ei, ej]).ravel()
    first = np.full(n, ends.size)
    np.minimum.at(first, ends, np.arange(ends.size))
    order = np.argsort(first, kind="stable")
    index = np.argsort(order)
    corr = np.unique(comm[extra])
    members = np.concatenate([np.arange(n), np.flatnonzero(extra)])
    labels = np.concatenate([comm, k + np.searchsorted(corr, comm[extra])])
    label_ids = [f"home{c}" for c in range(k)] + [f"corr{c}" for c in corr]
    edges = (index[ei], index[ej], np.ones(ei.size))
    return datasets._assemble_graph([str(i) for i in order], label_ids, edges,
                                    (index[members], labels))


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
        assert a.node_ids == b.node_ids and a.label_ids == b.label_ids

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

    def test_node_order_as_if_read_from_files(self):
        # first appearance among the edges in generation order (i < j,
        # row-major by original index), then untouched nodes by index
        g = generate_synthetic(SyntheticConfig(communities=3, community_size=20,
                                               p_intra=0.05, p_inter=0.0,
                                               seed=4))
        original = np.array([int(v) for v in g.node_ids])
        a = g.adjacency.tocoo()
        edges = sorted((original[i], original[j])
                       for i, j in zip(a.row, a.col)
                       if original[i] < original[j])
        order = list(dict.fromkeys(v for edge in edges for v in edge))
        isolated = sorted(set(range(g.node_count)) - set(order))
        assert isolated  # the check covers untouched nodes
        assert original.tolist() == order + isolated
        assert g.label_ids[:3] == ("home0", "home1", "home2")

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(p_intra=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(rho=-0.1)
        with pytest.raises(ValueError):
            SyntheticConfig(communities=1)

    @pytest.mark.parametrize("block", [40, 997, 3000])
    def test_row_blocks_draw_as_one_draw(self, monkeypatch, block):
        # 40 is less than a row, so a block is one row
        monkeypatch.setattr(datasets, "_PAIR_BLOCK", block)
        for config in (SyntheticConfig(communities=3, community_size=40,
                                       p_intra=0.1, p_inter=0.01, seed=3),
                       SyntheticConfig(communities=5, community_size=21,
                                       rho=0.4, seed=8)):
            n = config.communities * config.community_size
            assert len(list(datasets._upper_pairs(n))) > 1
            _same_graph(generate_synthetic(config),
                        _generate_over_all_pairs(config))

    def test_pair_blocks_at_their_real_size(self):
        blocks = list(datasets._upper_pairs(600))
        assert len(blocks) == 1
        assert all(np.array_equal(a, b) for a, b in
                   zip(blocks[0], np.triu_indices(600, k=1)))
        assert len(list(datasets._upper_pairs(1500))) == 2
