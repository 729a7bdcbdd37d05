import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from mlgcn.cli import (EXIT_BAD_REF, EXIT_DIVERGED, EXIT_FINGERPRINT, EXIT_IO,
                       EXIT_OK, EXIT_USAGE, dataset_fingerprint, main,
                       make_parser, parse_rule, parse_synthetic_spec,
                       train_config_from_args)
from mlgcn.datasets import SyntheticConfig, generate_synthetic
from mlgcn.training import VARIANTS, CheckpointError, TrainConfig, load_checkpoint

from helpers import assert_stored_embeddings, node_block

EASY = "k=2,size=15,p-intra=0.5,p-inter=0.02,rho=1"
EASY_TRAIN = ["--synthetic", EASY, "--epochs", "150", "--hidden", "32",
              "--dropout", "0", "--optimizer", "adam", "--lr", "0.02",
              "--alpha", "0.3", "--seed", "5"]


def run(argv):
    return main(argv)


class TestParsers:
    def test_synthetic_spec(self):
        cfg = parse_synthetic_spec("k=3,size=10,p-intra=0.2,p-inter=0.05,rho=0.4",
                                   seed=7)
        assert cfg.communities == 3
        assert cfg.community_size == 10
        assert cfg.p_intra == 0.2
        assert cfg.rho == 0.4
        assert cfg.seed == 7

    def test_bad_synthetic_key(self):
        from mlgcn.cli import UsageError
        with pytest.raises(UsageError):
            parse_synthetic_spec("bogus=1", seed=0)

    def test_rule_parsing(self):
        assert parse_rule("topk") == ("top_k_true", 0.5)
        assert parse_rule("threshold:0.3") == ("threshold", 0.3)
        assert parse_rule("threshold") == ("threshold", 0.5)
        from mlgcn.cli import UsageError
        with pytest.raises(UsageError):
            parse_rule("nonsense")
        for spec in ("thresholdfoo", "threshold0.3", "threshold:", "threshold:x",
                     "threshold:1", "topk:0.3"):
            with pytest.raises(UsageError):
                parse_rule(spec)

    def test_train_flag_defaults_are_train_config(self):
        args = make_parser().parse_args(
            ["train", "--synthetic", "k=2,size=10", "--out", "o"])
        assert train_config_from_args(args) == TrainConfig()

    def test_help_names_defaults_and_variants(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--help"])
        assert exit_info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert ", ".join(VARIANTS) in out
        assert "--lr LR learning rate (default: 0.02)" in out
        assert "(default: 300)" in out and "gd or adam (default: gd)" in out


class TestStats:
    def test_hand_dataset(self, tmp_path, capsys):
        (tmp_path / "e").write_text("1,2\n")
        (tmp_path / "l").write_text("1,a\n2,a\n2,b\n")
        code = run(["stats", "--edges", str(tmp_path / "e"),
                    "--labels", str(tmp_path / "l")])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "2 1 2 1"

    def test_synthetic_stats(self, capsys):
        code = run(["stats", "--synthetic", "k=2,size=10,rho=1", "--seed", "1"])
        assert code == EXIT_OK
        fields = capsys.readouterr().out.split()
        assert fields[0] == "20" and fields[2] == "4" and fields[3] == "2"

    def test_missing_file_exit_2(self, tmp_path):
        code = run(["stats", "--edges", str(tmp_path / "absent"),
                    "--labels", str(tmp_path / "also_absent")])
        assert code == EXIT_IO

    def test_parse_error_reports_line(self, tmp_path, capsys):
        edges, labels = tmp_path / "edges.csv", tmp_path / "labels.csv"
        good_edges, good_labels = "1,2\n", "1,a\n"
        for edge_text, label_text, bad, good in [
                ("1,2\nbroken\n", good_labels, edges, labels),
                (good_edges, "1,a\nbroken\n", labels, edges)]:
            edges.write_text(edge_text)
            labels.write_text(label_text)
            # sweep reads a file dataset once, before its grid, so a parse
            # error ends it as it ends stats, not as per-row errors
            for command in (["stats"],
                            ["sweep", "--grid", "epochs=1",
                             "--out", str(tmp_path / "sweep")]):
                code = run([*command, "--edges", str(edges),
                            "--labels", str(labels)])
                assert code == EXIT_IO
                err = capsys.readouterr().err
                assert len(err.splitlines()) == 1
                assert f"{bad}: line 2: expected" in err
                assert str(good) not in err

    def test_no_dataset_is_usage_error(self):
        assert run(["stats"]) == EXIT_USAGE


# flags whose values fail to parse -> text the one-line usage error names
BAD_VALUES = {
    "synthetic_not_a_number": (["train", "--synthetic", "k=abc,size=10",
                                "--out", "o"], "k='abc'"),
    "sweep_synthetic_not_a_number": (["sweep", "--synthetic", "k=abc,size=10",
                                      "--grid", "epochs=1", "--out", "o"],
                                     "k='abc'"),
    "grid_not_a_number": (["sweep", "--synthetic", "k=2,size=10",
                           "--grid", "epochs=x", "--out", "o"], "'epochs'"),
    "negative_feature_dim": (["train", "--synthetic", "k=2,size=10",
                              "--feature-dim", "-3", "--out", "o"],
                             "--feature-dim"),
    "negative_feature_dim_stats": (["stats", "--synthetic", "k=2,size=10",
                                    "--feature-dim", "-3"], "--feature-dim"),
    "empty_delimiter": (["stats", "--edges", "e", "--labels", "l",
                         "--delimiter", ""], "--delimiter"),
    "bad_variant": (["train", "--synthetic", "k=2,size=10", "--variant", "gcn",
                     "--out", "o"], "'gcn'"),
    "bad_optimizer": (["train", "--synthetic", "k=2,size=10",
                       "--optimizer", "sgd", "--out", "o"], "'sgd'"),
    "bad_label_layers": (["train", "--synthetic", "k=2,size=10",
                          "--label-layers", "3", "--out", "o"], "1 or 2"),
    "bad_node_layers": (["sweep", "--synthetic", "k=2,size=10",
                         "--node-layers", "0", "--grid", "epochs=1",
                         "--out", "o"], "1 or 2"),
    "repeated_synthetic_key": (["stats", "--synthetic", "k=2,k=3,size=10"],
                               "'communities' given more than once"),
    "repeated_synthetic_alias": (["train", "--synthetic",
                                  "communities=2,size=10,k=3", "--out", "o"],
                                 "'communities' given more than once "
                                 "(here as 'k')"),
    "negative_seed_stats": (["stats", "--synthetic", "k=2,size=10",
                             "--seed", "-1"], "seed must be >= 0, got -1"),
    # stats on files never reads the seed, and still refuses it
    "negative_seed_stats_files": (["stats", "--edges", "e", "--labels", "l",
                                   "--seed", "-1"],
                                  "seed must be >= 0, got -1"),
    "negative_seed_train": (["train", "--synthetic", "k=2,size=10",
                             "--seed", "-2", "--out", "o"],
                            "seed must be >= 0, got -2"),
    "negative_seed_train_files": (["train", "--edges", "e", "--labels", "l",
                                   "--seed", "-1", "--out", "o"],
                                  "seed must be >= 0, got -1"),
    "repeated_grid_parameter": (["sweep", "--synthetic", "k=2,size=10",
                                 "--grid", "lr=0.1,0.2", "--grid", "lr=0.3",
                                 "--out", "o"], "'lr'"),
    "alpha_leaves_no_test_nodes": (["train", "--synthetic", "k=2,size=3",
                                    "--alpha", "0.95", "--out", "o"],
                                   "--alpha 0.95 on 6 nodes"),
    # checked before the 0.5 point trains
    "sweep_alpha_leaves_no_test_nodes": (
        ["sweep", "--synthetic", "k=2,size=3", "--grid", "alpha=0.5,0.95",
         "--epochs", "2", "--hidden", "8", "--out", "sw"],
        "grid point {'alpha': 0.95}: alpha yields an empty test set"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_is_usage_error(tmp_path, monkeypatch, capsys, case):
    argv, named = BAD_VALUES[case]
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err


def test_tab_inside_an_id_is_a_parse_error(tmp_path, capsys):
    # under a forced ';' an inner tab stayed in the id "a\tb", whose
    # embeddings.tsv row then held one field more than the others
    edges, labels = tmp_path / "edges", tmp_path / "labels"
    labels.write_text("c;x\nd;y\n")
    for node, code in (("a\tb", EXIT_IO), ("ab", EXIT_OK)):
        edges.write_text(f"{node};c\nc;d\nd;{node}\n")
        out = tmp_path / node
        assert run(["train", "--edges", str(edges), "--labels", str(labels),
                    "--delimiter", ";", "--epochs", "2", "--hidden", "8",
                    "--alpha", "0.5", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err == f"parse error: {edges}: line 1: a tab inside a field\n"
    assert not (tmp_path / "a\tb").exists()
    rows = (tmp_path / "ab" / "embeddings.tsv").read_text().splitlines()
    assert {len(row.split("\t")) for row in rows} == {3}


@pytest.mark.parametrize("argv,code", [
    (["train", "--synthetic", "k=2,size=3", "--alpha", "0.95"], EXIT_USAGE),
    (["train", "--edges", "absent", "--labels", "absent"], EXIT_IO),
    (["sweep", "--synthetic", "k=2,size=3", "--grid", "alpha=0.5,0.95"],
     EXIT_USAGE),
    (["sweep", "--edges", "absent", "--labels", "absent", "--grid",
      "epochs=1"], EXIT_IO),
])
def test_failed_run_leaves_no_out_directory(tmp_path, monkeypatch, capsys,
                                            argv, code):
    # --out is made only once the dataset has loaded and, in train, split,
    # and, in sweep, every grid point has been checked
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--epochs", "2", "--hidden", "8", "--out", "o"]) == code
    assert not (tmp_path / "o").exists()


class TestTrain:
    def test_deterministic_artifacts(self, tmp_path, capsys):
        argv = ["train", "--synthetic", "k=2,size=12,rho=0.8", "--seed", "7",
                "--epochs", "8", "--hidden", "16"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert run(argv + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("history.csv", "embeddings.tsv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} not byte-identical"

    def test_default_config_echo(self, tmp_path, capsys):
        run(["train", "--synthetic", "k=2,size=10", "--epochs", "2",
             "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        # defaults from the experimental protocol
        assert "d_h=400" in out and "alpha=0.2" in out
        assert "N=50" in out and "M=50" in out

    def test_baseline_history_has_zero_label_loss(self, tmp_path):
        run(["train", "--synthetic", "k=2,size=10", "--epochs", "5",
             "--hidden", "8", "--variant", "gcn_baseline",
             "--out", str(tmp_path / "o")])
        lines = (tmp_path / "o" / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,label_loss,node_loss,total_loss,val_micro_f1"
        for line in lines[1:]:
            assert line.split(",")[1] == "0"

    def test_baseline_with_one_node_layer(self, tmp_path):
        code = run(["train", "--synthetic", "k=2,size=10", "--epochs", "2",
                    "--variant", "gcn_baseline", "--node-layers", "1",
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        lines = (tmp_path / "o" / "history.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["0", "0"]

    def test_manifest_contents_and_artifacts(self, tmp_path):
        out = tmp_path / "o"
        run(["train", "--synthetic", "k=2,size=10", "--epochs", "3",
             "--hidden", "8", "--seed", "3", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["epochs"] == 3
        assert manifest["dataset"]["synthetic"] == "k=2,size=10"
        assert manifest["dataset"]["fingerprint"]
        assert manifest["split_sizes"]["train"] == 4
        for key in ("checkpoint", "history", "embeddings", "manifest"):
            assert (out / manifest["artifacts"][key].split("/")[-1]).exists()

    def test_manifest_records_where_the_graph_came_from(self, tmp_path):
        # the first file train parses and writes the graph's sidecar, the
        # second reads it; history and embeddings are the same bytes
        (tmp_path / "e").write_text("".join(f"{i},{(i + 1) % 10}\n"
                                            for i in range(10)))
        (tmp_path / "l").write_text("".join(f"{i},{'ab'[i % 3 == 0]}\n"
                                            for i in range(10)))
        runs = [(["--edges", str(tmp_path / "e"), "--labels",
                  str(tmp_path / "l")], source)
                for source in ("parsed", "cache")]
        runs.append((["--synthetic", "k=2,size=10"], "synthetic"))
        artifacts = []
        for i, (data, source) in enumerate(runs):
            out = tmp_path / f"o{i}"
            assert run(["train", *data, "--epochs", "2", "--hidden", "8",
                        "--alpha", "0.5", "--out", str(out)]) == EXIT_OK
            dataset = json.loads((out / "manifest.json").read_text())["dataset"]
            assert dataset["source"] == source
            assert 0 < dataset["load_s"] < 60
            artifacts.append([(out / name).read_bytes()
                              for name in ("history.csv", "embeddings.tsv")])
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("feature_dim", [0, 5])
    def test_manifest_explains_memory_and_environment(self, tmp_path,
                                                      monkeypatch,
                                                      feature_dim):
        import scipy

        from mlgcn.operators import build_operators
        monkeypatch.setenv("MLGCN_TEST_NUM_THREADS", "3")
        out = tmp_path / "o"
        assert run(["train", "--synthetic", "k=2,size=10", "--epochs", "2",
                    "--hidden", "8", "--feature-dim", str(feature_dim),
                    "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        graph = generate_synthetic(parse_synthetic_spec("k=2,size=10", 0))
        memory = manifest["memory"]
        assert memory["peak_rss_mb"] > 0
        assert memory["feature_dim"] == (
            feature_dim or graph.node_count + graph.label_count)
        ops = build_operators(graph)
        assert list(memory["operators"]) == [
            "node_truncated", "node_intra", "label_truncated", "label_intra"]
        for key, sizes in memory["operators"].items():
            view, name = key.split("_")
            op = getattr(getattr(ops, view), name)
            # int32 indptr (rows + 1) and indices (nnz)
            assert sizes == {"nnz": op.nnz,
                             "index_bytes": 4 * (op.shape[0] + 1 + op.nnz)}
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "threads"}
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["blas"]
        assert env["threads"]["MLGCN_TEST_NUM_THREADS"] == "3"
        assert all(k.endswith("_NUM_THREADS") for k in env["threads"])

    def test_adam_checkpoint_keeps_optimizer_state(self, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--synthetic", "k=2,size=10", "--epochs", "3",
                    "--hidden", "8", "--optimizer", "adam",
                    "--out", str(out)]) == EXIT_OK
        with np.load(out / "checkpoint.npz") as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            names = set(data.files)
            assert meta["optimizer_steps"] == 3
            assert meta["weight_keys"]
            for key in meta["weight_keys"]:
                for moment in ("adam_m", "adam_v"):
                    assert f"{moment}__{key}" in names
                    assert (data[f"{moment}__{key}"].shape
                            == data[f"weight__{key}"].shape)

    def test_manifest_reproduces_run(self, tmp_path):
        out1 = tmp_path / "o1"
        run(["train", "--synthetic", "k=2,size=12,rho=0.7", "--epochs", "6",
             "--hidden", "8", "--seed", "11", "--out", str(out1)])
        manifest = json.loads((out1 / "manifest.json").read_text())
        # rebuild the command line from the manifest alone
        cfg = manifest["config"]
        argv = ["train", "--synthetic", manifest["dataset"]["synthetic"],
                "--seed", str(manifest["seed"]),
                "--epochs", str(cfg["epochs"]),
                "--hidden", str(cfg["hidden_dim"]),
                "--lr", str(cfg["learning_rate"]),
                "--alpha", str(cfg["train_ratio"]),
                "--freq-n", str(cfg["update_freq_nodes"]),
                "--freq-m", str(cfg["update_freq_labels"]),
                "--dropout", str(cfg["dropout"]),
                "--decay", str(cfg["weight_decay"]),
                "--variant", cfg["variant"],
                "--label-layers", str(cfg["label_gcn_layers"]),
                "--node-layers", str(cfg["node_gcn_layers"]),
                "--optimizer", cfg["optimizer"],
                "--rule", manifest["rule"],
                "--out", str(tmp_path / "o2")]
        assert run(argv) == EXIT_OK
        assert ((out1 / "history.csv").read_bytes()
                == (tmp_path / "o2" / "history.csv").read_bytes())

    def test_manifest_records_a_forced_delimiter(self, tmp_path, capsys):
        # the first line splits at the tab when the delimiter is detected,
        # and at the comma when it is forced: two graphs from one file
        edges, labels = tmp_path / "edges", tmp_path / "labels"
        edges.write_text("n1\t,n3\nn3,n4\nn4,n5\nn5,n6\nn6,n3\n")
        labels.write_text("n3,a\nn4,b\nn5,a\nn6,b\n")
        out1 = tmp_path / "o1"
        assert run(["train", "--edges", str(edges), "--labels", str(labels),
                    "--delimiter", ",", "--epochs", "3", "--hidden", "8",
                    "--alpha", "0.5", "--out", str(out1)]) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        dataset = manifest["dataset"]
        assert dataset["delimiter"] == ","
        # rebuild the command line from the manifest alone
        cfg = manifest["config"]
        assert run(["train", "--edges", dataset["edges"],
                    "--labels", dataset["labels"],
                    "--delimiter", dataset["delimiter"],
                    "--feature-dim", str(dataset["feature_dim"]),
                    "--seed", str(manifest["seed"]),
                    "--epochs", str(cfg["epochs"]),
                    "--hidden", str(cfg["hidden_dim"]),
                    "--alpha", str(cfg["train_ratio"]),
                    "--out", str(tmp_path / "o2")]) == EXIT_OK
        for name in ("history.csv", "embeddings.tsv"):
            assert ((out1 / name).read_bytes()
                    == (tmp_path / "o2" / name).read_bytes())
        assert (json.loads((tmp_path / "o2" / "manifest.json").read_text())
                ["dataset"]["fingerprint"] == dataset["fingerprint"])
        evaluate = ["eval", "--edges", str(edges), "--labels", str(labels),
                    "--checkpoint", str(out1 / "checkpoint.npz"),
                    "--metrics", str(tmp_path / "m.json")]
        capsys.readouterr()
        assert run(evaluate + ["--delimiter", ","]) == EXIT_OK
        # detected, the delimiter yields another graph; forced to a tab,
        # it cannot parse the second line
        assert run(evaluate) == EXIT_FINGERPRINT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "n=5 m=2" in err and "n=6 m=2" in err
        assert run(evaluate + ["--delimiter", "\t"]) == EXIT_IO
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"parse error: {edges}: line 2: ")

    def test_divergence_exit_code(self, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--synthetic", "k=2,size=8", "--epochs", "30",
                        "--hidden", "8", "--dropout", "0", "--lr", "1e154",
                        "--out", str(tmp_path / "o")])
        assert code == 1

    def test_conflicting_dataset_flags(self, tmp_path):
        code = run(["train", "--synthetic", "k=2", "--edges", "x",
                    "--labels", "y", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE


@pytest.fixture(scope="module")
def easy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("easy")
    code = main(["train", *EASY_TRAIN, "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestEval:
    def test_metrics_file_with_both_rules(self, easy_run, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = run(["eval", "--checkpoint", str(easy_run / "checkpoint.npz"),
                    "--synthetic", EASY, "--metrics", str(metrics)])
        assert code == EXIT_OK
        doc = json.loads(metrics.read_text())
        for subset in ("train", "val", "test"):
            assert "top_k_true" in doc["results"][subset]
            assert "threshold:0.5" in doc["results"][subset]
        # perfect fit on the training subset
        train_block = doc["results"]["train"]["top_k_true"]
        assert train_block["micro_f1"] == 1.0
        assert train_block["macro_f1"] == 1.0
        assert len(doc["results"]["test"]["top_k_true"]["per_label"]) == 4

    def test_fingerprint_mismatch_exit_3(self, easy_run, tmp_path):
        code = run(["eval", "--checkpoint", str(easy_run / "checkpoint.npz"),
                    "--synthetic", "k=2,size=14,p-intra=0.5,rho=1",
                    "--metrics", str(tmp_path / "m.json")])
        assert code == EXIT_FINGERPRINT

    def test_feature_width_mismatch_names_both_widths(self, tmp_path, capsys):
        out = tmp_path / "run"
        spec = "k=2,size=8"
        assert run(["train", "--synthetic", spec, "--epochs", "2",
                    "--hidden", "8", "--feature-dim", "16",
                    "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        checkpoint = str(out / "checkpoint.npz")
        for argv in (["eval", "--metrics", str(tmp_path / "m.json")],
                     ["case-study", "--labels-list", "0",
                      "--correlation-out", str(tmp_path / "c.csv")]):
            code = run([*argv, "--synthetic", spec, "--feature-dim", "8",
                        "--checkpoint", checkpoint])
            assert code == EXIT_FINGERPRINT
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert "--feature-dim 16" in err and "--feature-dim 8" in err

    def test_uninjected_one_hot_checkpoint(self, tmp_path, monkeypatch):
        # no injection fires, so both blocks are still the raw features
        # when the checkpoint is written, and it stores neither, nor any
        # node logits
        import mlgcn.cli as cli
        captured = {}

        train = cli.train

        def capture(*args, **kwargs):
            captured["train"] = out = train(*args, **kwargs)
            return out
        monkeypatch.setattr(cli, "train", capture)
        out, spec = tmp_path / "run", "k=2,size=10"
        assert run(["train", "--synthetic", spec, "--epochs", "1",
                    "--skip-epoch0-injection", "--hidden", "8",
                    "--out", str(out)]) == EXIT_OK
        checkpoint = out / "checkpoint.npz"
        x = node_block(captured["train"].model)
        assert x is captured["train"].model.node_features
        with np.load(checkpoint) as data:  # refuses pickled objects
            assert not ({"node_block", "node_logits", "label_block"}
                        & set(data.files))
        # X is rebuilt and loads back sparse, as training stacks it
        loaded, *_ = load_checkpoint(checkpoint)
        assert node_block(loaded) is loaded.node_features
        assert_stored_embeddings(
            checkpoint, generate_synthetic(parse_synthetic_spec(spec, 0)),
            captured["train"].embeddings)
        assert run(["eval", "--synthetic", spec, "--checkpoint",
                    str(checkpoint), "--metrics",
                    str(tmp_path / "m.json")]) == EXIT_OK

    def test_scores_without_building_a_model(self, easy_run, tmp_path,
                                             monkeypatch):
        # eval and case-study read the stored embeddings: they build no
        # features, no operators and run no forward
        import mlgcn.operators
        import mlgcn.training

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint's model was rebuilt")
        for module in (mlgcn.operators, mlgcn.training):
            monkeypatch.setattr(module, "build_operators", refuse)
        for name in ("input_features", "forward_node_gcn"):
            monkeypatch.setattr(mlgcn.training, name, refuse)
        checkpoint = ["--checkpoint", str(easy_run / "checkpoint.npz"),
                      "--synthetic", EASY]
        assert run(["eval", *checkpoint,
                    "--metrics", str(tmp_path / "m.json")]) == EXIT_OK
        assert run(["case-study", *checkpoint, "--labels-list", "home0",
                    "--correlation-out", str(tmp_path / "c.csv")]) == EXIT_OK

    def test_metrics_bytes_match_the_asdict_rendering(self, easy_run,
                                                      tmp_path, monkeypatch):
        import mlgcn.cli as cli
        argv = ["eval", "--checkpoint", str(easy_run / "checkpoint.npz"),
                "--synthetic", EASY, "--rule", "threshold:0.3", "--metrics"]
        assert run([*argv, str(tmp_path / "plain.json")]) == EXIT_OK
        monkeypatch.setattr(cli, "_report_dict", lambda report: {
            "micro_f1": report.micro_f1,
            "macro_f1": report.macro_f1,
            "decision_rule": report.decision_rule,
            "subset_size": report.subset_size,
            "per_label": [dataclasses.asdict(s) for s in report.per_label],
        })
        assert run([*argv, str(tmp_path / "asdict.json")]) == EXIT_OK
        assert ((tmp_path / "plain.json").read_bytes()
                == (tmp_path / "asdict.json").read_bytes())


class TestGraphFingerprint:
    """A checkpoint matches the graph a dataset parses to, whatever files,
    encoding or spec string it comes from."""

    EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"),
             ("e", "f"), ("f", "g"), ("g", "h"), ("h", "e"), ("e", "g")]
    LABELS = [("a", "x"), ("b", "x"), ("c", "x"), ("c", "y"), ("d", "x"),
              ("e", "y"), ("f", "y"), ("g", "y"), ("h", "y")]

    def write(self, directory, sep=",", newline="\n", header=""):
        paths = []
        for name, pairs in (("edges", self.EDGES), ("labels", self.LABELS)):
            path = directory / name
            text = header + "".join(f"{a}{sep}{b}\n" for a, b in pairs)
            path.write_bytes(text.replace("\n", newline).encode())
            paths += [f"--{name}", str(path)]
        return paths

    def test_same_graph_from_other_encodings(self, tmp_path, capsys):
        original = tmp_path / "original"
        original.mkdir()
        out = tmp_path / "run"
        assert run(["train", *self.write(original), "--epochs", "2",
                    "--hidden", "8", "--alpha", "0.5",
                    "--out", str(out)]) == EXIT_OK
        evaluate = ["eval", "--checkpoint", str(out / "checkpoint.npz"),
                    "--metrics", str(tmp_path / "m.json")]
        copies = {"crlf": {"newline": "\r\n"},
                  "tab_header": {"sep": "\t", "header": "# header\n"}}
        for name, encoding in copies.items():
            (tmp_path / name).mkdir()
            dataset = self.write(tmp_path / name, **encoding)
            assert run([*evaluate, *dataset]) == EXIT_OK, name
        assert run([*evaluate, *self.write(original),
                    "--delimiter", ","]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_regenerated_synthetic_spec(self, easy_run, tmp_path):
        # EASY with its keys reordered, renamed and 1 written as 1.0
        spec = "rho=1.0,p_inter=0.02,communities=2,p-intra=0.5,size=15"
        assert run(["eval", "--checkpoint", str(easy_run / "checkpoint.npz"),
                    "--synthetic", spec,
                    "--metrics", str(tmp_path / "m.json")]) == EXIT_OK

    def test_int32_and_int64_indices_hash_alike(self):
        g = generate_synthetic(SyntheticConfig(community_size=10, seed=3))
        copies = []
        for dtype in (np.int32, np.int64):
            matrices = {}
            for name in ("adjacency", "label_assignments"):
                m = getattr(g, name).copy()
                m.indices, m.indptr = (m.indices.astype(dtype),
                                       m.indptr.astype(dtype))
                assert m.indices.dtype == m.indptr.dtype == dtype
                matrices[name] = m
            copies.append(dataclasses.replace(g, **matrices))
        assert (dataset_fingerprint(copies[0], 0)
                == dataset_fingerprint(copies[1], 0)
                == dataset_fingerprint(g, 0))

    def test_features_and_weights_change_the_hash(self):
        g = generate_synthetic(SyntheticConfig(community_size=10, seed=3))
        heavier = g.adjacency.copy()
        heavier.data = heavier.data * 2.0
        hashes = {dataset_fingerprint(g, 0), dataset_fingerprint(g, 8),
                  dataset_fingerprint(g, 16),
                  dataset_fingerprint(dataclasses.replace(
                      g, adjacency=heavier), 0)}
        assert len(hashes) == 4


def _rewrite_checkpoint(src, dst, edit):
    with np.load(src) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    edit(meta, arrays)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                       dtype=np.uint8)
    np.savez(dst, **arrays)


def _truncated(src, dst):
    data = src.read_bytes()
    dst.write_bytes(data[:len(data) // 2])


def _version_1(meta, arrays):
    # version-1 checkpoints also carried the removed train_projections field
    meta["version"] = 1
    meta["config"]["train_projections"] = False


def _version_2(meta, arrays):
    # version-2 configs had no feature_dim field
    meta["version"] = 2
    del meta["config"]["feature_dim"]


def _version_3(meta, arrays):
    # version-3 checkpoints stored both blocks and not n, m or which blocks
    # were injected
    meta["version"] = 3
    for key in ("node_count", "label_count", "injected"):
        del meta[key]


def _version_4(meta, arrays):
    # version-4 checkpoints stored the injected n x d node block, not the
    # node logits, and listed it under "injected_blocks"
    meta["version"] = 4
    meta["injected_blocks"] = ["node_block" if name == "node_logits"
                               else name for name in meta.pop("injected")]
    logits = arrays.pop("node_logits")
    arrays["node_block"] = np.maximum(
        logits @ arrays["projection__proj_node"], 0.0)


def _version_5(meta, arrays):
    # version 5 had version 6's layout, but fingerprinted the dataset's
    # files
    _version_6(meta, arrays)
    meta["version"] = 5


def _version_6(meta, arrays):
    # version-6 checkpoints stored no embeddings
    meta["version"] = 6
    del arrays["embeddings"]


def _drop_injected_node_logits(meta, arrays):
    # EASY_TRAIN injects at epoch 0, so meta lists the node logits
    assert "node_logits" in meta["injected"]
    del arrays["node_logits"]


def _drop_proj_label(meta, arrays):
    meta["projection_keys"].remove("proj_label")
    del arrays["projection__proj_label"]


# case -> (writer of a broken checkpoint from a good one, text the message
# must contain)
BROKEN_CHECKPOINTS = {
    "truncated": (_truncated, "BadZipFile"),
    "not_a_zip": (lambda src, dst: dst.write_bytes(b"not a checkpoint\n"),
                  "not a readable checkpoint"),
    "missing_meta_key": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: meta.pop("weight_keys")),
        "weight_keys"),
    "missing_array": (lambda src, dst: _rewrite_checkpoint(
        src, dst, _drop_injected_node_logits), "node_logits"),
    "unknown_config_field": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: meta["config"].update(bogus=1)),
        "bogus"),
    "version_1": (lambda src, dst: _rewrite_checkpoint(src, dst, _version_1),
                  "unsupported checkpoint version 1"),
    "version_2": (lambda src, dst: _rewrite_checkpoint(src, dst, _version_2),
                  "unsupported checkpoint version 2"),
    "version_3": (lambda src, dst: _rewrite_checkpoint(src, dst, _version_3),
                  "unsupported checkpoint version 3"),
    "version_4": (lambda src, dst: _rewrite_checkpoint(src, dst, _version_4),
                  "unsupported checkpoint version 4"),
    "version_5": (lambda src, dst: _rewrite_checkpoint(src, dst, _version_5),
                  "unsupported checkpoint version 5 (this build reads "
                  "version 7)"),
    "version_6": (lambda src, dst: _rewrite_checkpoint(src, dst, _version_6),
                  "unsupported checkpoint version 6 (this build reads "
                  "version 7)"),
    "missing_embeddings": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: arrays.pop("embeddings")),
        "embeddings"),
    "narrowed_embeddings": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: arrays.update(
            embeddings=arrays["embeddings"][:, :-1])),
        "embeddings (30, 3) does not match the expected (30, 4)"),
    "float_node_count": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: meta.update(node_count=30.0)),
        "bad counts"),
    "bad_rng_state": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: meta.update(dropout_rng_state={})),
        "state must be for a PCG64 RNG"),
    "missing_weight_key": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: meta["weight_keys"].remove("w1_node")),
        "w1_node"),
    "narrowed_weight": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: arrays.update(
            weight__w1_node=arrays["weight__w1_node"][:, :-1])),
        "'w1_node': (32, 3)"),
    # EASY has 30 nodes and 4 labels, so one-hot features are 34 wide
    "narrowed_node_logits": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: arrays.update(
            node_logits=arrays["node_logits"][:, :-1])),
        "node_logits (30, 3)"),
    "narrowed_projection": (lambda src, dst: _rewrite_checkpoint(
        src, dst, lambda meta, arrays: arrays.update(
            projection__proj_node=arrays["projection__proj_node"][:, :-1])),
        "'proj_node': (4, 33)"),
    "missing_projection": (lambda src, dst: _rewrite_checkpoint(
        src, dst, _drop_proj_label), "proj_label"),
}


class TestBrokenCheckpoint:
    @pytest.mark.parametrize("case", sorted(BROKEN_CHECKPOINTS))
    def test_one_line_error_exit_2(self, easy_run, tmp_path, capsys, case):
        # eval and case-study refuse what load_checkpoint refuses, with its
        # message
        write, expected = BROKEN_CHECKPOINTS[case]
        path = tmp_path / "broken.npz"
        write(easy_run / "checkpoint.npz", path)
        with pytest.raises(CheckpointError) as refused:
            load_checkpoint(path)
        assert expected in str(refused.value)
        for argv in (["eval", "--metrics", str(tmp_path / "m.json")],
                     ["case-study", "--labels-list", "home0",
                      "--correlation-out", str(tmp_path / "c.csv")]):
            code = run([*argv, "--checkpoint", str(path), "--synthetic", EASY])
            assert code == EXIT_IO
            assert capsys.readouterr().err == f"error: {refused.value}\n"


class TestFailedWrites:
    """A write that fails part-way keeps the old file, leaves no temporary
    beside it, and is one stderr line with exit 2."""

    SPEC = ["--synthetic", "k=2,size=10"]

    def test_checkpoint(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        argv = ["train", *self.SPEC, "--epochs", "1", "--hidden", "8",
                "--out", str(out)]
        assert run(argv) == EXIT_OK
        before = (out / "checkpoint.npz").read_bytes()
        capsys.readouterr()

        def failing_savez(file, *args, **kwargs):
            file.write(b"partial")
            raise OSError("no space left on device")
        monkeypatch.setattr(np, "savez", failing_savez)
        assert run(argv) == EXIT_IO
        assert (capsys.readouterr().err.splitlines()
                == ["i/o error: no space left on device"])
        assert (out / "checkpoint.npz").read_bytes() == before
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("stage", ["open", "write", "replace"])
    def test_text_artifact(self, easy_run, tmp_path, capsys, monkeypatch,
                           stage):
        import os
        import mlgcn.files as files
        metrics = tmp_path / "m.json"
        argv = ["eval", "--synthetic", EASY, "--checkpoint",
                str(easy_run / "checkpoint.npz"), "--metrics", str(metrics)]
        assert run(argv) == EXIT_OK
        before = metrics.read_bytes()
        capsys.readouterr()
        real_open = open
        if stage == "open":
            def failing_open(path, mode="r", *args, **kwargs):
                if "x" in mode:
                    raise PermissionError("read-only directory")
                return real_open(path, mode, *args, **kwargs)
            monkeypatch.setattr(files, "open", failing_open, raising=False)
        elif stage == "write":

            class HalfWriter:
                def __init__(self, fh):
                    self.fh = fh

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.fh.close()

                def write(self, text):
                    self.fh.write(text[:len(text) // 2])
                    raise OSError("no space left on device")

            def failing_open(path, mode="r", *args, **kwargs):
                fh = real_open(path, mode, *args, **kwargs)
                return HalfWriter(fh) if "x" in mode else fh
            monkeypatch.setattr(files, "open", failing_open, raising=False)
        else:
            def failing_replace(src, dst):
                raise OSError("rename refused")
            monkeypatch.setattr(os, "replace", failing_replace)
        assert run(argv) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ")
        assert metrics.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("planted", ["symlink", "directory"])
    @pytest.mark.parametrize("artifact", ["checkpoint.npz", "metrics.json"])
    def test_planted_temporary_name_is_neither_followed_nor_removed(
            self, easy_run, tmp_path, capsys, monkeypatch, artifact, planted):
        import os
        import mlgcn.files as files
        out = tmp_path / "run"
        argv = (["train", *self.SPEC, "--epochs", "1", "--hidden", "8",
                 "--out", str(out)] if artifact == "checkpoint.npz" else
                ["eval", "--synthetic", EASY, "--checkpoint",
                 str(easy_run / "checkpoint.npz"), "--metrics",
                 str(out / "metrics.json")])
        assert run(argv) == EXIT_OK
        before = (out / artifact).read_bytes()
        capsys.readouterr()
        canary = tmp_path / "canary"
        canary.write_bytes(b"canary\n")
        # the writer's temporary name, forced to one that is already taken
        monkeypatch.setattr(files.os, "urandom", lambda n: bytes(n))
        tmp = out / f"{artifact}.{os.getpid()}-00000000.tmp"
        if planted == "symlink":
            tmp.symlink_to(canary)
        else:
            tmp.mkdir()
            (tmp / "inside").write_bytes(b"kept\n")
        assert run(argv) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ")
        assert (out / artifact).read_bytes() == before
        assert not (out / artifact).is_symlink()
        assert canary.read_bytes() == b"canary\n"
        if planted == "symlink":
            assert tmp.is_symlink() and tmp.resolve() == canary.resolve()
        else:
            assert [p.name for p in tmp.iterdir()] == ["inside"]
            assert (tmp / "inside").read_bytes() == b"kept\n"

    def test_leftover_fixed_temporary_names_are_left_alone(self, tmp_path,
                                                           capsys):
        # older versions wrote through `<path>.tmp`; a directory or a
        # symlink left at that name neither breaks nor redirects a write
        out = tmp_path / "run"
        out.mkdir()
        canary = tmp_path / "canary"
        canary.write_bytes(b"canary\n")
        (out / "checkpoint.npz.tmp").mkdir()
        (out / "metrics.json.tmp").symlink_to(canary)
        data = ["--synthetic", "k=2,size=10"]
        assert run(["train", *data, "--epochs", "1", "--hidden", "8",
                    "--out", str(out)]) == EXIT_OK
        assert run(["eval", *data, "--checkpoint", str(out / "checkpoint.npz"),
                    "--metrics", str(out / "metrics.json")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert canary.read_bytes() == b"canary\n"
        assert not (out / "metrics.json").is_symlink()
        assert json.loads((out / "metrics.json").read_text())
        assert (out / "checkpoint.npz.tmp").is_dir()
        assert (out / "metrics.json.tmp").is_symlink()
        assert sorted(p.name for p in out.glob("*.tmp")) == [
            "checkpoint.npz.tmp", "metrics.json.tmp"]


class TestRewriteKeepsTheMode:
    """A rewritten artifact keeps the permission bits of the file it
    replaces; a new one gets the umask's default."""

    @pytest.mark.parametrize("artifact", ["checkpoint.npz", "history.csv"])
    def test_rerun_into_the_same_directory(self, tmp_path, artifact):
        import stat
        out = tmp_path / "run"
        argv = ["train", "--synthetic", "k=2,size=10", "--epochs", "1",
                "--hidden", "8", "--out", str(out)]
        assert run(argv) == EXIT_OK
        path = out / artifact
        (tmp_path / "fresh").touch()
        assert path.stat().st_mode == (tmp_path / "fresh").stat().st_mode
        path.chmod(0o600)
        before = path.stat().st_ino
        assert run(argv) == EXIT_OK
        assert path.stat().st_ino != before
        assert stat.S_IMODE(path.stat().st_mode) == 0o600


class TestStreamedWriter:
    """`write_embeddings_tsv` renders rows in blocks and hands them to
    `write_atomic` as pieces, which it writes in order."""

    def test_blocks_give_the_whole_table_bytes(self, tmp_path, monkeypatch):
        import mlgcn.cli as cli
        rng = np.random.default_rng(3)
        table = rng.standard_normal((10, 4)) * 10.0 ** rng.integers(
            -300, 300, size=(10, 4))
        table[0, :2] = [-0.0, np.nan]
        ids = tuple(f"n{i}" for i in range(10))
        # the whole-table rendering the writer had before it streamed
        row = "\t".join(["%.17g"] * 4)
        whole = "\n".join(f"{node}\t{row % tuple(values)}"
                          for node, values in zip(ids, table.tolist())) + "\n"
        monkeypatch.setattr(cli, "_TSV_BLOCK_ROWS", 3)
        pieces = []
        real = cli.write_atomic

        def recording(path, text):
            text = list(text)
            pieces.extend(text)
            real(path, iter(text))
        monkeypatch.setattr(cli, "write_atomic", recording)
        path = tmp_path / "embeddings.tsv"
        cli.write_embeddings_tsv(str(path), ids, table)
        assert path.read_bytes() == whole.encode("utf-8")
        assert [piece.count("\n") for piece in pieces] == [3, 3, 3, 1]

    def test_pieces_that_raise_keep_the_old_file(self, tmp_path):
        from mlgcn.cli import write_atomic
        path = tmp_path / "out.txt"
        write_atomic(str(path), "old\n")

        def pieces():
            yield "new first piece\n"
            raise OSError("no space left on device")
        with pytest.raises(OSError, match="no space"):
            write_atomic(str(path), pieces())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestSweep:
    def test_grid_rows_with_std(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--synthetic", "k=2,size=10,rho=0.8",
                    "--epochs", "4", "--hidden", "8",
                    "--grid", "alpha=0.2,0.3", "--repeats", "2",
                    "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,metric,mean,std,repeats,error"
        assert len(lines) == 1 + 2 * 2  # 2 grid points x 2 metrics
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] in ("micro_f1", "macro_f1")
            assert fields[4] == "2"
            assert float(fields[3]) >= 0.0

    def test_single_repeat_zero_std(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--synthetic", "k=2,size=10", "--epochs", "3",
                    "--hidden", "8", "--grid", "hidden=8", "--repeats", "1",
                    "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        for line in lines[1:]:
            assert float(line.split(",")[2]) >= 0.0
            assert float(line.split(",")[3]) == 0.0

    def test_file_dataset_read_once(self, tmp_path, monkeypatch):
        # 2 grid points x 2 repeats read the files once, and every row is
        # what a run on a freshly read graph gives
        import mlgcn.cli as cli
        from mlgcn.datasets import load_dataset
        from mlgcn.metrics import evaluate, split_dataset
        from mlgcn.training import TrainConfig, train
        edges, labels = tmp_path / "edges.csv", tmp_path / "labels.csv"
        edges.write_text("".join(f"{i},{(i + 1) % 12}\n{i},{(i + 5) % 12}\n"
                                 for i in range(12)))
        labels.write_text("".join(f"{i},{'ab'[i % 2]}\n" for i in range(12))
                          + "0,c\n7,c\n")
        reads = []

        def counting(*args, **kwargs):
            reads.append(args)
            return load_dataset(*args, **kwargs)
        monkeypatch.setattr(cli, "load_dataset", counting)
        out = tmp_path / "sweep"
        code = run(["sweep", "--edges", str(edges), "--labels", str(labels),
                    "--epochs", "3", "--hidden", "8", "--seed", "4",
                    "--grid", "alpha=0.3,0.5", "--repeats", "2",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert len(reads) == 1

        expected = ["alpha,metric,mean,std,repeats,error"]
        for alpha in (0.3, 0.5):
            scores = []
            for seed in (4, 5):
                graph = load_dataset(str(edges), str(labels))
                split = split_dataset(graph, alpha, seed)
                config = TrainConfig(epochs=3, hidden_dim=8, seed=seed,
                                     train_ratio=alpha)
                result = train(graph, split, config)
                scores.append(evaluate(result.embeddings,
                                       graph.label_assignments.to_dense(),
                                       split.test_nodes))
            for metric in ("micro_f1", "macro_f1"):
                values = [getattr(rep, metric) for rep in scores]
                expected.append(f"{alpha},{metric},"
                                f"{cli._fmt(np.mean(values))},"
                                f"{cli._fmt(np.std(values))},2,")
        assert (out / "sweep.csv").read_text().splitlines() == expected

    def test_empty_grid_usage_error(self, tmp_path):
        code = run(["sweep", "--synthetic", "k=2,size=10",
                    "--repeats", "1", "--out", str(tmp_path / "s")])
        assert code == EXIT_USAGE

    def test_failed_child_recorded_and_nonzero_exit(self, tmp_path):
        out = tmp_path / "sweep"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["sweep", "--synthetic", "k=2,size=8", "--epochs", "30",
                        "--hidden", "8", "--dropout", "0",
                        "--grid", "lr=0.02,1e154", "--repeats", "1",
                        "--out", str(out)])
        assert code != EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        failed = [line for line in lines[1:] if "DivergenceError" in line]
        ok = [line for line in lines[1:] if line.split(",")[0] == "0.02"
              and line.split(",")[2] != ""]
        assert failed and ok


class TestCaseStudy:
    def test_per_label_table_and_correlation(self, easy_run, tmp_path, capsys):
        corr_path = tmp_path / "correlation.csv"
        code = run(["case-study",
                    "--checkpoint", str(easy_run / "checkpoint.npz"),
                    "--synthetic", EASY,
                    "--labels-list", "home0,corr0",
                    "--correlation-out", str(corr_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        table = [line for line in out if line.startswith(("home0", "corr0"))]
        assert len(table) == 2
        lines = corr_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "label" and len(header) == 5
        matrix = np.array([[float(v) for v in line.split(",")[1:]]
                           for line in lines[1:]])
        assert matrix.shape == (4, 4)
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(np.diag(matrix), np.ones(4))

    def test_unknown_label_exit_4(self, easy_run, tmp_path):
        code = run(["case-study",
                    "--checkpoint", str(easy_run / "checkpoint.npz"),
                    "--synthetic", EASY,
                    "--labels-list", "L99",
                    "--correlation-out", str(tmp_path / "c.csv")])
        assert code == EXIT_BAD_REF


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_csv_fields_with_commas_keep_the_header_width(tmp_path, monkeypatch):
    # a sweep error message and a label id may hold commas
    import mlgcn.cli as cli
    train = cli.train

    def failing_at_hidden_9(graph, split, config, **kwargs):
        if config.hidden_dim == 9:
            raise ValueError("hidden 9 fails, on purpose")
        return train(graph, split, config, **kwargs)
    monkeypatch.setattr(cli, "train", failing_at_hidden_9)
    out = tmp_path / "sweep"
    assert run(["sweep", "--synthetic", "k=2,size=10", "--epochs", "2",
                "--grid", "hidden=8,9", "--out", str(out)]) == EXIT_DIVERGED
    rows = _csv_rows(out / "sweep.csv")
    assert rows[0] == ["hidden", "metric", "mean", "std", "repeats", "error"]
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [row[5] for row in rows[1:]] == [
        "", "", "ValueError: hidden 9 fails, on purpose",
        "ValueError: hidden 9 fails, on purpose"]

    edges, labels = tmp_path / "edges.tsv", tmp_path / "labels.tsv"
    edges.write_text("1\t2\n2\t3\n3\t4\n4\t1\n")
    labels.write_text('1\tx,y\n2\tz\n3\tx,y\n4\tz\n4\tq"t\n')
    dataset = ["--edges", str(edges), "--labels", str(labels)]
    assert run(["train", *dataset, "--epochs", "2", "--hidden", "8",
                "--out", str(tmp_path / "run")]) == EXIT_OK
    corr_path = tmp_path / "correlation.csv"
    assert run(["case-study", *dataset, "--labels-list", "z",
                "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                "--correlation-out", str(corr_path)]) == EXIT_OK
    rows = _csv_rows(corr_path)
    assert rows[0] == ["label", "x,y", "z", 'q"t']
    assert [row[0] for row in rows[1:]] == ["x,y", "z", 'q"t']
    assert all(len(row) == 4 for row in rows)


# The exit-code contract: each failure of each subcommand it applies to
# exits with its documented code and prints one stderr line, no traceback,
# no numpy warning and no ResourceWarning. A case's argv is its
# subcommand's good argv, then its dataset flags (EASY when None), then its
# own flags; "{tmp}" is the case's scratch directory. eval and case-study
# parse the dataset before they hash the graph, so a file that does not
# parse is a parse error for them too.
GOOD_ARGV = {
    "stats": ["stats"],
    "train": ["train", "--epochs", "2", "--hidden", "8", "--out", "{tmp}/t"],
    "eval": ["eval", "--checkpoint", "{tmp}/run/checkpoint.npz",
             "--metrics", "{tmp}/m.json"],
    "sweep": ["sweep", "--epochs", "2", "--hidden", "8", "--grid", "hidden=8",
              "--out", "{tmp}/s"],
    "case-study": ["case-study", "--checkpoint", "{tmp}/run/checkpoint.npz",
                   "--labels-list", "home0", "--correlation-out", "{tmp}/c.csv"],
}
ALL = tuple(GOOD_ARGV)
CHECKPOINT = ("eval", "case-study")


def _files(edges, labels):
    return ["--edges", "{tmp}/" + edges, "--labels", "{tmp}/" + labels]


# failure -> (exit code, dataset flags, {subcommand: own flags})
EXIT_CONTRACT = {
    "missing_file": (EXIT_IO, _files("absent", "absent"),
                     dict.fromkeys(ALL, [])),
    "edge_parse_error": (EXIT_IO, _files("broken", "labels"),
                         dict.fromkeys(ALL, [])),
    "label_parse_error": (EXIT_IO, _files("edges", "broken"),
                          dict.fromkeys(ALL, [])),
    "bad_flag_value": (EXIT_USAGE, None, {
        "stats": ["--seed", "x"], "train": ["--variant", "gcn"],
        "eval": ["--rule", "bogus"], "sweep": ["--optimizer", "sgd"],
        "case-study": ["--rule", "thresholdfoo"]}),
    "empty_delimiter": (EXIT_USAGE, _files("edges", "labels"),
                        dict.fromkeys(ALL, ["--delimiter", ""])),
    "fingerprint_mismatch": (EXIT_FINGERPRINT,
                             ["--synthetic", "k=2,size=14,p-intra=0.5,rho=1"],
                             dict.fromkeys(CHECKPOINT, [])),
    "unknown_label": (EXIT_BAD_REF, None,
                      {"case-study": ["--labels-list", "L99"]}),
    "divergence": (EXIT_DIVERGED, None, {
        "train": ["--lr", "1e300", "--dropout", "0"],
        "sweep": ["--dropout", "0", "--grid", "lr=1e300"]}),
    "truncated_checkpoint": (EXIT_IO, None, dict.fromkeys(
        CHECKPOINT, ["--checkpoint", "{tmp}/truncated.npz"])),
    "bad_grid_value": (EXIT_USAGE, None,
                       {"sweep": ["--grid", "dropout=0.5,1.5"]}),
    "negative_seed": (EXIT_USAGE, None, {
        "stats": ["--seed", "-1"], "train": ["--seed", "-1"],
        "sweep": ["--seed", "-1"]}),
    "negative_seed_on_files": (EXIT_USAGE, _files("edges", "labels"), {
        "stats": ["--seed", "-1"], "train": ["--seed", "-1"],
        "sweep": ["--seed", "-1"]}),
    "alpha_leaves_no_test_nodes": (EXIT_USAGE, ["--synthetic", "k=2,size=3"],
                                   {"train": ["--alpha", "0.95"],
                                    "sweep": ["--grid", "alpha=0.5,0.95"]}),
}


@pytest.mark.parametrize("command,failure", [
    (command, failure) for failure, (_, _, flags) in EXIT_CONTRACT.items()
    for command in flags])
def test_exit_code_contract(easy_run, tmp_path, capsys, command, failure):
    code, dataset, flags = EXIT_CONTRACT[failure]
    (tmp_path / "edges").write_text("1,2\n2,3\n")
    (tmp_path / "labels").write_text("1,a\n2,b\n3,a\n")
    (tmp_path / "broken").write_text("1,2\nbroken\n")
    (tmp_path / "run").symlink_to(easy_run, target_is_directory=True)
    _truncated(easy_run / "checkpoint.npz", tmp_path / "truncated.npz")
    argv = [*GOOD_ARGV[command], *(dataset or ["--synthetic", EASY]),
            *flags[command]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([a.format(tmp=tmp_path) for a in argv]) == code
    # numpy's floating-point warnings would print their own lines, and a
    # file left open would print one when it is collected
    assert not [w for w in caught
                if issubclass(w.category, (RuntimeWarning, ResourceWarning))]
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
