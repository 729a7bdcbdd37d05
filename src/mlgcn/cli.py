"""Command-line entry point for reproducible runs.

Subcommands: stats, train, eval, sweep, case-study. Every run is driven by
one seed flag feeding separate random streams (init / dropout / split /
synthetic), and train runs end by writing an atomic manifest that suffices
to reproduce the run.

Train flags take their types and defaults from `TrainConfig`, which checks
their values. A failure prints one stderr line and exits with the code that
`_FAILURES` gives its exception: 1 divergence (or failed sweep children),
2 I/O, parse or unreadable-checkpoint failure, 3 checkpoint/dataset
fingerprint mismatch, 4 unknown reference (e.g. label id), 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import sys
import time
import typing

import numpy as np
import scipy

from .datasets import (ParseError, SyntheticConfig, dataset_stats,
                       generate_synthetic, load_dataset)
from .files import replacing
from .metrics import (evaluate, label_correlation_matrix, per_label_breakdown,
                      split_dataset)
from .operators import operator_sizes
from .training import (VARIANTS, DivergenceError, TrainConfig,
                       read_checkpoint, save_checkpoint, train)

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_IO = 2
EXIT_FINGERPRINT = 3
EXIT_BAD_REF = 4
EXIT_USAGE = 64

_TSV_BLOCK_ROWS = 1024  # embedding rows rendered per write


class UsageError(Exception):
    pass


class FingerprintMismatch(Exception):
    pass


class BadReference(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- dataset plumbing --------------------------------------------------------

_SYNTH_KEYS = {
    "k": "communities", "communities": "communities",
    "size": "community_size", "community-size": "community_size",
    "p-intra": "p_intra", "p_intra": "p_intra",
    "p-inter": "p_inter", "p_inter": "p_inter",
    "rho": "rho",
}


def parse_synthetic_spec(spec: str, seed: int) -> SyntheticConfig:
    """Parse 'k=2,size=100,p-intra=0.1,...' into a generator config."""
    kwargs: dict = {"seed": seed}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"bad synthetic parameter {item!r} (expected key=value)")
        key, value = item.split("=", 1)
        field = _SYNTH_KEYS.get(key.strip())
        if field is None:
            raise UsageError(f"unknown synthetic parameter {key!r}")
        if field in kwargs:
            raise UsageError(f"synthetic parameter {field!r} given more "
                             f"than once (here as {key.strip()!r})")
        cast = int if field in ("communities", "community_size") else float
        try:
            kwargs[field] = cast(value)
        except ValueError:
            raise UsageError(f"bad synthetic parameter {key}={value!r} "
                             f"(expected {cast.__name__})") from None
    try:
        return SyntheticConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def dataset_fingerprint(graph, feature_dim: int) -> str:
    """Content hash of the network a run trains on (ids in index order,
    both matrices' CSR arrays at fixed dtypes) and of its feature kind and
    width; every source of one network hashes alike."""
    h = hashlib.sha256(json.dumps([graph.node_ids, graph.label_ids]).encode())
    for matrix in (graph.adjacency, graph.label_assignments):
        for array, dtype in ((matrix.indptr, "<i8"), (matrix.indices, "<i8"),
                             (matrix.data, "<f8")):
            h.update(np.ascontiguousarray(array, dtype=dtype))
    kind = "gaussian" if feature_dim else "one_hot"
    h.update(f"features:{kind}:{feature_dim}".encode())
    return h.hexdigest()


def build_graph(args, seed: int):
    if args.synthetic is not None:
        return generate_synthetic(parse_synthetic_spec(args.synthetic, seed))
    return load_dataset(args.edges, args.labels, delimiter=args.delimiter)


def _add_dataset_flags(p: argparse.ArgumentParser):
    p.add_argument("--edges", help="edge-list file: src<delim>dst[<delim>weight]")
    p.add_argument("--labels", help="label file: node<delim>label")
    p.add_argument("--synthetic", metavar="SPEC",
                   help="generate a planted-partition graph, e.g. "
                        "'k=2,size=100,p-intra=0.1,p-inter=0.02,rho=0.8'")
    p.add_argument("--delimiter", default=None,
                   help="force the field delimiter (default: auto-detect)")
    p.add_argument("--feature-dim", type=int, metavar="D",
                   default=TrainConfig.feature_dim,
                   help="use seeded Gaussian features of this width instead of "
                        "the combined one-hot space (bounds memory on large graphs)")


def _check_dataset_flags(args):
    if args.synthetic is None and not (args.edges and args.labels):
        raise UsageError("provide --edges and --labels, or --synthetic")
    if args.synthetic is not None and (args.edges or args.labels):
        raise UsageError("--synthetic excludes --edges/--labels")
    if args.delimiter == "":
        raise UsageError("--delimiter must not be empty (omit it to "
                         "auto-detect)")
    if args.feature_dim < 0:
        raise UsageError(f"--feature-dim must be >= 0 (0 selects one-hot "
                         f"features), got {args.feature_dim}")


# train flag -> (TrainConfig field, help): a flag takes its field's type and
# default (a bool is a store_true flag), and TrainConfig checks its value
_TRAIN_FLAGS = {
    "lr": ("learning_rate", "learning rate"),
    "epochs": ("epochs", "training epochs"),
    "hidden": ("hidden_dim", "hidden width d_h"),
    "alpha": ("train_ratio", "labeled training ratio"),
    "freq-n": ("update_freq_nodes", "epochs between node-logit injections"),
    "freq-m": ("update_freq_labels", "epochs between label-logit injections"),
    "dropout": ("dropout", "dropout rate"),
    "decay": ("weight_decay", "weight decay"),
    "variant": ("variant", "model variant: " + ", ".join(VARIANTS)),
    "label-layers": ("label_gcn_layers", "label-view layers: 1 or 2"),
    "node-layers": ("node_gcn_layers", "node-view layers: 1 or 2"),
    "optimizer": ("optimizer", "gd or adam"),
    "seed": ("seed", "seed of every random stream"),
    "skip-epoch0-injection": ("skip_epoch0_injection",
                              "do not inject at epoch 0 (features stay raw "
                              "until the first full period)"),
    "binarize-cooc": ("binarize_cooccurrence",
                      "binarize label co-occurrence counts"),
}

# the train flags a sweep grid may vary
_GRID_NAMES = ("alpha", "lr", "epochs", "hidden", "freq-n", "freq-m",
               "dropout", "decay", "variant")

_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _add_train_flags(p: argparse.ArgumentParser):
    for flag, (field, text) in _TRAIN_FLAGS.items():
        if _FIELD_TYPES[field] is bool:
            p.add_argument(f"--{flag}", action="store_true", help=text)
        else:
            p.add_argument(f"--{flag}", type=_FIELD_TYPES[field],
                           default=getattr(TrainConfig, field),
                           help=text + " (default: %(default)s)")


def train_config_from_args(args) -> TrainConfig:
    fields = {field: getattr(args, flag.replace("-", "_"))
              for flag, (field, _) in _TRAIN_FLAGS.items()}
    try:
        return TrainConfig(feature_dim=args.feature_dim, **fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def parse_rule(spec: str) -> tuple[str, float]:
    if spec == "topk":
        return "top_k_true", 0.5
    name, colon, value = spec.partition(":")
    if name != "threshold":
        raise UsageError(f"unknown rule {spec!r} (use topk or threshold:t)")
    try:
        t = float(value) if colon else 0.5
    except ValueError:
        raise UsageError(f"bad threshold in rule {spec!r}") from None
    if not 0.0 < t < 1.0:
        raise UsageError("threshold must lie in (0, 1)")
    return "threshold", t


# -- output helpers ----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_atomic(path: str, text):
    # `text` is one string or an iterable of strings, written in order
    # through `files.replacing`
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        for piece in [text] if isinstance(text, str) else text:
            fh.write(piece)


def write_history_csv(path: str, history):
    # wall-clock per epoch is deliberately omitted: history files must be
    # byte-identical across reruns with the same seed
    columns = zip(history.label_loss, history.node_loss, history.total_loss,
                  history.val_micro_f1)
    _write_csv(path, ["epoch", "label_loss", "node_loss", "total_loss",
                      "val_micro_f1"],
               ([e, *map(_fmt, row)] for e, row in enumerate(columns)))


def _write_csv(path: str, header: list, rows):
    # csv quotes a field that holds a comma or a quote; other rows read as
    # the plain comma-joined fields
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


def write_embeddings_tsv(path: str, node_ids, embeddings: np.ndarray):
    # "%.17g" renders a float exactly as _fmt does; rows are rendered
    # `_TSV_BLOCK_ROWS` at a time, so no whole-table text is ever held
    row = "\t".join(["%.17g"] * embeddings.shape[1])

    def pieces():
        for a in range(0, len(embeddings), _TSV_BLOCK_ROWS):
            b = a + _TSV_BLOCK_ROWS
            yield "".join(f"{node}\t{row % tuple(values)}\n" for node, values
                          in zip(node_ids[a:b], embeddings[a:b].tolist()))
    write_atomic(path, pieces())


def _peak_rss_mb() -> float | None:
    """This process's peak resident set so far, in MiB; None on a platform
    without `resource`."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _numeric_environment() -> dict:
    """What a run's bits depend on besides its inputs: the numpy, scipy and
    BLAS builds, and the thread-count variables that BLAS reads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")}}


def _report_dict(report) -> dict:
    return {
        "micro_f1": report.micro_f1,
        "macro_f1": report.macro_f1,
        "decision_rule": report.decision_rule,
        "subset_size": report.subset_size,
        "per_label": [{"label": s.label, "tp": s.tp, "fp": s.fp, "fn": s.fn,
                       "f1": s.f1} for s in report.per_label],
    }


# -- subcommands -------------------------------------------------------------

def cmd_stats(args) -> int:
    if args.seed < 0:  # a file dataset never reads it
        raise UsageError(f"seed must be >= 0, got {args.seed}")
    s = dataset_stats(build_graph(args, args.seed))
    print(f"{s.node_count} {s.edge_count} {s.label_count} {s.cooccurrence_count}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = train_config_from_args(args)
    rule, threshold = parse_rule(args.rule)
    t_start = time.perf_counter()

    graph = build_graph(args, config.seed)
    load_s = time.perf_counter() - t_start
    fingerprint = dataset_fingerprint(graph, config.feature_dim)
    try:
        split = split_dataset(graph, config.train_ratio, config.seed)
    except ValueError as exc:
        raise UsageError(f"--alpha {config.train_ratio:g} on "
                         f"{graph.node_count} nodes: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)  # not for a failed load or split

    print(f"config: lr={config.learning_rate:g} epochs={config.epochs} "
          f"d_h={config.hidden_dim} alpha={config.train_ratio:g} "
          f"N={config.update_freq_nodes} M={config.update_freq_labels} "
          f"dropout={config.dropout:g} decay={config.weight_decay:g} "
          f"variant={config.variant} optimizer={config.optimizer} "
          f"seed={config.seed}")
    print(f"dataset: n={graph.node_count} m={graph.label_count} "
          f"fingerprint={fingerprint[:12]}")

    result = train(graph, split, config, rule=rule, threshold=threshold)

    paths = {
        "checkpoint": os.path.join(args.out, "checkpoint.npz"),
        "history": os.path.join(args.out, "history.csv"),
        "embeddings": os.path.join(args.out, "embeddings.tsv"),
        "manifest": os.path.join(args.out, "manifest.json"),
    }
    save_checkpoint(paths["checkpoint"], result.model, config,
                    config.epochs, fingerprint, result.optimizer,
                    embeddings=result.embeddings)
    write_history_csv(paths["history"], result.history)
    write_embeddings_tsv(paths["embeddings"], graph.node_ids, result.embeddings)

    manifest = {
        "command": "train",
        "config": dataclasses.asdict(config),
        "dataset": {
            "synthetic": args.synthetic,
            "edges": args.edges,
            "labels": args.labels,
            "delimiter": args.delimiter,
            "feature_dim": args.feature_dim,
            "fingerprint": fingerprint,
            "source": graph.source,
            "load_s": load_s,
        },
        "rule": args.rule,
        "seed": config.seed,
        "artifacts": paths,
        "final_losses": {
            "label": result.history.label_loss[-1],
            "node": result.history.node_loss[-1],
            "total": result.history.total_loss[-1],
        },
        "split_sizes": split.sizes(),
        "wall_clock_seconds": time.perf_counter() - t_start,
        # what the run's memory went to, read after every other artifact
        "memory": {
            "peak_rss_mb": _peak_rss_mb(),
            "feature_dim": result.model.node_features.shape[1],
            "operators": operator_sizes(result.operators),
        },
        "environment": _numeric_environment(),
    }
    write_atomic(paths["manifest"], json.dumps(manifest, indent=2) + "\n")
    print(f"final total loss {result.history.total_loss[-1]:.6f}; "
          f"artifacts in {args.out}")
    return EXIT_OK


def _checkpoint_scores(args):
    """(config, graph, split, scores, truth) of a fingerprint-checked run;
    the scores are the final node logits that train stored."""
    meta, config, arrays, _ = read_checkpoint(args.checkpoint)
    if args.feature_dim != config.feature_dim:
        raise FingerprintMismatch(
            f"checkpoint was trained with --feature-dim {config.feature_dim}, "
            f"this run passes --feature-dim {args.feature_dim}")
    graph = build_graph(args, config.seed)
    fingerprint = meta["fingerprint"]
    actual = dataset_fingerprint(graph, config.feature_dim)
    if actual != fingerprint:
        raise FingerprintMismatch(
            f"checkpoint was trained on n={meta['node_count']} "
            f"m={meta['label_count']} (fingerprint "
            f"{fingerprint[:12]}), the dataset has n={graph.node_count} "
            f"m={graph.label_count} (fingerprint {actual[:12]})")
    split = split_dataset(graph, config.train_ratio, config.seed)
    return (config, graph, split, arrays["embeddings"],
            graph.label_indicators())


def cmd_eval(args) -> int:
    config, graph, split, scores, truth = _checkpoint_scores(args)
    # both rules, the threshold one at the requested threshold
    _, threshold = parse_rule(args.rule)
    rules = [("top_k_true", 0.5), ("threshold", threshold)]

    subsets = {"train": split.train_nodes, "val": split.val_nodes,
               "test": split.test_nodes}
    results: dict[str, dict] = {}
    for name, subset in subsets.items():
        if subset.size == 0:
            continue
        results[name] = {}
        for r, t in rules:
            rep = evaluate(scores, truth, subset, rule=r, threshold=t)
            results[name][rep.decision_rule] = _report_dict(rep)

    doc = {
        "command": "eval",
        "config": dataclasses.asdict(config),
        "seed": config.seed,
        "split_sizes": split.sizes(),
        "requested_rule": args.rule,
        "results": results,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.metrics)), exist_ok=True)
    write_atomic(args.metrics, json.dumps(doc, indent=2) + "\n")
    for tag, block in results.get("test", {}).items():
        print(f"test {tag}: micro_f1={block['micro_f1']:.4f} "
              f"macro_f1={block['macro_f1']:.4f}")
    return EXIT_OK


def parse_grid(specs: list[str]) -> dict[str, list]:
    grid: dict[str, list] = {}
    for spec in specs:
        if "=" not in spec:
            raise UsageError(f"bad grid spec {spec!r} (expected name=v1,v2,...)")
        name, values = spec.split("=", 1)
        name = name.strip()
        if name not in _GRID_NAMES:
            raise UsageError(f"unknown grid parameter {name!r}")
        if name in grid:
            raise UsageError(f"grid parameter {name!r} given more than once")
        cast = _FIELD_TYPES[_TRAIN_FLAGS[name][0]]
        try:
            parsed = [cast(v) for v in values.split(",") if v != ""]
        except ValueError as exc:
            raise UsageError(f"bad grid value for {name!r}: {exc}") from None
        if not parsed:
            raise UsageError(f"empty grid for {name!r}")
        grid[name] = parsed
    if not grid:
        raise UsageError("empty parameter grid")
    return grid


def cmd_sweep(args) -> int:
    if args.repeats < 1:
        raise UsageError("repeats must be >= 1")
    grid = parse_grid(args.grid)
    base_config = train_config_from_args(args)
    rule, threshold = parse_rule(args.rule)
    # only a synthetic graph depends on the seed; its spec is parsed once,
    # so a bad one is a usage error, and a file dataset is read once
    if args.synthetic is not None:
        spec, graph = parse_synthetic_spec(args.synthetic, args.seed), None
        node_count = spec.communities * spec.community_size
    else:
        graph = build_graph(args, args.seed)
        node_count = graph.node_count
    # every grid point's config and split are checked before any trains
    points = []
    for combo in itertools.product(*grid.values()):
        overrides = {_TRAIN_FLAGS[name][0]: value
                     for name, value in zip(grid, combo)}
        try:
            config = dataclasses.replace(base_config, **overrides)
            split_dataset(node_count, config.train_ratio, args.seed)
        except ValueError as exc:
            raise UsageError(f"grid point {dict(zip(grid, combo))}: "
                             f"{exc}") from exc
        points.append((combo, config))
    os.makedirs(args.out, exist_ok=True)
    rows = []
    failed = 0
    for combo, point_config in points:
        micro, macro, error = [], [], ""
        for r in range(args.repeats):
            seed = args.seed + r
            config = dataclasses.replace(point_config, seed=seed)
            try:
                run_graph = graph if graph is not None else generate_synthetic(
                    dataclasses.replace(spec, seed=seed))
                split = split_dataset(run_graph, config.train_ratio, seed)
                result = train(run_graph, split, config, rule=rule,
                               threshold=threshold)
                rep = evaluate(result.embeddings,
                               run_graph.label_indicators(),
                               split.test_nodes, rule=rule, threshold=threshold)
                micro.append(rep.micro_f1)
                macro.append(rep.macro_f1)
            except Exception as exc:  # recorded per row; sweep continues
                failed += 1
                error = f"{type(exc).__name__}: {exc}"
                break
        for metric, values in (("micro_f1", micro), ("macro_f1", macro)):
            spread = ([_fmt(np.mean(values)), _fmt(np.std(values))]
                      if values else ["", ""])
            rows.append([*combo, metric, *spread, len(values), error])

    out_path = os.path.join(args.out, "sweep.csv")
    _write_csv(out_path, [*grid, "metric", "mean", "std", "repeats", "error"],
               rows)
    print(f"wrote {len(rows)} rows to {out_path}")
    if failed:
        print(f"error: {failed} grid point(s) failed, see the error column "
              f"of {out_path}", file=sys.stderr)
    return EXIT_DIVERGED if failed else EXIT_OK


def cmd_case_study(args) -> int:
    config, graph, split, scores, truth = _checkpoint_scores(args)
    wanted = [s for s in args.labels_list.split(",") if s != ""]
    index = {lab: i for i, lab in enumerate(graph.label_ids)}
    missing = [lab for lab in wanted if lab not in index]
    if missing:
        raise BadReference(f"unknown label id(s): {', '.join(missing)}")

    rule, threshold = parse_rule(args.rule)
    rep = evaluate(scores, truth, split.test_nodes, rule=rule,
                   threshold=threshold)
    by_label = dict(per_label_breakdown(rep))

    print("label\tf1")
    for lab in wanted:
        print(f"{lab}\t{by_label[index[lab]]:.6f}")

    corr = label_correlation_matrix(graph.label_assignments)
    os.makedirs(os.path.dirname(os.path.abspath(args.correlation_out)),
                exist_ok=True)
    _write_csv(args.correlation_out, ["label", *graph.label_ids],
               ([lab, *map(_fmt, row)]
                for lab, row in zip(graph.label_ids, corr)))
    print(f"correlation matrix written to {args.correlation_out}")
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlgcn",
                     description="Multi-label graph convolutional networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print dataset statistics")
    _add_dataset_flags(p)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model and write artifacts")
    _add_dataset_flags(p)
    _add_train_flags(p)
    p.add_argument("--rule", default="topk",
                   help="decision rule: topk or threshold:t")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_dataset_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rule", default="topk")
    p.add_argument("--metrics", required=True, help="metrics JSON output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid sweep with repeated seeds")
    _add_dataset_flags(p)
    _add_train_flags(p)
    p.add_argument("--rule", default="topk")
    p.add_argument("--grid", action="append", default=[],
                   metavar="NAME=V1,V2,...",
                   help="sweep parameter (repeatable; cartesian product)")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("case-study", help="per-label F1 plus correlation matrix")
    _add_dataset_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--labels-list", required=True,
                   help="comma-separated label ids to report")
    p.add_argument("--rule", default="topk")
    p.add_argument("--correlation-out", default="correlation.csv")
    p.set_defaults(func=cmd_case_study)

    return parser


# (exception type, exit code, stderr prefix), first match wins; ValueError
# covers CheckpointError. Any other exception is a bug and keeps its traceback.
_FAILURES = (
    (UsageError, EXIT_USAGE, "usage error"),
    (FingerprintMismatch, EXIT_FINGERPRINT, "fingerprint mismatch"),
    (BadReference, EXIT_BAD_REF, "error"),
    (ParseError, EXIT_IO, "parse error"),
    (DivergenceError, EXIT_DIVERGED, "error"),
    (OSError, EXIT_IO, "i/o error"),
    (ValueError, EXIT_IO, "error"),
)


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        _check_dataset_flags(args)  # every subcommand takes them
        # a diverging run reports its DivergenceError, not numpy's warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        for kind, code, prefix in _FAILURES:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
