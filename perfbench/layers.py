"""Per-layer probes for mlgcn: which public functions the traced run wraps,
and how their spans add up to the per-layer metrics.

A layer is one module of the program (kernels, training, metrics, datasets,
matrices, operators, cli). Each probe wraps a public callable in every
mlgcn module that binds it, so calls through re-exports are seen too. A
name the program no longer exposes is listed as missing, and the metrics
built from it are reported missing rather than zero.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict

from tracer import Span, Tracer, self_times

# span name -> (module, attribute); "Class.method" names a method
TARGETS = {
    "kernels.spmm": ("mlgcn.kernels", "spmm"),
    "kernels.gcn_layer_forward": ("mlgcn.kernels", "gcn_layer_forward"),
    "kernels.backward": ("mlgcn.kernels", "backward"),
    "kernels.backward_stack": ("mlgcn.kernels", "backward_stack"),
    "training.train": ("mlgcn.training", "train"),
    "training.init_model": ("mlgcn.training", "init_model"),
    "training.forward_node_gcn": ("mlgcn.training", "forward_node_gcn"),
    "training.sgd_step": ("mlgcn.training", "sgd_step"),
    "training.inject_node_features": ("mlgcn.training", "inject_node_features"),
    "training.inject_label_features": ("mlgcn.training", "inject_label_features"),
    "training.save_checkpoint": ("mlgcn.training", "save_checkpoint"),
    "training.load_checkpoint": ("mlgcn.training", "load_checkpoint"),
    "metrics.evaluate": ("mlgcn.metrics", "evaluate"),
    "metrics.split_dataset": ("mlgcn.metrics", "split_dataset"),
    "datasets.generate_synthetic": ("mlgcn.datasets", "generate_synthetic"),
    "datasets.load_dataset": ("mlgcn.datasets", "load_dataset"),
    "datasets.dataset_stats": ("mlgcn.datasets", "dataset_stats"),
    "matrices.from_coo": ("mlgcn.matrices", "SparseMatrix.from_coo"),
    "matrices.to_dense": ("mlgcn.matrices", "SparseMatrix.to_dense"),
    "operators.build_operators": ("mlgcn.operators", "build_operators"),
    "cli.dataset_fingerprint": ("mlgcn.cli", "dataset_fingerprint"),
    "cli.write_history_csv": ("mlgcn.cli", "write_history_csv"),
    "cli.write_embeddings_tsv": ("mlgcn.cli", "write_embeddings_tsv"),
    "cli.write_atomic": ("mlgcn.cli", "write_atomic"),
}

# operators whose product time is reported; the full variant never applies
# the intra-label operator, so it has a nonzero count but no spmm time
SPMM_OPS = ("node_truncated", "node_intra", "label_truncated")
NNZ_OPS = ("node_truncated", "node_intra", "label_truncated", "label_intra")

# name, unit, better; emitted in this order by the traced run
METRICS = [
    ("kernels.layer_forward_self_s", "s", "lower"),
    ("kernels.dropout_values", "count", "lower"),
    ("kernels.layer1_operand_bytes", "bytes", "lower"),
    *[(f"kernels.spmm_s.{op}", "s", "lower") for op in SPMM_OPS],
    ("kernels.spmm_calls", "count", "lower"),
    ("kernels.spmm_flops", "flop", "lower"),
    ("kernels.backward_self_s", "s", "lower"),
    ("training.optimizer_s", "s", "lower"),
    ("training.inject_s", "s", "lower"),
    ("training.val_forward_s", "s", "lower"),
    ("training.init_s", "s", "lower"),
    ("training.checkpoint_save_s", "s", "lower"),
    ("training.checkpoint_load_s", "s", "lower"),
    ("training.epochs", "count", "higher"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.evaluate_calls", "count", "lower"),
    ("metrics.split_s", "s", "lower"),
    ("datasets.input_s", "s", "lower"),
    ("datasets.stats_s", "s", "lower"),
    ("matrices.from_coo_s", "s", "lower"),
    ("matrices.from_coo_calls", "count", "lower"),
    ("matrices.to_dense_s", "s", "lower"),
    ("operators.build_s", "s", "lower"),
    *[(f"operators.nnz.{op}", "count", "lower") for op in NNZ_OPS],
    ("cli.fingerprint_s", "s", "lower"),
    ("cli.artifacts_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("process.cpu_util", "ratio", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
]


def _arguments(sig: inspect.Signature, args, kwargs) -> dict | None:
    """Call arguments by parameter name; None if the signature changed."""
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound.arguments


def _nbytes(x) -> int:
    """Bytes held by a dense array, or by a sparse matrix's buffers."""
    if hasattr(x, "nbytes"):
        return int(x.nbytes)
    return sum(int(getattr(x, a).nbytes) for a in ("data", "indices", "indptr"))


class _Probes:
    """Counts computed at the wrapped calls. Operator classes need the graph
    size, which `build_operators` sees before any product runs."""

    def __init__(self):
        self.n = self.m = None

    def op_class(self, shape) -> str:
        n, m = self.n, self.m
        if n is None:
            return "other"
        r, c = shape
        if {r, c} == {n, n + m}:
            return "node_truncated"
        if {r, c} == {m, n + m}:
            return "label_truncated"
        if (r, c) == (n, n):
            return "node_intra"
        if (r, c) == (m, m):
            return "label_intra"
        return "other"

    def spmm(self, args, kwargs, result):
        op, dense = args[0], args[1]
        return {"op": self.op_class(op.shape), "nnz": int(op.nnz),
                "flops": 2 * int(op.nnz) * int(dense.shape[1])}

    def layer_forward(self, fn):
        sig = inspect.signature(fn)

        def attrs(args, kwargs, result):
            p = _arguments(sig, args, kwargs)
            if p is None:
                return {}
            h = p["h"]
            drawn = p["training"] and p["dropout"] > 0.0
            first = self.op_class(p["op"].shape).endswith("truncated")
            return {"dropout_values": int(h.size) if drawn else 0,
                    "operand_bytes": _nbytes(h) if first else 0}
        return attrs

    @staticmethod
    def forward_node(fn):
        sig = inspect.signature(fn)

        def attrs(args, kwargs, result):
            p = _arguments(sig, args, kwargs)
            return {} if p is None else {"training": bool(p["training"])}
        return attrs

    def build_operators(self, args, kwargs, result):
        graph = args[0] if args else kwargs["g"]
        self.n, self.m = graph.node_count, graph.label_count
        views = {"node_truncated": result.node.truncated,
                 "node_intra": result.node.intra,
                 "label_truncated": result.label.truncated,
                 "label_intra": result.label.intra}
        return {f"nnz.{k}": int(v.nnz) for k, v in views.items()}

    @staticmethod
    def train(args, kwargs, result):
        return {"epochs": len(result.history)}


def _resolve(modname: str, attr: str):
    """(owner, name, raw attribute) or None when the program lacks it."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = inspect.getattr_static(owner, name, None)
    return None if raw is None else (owner, name, raw)


def _rebind(orig, wrapped):
    """Replace `orig` in every loaded mlgcn module that binds it."""
    for modname, mod in list(sys.modules.items()):
        if modname == "mlgcn" or modname.startswith("mlgcn."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def install(tracer: Tracer):
    """Wrap every target; names the program lacks go to `tracer.missing`."""
    probes = _Probes()
    for span_name, (modname, attr) in TARGETS.items():
        found = _resolve(modname, attr)
        if found is None:
            tracer.missing.append(span_name)
            continue
        owner, name, raw = found
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        attrs = {
            "kernels.spmm": probes.spmm,
            "kernels.gcn_layer_forward": probes.layer_forward(fn),
            "training.forward_node_gcn": probes.forward_node(fn),
            "training.train": probes.train,
            "operators.build_operators": probes.build_operators,
        }.get(span_name)
        wrapped = tracer.wrap(fn, span_name, attrs)
        if isinstance(owner, type):
            setattr(owner, name, type(raw)(wrapped)
                    if isinstance(raw, (classmethod, staticmethod)) else wrapped)
        else:
            _rebind(fn, wrapped)


class _Sums:
    """Per-span-name totals of one command's spans."""

    def __init__(self, spans: list[Span]):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        for s, own in zip(spans, self_times(spans)):
            self.total[s.name] += s.duration
            self.self_time[s.name] += own
            self.calls[s.name] += 1


def _attr_sum(spans, name, key):
    """Sum of an attribute over the spans of `name`; None if any span lacks it."""
    values = [s.attrs.get(key) for s in spans if s.name == name]
    return None if None in values else sum(values)


def command_metrics(spans: list[Span], missing: list[str]) -> dict:
    """Per-layer values of one traced command; None marks a missing metric.

    Times are seconds of wall clock inside the wrapped calls. Counts are
    computed from call arguments (shapes, nnz), not measured.
    """
    t = _Sums(spans)
    out: dict[str, float | None] = {}

    def put(metric, sources, value):
        out[metric] = None if any(s in missing for s in sources) else value

    lf, sp = "kernels.gcn_layer_forward", "kernels.spmm"
    put("kernels.layer_forward_self_s", [lf], t.self_time[lf])
    put("kernels.dropout_values", [lf], _attr_sum(spans, lf, "dropout_values"))
    put("kernels.layer1_operand_bytes", [lf],
        _attr_sum(spans, lf, "operand_bytes"))
    for op in SPMM_OPS:
        put(f"kernels.spmm_s.{op}", [sp],
            sum(s.duration for s in spans
                if s.name == sp and s.attrs.get("op") == op))
    put("kernels.spmm_calls", [sp], t.calls[sp])
    put("kernels.spmm_flops", [sp], _attr_sum(spans, sp, "flops"))
    bw = ["kernels.backward", "kernels.backward_stack"]
    put("kernels.backward_self_s", bw, sum(t.self_time[b] for b in bw))
    put("training.optimizer_s", ["training.sgd_step"],
        t.total["training.sgd_step"])
    inj = ["training.inject_node_features", "training.inject_label_features"]
    put("training.inject_s", inj, sum(t.total[i] for i in inj))
    fw, tr = "training.forward_node_gcn", "training.train"
    put("training.val_forward_s", [fw, tr],
        sum(s.duration for s in spans
            if s.name == fw and s.attrs.get("training") is False
            and s.parent is not None and spans[s.parent].name == tr))
    put("training.init_s", ["training.init_model"],
        t.total["training.init_model"])
    put("training.checkpoint_save_s", ["training.save_checkpoint"],
        t.total["training.save_checkpoint"])
    put("training.checkpoint_load_s", ["training.load_checkpoint"],
        t.total["training.load_checkpoint"])
    put("training.epochs", [tr], _attr_sum(spans, tr, "epochs"))
    put("metrics.evaluate_s", ["metrics.evaluate"], t.total["metrics.evaluate"])
    put("metrics.evaluate_calls", ["metrics.evaluate"],
        t.calls["metrics.evaluate"])
    put("metrics.split_s", ["metrics.split_dataset"],
        t.total["metrics.split_dataset"])
    src = ["datasets.generate_synthetic", "datasets.load_dataset"]
    put("datasets.input_s", src, sum(t.total[s] for s in src))
    put("datasets.stats_s", ["datasets.dataset_stats"],
        t.total["datasets.dataset_stats"])
    put("matrices.from_coo_s", ["matrices.from_coo"],
        t.total["matrices.from_coo"])
    put("matrices.from_coo_calls", ["matrices.from_coo"],
        t.calls["matrices.from_coo"])
    put("matrices.to_dense_s", ["matrices.to_dense"],
        t.total["matrices.to_dense"])
    bo = "operators.build_operators"
    put("operators.build_s", [bo], t.total[bo])
    built = [s for s in spans if s.name == bo]
    for op in NNZ_OPS:
        # every build of one graph gives the same operators; report one
        put(f"operators.nnz.{op}", [bo],
            built[0].attrs.get(f"nnz.{op}") if built else 0)
    put("cli.fingerprint_s", ["cli.dataset_fingerprint"],
        t.total["cli.dataset_fingerprint"])
    art = ["cli.write_history_csv", "cli.write_embeddings_tsv",
           "cli.write_atomic"]
    # self times: write_atomic nests inside the two writers
    put("cli.artifacts_s", art, sum(t.self_time[a] for a in art))
    return out
