"""Span self-time arithmetic, the tracer's nesting, and the per-layer probes."""

import json
import os
import subprocess
import sys

import pytest

import layers
import run
from tracer import Span, Tracer, load_spans, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def _spans(*rows):
    return [Span(name, start, end, parent, "r") for name, start, end, parent in rows]


def test_self_time_subtracts_direct_children():
    spans = _spans(("a", 0.0, 10.0, None), ("b", 1.0, 4.0, 0),
                   ("c", 2.0, 3.0, 1), ("d", 5.0, 9.0, 0))
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_tracer_records_parents_run_id_and_counts(tmp_path):
    ticks = iter(range(100))
    tracer = Tracer("run-7", clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner",
                        lambda args, kwargs, result: {"out": result})
    outer = tracer.wrap(lambda x: inner(inner(x)), "outer")
    assert outer(1) == 3
    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in spans] == [None, 0, 0]
    assert {s.run_id for s in spans} == {"run-7"}
    assert [s.attrs.get("out") for s in spans] == [None, 2, 3]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 1.0])
    tracer.dump(str(tmp_path / "spans.json"))
    loaded, missing = load_spans(str(tmp_path / "spans.json"))
    assert loaded == spans and missing == []


def test_missing_name_is_reported_missing_not_zero():
    spans = _spans(("training.sgd_step", 0.0, 2.0, None))
    out = layers.command_metrics(spans, missing=["kernels.spmm"])
    assert out["kernels.spmm_calls"] is None
    assert out["kernels.spmm_s.node_intra"] is None
    assert out["training.optimizer_s"] == pytest.approx(2.0)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _, _ in layers.METRICS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_probes_cover_every_target_in_a_traced_command(tmp_path):
    res, spans = tmp_path / "result.json", tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(res), str(spans),
         "--", "train", "--synthetic", "k=2,size=10,p-intra=0.5,p-inter=0.1",
         "--epochs", "2", "--hidden", "8", "--out", str(tmp_path / "out")],
        check=True, capture_output=True, timeout=120)
    result = json.loads(res.read_text())
    assert result["exit"] == 0 and len(result["epoch_seconds"]) == 2
    loaded, missing = load_spans(str(spans))
    assert missing == []
    names = {s.name for s in loaded}
    for expected in ("kernels.spmm", "kernels.backward_stack",
                     "training.sgd_step", "matrices.from_coo",
                     "cli.write_atomic", "operators.build_operators"):
        assert expected in names
    values = layers.command_metrics(loaded, missing)
    assert values["training.epochs"] == 2
    assert values["kernels.spmm_calls"] > 0
    assert values["operators.nnz.node_truncated"] > 0
