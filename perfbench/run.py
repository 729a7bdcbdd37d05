"""mlgcn benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload onehot_train --seed 1 --seconds 58 --trace 0

Closed loop, one client: each cycle runs `mlgcn train`, then `mlgcn stats`
and `mlgcn eval` (as a pair, once or a few times per workload), one after
another, each in a fresh process through the real CLI entry point, and
cycles repeat while the next one still fits in --seconds (at least one
runs). Workloads differ in the dataset, the train arguments and the number
of stats/eval pairs; see README.md for why each was chosen. Inputs come only from
--seed. Every command's output is checked; the last stdout line is one JSON
object with `correct`, `attempted`, `failed` (checks) and `metrics`.

With --trace 0 the metrics are end-to-end and the program runs unwrapped.
With --trace 1 cycles alternate between unwrapped and traced; the traced
ones give per-layer metrics (see layers.py) and the pair gives the tracing
overhead. All files go under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import bcgen
import layers
from tracer import load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # the whole run must end within 180 s

# planted partition of the one-hot workload; 608 = n + m feature columns
SYNTH = {"k": 4, "size": 150, "p-intra": 0.05, "p-inter": 0.005}
SYNTH_SPEC = ",".join(f"{k}={v}" for k, v in SYNTH.items())
F1_FLOOR = 0.9  # onehot_train reached test micro-F1 0.97-0.99 on seeds 1-10


@dataclass(frozen=True)
class Workload:
    bc: bool                # BlogCatalog-shaped files, else the planted partition
    features: tuple         # feature flags, shared by train and eval
    train_args: tuple
    reads: int              # stats + eval pairs after each plain train
    f1_floor: float | None = None


# On the BlogCatalog-shaped graph dropout is off and mlgcn's seed is fixed,
# and three Adam steps at lr 0.05 stop short of the collapse that larger
# rates or more steps reach (F1 falls to 0.2-0.35), so test micro-F1 is
# steady across seeds. The planted partition's stats and eval take 20-100 ms
# after start-up against a 10 s train, so each train is followed by three
# pairs of them.
WORKLOADS = {
    "onehot_train": Workload(False, (), ("--optimizer", "adam", "--lr", "0.01",
                                         "--epochs", "200", "--hidden", "400",
                                         "--variant", "full"), 3, F1_FLOOR),
    "bc": Workload(True, ("--feature-dim", "128"),
                   ("--optimizer", "adam", "--lr", "0.05", "--dropout", "0",
                    "--epochs", "3"), 1),
}

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("train_s", "s"), ("epoch_p50_ms", "ms"),
    ("epoch_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("test_micro_f1", "F1"),
    ("stats_s", "s"), ("eval_s", "s"),
]


@dataclass
class Command:
    kind: str               # train, stats or eval
    tag: str                # names its files in the cycle directory
    wall: float = math.nan
    launched: float = math.nan
    result: dict = field(default_factory=dict)
    spans: str | None = None


@dataclass
class Cycle:
    traced: bool
    out: str
    commands: list = field(default_factory=list)
    complete: bool = False
    artifact_bytes: int = 0

    def of(self, kind: str) -> list[Command]:
        return [c for c in self.commands if c.kind == kind]


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.items)


# -- environment --------------------------------------------------------------

def git_commit(root: str) -> str | None:
    """HEAD commit read from .git without running git (None outside a repo)."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def environment(threads: int) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "commit": git_commit(ROOT)}


# -- one command ----------------------------------------------------------------

def run_command(kind: str, tag: str, args: list[str], cdir: str,
                traced: bool, env: dict, t_start: float) -> Command:
    cmd = Command(kind, tag)
    res = os.path.join(cdir, f"{tag}.result.json")
    cmd.spans = os.path.join(cdir, f"{tag}.spans.json") if traced else None
    argv = [sys.executable, os.path.join(HERE, "child.py"), res,
            cmd.spans or "-", "--", kind, *args]
    timeout = max(5.0, DEADLINE_S - (time.monotonic() - t_start))
    with open(os.path.join(cdir, f"{tag}.log"), "wb") as log:
        cmd.launched = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env)
        # a blocking wait returns as soon as the child exits; Popen.wait with
        # a timeout polls, which rounds wall times up to 50 ms steps
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        cmd.wall = time.monotonic() - cmd.launched
        if code < 0:  # killed by the watchdog (or another signal)
            code = None
    if code == 0 and os.path.isfile(res):
        with open(res, encoding="utf-8") as fh:
            cmd.result = json.load(fh)
    cmd.result.setdefault("exit", code)
    return cmd


def run_cycle(out: str, traced: bool, wl: Workload, data: list[str],
              seed: list[str], env: dict, t_start: float, fits) -> Cycle:
    """train, then stats and eval on the new checkpoint (once in a traced
    cycle, `wl.reads` times in a plain one), stopping before the first
    command for which `fits(kind)` is false; the bulky train outputs are
    measured, then deleted."""
    train_out = os.path.join(out, "train")
    os.makedirs(out)
    c = Cycle(traced, out)
    commands = [("train", "train", [*data, *wl.features, *wl.train_args, *seed,
                                    "--out", train_out])]
    for r in range(1 if traced else wl.reads):
        commands += [
            ("stats", f"stats{r}", [*data, *seed]),
            ("eval", f"eval{r}", [*data, *wl.features, "--checkpoint",
                                  os.path.join(train_out, "checkpoint.npz"),
                                  "--metrics", os.path.join(out, f"metrics{r}.json")]),
        ]
    for kind, tag, args in commands:
        if not fits(kind):
            break
        c.commands.append(run_command(kind, tag, args, out, traced, env, t_start))
    c.complete = len(c.commands) == len(commands)
    written = [os.path.join(train_out, f) for f in os.listdir(train_out)] \
        if os.path.isdir(train_out) else []
    if os.path.isfile(os.path.join(out, "metrics0.json")):
        written.append(os.path.join(out, "metrics0.json"))
    c.artifact_bytes = sum(os.path.getsize(p) for p in written)
    for p in written:
        if p.endswith(("checkpoint.npz", "embeddings.tsv")):
            os.remove(p)
    return c


# -- checks -----------------------------------------------------------------------

def synthetic_stats_ok(line: str) -> tuple[bool, str]:
    """Planted-partition counts: exact n, m and label pairs; the edge count
    within 6 standard deviations of its binomial mean."""
    k, size = SYNTH["k"], SYNTH["size"]
    n = k * size
    intra = k * size * (size - 1) // 2
    inter = n * (n - 1) // 2 - intra
    p_in, p_out = SYNTH["p-intra"], SYNTH["p-inter"]
    mean = intra * p_in + inter * p_out
    sd = math.sqrt(intra * p_in * (1 - p_in) + inter * p_out * (1 - p_out))
    try:
        nodes, edges, labels, pairs = map(int, line.split())
    except ValueError:
        return False, f"unparsable stats line {line!r}"
    ok = (nodes, labels, pairs) == (n, 2 * k, k) and abs(edges - mean) <= 6 * sd
    return ok, f"{line!r}; expected {n} ~{mean:.0f}+-{6 * sd:.0f} {2 * k} {k}"


def read_history(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def check_cycle(c: Cycle, wl: Workload, bc: bcgen.BCData | None,
                epochs: int, checks: Checks):
    """Add this cycle's checks; returns the test micro-F1 each eval read."""
    out = c.out
    for cmd in c.commands:
        checks.add(f"{cmd.kind} exits 0", cmd.result.get("exit") == 0,
                   f"exit {cmd.result.get('exit')}")
    for cmd in c.of("stats"):
        with open(os.path.join(out, f"{cmd.tag}.log"), encoding="utf-8") as fh:
            line = fh.readline().strip()
        if bc is not None:
            checks.add("stats line", line == bc.stats_line(),
                       f"{line!r} vs {bc.stats_line()!r}")
        else:
            checks.add("stats line", *synthetic_stats_ok(line))

    try:
        rows = read_history(os.path.join(out, "train", "history.csv"))
        finite = all(math.isfinite(float(v)) for r in rows for v in r[1:4])
        checks.add("history rows", len(rows) == epochs and finite,
                   f"{len(rows)} rows, finite={finite}")
    except (OSError, ValueError) as exc:
        checks.add("history rows", False, str(exc))

    f1s = []
    for r in range(len(c.of("eval"))):
        f1 = None
        try:
            with open(os.path.join(out, f"metrics{r}.json"),
                      encoding="utf-8") as fh:
                results = json.load(fh)["results"]
            ok = all(rule in results.get(subset, {})
                     for subset in ("train", "val", "test")
                     for rule in ("top_k_true", "threshold:0.5"))
            checks.add("metrics subsets and rules", ok, str(sorted(results)))
            f1 = results["test"]["top_k_true"]["micro_f1"]
            f1s.append(f1)
        except (OSError, ValueError, KeyError) as exc:
            checks.add("metrics subsets and rules", False, str(exc))
        if wl.f1_floor is not None:
            checks.add("learnability floor", f1 is not None and f1 >= wl.f1_floor,
                       f"test micro-F1 {f1} vs floor {wl.f1_floor}")
    return f1s


# -- metrics ------------------------------------------------------------------------

def median(values):
    values = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(values) if values else None


def end_to_end(cycles: list[Cycle], f1s: list) -> tuple[dict, dict]:
    """End-to-end values and their sample counts."""
    trains = [t for c in cycles for t in c.of("train")]
    ok = [t for t in trains if "epoch_seconds" in t.result]
    epochs = [e for t in ok for e in t.result["epoch_seconds"]]
    setup = [t.result["init_return"] - t.launched
             for t in ok if "init_return" in t.result]
    stats = [s.result["main_s"] for c in cycles for s in c.of("stats")
             if "main_s" in s.result]
    evals = [e.result["main_s"] for c in cycles for e in c.of("eval")
             if "main_s" in e.result]
    p90 = (statistics.quantiles(epochs, n=10, method="inclusive")[8]
           if len(epochs) > 1 else (epochs[0] if epochs else None))
    rss = [max(c.result.get("maxrss_kb", 0) for c in cyc.commands)
           / 1024.0 for cyc in cycles if cyc.complete]
    values = {
        "setup_s": median(setup),
        "train_s": median([t.wall for t in ok]),
        "epoch_p50_ms": 1e3 * median(epochs) if epochs else None,
        "epoch_p90_ms": 1e3 * p90 if p90 is not None else None,
        "peak_rss_mb": median(rss),
        "test_micro_f1": median(f1s),
        "stats_s": median(stats),
        "eval_s": median(evals),
    }
    samples = {"setup_s": len(setup), "train_s": len(ok),
               "epoch_p50_ms": len(epochs), "epoch_p90_ms": len(epochs),
               "peak_rss_mb": len(rss), "test_micro_f1": len(f1s),
               "stats_s": len(stats), "eval_s": len(evals)}
    return values, samples


def per_layer(cycles: list[Cycle]) -> tuple[dict, list[str]]:
    plain = [c for c in cycles if not c.traced]
    traced = [c for c in cycles if c.traced and c.complete]
    per_cycle, missing = [], set()
    for c in traced:
        acc: dict = {}
        for cmd in c.commands:
            if not cmd.spans or not os.path.isfile(cmd.spans):
                continue
            spans, miss = load_spans(cmd.spans)
            missing.update(miss)
            for name, v in layers.command_metrics(spans, miss).items():
                if v is None or acc.get(name, 0) is None:
                    acc[name] = None
                elif name.startswith("operators.nnz."):
                    acc[name] = max(acc.get(name, 0), v)
                else:
                    acc[name] = acc.get(name, 0) + v
        acc["cli.artifact_bytes"] = c.artifact_bytes
        per_cycle.append(acc)
    cmds = [cmd for c in plain for cmd in c.commands]
    cpu = sum(cmd.result.get("cpu_s", 0.0) for cmd in cmds)
    wall = sum(cmd.wall for cmd in cmds)
    values = {name: median([acc.get(name) for acc in per_cycle])
              for name, _, _ in layers.METRICS}
    values["process.cpu_util"] = cpu / wall if wall else None
    with_trace, without = one_of_each(traced), one_of_each(plain)
    values["trace.overhead_frac"] = (with_trace / without - 1.0
                                     if with_trace and without else None)
    return values, sorted(missing)


def one_of_each(cycles: list[Cycle]) -> float | None:
    """Median train, stats and eval wall times, summed: one traced cycle's
    worth of commands, whatever the number of reads per cycle (None if a
    kind has no sample)."""
    medians = [median([cmd.wall for c in cycles for cmd in c.of(kind)])
               for kind in ("train", "stats", "eval")]
    return None if None in medians else sum(medians)


# -- main ----------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "mlgcn", "cli.py")):
        print(f"error: no mlgcn sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    env_record = environment(threads)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    bc = None
    # the generated files carry the seed on the BlogCatalog-shaped workloads;
    # the planted partition is generated by mlgcn itself from its --seed
    seed = ["--seed", "0" if wl.bc else str(args.seed)]
    if wl.bc:
        bc = bcgen.generate(args.seed)
        edges, labels = (os.path.join(work, f) for f in ("edges.csv", "labels.csv"))
        bcgen.write_files(bc, args.seed, edges, labels)
        data = ["--edges", edges, "--labels", labels]
    else:
        data = ["--synthetic", SYNTH_SPEC]
    epochs = int(wl.train_args[wl.train_args.index("--epochs") + 1])

    checks, cycles, f1s = Checks(), [], []
    t_loop = time.monotonic()

    def fits(kind: str) -> bool:
        """Whether a command is predicted, by the median of its kind so far,
        to end within --seconds (the first of each kind always runs)."""
        walls = [cmd.wall for c in cycles for cmd in c.of(kind)]
        return not walls or \
            time.monotonic() - t_loop + median(walls) <= args.seconds

    while True:
        i = len(cycles)
        # pairs alternate which half is traced: T P, P T, T P, ...
        traced = bool(args.trace) and i % 2 == (i // 2) % 2
        c = run_cycle(os.path.join(work, f"c{i:02d}"), traced, wl, data, seed,
                      env, t_start, fits)
        if not c.commands:
            break
        f1s += check_cycle(c, wl, bc, epochs, checks)
        cycles.append(c)
        if not c.complete:
            break
    for f in ("edges.csv", "labels.csv"):
        if os.path.isfile(os.path.join(work, f)):
            os.remove(os.path.join(work, f))

    e2e, samples = end_to_end([c for c in cycles if not c.traced], f1s)
    if args.trace:
        values, missing = per_layer(cycles)
        units = [(name, unit) for name, unit, _ in layers.METRICS]
    else:
        values, missing = e2e, []
        units = END_TO_END

    print("env " + json.dumps(env_record, sort_keys=True))
    print(f"cycles {len(cycles)} ({sum(c.traced for c in cycles)} traced), "
          f"checks {len(checks.items)}, failed {checks.failed}, "
          f"failed_frac {checks.failed / len(checks.items):.4g}")
    for name, ok, detail in checks.items:
        if not ok:
            print(f"FAILED check: {name}: {detail}")
    for name, unit in END_TO_END:
        print(f"{name:<16} {e2e[name]!s:>22} {unit:<5} "
              f"(n={samples[name]})")
    if missing:
        print("missing (program no longer exposes): " + ", ".join(missing))

    metrics = {}
    for name, unit in units:
        v = values.get(name)
        if v is None:
            if args.trace:
                print(f"missing metric {name}")
                continue
            print(f"error: no value for {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": v, "unit": unit}
        if args.trace:
            print(f"{name:<34} {v!s:>22} {unit}")

    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "env": env_record, "samples": samples, "missing": missing,
               "checks": checks.items, "metrics": metrics,
               "cycles": [{"traced": c.traced,
                           "wall": [[cmd.tag, cmd.wall] for cmd in c.commands]}
                          for c in cycles]}
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": len(checks.items), "failed": checks.failed,
                      "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
