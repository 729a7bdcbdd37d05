"""Run one mlgcn command in this process and record what the benchmark needs.

Usage: python3 child.py RESULT.json SPANS.json|- -- <mlgcn arguments>

Imports mlgcn from the checkout's `src/` (never an installed copy), calls
the real CLI entry point, and writes RESULT.json with the exit code, the
epoch times `train` reported, the monotonic time at which `train`'s
`init_model` returned (its last set-up call before the epoch loop), the
time spent in the CLI's `main`, and this process's peak memory and CPU
time. With a SPANS path other than `-`,
the per-layer probes are installed first and the spans are written there.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    result_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT SPANS|- -- ARGS...")
    sys.path.insert(0, SRC)
    import mlgcn.cli as cli
    import mlgcn.training as training
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"mlgcn imported from {cli.__file__}, not {SRC}")

    tracer = None
    if spans_path != "-":
        import layers
        from tracer import Tracer
        tracer = Tracer(run_id=f"{os.getpid()}:{' '.join(cli_args[:1])}")
        layers.install(tracer)

    record: dict = {}
    real_train = cli.train

    @functools.wraps(real_train)
    def timed_train(*args, **kwargs):
        out = real_train(*args, **kwargs)
        record["epoch_seconds"] = list(out.history.epoch_seconds)
        return out

    cli.train = timed_train
    real_init = getattr(training, "init_model", None)
    if real_init is not None:
        @functools.wraps(real_init)
        def timed_init(*args, **kwargs):
            out = real_init(*args, **kwargs)
            record.setdefault("init_return", time.monotonic())
            return out

        training.init_model = timed_init
    # the command's own time, without interpreter start-up and imports
    began = time.monotonic()
    code = cli.main(cli_args)
    record["main_s"] = time.monotonic() - began
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(exit=code, maxrss_kb=usage.ru_maxrss,
                  cpu_s=usage.ru_utime + usage.ru_stime)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
