"""Workload process: runs one workload's operations and writes their timings
and outputs as JSON.  Started by ``run.py``; the program's own defaults
(thread count, BLAS threads) are left as the environment sets them.

One warm-up operation runs first.  Untraced runs then time operations until
``--seconds`` have passed (at least MIN_OPS).  Traced runs alternate an
untraced and a traced operation, so the tracing overhead is measured within
one process; the tracer's wrappers are installed only around traced ones.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import sys
from time import perf_counter, process_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 3          # untraced operations per untraced run
MIN_PAIRS = 2        # untraced/traced pairs per traced run
STOP_STARTING = 100  # seconds after which no new operation starts


def run(spec, workdir, seconds, trace, spans_path):
    op = workloads.make_op(spec, workdir)
    tracer = tracing.Tracer() if trace else None
    records = []

    def once(kind):
        i = len(records)
        traced = kind == "traced"
        if traced:
            tracer.install()
        out, err = None, None
        c0, t0 = process_time(), perf_counter()
        try:
            out = tracer.run_op(i, lambda: op(i)) if traced else op(i)
        except (Exception, SystemExit) as exc:
            err = f"{type(exc).__name__}: {exc}"
        wall, cpu = perf_counter() - t0, process_time() - c0
        if traced:
            tracer.restore()
        records.append({"i": i, "kind": kind, "wall": wall, "cpu": cpu,
                        "output": out, "error": err})

    once("warmup")
    start = perf_counter()
    cycle = ("timed", "traced") if trace else ("timed",)
    need = MIN_PAIRS if trace else MIN_OPS
    while True:
        elapsed = perf_counter() - start
        done = sum(r["kind"] == cycle[-1] for r in records)
        if (elapsed >= seconds and done >= need) or elapsed >= STOP_STARTING:
            break
        for kind in cycle:
            once(kind)

    result = {"records": records,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        traced = [r["i"] for r in records if r["kind"] == "traced"]
        result["layers"] = tracing.summarize(
            tracer.spans, traced, tracer.pool_sizes,
            sweep=spec["workload"] in workloads.SWEEP_ARGS,
            cli=spec["workload"] in workloads.CLI_WORKLOADS)
        with gzip.open(spans_path, "wt") as fh:
            json.dump({"fields": list(tracing.SPAN_FIELDS), "spans": tracer.spans}, fh)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)
    result = run(spec, os.path.dirname(args.spec), args.seconds, args.trace, args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
