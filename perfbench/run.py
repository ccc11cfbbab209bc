"""nhgeo benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload ssh-sweep --seed 1 --seconds 15 --trace 0

Builds nothing: the package runs from ``src/`` of the checkout (the first
import writes its bytecode, untimed).  With ``--trace 0`` it measures the
end-to-end metrics, with ``--trace 1`` the per-layer ones; either way every
operation's output is checked, untimed.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (machine facts, every operation's time, failures,
error rows by class) goes to ``.bench_out/``, traced spans next to it.
Exits non-zero without a result when the checkout holds no ``src/nhgeo``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_SAMPLES = 7
DEADLINE = 170  # seconds; the whole run must end within 180
SETUP_PROBE = "import time, nhgeo.cli; print(time.perf_counter(), nhgeo.__file__)"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def machine_facts(env):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            vals = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, idx, key)) as fh:
                    vals[key] = fh.read().strip()
            caches[f"L{vals['level']}{vals['type'][0].lower()}"] = vals["size"]
    except OSError:
        pass
    threads_env = env.get("NHGEO_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: env.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "NHGEO_THREADS": threads_env or "unset",
        # the sweep command's own rule: --threads, else NHGEO_THREADS, else cores
        "sweep_threads": int(threads_env or 0) or os.cpu_count() or 1,
        "caches": caches,
    }


def import_time(env, root):
    """Seconds from spawning a fresh interpreter until ``import nhgeo.cli`` returns."""
    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    if not os.path.abspath(out[1]).startswith(os.path.join(root, "src") + os.sep):
        fail(f"nhgeo imported from {out[1]}, not from this checkout")
    return float(out[0]) - t0


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nhgeo", "__init__.py")):
        fail("no src/nhgeo in the current directory; run from the repository root")
    sys.path.insert(0, os.path.join(root, "src"))  # the checks import nhgeo too
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(root, ".bench_out")
    workdir = os.path.join(root, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(workdir)
    try:
        import_time(env, root)  # compiles bytecode; not a sample
        setup = [] if args.trace else [import_time(env, root) for _ in range(SETUP_SAMPLES)]
        spec = workloads.prepare(args.workload, args.seed, workdir)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        res_path = os.path.join(workdir, "result.json")
        spans_path = os.path.join(outdir, f"{tag}.spans.json.gz")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spec", spec_path,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", res_path, "--spans", spans_path]
        try:
            subprocess.run(cmd, env=env, check=True,
                           timeout=max(DEADLINE - (perf_counter() - start), 1))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            fail(f"workload process failed: {exc}")
        with open(res_path) as fh:
            res = json.load(fh)

        check = workloads.Checker(spec)
        failures = []
        for r in res["records"]:
            reason = r["error"] or check(r["output"])
            if reason:
                failures.append({"op": r["i"], "kind": r["kind"], "reason": reason})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = res["records"]
    timed = [r["wall"] for r in records if r["kind"] == "timed"]
    q1, med, q3 = quartiles(timed)
    attempted, failed = len(records), len(failures)
    facts = machine_facts(env)
    print("machine: " + json.dumps(facts))
    for f in failures[:5]:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['reason']}")
    print(f"{args.workload} seed={args.seed}: op_s_p50 {med:.4f} s "
          f"(p25 {q1:.4f}, p75 {q3:.4f}, n={len(timed)}); "
          f"failed_frac {failed / attempted:g} ({failed}/{attempted})")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "spec": spec,
              "op_s": {"p25": q1, "p50": med, "p75": q3, "n": len(timed)},
              "ops": [{k: r[k] for k in ("i", "kind", "wall", "cpu", "error")}
                      for r in records],
              "failures": failures}
    if args.trace:
        layers, error_rows = res["layers"]
        traced = [r["wall"] for r in records if r["kind"] == "traced"]
        cpu = sum(r["cpu"] for r in records if r["kind"] == "timed")
        layers["process.cpu_per_wall"] = cpu / sum(timed)
        layers["trace.op_s_p50"] = statistics.median(traced)
        layers["trace.overhead_frac"] = statistics.median(traced) / med - 1.0
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        record["error_rows"] = error_rows
        print(f"error rows by class per {len(traced)} traced ops: {error_rows}")
    else:
        setup_s = statistics.median(setup)
        rss_mb = res["peak_rss_kb"] / 1024.0
        print(f"setup_s {setup_s:.4f} s (median of {len(setup)}); "
              f"peak_rss_mb {rss_mb:.2f} MB")
        metrics = {
            "op_s_p50": {"value": med, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        record["setup_s"] = setup
    record["metrics"] = metrics
    with open(os.path.join(outdir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def unit_of(name):
    if name.endswith((".calls", ".sum_n3", ".threads", ".error_rows")) or name == "liouville.kblocks":
        return "count"
    if name.endswith("_s") or "_s_" in name:
        return "s"
    return "ratio"


if __name__ == "__main__":
    main()
