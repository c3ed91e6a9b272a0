#!/usr/bin/env python3
"""Run one pdnsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tran_cold --seed 0 --seconds 10 --trace 0

A plain run (``--trace 0``) issues operations one after another from this
process, cycling over the workload's scenario kinds until ``--seconds`` have
passed and at least ``min_ops`` ran, and reports the end-to-end metrics.  A
traced run (``--trace 1``) makes a fixed set of operations, each plainly and
then traced, and reports the per-layer metrics.  The metric names and
units come from ``BENCHMARK.json``; ``perfbench/README.md`` describes them.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything a run saw, spans included, is written to
``perfbench/out/``.  Exit code 0 means every operation passed the output
check, 1 that some failed, 2 that the checkout has no pdnsim source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# one process, one operation at a time; SuperLU itself is single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("tran_cold", "dc_sweep", "warm_sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="6x6 tiles and a coarse step, for the self-test")
    return ap.parse_args(argv)


def metric_units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pdnsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(w, seed, toy):
    """CPU time and wall time of fresh set-up processes, and their import
    times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpus, walls, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), w.name, str(seed),
             "1" if toy else "0"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - t0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpus.append(after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime)
        imports.append(json.loads(out.stdout.splitlines()[-1])["import_s"])
    return cpus, walls, imports


def plain_op(w, seed, k, reference):
    from checks import check, summary
    from workloads import CLOCK, run_op, scenario

    from pdnsim import PdnError

    label, *_, cfg = scenario(w, seed, k)
    op = {"k": k, "label": label}
    wall0, t0 = time.perf_counter(), CLOCK()
    try:
        res, files = run_op(w, cfg)
    except PdnError as exc:
        op["problems"] = [f"{type(exc).__name__}: {exc}"]
    op["op_s"], op["wall_s"] = CLOCK() - t0, time.perf_counter() - wall0
    if "problems" not in op:
        op["problems"] = check(res, files, reference.get(label))
        op["summary"] = summary(res, files)
    return op


def plain_run(w, seed, seconds, reference):
    ops = []
    t_start = time.perf_counter()
    while len(ops) < w.min_ops or time.perf_counter() - t_start < seconds:
        ops.append(plain_op(w, seed, len(ops), reference))
    return ops


def traced_run(w, seed, reference):
    """Each operation of a fixed set run plainly, then traced right after,
    so that slow drift of the machine's speed hits both alike.  Returns all
    operations, the traced ones with their per-layer metrics, and the
    spans."""
    from checks import check, settle_err_mv, summary
    from workloads import Tracer, scenario, stage_times, traced_op

    from pdnsim import PdnError

    tracer = Tracer()
    plain, ops = [], []
    for k in range(w.trace_ops):
        base = plain_op(w, seed, k, reference)
        plain.append(base)
        label, *_, cfg = scenario(w, seed, k)
        op = {"k": k, "label": label, "op_s": float("nan")}
        ops.append(op)
        try:
            res, files, counts = traced_op(w, cfg, tracer, k)
        except PdnError as exc:
            op["problems"] = [f"{type(exc).__name__}: {exc}"]
            continue
        op["summary"] = summary(res, files)
        op["problems"] = check(res, files, reference.get(label))
        if op["summary"] != base.get("summary"):
            op["problems"].append("traced result differs from the plain one")
        m = stage_times([s for s in tracer.spans if s[3] == k], counts)
        m.update(counts)
        m["mna.lu_fill_ratio"] = counts["mna.lu_nnz"] / counts["mna.nnz"]
        m["mna.dc_kcl_residual_a"] = res.dc.kcl_residual
        m["mna.settle_err_mv"] = 0.0 if res.waveform is None else settle_err_mv(res)
        m["trace.op_s"] = base["op_s"]
        m["trace.overhead_s"] = m["trace.traced_op_s"] - base["op_s"]
        op["op_s"] = m["trace.traced_op_s"]
        op["layers"] = m
    return plain + ops, ops, tracer.spans


def result_line(ops, metrics, units):
    failed = sum(1 for op in ops if op["problems"])
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pdnsim" / "__init__.py").is_file():
        print(f"error: no pdnsim source under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import pdnsim
    from checks import load_reference
    from workloads import DEFAULT_SEED, workload

    if not Path(pdnsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pdnsim from {pdnsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    w = workload(args.workload, args.toy)
    reference = (load_reference(w.name)
                 if args.seed == DEFAULT_SEED and not args.toy else {})
    env = environment(args.seed)
    setup_cpus, setup_walls, import_times = measure_setup(w, args.seed, args.toy)

    record = {"workload": w.name, "settings": vars(w), "args": vars(args),
              "environment": env, "setup_s": setup_cpus,
              "setup_wall_s": setup_walls, "import_s": import_times}
    if args.trace:
        all_ops, traced, spans = traced_run(w, args.seed, reference)
        units = metric_units("per_layer")
        layers = [op["layers"] for op in traced if "layers" in op]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]} if layers else {}
        metrics["setup.import_s"] = statistics.median(import_times)
        t_ref = spans[0][1] if spans else 0.0
        record["spans"] = [(n, t0 - t_ref, t1 - t_ref, k) for n, t0, t1, k in spans]
    else:
        all_ops = plain_run(w, args.seed, args.seconds, reference)
        units = metric_units("end_to_end")
        op_s = [op["op_s"] for op in all_ops]
        metrics = {
            "setup_s": statistics.median(setup_cpus),
            "op_p50_s": statistics.median(op_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    record["ops"] = all_ops
    record["metrics"] = metrics
    result = result_line(all_ops, metrics, units) if set(units) <= set(metrics) \
        else {"correct": False, "attempted": len(all_ops),
              "failed": len(all_ops), "metrics": {}}

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("environment " + json.dumps(env))
    for op in all_ops:
        if op["problems"]:
            print(f"FAILED op {op['k']} ({op['label']}): " + "; ".join(op["problems"]))
    print(f"{w.name} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed (failed_frac "
          f"{result['failed'] / result['attempted']:.4g})")
    if not args.trace:
        if w.dt is not None:
            sim_ns_per_s = metrics["ops_per_s"] * w.t_end * 1e9
            print(f"  {'sim_ns_per_s':<28} {sim_ns_per_s:.6g} ns/s")
        wall = statistics.median(op["wall_s"] for op in all_ops)
        print(f"  {'op_p50_wall_s':<28} {wall:.6g} s (CPU time below)")
    elif "trace.op_s" in metrics:
        print(f"  stages cover {metrics['trace.stage_sum_s']:.4g} s of the "
              f"{metrics['trace.op_s']:.4g} s plain operation; tracing "
              f"overhead {metrics['trace.overhead_s']:.4g} s")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
