#!/usr/bin/env python3
"""Toy-size self-test of the benchmark itself (6x6 tiles, coarse step).

    python3 perfbench/selftest.py

1. Runs ``run.py --toy`` on every workload, plain and traced: exit code 0,
   no failed operation, and a last line that keeps the result contract
   (keys, and the metric names and units of BENCHMARK.json).
2. Checks that a sweep operation evaluates the config ``run_sweep`` builds
   for that point, with the same metrics.
3. Shows that the output check rejects perturbed results: a changed max
   PSN, a flipped byte of ir_map.csv, a KCL residual and a final transient
   voltage beyond their bounds.
4. Shows that ``run.py`` exits non-zero without a result line in a
   directory that holds only BENCHMARK.json and perfbench/.

Takes about a minute, most of it in the set-up processes.  Exits 0 when
every expectation holds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ("tran_cold", "dc_sweep", "warm_sweep")


def run_cli(cwd, runner, workload, trace):
    cmd = [sys.executable, str(runner), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def cli_runs(spec, failures):
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_cli(ROOT, HERE / "run.py", workload, trace)
            what = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{what}: no result line\n{proc.stderr}")
                continue
            units = {m["name"]: m["unit"] for m in spec[kind]}
            got = {n: m["unit"] for n, m in result.get("metrics", {}).items()}
            if proc.returncode != 0 or not result.get("correct"):
                failures.append(f"{what}: exit {proc.returncode}, {result}")
            if set(result) != RESULT_KEYS or got != units:
                failures.append(f"{what}: result line breaks the contract")
            if result.get("failed") != 0 or result.get("attempted", 0) < 1:
                failures.append(f"{what}: {result.get('failed')} of "
                                f"{result.get('attempted')} operations failed")
            print(f"{what}: exit {proc.returncode}, {result.get('attempted')} "
                  f"operations, {result.get('failed')} failed")


def sweep_equivalence(failures):
    from pdnsim.analysis import run_sweep
    from pdnsim.config import config_hash
    from workloads import evaluate_kwargs, run_op, scenario, workload

    for name in ("dc_sweep", "warm_sweep"):
        w = workload(name, toy=True)
        for k in range(w.min_ops):
            label, base, axis, value, cfg = scenario(w, 1, k)
            point = run_sweep(base, axis, [value], **evaluate_kwargs(w)).points[0]
            res, _ = run_op(w, cfg)
            psn = None if res.psn is None else res.psn.max_psn_mv
            same = (point.config_hash == config_hash(cfg)
                    and point.max_ir_drop_mv == res.ir_map.max_mv
                    and point.max_psn_mv == psn)
            print(f"{name} {label}: same as run_sweep: {same}")
            if not same:
                failures.append(f"{name} {label}: differs from run_sweep")


def perturbations(failures):
    from checks import check, summary
    from workloads import run_op, scenario, workload

    w = workload("tran_cold", toy=True)
    res, files = run_op(w, scenario(w, 1, 0)[-1])
    expected = summary(res, files)
    problems = check(res, files, expected)
    if problems:
        failures.append(f"unperturbed result rejected: {problems}")

    csv = files["ir_map.csv"]
    mid = len(csv) // 2
    flipped = dict(files, **{"ir_map.csv": csv[:mid] + chr(ord(csv[mid]) ^ 1) + csv[mid + 1:]})
    cases = {
        "max PSN + 0.001 mV": (dataclasses.replace(
            res, psn=dataclasses.replace(res.psn, max_psn_mv=res.psn.max_psn_mv + 1e-3)),
            files),
        "flipped ir_map.csv byte": (res, flipped),
        "KCL residual 1 mA": (dataclasses.replace(
            res, dc=dataclasses.replace(res.dc, kcl_residual=1e-3)), files),
        "final tile voltages + 1 mV": (dataclasses.replace(
            res, waveform=dataclasses.replace(
                res.waveform, tile_final=res.waveform.tile_final + 1e-3)), files),
    }
    for what, (r, f) in cases.items():
        problems = check(r, f, expected)
        print(f"perturbed ({what}): rejected: {problems}")
        if not problems:
            failures.append(f"perturbed result accepted: {what}")


def bare_checkout(failures):
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_cli(bare, bare / "perfbench" / "run.py", "dc_sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    has_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    print(f"without pdnsim source: exit {proc.returncode}, result line: {has_result}")
    if proc.returncode == 0 or has_result:
        failures.append("run.py succeeded without the pdnsim source")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    cli_runs(spec, failures)
    sweep_equivalence(failures)
    perturbations(failures)
    bare_checkout(failures)
    for f in failures:
        print("FAIL:", f)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
