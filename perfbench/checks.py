"""Output checks of one operation, and the default-seed reference values.

Every operation on every seed must pass two checks that need no dense
oracle: the DC solution's KCL residual, and the agreement of each chip
tile's final transient voltage with its DC voltage (the load is constant at
the end of every window, so the transient must settle onto the DC point).
On the default seed the operation's metrics and output-file hashes must
also match ``reference.json``, recorded from the full-size workloads.

Regenerate the reference (about two minutes) with::

    python3 perfbench/checks.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
KCL_BOUND_A = 1e-6        # load currents are 50 to 200 A
SETTLE_BOUND_MV = 0.5     # PSN is tens of mV; seen at most 0.04 mV
REL_TOL = 1e-9
REFERENCE_OPS = {"tran_cold": 2, "dc_sweep": 60, "warm_sweep": 6}


def settle_err_mv(res):
    """Max over tiles of |final transient voltage - DC voltage|, in mV."""
    tiles = np.asarray(res.netlist.meta["chip_tile_nodes"])
    return float(np.max(np.abs(res.waveform.tile_final - res.dc.voltages[tiles]))) * 1e3


def summary(res, files):
    """What the reference compares: headline metrics and file hashes."""
    out = {"max_ir_mv": res.ir_map.max_mv}
    if res.psn is not None:
        out.update(max_psn_mv=res.psn.max_psn_mv,
                   first_droop_mv=res.psn.first_droop_mv,
                   settling_mv=res.psn.settling_mv)
    if files:
        out["sha256"] = {name: hashlib.sha256(text.encode()).hexdigest()
                         for name, text in sorted(files.items())}
    return out


def check(res, files, expected=None):
    """Problems found with one operation's output; empty when it passes."""
    problems = []
    kcl = res.dc.kcl_residual
    if not kcl <= KCL_BOUND_A:
        problems.append(f"DC KCL residual {kcl:.3e} A exceeds {KCL_BOUND_A:.0e} A")
    if res.waveform is not None:
        err = settle_err_mv(res)
        if not err <= SETTLE_BOUND_MV:
            problems.append(f"transient final differs from DC by {err:.4g} mV "
                            f"(bound {SETTLE_BOUND_MV} mV)")
    if expected is not None:
        problems += compare(summary(res, files), expected)
    return problems


def compare(got, expected):
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if key == "sha256":
            for name, digest in want.items():
                if (have or {}).get(name) != digest:
                    problems.append(f"{name} differs from the reference")
        elif have is None or not math.isclose(have, want, rel_tol=REL_TOL):
            problems.append(f"{key} = {have!r}, reference {want!r}")
    return problems


def load_reference(workload_name):
    return json.loads(REFERENCE_PATH.read_text())[workload_name]


def write_reference():
    from workloads import DEFAULT_SEED, WORKLOADS, run_op, scenario

    ref = {}
    for name, n_ops in REFERENCE_OPS.items():
        w = WORKLOADS[name]
        ref[name] = {}
        for k in range(n_ops):
            label, *_, cfg = scenario(w, DEFAULT_SEED, k)
            res, files = run_op(w, cfg)
            problems = check(res, files)
            if problems:
                raise SystemExit(f"{name} {label}: {problems}")
            ref[name][label] = summary(res, files)
            print(name, label, ref[name][label], flush=True)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import argparse
    import sys

    ap = argparse.ArgumentParser(description="Write reference.json.")
    ap.add_argument("--write", action="store_true", required=True)
    ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write_reference()
