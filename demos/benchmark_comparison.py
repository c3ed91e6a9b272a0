#!/usr/bin/env python3
"""Compare the five VRM placements on one chip.

Runs DC IR-drop and the 0 -> 1 V power-up transient for each placement and
prints the metric table.  At the default coarse grid (30x30 tiles) the whole
run takes well under a minute; pass --tiles 50 for the full-resolution
numbers quoted in the README.

Usage:
    python demos/benchmark_comparison.py [--tiles N] [--dt S] [--t-end S]
"""

import argparse
import dataclasses
import time

import pdnsim
from pdnsim.analysis import DEFAULT_DT_S, DEFAULT_T_END_S
from pdnsim.config import BENCHMARK_NAMES


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiles", type=int, default=30,
                    help="chip tile grid per side (default 30)")
    ap.add_argument("--dt", type=float, default=DEFAULT_DT_S,
                    help="transient time step [s]")
    ap.add_argument("--t-end", type=float, default=DEFAULT_T_END_S,
                    help="transient window [s]")
    ap.add_argument("--no-transient", action="store_true",
                    help="DC metrics only")
    args = ap.parse_args()

    print(f"{'placement':<16} {'max IR (mV)':>12} {'max PSN (mV)':>13} "
          f"{'1st droop (mV)':>15} {'settle (mV)':>12}")
    print("-" * 72)
    t0 = time.perf_counter()
    for name in BENCHMARK_NAMES:
        cfg = pdnsim.benchmark_config(name)
        chip = dataclasses.replace(cfg.chip, tile_count_x=args.tiles,
                                   tile_count_y=args.tiles)
        cfg = pdnsim.validate_config(
            dataclasses.replace(cfg, chip=chip, power_map=None))
        res = pdnsim.evaluate(cfg, transient=not args.no_transient,
                              dt=args.dt, t_end=args.t_end)
        if res.psn is None:
            print(f"{name:<16} {res.ir_map.max_mv:>12.2f} {'-':>13} "
                  f"{'-':>15} {'-':>12}")
        else:
            print(f"{name:<16} {res.ir_map.max_mv:>12.2f} "
                  f"{res.psn.max_psn_mv:>13.2f} "
                  f"{res.psn.first_droop_mv:>15.2f} "
                  f"{res.psn.settling_mv:>12.2f}")
    print(f"\ntotal wall time: {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
