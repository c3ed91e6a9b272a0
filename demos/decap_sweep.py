#!/usr/bin/env python3
"""On-chip decap density sweep for the chip-on-VRM 3-D stack.

Runs the warm-start load-step experiment (rail already energized, tile
loads switch on) at several on-chip decap densities and prints the max
supply noise at each point.  More decap flattens the per-tile L-C
resonance that the fast load edge excites, so the noise falls
monotonically with density.

Usage:
    python demos/decap_sweep.py [--densities 1,5,10,15] [--tiles N]
"""

import argparse
import dataclasses

import pdnsim
from pdnsim.analysis import DEFAULT_DT_S, run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--densities", default="1,5,10,15",
                    help="comma-separated decap densities [nF/mm^2]")
    ap.add_argument("--tiles", type=int, default=30,
                    help="chip tile grid per side (default 30)")
    ap.add_argument("--dt", type=float, default=DEFAULT_DT_S)
    ap.add_argument("--t-end", type=float, default=60e-9)
    args = ap.parse_args()

    values = [float(v) for v in args.densities.split(",")]
    cfg = pdnsim.benchmark_config("chip_on_vrm_3d", power_map_kind="uniform")
    chip = dataclasses.replace(cfg.chip, tile_count_x=args.tiles,
                               tile_count_y=args.tiles)
    cfg = pdnsim.validate_config(dataclasses.replace(
        cfg, chip=chip, power_map=pdnsim.builtin_power_map("uniform", chip)))

    sweep = run_sweep(cfg, "onchip_decap", values,
                      dt=args.dt, t_end=args.t_end)
    print(f"{'decap (nF/mm^2)':>16} {'max PSN (mV)':>13}")
    print("-" * 31)
    for p in sweep.points:
        if p.error:
            print(f"{p.value:>16g} {'error: ' + p.error}")
        else:
            print(f"{p.value:>16g} {p.max_psn_mv:>13.2f}")
    ok = [p.max_psn_mv for p in sweep.points if p.error is None]
    if len(ok) >= 2:
        print(f"\nendpoint ratio PSN(min)/PSN(max density): {ok[0] / ok[-1]:.2f}")


if __name__ == "__main__":
    main()
