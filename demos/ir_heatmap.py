#!/usr/bin/env python3
"""Render the DC IR-drop map of one benchmark as CSV + SVG.

The default hotspot power map places two high-density blocks on the chip
diagonal; the heatmap shows the drop concentrating there and toward the
region farthest from the feed.

Usage:
    python demos/ir_heatmap.py [--benchmark on_package_4] [--out-dir .]
"""

import argparse
import os

import pdnsim
from pdnsim.analysis import ir_map_to_csv
from pdnsim.config import POWER_MAP_KINDS
from pdnsim.heatmap import heatmap_svg


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default="on_package_4",
                    help="on_package_{1,2,4} | backside | chip_on_vrm_3d")
    ap.add_argument("--power-map", choices=POWER_MAP_KINDS, default="hotspot")
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()

    cfg = pdnsim.benchmark_config(args.benchmark, power_map_kind=args.power_map)
    res = pdnsim.evaluate(cfg, transient=False)

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, f"ir_map_{args.benchmark}.csv")
    svg_path = os.path.join(args.out_dir, f"ir_map_{args.benchmark}.svg")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ir_map_to_csv(res.ir_map))
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(heatmap_svg(res.ir_map.drop_mv, title=f"IR drop ({args.benchmark})"))

    i, j = res.ir_map.argmax
    print(f"{args.benchmark}: max IR drop {res.ir_map.max_mv:.2f} mV at tile "
          f"({i}, {j}); mean {res.ir_map.mean_mv:.2f} mV")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
