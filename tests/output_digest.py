#!/usr/bin/env python3
"""Print one SHA-256 over the outputs of every benchmark evaluation.

A change that must keep every output byte prints the same digest before and
after.  The grid is the five benchmarks x {hotspot, uniform} power maps x
{cold, warm} starts, at 10x8 chip tiles, 25 ps steps and a 30 ns window.
Each evaluation adds its DC node voltages, source currents and KCL
residual, the per-tile transient minima and final values, the PSN metrics,
``ir_map.csv``, ``waveform.csv`` and the netlist text.  It takes about
15 s on one core.

Pytest does not collect this file.  Run it against a source tree with

    PYTHONPATH=src python tests/output_digest.py
"""

import dataclasses
import hashlib

import numpy as np

from pdnsim import (benchmark_config, builtin_power_map, evaluate,
                    netlist_to_text, waveform_to_csv)
from pdnsim.analysis import ir_map_to_csv
from pdnsim.config import BENCHMARK_NAMES, POWER_MAP_KINDS

TILES_X, TILES_Y = 10, 8
DT_S, T_END_S = 25e-12, 30e-9


def digest() -> str:
    h = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        for kind in POWER_MAP_KINDS:
            cfg = benchmark_config(name, kind)
            chip = dataclasses.replace(cfg.chip, tile_count_x=TILES_X, tile_count_y=TILES_Y)
            cfg = dataclasses.replace(cfg, chip=chip, power_map=builtin_power_map(kind, chip))
            for init in ("cold", "warm"):
                res = evaluate(cfg, dt=DT_S, t_end=T_END_S, init=init)
                wf = res.waveform
                h.update(f"{name} {kind} {init}\n".encode())
                for arr in (res.dc.voltages, res.dc.source_currents,
                            [res.dc.kcl_residual], wf.tile_min, wf.tile_final,
                            dataclasses.astuple(res.psn)):
                    h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
                for text in (ir_map_to_csv(res.ir_map), waveform_to_csv(wf),
                             netlist_to_text(res.netlist)):
                    h.update(text.encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
