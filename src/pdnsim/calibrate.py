"""Calibration of the parasitics the source material leaves unspecified.

The regulator series R/L, the package loop inductance and the board lump
are not published anywhere; the shipped defaults come from this grid
search, which minimizes the squared relative error of the transient
anchors (backside max PSN, 3-D max PSN, and the 4-vs-1 on-package PSN
improvement) against their published values.  Keeping the procedure in the
tool makes the provenance of every default explicit and repeatable.
"""

from __future__ import annotations

import dataclasses
import itertools

from .analysis import DEFAULT_DT_S, evaluate
from .config import benchmark_config

# transient anchors (mV / fraction)
ANCHOR_BACKSIDE_PSN_MV = 82.64
ANCHOR_3D_PSN_MV = 58.8
ANCHOR_4V1_IMPROVEMENT = 0.2445

# the search's reduced resolution: chip tiles per side, and window
CAL_TILE_COUNT = 30
CAL_T_END_S = 150e-9

DEFAULT_GRID = {
    "vrm_series_resistance_mohm": (0.005, 0.01, 0.02),
    "vrm_series_inductance_nh": (0.5e-5, 1e-5, 2e-5),
    "package_segment_inductance_ph_per_square": (0.12, 0.18, 0.24),
    "board_lumped_inductance_nh": (200.0, 500.0, 1000.0),
}


def _with_knobs(cfg, knobs):
    """``cfg`` with each knob set; a knob is named ``<section>_<field>``,
    so ``vrm_series_resistance_mohm`` is ``vrm.series_resistance_mohm``."""
    for name, value in knobs.items():
        section, key = name.split("_", 1)
        spec = dataclasses.replace(getattr(cfg, section), **{key: value})
        cfg = dataclasses.replace(cfg, **{section: spec})
    return cfg


def anchor_errors(knobs, tile_count=CAL_TILE_COUNT, dt=DEFAULT_DT_S, t_end=CAL_T_END_S):
    """Relative errors of the three anchors for one knob combination, and
    the max PSN of each benchmark they come from.

    Runs at reduced resolution so a grid search stays desk-scale; the
    winner should be re-checked at full resolution.
    """
    # the tile counts are knobs too, set before the searched ones
    knobs = {"chip_tile_count_x": tile_count, "chip_tile_count_y": tile_count, **knobs}
    metrics = {}
    for name in ("on_package_1", "on_package_4", "backside", "chip_on_vrm_3d"):
        cfg = dataclasses.replace(benchmark_config(name), power_map=None)
        metrics[name] = evaluate(_with_knobs(cfg, knobs), dt=dt, t_end=t_end).psn.max_psn_mv
    psn_1 = metrics["on_package_1"]
    imp = (psn_1 - metrics["on_package_4"]) / psn_1
    return {
        "backside_psn": metrics["backside"] / ANCHOR_BACKSIDE_PSN_MV - 1.0,
        "psn_3d": metrics["chip_on_vrm_3d"] / ANCHOR_3D_PSN_MV - 1.0,
        "improvement_4v1": imp / ANCHOR_4V1_IMPROVEMENT - 1.0,
    }, metrics


def grid_search(tile_count=CAL_TILE_COUNT, dt=DEFAULT_DT_S, t_end=CAL_T_END_S, log=None):
    """Exhaustive search over ``DEFAULT_GRID``; returns (best knobs, history).
    The first combination with the least score wins."""
    history = []
    for combo in itertools.product(*DEFAULT_GRID.values()):
        knobs = dict(zip(DEFAULT_GRID, combo))
        errs, metrics = anchor_errors(knobs, tile_count=tile_count, dt=dt, t_end=t_end)
        score = sum(e * e for e in errs.values())
        history.append({"knobs": knobs, "errors": errs, "metrics": metrics, "score": score})
        if log is not None:
            log(f"score={score:.4f} knobs={knobs} metrics={metrics}")
    return min(history, key=lambda h: h["score"]), history
