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

from .analysis import DEFAULT_DT_S, compare_configurations
from .config import benchmark_config

# transient anchors (mV / fraction)
ANCHOR_BACKSIDE_PSN_MV = 82.64
ANCHOR_3D_PSN_MV = 58.8
ANCHOR_4V1_IMPROVEMENT = 0.2445

# reduced resolution of the search: chip tiles per side and window (the
# step is the default one)
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
    cfgs = []
    for name in ("on_package_1", "on_package_4", "backside", "chip_on_vrm_3d"):
        cfg = benchmark_config(name)
        chip = dataclasses.replace(cfg.chip, tile_count_x=tile_count,
                                   tile_count_y=tile_count)
        cfgs.append(_with_knobs(dataclasses.replace(cfg, chip=chip, power_map=None), knobs))
    # rows are labelled by benchmark name; the 4-vs-1 improvement is row 1's
    rows = compare_configurations(cfgs, dt=dt, t_end=t_end).rows
    metrics = {r.label: r.max_psn_mv for r in rows}
    imp = rows[1].psn_improvement
    return {
        "backside_psn": metrics["backside"] / ANCHOR_BACKSIDE_PSN_MV - 1.0,
        "psn_3d": metrics["chip_on_vrm_3d"] / ANCHOR_3D_PSN_MV - 1.0,
        "improvement_4v1": imp / ANCHOR_4V1_IMPROVEMENT - 1.0,
    }, metrics


def grid_search(grid=None, tile_count=CAL_TILE_COUNT, dt=DEFAULT_DT_S, t_end=CAL_T_END_S,
                log=None):
    """Exhaustive search over the knob grid; returns (best knobs, history)."""
    grid = dict(DEFAULT_GRID if grid is None else grid)
    names = list(grid)
    best = None
    history = []
    for combo in itertools.product(*(grid[n] for n in names)):
        knobs = dict(zip(names, combo))
        errs, metrics = anchor_errors(knobs, tile_count=tile_count, dt=dt, t_end=t_end)
        score = sum(e * e for e in errs.values())
        history.append({"knobs": knobs, "errors": errs, "metrics": metrics,
                        "score": score})
        if log is not None:
            log(f"score={score:.4f} knobs={knobs} metrics={metrics}")
        if best is None or score < best["score"]:
            best = history[-1]
    return best, history
