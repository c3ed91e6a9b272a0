"""Calibration harness plumbing (the grid search itself runs for minutes
and is exercised through its CLI entry point with a stubbed search)."""

import pdnsim
from pdnsim.calibrate import (ANCHOR_3D_PSN_MV, ANCHOR_4V1_IMPROVEMENT,
                              ANCHOR_BACKSIDE_PSN_MV, DEFAULT_GRID, _with_knobs,
                              anchor_errors, grid_search)


def _mid_knobs():
    return {name: values[len(values) // 2] for name, values in DEFAULT_GRID.items()}


def test_default_grid_brackets_the_shipped_defaults():
    cfg = pdnsim.benchmark_config("on_package_4")
    shipped = {
        "vrm_series_resistance_mohm": cfg.vrm.series_resistance_mohm,
        "vrm_series_inductance_nh": cfg.vrm.series_inductance_nh,
        "package_segment_inductance_ph_per_square":
            cfg.package.segment_inductance_ph_per_square,
        "board_lumped_inductance_nh": cfg.board.lumped_inductance_nh,
    }
    for name, values in DEFAULT_GRID.items():
        assert min(values) <= shipped[name] <= max(values), name
        assert shipped[name] in values, name


def test_with_knobs_applies_every_knob():
    cfg = pdnsim.benchmark_config("backside")
    knobs = {
        "vrm_series_resistance_mohm": 0.02,
        "vrm_series_inductance_nh": 2e-5,
        "package_segment_inductance_ph_per_square": 0.24,
        "board_lumped_inductance_nh": 1000.0,
    }
    out = _with_knobs(cfg, knobs)
    assert out.vrm.series_resistance_mohm == 0.02
    assert out.vrm.series_inductance_nh == 2e-5
    assert out.package.segment_inductance_ph_per_square == 0.24
    assert out.board.lumped_inductance_nh == 1000.0


def test_grid_search_visits_every_combination(monkeypatch):
    import pdnsim.calibrate as cal

    calls = []

    def fake_anchor_errors(knobs, **kw):
        calls.append(dict(knobs))
        err = sum(abs(v) for v in knobs.values())
        return {"x": err}, {}

    monkeypatch.setattr(cal, "anchor_errors", fake_anchor_errors)
    grid = {"a": (1.0, 2.0), "b": (3.0, 4.0)}
    best, history = grid_search(grid=grid)
    assert len(history) == 4
    assert best["knobs"] == {"a": 1.0, "b": 3.0}


def test_anchor_errors_follow_from_four_evaluations(small_config):
    # toy resolution: 6 tiles per side, 0.25 ns step, 40 ns window
    knobs = _mid_knobs()
    errs, metrics = anchor_errors(knobs, tile_count=6, dt=0.25e-9, t_end=40e-9)
    names = ["on_package_1", "on_package_4", "backside", "chip_on_vrm_3d"]
    direct = {name: pdnsim.evaluate(_with_knobs(small_config(name, tiles=6), knobs),
                                    dt=0.25e-9, t_end=40e-9).psn.max_psn_mv
              for name in names}
    assert list(metrics) == names
    assert metrics == direct
    imp = (direct["on_package_1"] - direct["on_package_4"]) / direct["on_package_1"]
    assert errs == {
        "backside_psn": direct["backside"] / ANCHOR_BACKSIDE_PSN_MV - 1.0,
        "psn_3d": direct["chip_on_vrm_3d"] / ANCHOR_3D_PSN_MV - 1.0,
        "improvement_4v1": imp / ANCHOR_4V1_IMPROVEMENT - 1.0,
    }
